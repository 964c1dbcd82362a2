import zipfile

import numpy as np
import pytest

from cutrec.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cutrec.errors import CheckpointError

from helpers import rewrite_arrays


def make_checkpoint(seed=0, with_transform=True):
    rng = np.random.default_rng(seed)
    shapes = {"user-target-phase1": (5, 4), "item-target": (7, 4)}
    if with_transform:
        shapes.update({"transform-weight": (4, 4), "transform-bias": (4,)})
    arrays = {name: rng.normal(size=shape).astype(np.float32)
              for name, shape in shapes.items()}
    return Checkpoint(arrays, {"model_kind": "single", "gamma": 0.9}, 42)


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = make_checkpoint()
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.step == 42
    assert loaded.hyper == ckpt.hyper
    assert list(loaded.arrays) == list(ckpt.arrays)
    for name, values in ckpt.arrays.items():
        assert np.array_equal(loaded.arrays[name], values)
        assert loaded.arrays[name].dtype == np.float32

    # Saving the loaded checkpoint reproduces identical bytes, and no
    # member bears the time it was written.
    second = tmp_path / "again.ckpt"
    save_checkpoint(second, loaded)
    assert path.read_bytes() == second.read_bytes()
    with zipfile.ZipFile(path) as archive:
        assert {info.date_time for info in archive.infolist()} == {
            (1980, 1, 1, 0, 0, 0)}


def test_round_trip_without_transform(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_checkpoint(with_transform=False))
    loaded = load_checkpoint(path)
    assert list(loaded.arrays) == ["user-target-phase1", "item-target"]
    save_checkpoint(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_numpy_opens_checkpoint_without_pickle(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt = make_checkpoint()
    save_checkpoint(path, ckpt)
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["header", "user-target-phase1", "item-target",
                             "transform-weight", "transform-bias"]
        assert npz["item-target"].dtype == np.dtype("<f4")
        assert np.array_equal(npz["transform-bias"],
                              ckpt.arrays["transform-bias"])


def test_float64_tables_stored_as_float32(tmp_path):
    table = {"item-target": np.full((1, 2), 1.0 / 3.0)}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Checkpoint(table, {}, 0))
    loaded = load_checkpoint(path).arrays["item-target"]
    assert loaded.dtype == np.float32
    np.testing.assert_allclose(loaded, 1.0 / 3.0, rtol=1e-6)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTCKPT0" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="not a readable array file"):
        load_checkpoint(path)


def test_version_mismatch_explicit_error(tmp_path):
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, make_checkpoint())
    rewrite_arrays(path, lambda header, arrays: header.update(version=99))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_checkpoint())
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CheckpointError, match="not a readable array file"):
        load_checkpoint(path)


def test_lost_directory_entries_rejected(tmp_path):
    # A flipped bit in a zip directory entry's comment length makes
    # zipfile read the entries after it as that comment and stop without
    # an error; the end record still counts every entry.
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_checkpoint())
    data = bytearray(path.read_bytes())
    data[data.index(b"PK\x01\x02") + 33] ^= 0x40  # comment length 16384
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=f"{path}.*lost entries"):
        load_checkpoint(path)


def test_changed_array_header_rejected(tmp_path):
    # A smaller shape in a member's .npy header leaves most of the member
    # unread; the zip CRC must still cover all of it.
    path = tmp_path / "m.ckpt"
    table = {"item-target": np.ones((4000, 4), np.float32)}
    save_checkpoint(path, Checkpoint(table, {}, 0))
    data = path.read_bytes()
    assert data.count(b"(4000, 4)") == 1
    path.write_bytes(data.replace(b"(4000, 4)", b"(1000, 4)"))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_take_members_by_name():
    ckpt = make_checkpoint()
    taken = ckpt.take({"item-target": 7, "transform-bias": None})
    assert list(taken) == ["item-target", "transform-bias"]
    assert taken["item-target"] is ckpt.arrays["item-target"]
    with pytest.raises(CheckpointError,
                       match="'user'.*'user-target-phase1', 'item-target'"):
        ckpt.take({"user": None})
    with pytest.raises(CheckpointError, match="has 7 rows, the dataset "
                                              "needs 6"):
        ckpt.take({"item-target": 6})


@pytest.mark.parametrize("name, shape", [
    ("item-target", (7, 3)), ("transform-weight", (4, 3)),
    ("transform-weight", (3, 4)), ("transform-bias", (3,))])
def test_take_refuses_members_of_another_width(name, shape):
    ckpt = make_checkpoint()
    ckpt.arrays[name] = np.zeros(shape, np.float32)
    with pytest.raises(CheckpointError,
                       match="differ in embedding width") as err:
        ckpt.take(dict.fromkeys(ckpt.arrays))
    assert f"{name} {shape}" in str(err.value)
    others = [other for other in ckpt.arrays if other != name]
    assert list(ckpt.take(dict.fromkeys(others))) == others
