import zipfile

import numpy as np
import pytest

from cutrec.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cutrec.embeddings import EmbeddingTable
from cutrec.errors import CheckpointError
from cutrec.transform import TransformLayer

from helpers import rewrite_arrays


def make_checkpoint(seed=0, with_transform=True):
    rng = np.random.default_rng(seed)
    tables = [
        EmbeddingTable("user-target-phase1",
                       rng.normal(size=(5, 4)).astype(np.float32)),
        EmbeddingTable("item-target",
                       rng.normal(size=(7, 4)).astype(np.float32)),
    ]
    transform = None
    if with_transform:
        transform = TransformLayer(
            rng.normal(size=(4, 4)).astype(np.float32),
            rng.normal(size=4).astype(np.float32))
    return Checkpoint(tables, {"model_kind": "single", "gamma": 0.9}, 42,
                      transform)


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = make_checkpoint()
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.step == 42
    assert loaded.hyper == ckpt.hyper
    for orig, back in zip(ckpt.tables, loaded.tables):
        assert back.role == orig.role
        assert np.array_equal(back.values, orig.values)
        assert back.values.dtype == np.float32
    assert np.array_equal(loaded.transform.weight, ckpt.transform.weight)
    assert np.array_equal(loaded.transform.bias, ckpt.transform.bias)

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
    assert loaded.transform is None
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
        assert np.array_equal(npz["transform-bias"], ckpt.transform.bias)


def test_float64_tables_stored_as_float32(tmp_path):
    table = EmbeddingTable("item-target", np.full((1, 2), 1.0 / 3.0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Checkpoint([table], {}, 0))
    loaded = load_checkpoint(path)
    assert loaded.tables[0].values.dtype == np.float32
    np.testing.assert_allclose(loaded.tables[0].values, 1.0 / 3.0, rtol=1e-6)


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
    table = EmbeddingTable("item-target", np.ones((4000, 4), np.float32))
    save_checkpoint(path, Checkpoint([table], {}, 0))
    data = path.read_bytes()
    assert data.count(b"(4000, 4)") == 1
    path.write_bytes(data.replace(b"(4000, 4)", b"(1000, 4)"))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_table_lookup_by_role(tmp_path):
    ckpt = make_checkpoint()
    assert ckpt.table("item-target").rows == 7
    with pytest.raises(CheckpointError,
                       match="'user'.*'user-target-phase1', 'item-target'"):
        ckpt.table("user")
