import struct

import numpy as np
import pytest

from cutrec.checkpoint import (MAGIC, Checkpoint, load_checkpoint,
                               save_checkpoint)
from cutrec.embeddings import EmbeddingTable
from cutrec.errors import CheckpointError
from cutrec.transform import TransformLayer


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

    # Saving the loaded checkpoint reproduces identical bytes.
    second = tmp_path / "again.ckpt"
    save_checkpoint(second, loaded)
    assert path.read_bytes() == second.read_bytes()


def test_round_trip_without_transform(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_checkpoint(with_transform=False))
    assert load_checkpoint(path).transform is None


def test_magic_bytes_lead_the_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_checkpoint())
    assert path.read_bytes()[:8] == MAGIC == b"CUTCKPT1"


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
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_explicit_error(tmp_path):
    path = tmp_path / "old.ckpt"
    header = b'{"tables":[],"version":99}'
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_checkpoint())
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_table_lookup_by_role(tmp_path):
    ckpt = make_checkpoint()
    assert ckpt.table("item-target").rows == 7
    with pytest.raises(CheckpointError,
                       match="'user'.*'user-target-phase1', 'item-target'"):
        ckpt.table("user")
