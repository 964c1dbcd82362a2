"""Bit-exact binary checkpoint container.

Layout: magic bytes ``CUTCKPT1``, a 4-byte little-endian length, a JSON
header (table roles/shapes, hyperparameters, optimizer step count, an
optional transform section), then each table as row-major 32-bit
little-endian floats in header order, then transform weight and bias if
present.

What the tables are depends on the header's ``model_kind``: a ``single``
(phase-one) checkpoint holds ``user-target-phase1`` and ``item-target``;
a ``frozen-user-table`` checkpoint holds ``user-target-phase1`` alone; a
``cut`` (phase-two) checkpoint holds ``user``, one row per user of both
domains in dataset order (target-only, overlap, source-only), then
``item-target`` and ``item-source``, plus the transform unless it was
ablated. The header does not record where the source users start in
``user``: the user counts of the splits the model is loaded with fix it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import write_atomic
from .embeddings import EmbeddingTable
from .errors import CheckpointError
from .transform import TransformLayer

MAGIC = b"CUTCKPT1"
VERSION = 1
_F4 = np.dtype("<f4")


@dataclass
class Checkpoint:
    tables: list[EmbeddingTable]
    hyper: dict
    step: int
    transform: TransformLayer | None = None

    def table(self, role: str, rows: int | None = None) -> EmbeddingTable:
        """The table with ``role``, refused unless it has ``rows`` rows."""
        for tbl in self.tables:
            if tbl.role == role:
                if rows is not None and tbl.rows != rows:
                    raise CheckpointError(
                        f"checkpoint table {role!r} has {tbl.rows} rows, "
                        f"the dataset needs {rows}")
                return tbl
        present = ", ".join(repr(tbl.role) for tbl in self.tables)
        raise CheckpointError(f"checkpoint has no table with role {role!r} "
                              f"(it holds {present or 'no tables'})")


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    header = {
        "version": VERSION,
        "step": int(ckpt.step),
        "hyper": ckpt.hyper,
        "tables": [{"role": t.role, "rows": t.rows, "dim": t.dim}
                   for t in ckpt.tables],
        "transform": ({"dim": ckpt.transform.dim}
                      if ckpt.transform is not None else None),
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    arrays = [tbl.values for tbl in ckpt.tables]
    if ckpt.transform is not None:
        arrays += [ckpt.transform.weight, ckpt.transform.bias]
    return write_atomic(path, b"".join(
        [MAGIC, struct.pack("<I", len(blob)), blob]
        + [np.ascontiguousarray(a, dtype=_F4).tobytes() for a in arrays]))


def _read_exact(handle, count: int, path, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
    return data


def _finite(values: np.ndarray, path, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: {what} holds non-finite values")
    return values


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a table or transform with a NaN or an infinity
    is refused."""
    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file "
                                  f"(bad magic {magic!r})")
        (length,) = struct.unpack("<I", _read_exact(handle, 4, path, "header length"))
        header = json.loads(_read_exact(handle, length, path, "header"))
        version = header.get("version")
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version!r} "
                f"(expected {VERSION})")
        tables = []
        for spec in header["tables"]:
            rows, dim = int(spec["rows"]), int(spec["dim"])
            raw = _read_exact(handle, rows * dim * 4, path,
                              f"table {spec['role']!r}")
            values = np.frombuffer(raw, dtype=_F4).reshape(rows, dim).copy()
            tables.append(EmbeddingTable(spec["role"], _finite(
                values, path, f"table {spec['role']!r}")))
        transform = None
        if header.get("transform") is not None:
            dim = int(header["transform"]["dim"])
            w_raw = _read_exact(handle, dim * dim * 4, path, "transform weight")
            b_raw = _read_exact(handle, dim * 4, path, "transform bias")
            transform = TransformLayer(
                _finite(np.frombuffer(w_raw, dtype=_F4).reshape(dim, dim),
                        path, "transform weight").copy(),
                _finite(np.frombuffer(b_raw, dtype=_F4), path,
                        "transform bias").copy())
    return Checkpoint(tables, header["hyper"], int(header["step"]), transform)
