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

    def table(self, role: str) -> EmbeddingTable:
        for tbl in self.tables:
            if tbl.role == role:
                return tbl
        present = ", ".join(repr(tbl.role) for tbl in self.tables)
        raise CheckpointError(f"checkpoint has no table with role {role!r} "
                              f"(it holds {present or 'no tables'})")


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    path = Path(path)
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
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        for tbl in ckpt.tables:
            handle.write(np.ascontiguousarray(tbl.values,
                                              dtype=_F4).tobytes())
        if ckpt.transform is not None:
            handle.write(np.ascontiguousarray(ckpt.transform.weight,
                                              dtype=_F4).tobytes())
            handle.write(np.ascontiguousarray(ckpt.transform.bias,
                                              dtype=_F4).tobytes())
    return path


def _read_exact(handle, count: int, path, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path) -> Checkpoint:
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
            tables.append(EmbeddingTable(spec["role"], values))
        transform = None
        if header.get("transform") is not None:
            dim = int(header["transform"]["dim"])
            w_raw = _read_exact(handle, dim * dim * 4, path, "transform weight")
            b_raw = _read_exact(handle, dim * 4, path, "transform bias")
            transform = TransformLayer(
                np.frombuffer(w_raw, dtype=_F4).reshape(dim, dim).copy(),
                np.frombuffer(b_raw, dtype=_F4).copy())
    return Checkpoint(tables, header["hyper"], int(header["step"]), transform)
