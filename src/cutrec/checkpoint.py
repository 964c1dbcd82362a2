"""Bit-exact checkpoint files.

A checkpoint is a ``corpus.write_arrays`` file, an uncompressed ``.npz``:
a JSON header ``{"version": 2, "step": ..., "hyper": {...}}``, then one
2-D float32 little-endian member per table, named by its role, in table
order, then ``transform-weight`` and ``transform-bias`` when the model
has a transform. ``np.load(path, allow_pickle=False)`` opens it.

What the tables are depends on ``hyper["model_kind"]``: a ``single``
(phase-one) checkpoint holds ``user-target-phase1`` and ``item-target``;
a ``cut`` (phase-two) checkpoint holds ``user``, one row per user of both
domains in dataset order (target-only, overlap, source-only), then
``item-target`` and ``item-source``, plus the transform unless it was
ablated. Nothing records where the source users start in ``user``: the
user counts of the splits the model is loaded with fix it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TrainingConfig
from .corpus import read_arrays, write_arrays
from .embeddings import EmbeddingTable
from .errors import CheckpointError, ConfigError
from .transform import TransformLayer

VERSION = 2
_F4 = np.dtype("<f4")
_TRANSFORM = ("transform-weight", "transform-bias")
# Retired training options that older files record, each with the one
# value this code still implements.
_RETIRED = {"transform_init": "identity", "normalized_contrastive": False}


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

    def training_config(self) -> TrainingConfig:
        """The saved training config, or a ``CheckpointError``. A retired
        key is dropped at the one value this code implements."""
        try:
            saved = self.hyper["training"]
            if isinstance(saved, dict):
                for key, value in _RETIRED.items():
                    got = saved.get(key, value)
                    if got != value or type(got) is not type(value):
                        raise CheckpointError(
                            f"checkpoint training config sets retired key "
                            f"{key!r} to {got!r}, not {value!r}")
                saved = {k: v for k, v in saved.items() if k not in _RETIRED}
            return TrainingConfig.from_dict(saved)
        except (KeyError, ConfigError) as err:
            raise CheckpointError(
                f"checkpoint has no valid training config ({err})") from None


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    arrays = {tbl.role: tbl.values for tbl in ckpt.tables}
    if ckpt.transform is not None:
        arrays.update(zip(_TRANSFORM, (ckpt.transform.weight,
                                       ckpt.transform.bias)))
    header = {"version": VERSION, "step": int(ckpt.step), "hyper": ckpt.hyper}
    return write_arrays(path, header, {
        name: np.ascontiguousarray(values, dtype=_F4)
        for name, values in arrays.items()})


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint: anything but a version-2 file of finite float32
    members is a ``CheckpointError`` naming the file."""
    path = Path(path)
    try:
        header, arrays = read_arrays(path)
    except ValueError as err:
        raise CheckpointError(str(err)) from None
    if header.get("version") != VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version "
            f"{header.get('version')!r} (expected {VERSION})")
    step = header.get("step")
    if type(step) is not int or not isinstance(header.get("hyper"), dict):
        raise CheckpointError(f"{path}: checkpoint header needs an integer "
                              f"'step' and a 'hyper' object")
    for name, values in arrays.items():
        what = (name.replace("-", " ") if name in _TRANSFORM
                else f"table {name!r}")
        ndim = 1 if name == "transform-bias" else 2
        if values.dtype != _F4 or values.ndim != ndim:
            raise CheckpointError(f"{path}: {what} is not a {ndim}-D float32 "
                                  f"array")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: {what} holds non-finite values")
    transform = None
    if set(_TRANSFORM) & arrays.keys():
        try:
            transform = TransformLayer(*map(arrays.pop, _TRANSFORM))
        except (KeyError, ValueError) as err:
            raise CheckpointError(f"{path}: bad transform ({err})") from None
    tables = [EmbeddingTable(role, values) for role, values in arrays.items()]
    return Checkpoint(tables, header["hyper"], step, transform)
