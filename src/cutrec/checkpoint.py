"""Bit-exact checkpoint files.

A checkpoint is a ``corpus.write_arrays`` file, an uncompressed ``.npz``:
a JSON header ``{"version": 2, "step": ..., "hyper": {...}}``, then the
model's ``params()`` in their order, one float32 little-endian member
each, under the parameter's name (see ``embeddings``).
``np.load(path, allow_pickle=False)`` opens it.

What the members are depends on ``hyper["model_kind"]``: a ``single``
(phase-one) checkpoint holds ``user-target-phase1`` and ``item-target``;
a ``cut`` (phase-two) checkpoint holds ``user``, one row per user of both
domains in dataset order (target-only, overlap, source-only), then
``item-target`` and ``item-source``, then ``transform-weight`` and
``transform-bias`` unless the transform was ablated. Nothing records
where the source users start in ``user``: the user counts of the splits
the model is loaded with fix it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import TrainingConfig
from .corpus import read_arrays, write_arrays
from .embeddings import TRANSFORM_BIAS, TRANSFORM_WEIGHT
from .errors import CheckpointError, ConfigError

VERSION = 2
_F4 = np.dtype("<f4")
_TRANSFORM = (TRANSFORM_WEIGHT, TRANSFORM_BIAS)
# Retired training options that older files record, each with the one
# value this code still implements.
_RETIRED = {"transform_init": "identity", "normalized_contrastive": False,
            "weight_decay": 0.0, "loss_kind": "bce", "no_contrastive": False}


@dataclass
class Checkpoint:
    arrays: dict[str, np.ndarray]
    hyper: dict
    step: int

    def take(self, rows: Mapping[str, int | None]) -> dict[str, np.ndarray]:
        """The members named in ``rows``, in its order, as a model's
        params. Each must exist and have the rows ``rows`` gives it (None:
        any), and all must share one embedding width, the recorded
        ``embedding_dim`` if any: every table's columns, both sides of the
        transform weight and the bias length."""
        out = {}
        for name, n_rows in rows.items():
            if name not in self.arrays:
                present = ", ".join(map(repr, self.arrays))
                raise CheckpointError(f"checkpoint has no member {name!r} "
                                      f"(it holds {present or 'nothing'})")
            values = out[name] = self.arrays[name]
            if n_rows is not None and len(values) != n_rows:
                raise CheckpointError(
                    f"checkpoint table {name!r} has {len(values)} rows, "
                    f"the dataset needs {n_rows}")
        widths = {n for name, values in out.items() for n in (
            values.shape if name in _TRANSFORM else values.shape[1:])}
        shapes = [f"{name} {values.shape}" for name, values in out.items()]
        if "training" in self.hyper:
            dim = self.training_config().embedding_dim
            widths.add(dim)
            shapes.append(f"embedding_dim {dim}")
        if len(widths) > 1:
            raise CheckpointError(f"checkpoint members differ in embedding "
                                  f"width ({', '.join(shapes)})")
        return out

    def training_config(self) -> TrainingConfig:
        """The saved training config, or a ``CheckpointError``. A retired
        key is dropped at the one value this code implements: of the same
        type, or for a number, an int or float of equal value. A recorded
        ``no_contrastive`` true is read as ``contrastive_weight`` 0."""
        try:
            saved = self.hyper["training"]
            if isinstance(saved, dict):
                if saved.get("no_contrastive") is True:
                    saved = dict(saved, no_contrastive=False,
                                 contrastive_weight=0.0)
                for key, value in _RETIRED.items():
                    got = saved.get(key, value)
                    kinds = ((int, float) if type(value) is float
                             else (type(value),))
                    if type(got) not in kinds or got != value:
                        raise CheckpointError(
                            f"checkpoint training config sets retired key "
                            f"{key!r} to {got!r}, not {value!r}")
                saved = {k: v for k, v in saved.items() if k not in _RETIRED}
            return TrainingConfig.from_dict(saved)
        except (KeyError, ConfigError) as err:
            raise CheckpointError(
                f"checkpoint has no valid training config ({err})") from None


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    header = {"version": VERSION, "step": int(ckpt.step), "hyper": ckpt.hyper}
    return write_arrays(path, header, {
        name: np.ascontiguousarray(values, dtype=_F4)
        for name, values in ckpt.arrays.items()})


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
        ndim = 1 if name == TRANSFORM_BIAS else 2
        if values.dtype != _F4 or values.ndim != ndim:
            raise CheckpointError(f"{path}: {what} is not a {ndim}-D float32 "
                                  f"array")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: {what} holds non-finite values")
    return Checkpoint(arrays, header["hyper"], step)
