"""Parameter names, Gaussian init and the finiteness check.

A model keeps its parameters in one dict of named arrays, and the names
are its checkpoint's member names. A phase-one model holds the 2-D tables
``user-target-phase1`` and ``item-target``; a phase-two model holds
``user``, ``item-target`` and ``item-source``, then the transformation
layer ``x -> W x + b`` as the square ``transform-weight`` and the 1-D
``transform-bias``, unless the transform is ablated. A table has one row
per user or item and one column per embedding dimension.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import TrainingDivergedError

ROLE_USER_TARGET_PHASE1 = "user-target-phase1"
ROLE_USER = "user"
ROLE_ITEM_TARGET = "item-target"
ROLE_ITEM_SOURCE = "item-source"
TRANSFORM_WEIGHT = "transform-weight"
TRANSFORM_BIAS = "transform-bias"


def assert_finite(params: Mapping[str, np.ndarray], context: str = "") -> None:
    """Raise ``TrainingDivergedError`` naming the first parameter that
    holds a NaN or an infinity."""
    for name, values in params.items():
        if not np.all(np.isfinite(values)):
            where = f" ({context})" if context else ""
            raise TrainingDivergedError(
                f"non-finite values in parameter {name!r}{where}")


def init_embeddings(rows: int, dim: int, seed,
                    dtype=np.float32) -> np.ndarray:
    """Gaussian-initialised table: entries i.i.d. normal(0, 0.1)."""
    if rows <= 0 or dim <= 0:
        raise ValueError("rows and dim must be positive")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.1, size=(rows, dim)).astype(dtype)
