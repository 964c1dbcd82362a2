"""Dense embedding tables with role tags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import TrainingDivergedError

ROLE_USER_TARGET_PHASE1 = "user-target-phase1"
ROLE_USER = "user"
ROLE_ITEM_TARGET = "item-target"
ROLE_ITEM_SOURCE = "item-source"


@dataclass
class EmbeddingTable:
    role: str
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("embedding values must be a 2-D matrix")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def assert_finite(params: Mapping[str, np.ndarray], context: str = "") -> None:
    """Raise ``TrainingDivergedError`` naming the first parameter that
    holds a NaN or an infinity."""
    for name, values in params.items():
        if not np.all(np.isfinite(values)):
            where = f" ({context})" if context else ""
            raise TrainingDivergedError(
                f"non-finite values in parameter {name!r}{where}")


def init_embeddings(rows: int, dim: int, seed, *, role: str = "user",
                    dtype=np.float32) -> EmbeddingTable:
    """Gaussian-initialised table: entries i.i.d. normal(0, 0.1)."""
    if rows <= 0 or dim <= 0:
        raise ValueError("rows and dim must be positive")
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.1, size=(rows, dim)).astype(dtype)
    return EmbeddingTable(role, values)
