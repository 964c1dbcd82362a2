"""Affine user-representation transformation layer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TransformLayer:
    weight: np.ndarray  # (dim, dim)
    bias: np.ndarray    # (dim,)

    def __post_init__(self):
        dim = self.bias.shape[0]
        if self.weight.shape != (dim, dim):
            raise ValueError("weight must be square and match bias dimension")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Row-wise affine map: each row u becomes W @ u + b."""
        return x @ self.weight.T + self.bias

    @classmethod
    def identity(cls, dim: int, dtype=np.float32) -> "TransformLayer":
        return cls(np.eye(dim, dtype=dtype), np.zeros(dim, dtype=dtype))
