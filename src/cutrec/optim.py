"""Adam with lazy per-row updates for embedding tables.

Weight decay is applied as a coupled L2 term added to the gradient before
the moment update, and only on rows that received gradient in the step.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import TrainingDivergedError

SparseGrad = tuple[np.ndarray | None, np.ndarray]


class GradBuffer:
    """Accumulates one training step's gradients per named parameter.

    Embedding tables use row-indexed accumulation; full-parameter
    gradients (the transform layer) use ``add_dense``. Accumulation is in
    float64 regardless of parameter dtype.
    """

    def __init__(self, params: Mapping[str, np.ndarray]):
        self._params = dict(params)
        self._dense: dict[str, np.ndarray] = {}
        self._touched: dict[str, np.ndarray] = {}
        self._full: set[str] = set()

    def _buffer(self, name: str) -> np.ndarray:
        if name not in self._dense:
            param = self._params[name]
            self._dense[name] = np.zeros(param.shape, dtype=np.float64)
            self._touched[name] = np.zeros(param.shape[0], dtype=bool)
        return self._dense[name]

    def add_rows(self, name: str, rows: np.ndarray, values: np.ndarray) -> None:
        if name in self._full:
            raise ValueError(f"parameter {name!r} already has a dense gradient")
        buf = self._buffer(name)
        np.add.at(buf, rows, values)
        self._touched[name][rows] = True

    def add_dense(self, name: str, values: np.ndarray) -> None:
        buf = self._buffer(name)
        buf += values
        self._full.add(name)

    def grads(self) -> dict[str, SparseGrad]:
        out: dict[str, SparseGrad] = {}
        for name, buf in self._dense.items():
            if name in self._full:
                out[name] = (None, buf)
            else:
                rows = np.flatnonzero(self._touched[name])
                out[name] = (rows, buf[rows])
        return out


class Adam:
    def __init__(self, params: Mapping[str, np.ndarray], *, lr: float = 0.001,
                 weight_decay: float = 0.0, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {k: np.zeros(v.shape, dtype=np.float64)
                   for k, v in self.params.items()}
        self._v = {k: np.zeros(v.shape, dtype=np.float64)
                   for k, v in self.params.items()}

    def step(self, grads: Mapping[str, SparseGrad]) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, (rows, grad) in grads.items():
            if name not in self.params:
                raise KeyError(f"unknown parameter {name!r}")
            if not np.all(np.isfinite(grad)):
                raise TrainingDivergedError(
                    f"non-finite gradient for parameter {name!r} at step {t}")
            param = self.params[name]
            m, v = self._m[name], self._v[name]
            if rows is None:
                g = grad + self.weight_decay * param
                m[...] = self.beta1 * m + (1.0 - self.beta1) * g
                v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
                param -= (self.lr * (m / bias1)
                          / (np.sqrt(v / bias2) + self.eps)).astype(param.dtype)
            else:
                if rows.size == 0:
                    continue
                theta = param[rows]
                g = grad + self.weight_decay * theta
                m_rows = self.beta1 * m[rows] + (1.0 - self.beta1) * g
                v_rows = self.beta2 * v[rows] + (1.0 - self.beta2) * g * g
                m[rows] = m_rows
                v[rows] = v_rows
                param[rows] = theta - (self.lr * (m_rows / bias1)
                                       / (np.sqrt(v_rows / bias2) + self.eps)
                                       ).astype(param.dtype)
