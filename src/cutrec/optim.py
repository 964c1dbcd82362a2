"""Adam with lazy per-row updates for embedding tables.

Weight decay is applied as a coupled L2 term added to the gradient before
the moment update, and only on rows that received gradient in the step.
Moments follow the parameter dtype; gradients merge by a sparse product.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .errors import TrainingDivergedError

SparseGrad = tuple[np.ndarray | None, np.ndarray]


def scatter_rows(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """``np.add.at`` of ``values`` rows into ``n_rows`` float64 zero rows,
    adding in the same order, as one sparse product: the transposed
    one-hot matrix keeps each output row's entries in input order."""
    n = index.size
    onehot = sp.csr_matrix((np.ones(n), index, np.arange(n + 1)),
                           shape=(n, n_rows))
    return onehot.T.tocsr() @ values


class GradBuffer:
    """Accumulates one training step's gradients per named parameter.

    Embedding tables use row-indexed accumulation; full-parameter
    gradients (the transform layer) use ``add_dense``. Accumulation is in
    float64, row parts merged by one sparse product; ``Adam`` casts to the
    parameter dtype, which its moments share. ``add_rows`` keeps its arrays,
    uncopied, until ``grads`` merges them over their distinct rows and
    empties the buffer, so that they are freed before the optimizer step.
    """

    def __init__(self, params: Mapping[str, np.ndarray]):
        self._params = dict(params)
        self._parts: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._dense: dict[str, np.ndarray] = {}

    def add_rows(self, name: str, rows: np.ndarray, values: np.ndarray) -> None:
        if name in self._dense:
            raise ValueError(f"parameter {name!r} already has a dense gradient")
        self._parts.setdefault(name, []).append((rows, values))

    def add_dense(self, name: str, values: np.ndarray) -> None:
        if name in self._parts:
            raise ValueError(f"parameter {name!r} already has row gradients")
        self._dense.setdefault(name, np.zeros(self._params[name].shape))
        self._dense[name] += values

    def grads(self) -> dict[str, SparseGrad]:
        out: dict[str, SparseGrad] = {}
        for name, parts in self._parts.items():
            rows, inverse = np.unique(np.concatenate([r for r, _ in parts]),
                                      return_inverse=True)
            out[name] = (rows, scatter_rows(
                inverse, np.concatenate([v for _, v in parts]), rows.size))
        for name, buf in self._dense.items():
            out[name] = (None, buf)
        self._parts, self._dense = {}, {}
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
        self._m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._v = {k: np.zeros_like(v) for k, v in self.params.items()}

    def step(self, grads: Mapping[str, SparseGrad]) -> None:
        """``grads`` maps a parameter to ``(rows, grad)``: ``rows`` sorted
        and distinct, as ``GradBuffer.grads`` returns them, or None for a
        gradient of the whole parameter."""
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, (rows, grad) in grads.items():
            if name not in self.params:
                raise KeyError(f"unknown parameter {name!r}")
            param = self.params[name]
            # Checked after the cast, which can overflow a finite gradient.
            # Below the limit g * g, and so v / bias2 (a bias-corrected
            # average of g * g), stays finite; NaN fails the comparison.
            with np.errstate(over="ignore"):
                grad = grad.astype(param.dtype, copy=False)
            limit = np.sqrt(np.finfo(param.dtype).max) / 16
            if not (-limit <= grad.min(initial=0.0)
                    and grad.max(initial=0.0) <= limit):
                raise TrainingDivergedError(
                    f"non-finite or overflowing gradient for parameter "
                    f"{name!r} at step {t}")
            m, v = self._m[name], self._v[name]
            if rows is not None and rows.size == param.shape[0]:
                rows = None  # sorted, distinct rows that cover the table
            if rows is None:
                g = grad + self.weight_decay * param
                m[...] = self.beta1 * m + (1.0 - self.beta1) * g
                v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
                param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
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
                                       / (np.sqrt(v_rows / bias2) + self.eps))
