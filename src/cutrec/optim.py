"""Adam with lazy per-row updates for embedding tables.

Weight decay is applied as a coupled L2 term added to the gradient before
the moment update, and only on rows that received gradient in the step.
Moments follow the parameter dtype; gradients merge in float64.
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

    Tables take row parts: index arrays, merged by one sparse product, or
    slices, blocks summed where they overlap and passed uncopied alone. The
    transform layer uses ``add_dense``. Sums are float64. ``add_rows`` keeps
    its arrays, uncopied, until ``grads`` merges them and empties the
    buffer, so that they are freed before the optimizer step.
    """

    def __init__(self, params: Mapping[str, np.ndarray]):
        self._params = dict(params)
        self._parts: dict[str, list[tuple]] = {}
        self._dense: dict[str, np.ndarray] = {}

    def add_rows(self, name: str, rows: np.ndarray | slice, values) -> None:
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
            shape = self._params[name].shape
            n = shape[0]
            blocks = [isinstance(rows, slice) for rows, _ in parts]
            if blocks == [True]:
                out[name] = (np.arange(n)[parts[0][0]], parts[0][1])
            elif all(blocks):
                total, touched = np.zeros(shape), np.zeros(n, bool)
                for block, values in parts:
                    total[block] += values
                    touched[block] = True
                rows = np.flatnonzero(touched)
                out[name] = (rows, total[rows] if rows.size < n else total)
            else:
                rows, inverse = np.unique(np.concatenate([
                    np.arange(n)[r] if isinstance(r, slice) else r
                    for r, _ in parts]), return_inverse=True)
                out[name] = (rows, scatter_rows(inverse, np.concatenate(
                    [v for _, v in parts]), rows.size))
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
            if rows is None or rows.size == param.shape[0]:  # all rows
                self._update(param, m, v, grad, bias1, bias2)
            elif rows.size:
                theta, m_rows, v_rows = param[rows], m[rows], v[rows]
                self._update(theta, m_rows, v_rows, grad, bias1, bias2)
                param[rows], m[rows], v[rows] = theta, m_rows, v_rows

    def _update(self, param, m, v, grad, bias1: float, bias2: float) -> None:
        """Adam's update of ``param``, ``m`` and ``v``, in place. A zero
        decay term could only flip the sign of a zero, which nothing keeps."""
        g = grad + self.weight_decay * param if self.weight_decay else grad
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
