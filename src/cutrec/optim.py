"""Adam with lazy per-row updates, and a buffer for one step's gradients.

Weight decay is applied as a coupled L2 term added to the gradient before
the moment update, and only on rows that received gradient in the step.
Moments follow the parameter dtype.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import TrainingDivergedError

SparseGrad = tuple[np.ndarray | None, np.ndarray]


def distinct_rows(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(index, return_inverse=True)`` for non-negative ints,
    without a sort: the sorted distinct entries and each one's position."""
    position = np.zeros(index.max(initial=-1) + 1, dtype=np.int64)
    position[index] = 1
    rows = np.flatnonzero(position)
    position[rows] = np.arange(rows.size)
    return rows, position[index]


class GradBuffer:
    """Accumulates one training step's gradients per named parameter.

    A table takes row parts: a slice or strictly increasing int rows, and
    a value row each. A lone part passes through uncopied; parts sharing a
    table, and the transform layer's dense parts, are summed in float64.
    ``grads`` gives int rows and empties the buffer, so that the parts are
    freed before the optimizer step.
    """

    def __init__(self, params: Mapping[str, np.ndarray]):
        self._params = dict(params)
        self._parts: dict[str, list[tuple]] = {}
        self._dense: dict[str, np.ndarray] = {}

    def add_rows(self, name: str, rows: np.ndarray | slice, values) -> None:
        if name in self._dense:
            raise ValueError(f"parameter {name!r} already has a dense gradient")
        if isinstance(rows, slice):
            rows = np.arange(len(self._params[name]))[rows]
        elif (rows.ndim != 1 or rows.dtype.kind not in "iu"
              or np.any(np.diff(rows) <= 0)):
            # Summing parts by index would drop all but one of a repeat.
            raise ValueError(f"rows of {name!r} must be a slice or strictly "
                             "increasing integers")
        self._parts.setdefault(name, []).append((rows, values))

    def add_dense(self, name: str, values: np.ndarray) -> None:
        if name in self._parts:
            raise ValueError(f"parameter {name!r} already has row gradients")
        self._dense.setdefault(name, np.zeros(self._params[name].shape))
        self._dense[name] += values

    def grads(self) -> dict[str, SparseGrad]:
        out: dict[str, SparseGrad] = {}
        for name, parts in self._parts.items():
            if len(parts) == 1:
                out[name] = parts[0]
                continue
            rows, inverse = distinct_rows(np.concatenate([r for r, _ in parts]))
            total = np.zeros((rows.size, *self._params[name].shape[1:]))
            for part, values in parts:
                total[inverse[:part.size]] += values
                inverse = inverse[part.size:]
            out[name] = (rows, total)
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
