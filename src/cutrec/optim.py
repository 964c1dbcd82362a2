"""Adam with lazy per-row updates, and a buffer for one step's gradients.

Only rows that received gradient in a step move. Moments follow the
parameter dtype. A step's gradient of each parameter arrives whole, summed
over both domains by the forward/backward that made it; the buffer only
hands it to ``Adam``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import TrainingDivergedError

SparseGrad = tuple[np.ndarray, np.ndarray]
# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def distinct_rows(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(index, return_inverse=True)`` for non-negative ints,
    without a sort: the sorted distinct entries and each one's position."""
    position = np.zeros(index.max(initial=-1) + 1, dtype=np.int64)
    position[index] = 1
    rows = np.flatnonzero(position)
    position[rows] = np.arange(rows.size)
    return rows, position[index]


class GradBuffer:
    """One training step's gradients: one ``(rows, values)`` part per
    parameter, whole as its forward/backward made it, the rows a slice or
    strictly increasing ints. ``grads`` hands them over with int rows and
    empties the buffer. It remains as the hand-off that ``perfbench``
    traces: its ``optim.scatter`` layer wraps ``add_rows``."""

    def __init__(self, params: Mapping[str, np.ndarray]):
        self._params = dict(params)
        self._grads: dict[str, SparseGrad] = {}

    def add_rows(self, name: str, rows: np.ndarray | slice, values) -> None:
        if name in self._grads:
            raise ValueError(f"{name!r} already has its gradient this step")
        if isinstance(rows, slice):
            rows = np.arange(len(self._params[name]))[rows]
        elif (rows.ndim != 1 or rows.dtype.kind not in "iu"
              or np.any(np.diff(rows) <= 0)):
            # Adam's update by index would keep one of a repeat's steps.
            raise ValueError(f"rows of {name!r} must be a slice or strictly "
                             "increasing integers")
        self._grads[name] = (rows, values)

    def grads(self) -> dict[str, SparseGrad]:
        grads, self._grads = self._grads, {}
        return grads


class Adam:
    def __init__(self, params: Mapping[str, np.ndarray], *, lr: float = 0.001):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._v = {k: np.zeros_like(v) for k, v in self.params.items()}

    def step(self, grads: Mapping[str, SparseGrad]) -> None:
        """``grads`` maps a parameter to ``(rows, grad)``: ``rows`` sorted
        and distinct ints, as ``GradBuffer.grads`` returns them."""
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - BETA1 ** t
        bias2 = 1.0 - BETA2 ** t
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
            if rows.size == param.shape[0]:  # all rows
                self._update(param, m, v, grad, bias1, bias2)
            elif rows.size:
                theta, m_rows, v_rows = param[rows], m[rows], v[rows]
                self._update(theta, m_rows, v_rows, grad, bias1, bias2)
                param[rows], m[rows], v[rows] = theta, m_rows, v_rows

    def _update(self, param, m, v, grad, bias1: float, bias2: float) -> None:
        """Adam's update of ``param``, ``m`` and ``v``, in place."""
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
