"""The implicit-feedback prediction loss with hand-derived gradients.

``bce_loss`` returns (mean loss, d_loss/d_pos_scores, d_loss/d_neg_scores)
with the 1/N factor already folded into the gradients. The gradients
reuse the loss's softplus: sigma(x) - 1 = expm1(-softplus(-x)), which
keeps full relative precision where sigma(x) rounds to 1.
"""

from __future__ import annotations

import numpy as np


def softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x), overflow-safe for large |x|.
    return np.logaddexp(0.0, x)


def bce_loss(pos_scores: np.ndarray,
             neg_scores: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Binary cross entropy: -ln sigma(s) for positives, -ln(1 - sigma(s))
    for negatives, averaged over all entries."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    n = pos.size + neg.size
    if n == 0:
        raise ValueError("bce_loss needs at least one score")
    sp_pos, sp_neg = softplus(-pos), softplus(neg)
    loss = (sp_pos.sum() + sp_neg.sum()) / n
    return float(loss), np.expm1(-sp_pos) / n, -np.expm1(-sp_neg) / n
