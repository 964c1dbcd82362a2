"""Contrastive similarity-preservation regulariser and the combined
training objective.

For one batch with similar pair set S and all-ordered-pair set A over the
distinct batch users, the regulariser is

    -(1/|S|) * sum_{(i,j) in S} log( |A| * exp(z_ij / tau)
                                     / sum_{(x,y) in A} exp(z_xy / tau) )

where z is the raw dot product of the transformed user vectors. The |A|
factor means individual terms may go negative; the value is 0 when all
transformed vectors coincide or when S is empty.
"""

from __future__ import annotations

import numpy as np

from .similarity import PairSets


def contrastive_loss(transformed: np.ndarray, pairs: PairSets, tau: float,
                     *, normalize: bool = False
                     ) -> tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. the transformed vectors.

    ``transformed`` rows must align with ``pairs.users``. With
    ``normalize=True``, dot products are taken between unit-normalised
    vectors (non-default variant).
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    n = pairs.n_users
    if transformed.shape[0] != n:
        raise ValueError("transformed rows do not match pair-set users")
    d_transformed = np.zeros_like(transformed, dtype=np.float64)
    n_similar = pairs.n_similar
    if n < 2 or n_similar == 0:
        return 0.0, d_transformed

    if normalize:
        norms = np.linalg.norm(transformed, axis=1, keepdims=True)
        safe = np.maximum(norms, 1e-12)
        feats = transformed / safe
    else:
        feats = transformed

    logits = feats @ feats.T
    logits /= tau
    np.fill_diagonal(logits, -np.inf)
    sim_i, sim_j = pairs.sim_i, pairs.sim_j
    z_max = float(logits.max())
    loss_sim = float(logits[sim_i, sim_j].sum(dtype=np.float64))
    # Shifted in place and floored at -60: softmax entries of at least
    # 2 exp(-60) / |A| stay normal float32 (subnormals slow the product
    # below many times over) up to a million users, and add under 1e-14
    # to a denominator of at least 1. The diagonal is zeroed after exp.
    np.maximum(np.subtract(logits, z_max, out=logits), -60.0, out=logits)
    exp = np.exp(logits, out=logits)
    np.fill_diagonal(exp, 0.0)
    denom = float(exp.sum())
    loss = -(np.log(pairs.n_all) * n_similar + loss_sim
             - (np.log(denom) + z_max) * n_similar) / n_similar

    # d loss / d logits = softmax - [similar] / |S|. A logit is a dot
    # product of two users' features, so the feature gradient takes
    # d logits plus its transpose; the softmax part is symmetric.
    d_logits = np.multiply(exp, 2.0 / denom, out=exp)
    d_logits[sim_i, sim_j] -= 1.0 / n_similar
    d_logits[sim_j, sim_i] -= 1.0 / n_similar
    d_feats = (d_logits @ feats) / tau

    if normalize:
        # Through f = v / max(||v||, eps): remove the radial component.
        radial = np.einsum("ij,ij->i", d_feats, feats)[:, None] * feats
        d_values = (d_feats - radial) / safe
        zero = (norms[:, 0] == 0.0)
        d_values[zero] = 0.0
        d_transformed[...] = d_values
    else:
        d_transformed[...] = d_feats
    return float(loss), d_transformed


def total_loss(l_target: float, l_source: float, l_contrastive: float,
               alpha: float, lam: float) -> float:
    """Weighted combination: (1 - alpha) * L_t + alpha * L_s + lambda * L_c."""
    return (1.0 - alpha) * l_target + alpha * l_source + lam * l_contrastive
