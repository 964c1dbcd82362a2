"""Contrastive similarity-preservation regulariser.

For one batch with similar pair set S and all-ordered-pair set A over the
distinct batch users, the regulariser is

    -(1/|S|) * sum_{(i,j) in S} log( |A| * exp(z_ij / tau)
                                     / sum_{(x,y) in A} exp(z_xy / tau) )

where z is the raw dot product of the transformed user vectors: they are
not normalised, so the term also sees the transform's scale. The |A|
factor means individual terms may go negative; the value is 0 when all
transformed vectors coincide or when S is empty. Phase two minimises
(1 - alpha) * L_t + alpha * L_s + lambda * L_c, with this term as L_c;
at lambda = 0 ``trainer.run_transfer_phase`` skips it and its oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .similarity import PairSets


def contrastive_loss(feats: np.ndarray, pairs: PairSets,
                     tau: float) -> tuple[float, np.ndarray]:
    """Loss and float64 gradient w.r.t. ``feats``, the transformed
    vectors of ``pairs.users`` in order."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    n = pairs.n_users
    if feats.shape[0] != n:
        raise ValueError("transformed rows do not match pair-set users")
    n_similar = pairs.n_similar
    if n < 2 or n_similar == 0:
        return 0.0, np.zeros_like(feats, dtype=np.float64)

    # 1/tau goes into a fresh transposed operand: numpy sends a product of
    # a buffer with its own transpose down BLAS syrk and mirrors the
    # triangle, which is about twice as slow here as this plain gemm.
    logits = feats @ (feats.T / tau)
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
    # The ones column makes the gradient product's last column the row
    # sums of exp, so the denominator takes no pass of its own.
    prod = exp @ np.hstack([feats, np.ones((n, 1), dtype=feats.dtype)])
    # Freed here, so that the float64 n x dim temporaries below do not
    # add to the call's peak memory on top of the n x n matrix.
    del logits, exp
    denom = float(prod[:, -1].sum(dtype=np.float64))
    loss = -(np.log(pairs.n_all) * n_similar + loss_sim
             - (np.log(denom) + z_max) * n_similar) / n_similar

    # d loss / d logits = softmax - [similar] / |S|. A logit is a dot
    # product of two users' features, so the feature gradient takes
    # d logits plus its transpose. The softmax part is symmetric: twice
    # the product above, scaled as an n x dim array. The similar part is
    # one float64 product with the matrix of both ends of each pair.
    ends = (np.concatenate([sim_i, sim_j]), np.concatenate([sim_j, sim_i]))
    pull = sp.coo_matrix((np.ones(ends[0].size), ends), shape=(n, n)) \
        @ feats.astype(np.float64)
    d_feats = (prod[:, :-1] * (2.0 / denom) - pull / n_similar) / tau
    return float(loss), d_feats
