import numpy as np
import pytest

from cutrec.config import TrainingConfig
from cutrec.contrastive import contrastive_loss
from cutrec.embeddings import (ROLE_ITEM_SOURCE, ROLE_ITEM_TARGET, ROLE_USER,
                               TRANSFORM_BIAS, TRANSFORM_WEIGHT)
from cutrec.similarity import PairSets, SimilarityOracle, extract_pairs
from cutrec.trainer import CutModel, transfer_forward_backward

from helpers import (brute_force_contrastive, dense_contrastive_gradient,
                     fd_gradient, interaction_set)


def mask_pairs(mask):
    """The pair sets over users 0..n-1 whose similar pairs are ``mask``."""
    return PairSets(np.arange(len(mask)), *np.nonzero(mask))


def pair_sets(n, similar):
    mask = np.zeros((n, n), dtype=bool)
    for i, j in similar:
        mask[i, j] = True
        mask[j, i] = True
    return mask_pairs(mask)


def index_pairs(pairs):
    """Positions (not user ids) of similar/all ordered pairs."""
    similar = list(zip(pairs.sim_i.tolist(), pairs.sim_j.tolist()))
    every = [(i, j) for i in range(pairs.n_users)
             for j in range(pairs.n_users) if i != j]
    return similar, every


# --- transform layer ----------------------------------------------------------

def transform(weight, bias):
    """``CutModel.apply_transform`` over the given weight and bias, on a
    model without users."""
    empty = interaction_set([], 1)
    return CutModel(TrainingConfig(), {ROLE_USER: np.zeros((0, len(bias))),
                                       "transform-weight": weight,
                                       "transform-bias": bias},
                    empty, empty).apply_transform


def test_transform_identity_passthrough():
    apply = transform(np.eye(3), np.zeros(3))
    x = np.random.default_rng(0).normal(size=(4, 3))
    np.testing.assert_array_equal(apply(x), x)


def test_transform_constant_map():
    apply = transform(np.zeros((2, 2)), np.array([5.0, -1.0]))
    out = apply(np.random.default_rng(1).normal(size=(3, 2)))
    np.testing.assert_array_equal(out, np.tile([5.0, -1.0], (3, 1)))


def test_transform_matches_matrix_convention():
    # Row x maps to W @ x + b.
    rng = np.random.default_rng(2)
    weight, bias = rng.normal(size=(3, 3)), rng.normal(size=3)
    x = rng.normal(size=(1, 3))
    expected = weight @ x[0] + bias
    np.testing.assert_allclose(transform(weight, bias)(x)[0], expected,
                               rtol=1e-12)


def test_transform_gradient_through_downstream_scalar():
    rng = np.random.default_rng(3)
    weight = rng.normal(size=(3, 3))
    bias = rng.normal(size=3)
    x = rng.normal(size=(4, 3))
    coeff = rng.normal(size=(4, 3))

    def loss():
        return float((coeff * transform(weight, bias)(x)).sum())

    # Analytic: d/dW = coeff^T x, d/db = sum coeff, d/dx = coeff W.
    d_weight = coeff.T @ x
    d_bias = coeff.sum(axis=0)
    d_x = coeff @ weight
    np.testing.assert_allclose(
        fd_gradient(loss, weight, range(weight.size), h=1e-6),
        d_weight.ravel(), rtol=1e-5, atol=1e-9)
    np.testing.assert_allclose(
        fd_gradient(loss, bias, range(bias.size), h=1e-6),
        d_bias, rtol=1e-5, atol=1e-9)
    np.testing.assert_allclose(
        fd_gradient(loss, x, range(x.size), h=1e-6),
        d_x.ravel(), rtol=1e-5, atol=1e-9)


# --- contrastive loss -----------------------------------------------------------

def test_identical_vectors_zero_loss():
    vectors = np.tile([0.4, -0.2, 1.0], (5, 1))
    pairs = pair_sets(5, [(0, 1), (2, 3)])
    loss, grads = contrastive_loss(vectors, pairs, tau=0.1)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grads))


def test_empty_similar_set_contributes_zero():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(4, 3))
    pairs = pair_sets(4, [])
    loss, grads = contrastive_loss(vectors, pairs, tau=0.1)
    assert loss == 0.0
    np.testing.assert_array_equal(grads, 0.0)


def test_value_matches_brute_force_on_hand_instance():
    vectors = np.array([[1.0, 0.2], [0.9, 0.3], [-0.5, 1.1]])
    pairs = pair_sets(3, [(0, 1)])
    similar, every = index_pairs(pairs)
    expected = brute_force_contrastive(vectors, similar, every, tau=0.1)
    loss, _ = contrastive_loss(vectors, pairs, tau=0.1)
    assert loss == pytest.approx(expected, abs=1e-10)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = int(rng.integers(3, 7))
        vectors = rng.normal(size=(n, 4))
        candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = [candidates[k] for k in
                  rng.choice(len(candidates),
                             size=rng.integers(1, len(candidates) + 1),
                             replace=False)]
        pairs = pair_sets(n, chosen)
        _, grads = contrastive_loss(vectors, pairs, tau=0.1)
        fd = fd_gradient(
            lambda: contrastive_loss(vectors, pairs, tau=0.1)[0],
            vectors, range(vectors.size), h=1e-6)
        np.testing.assert_allclose(grads.ravel(), fd, rtol=1e-5, atol=1e-8)


def test_gradient_matches_dense_mask_formula():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 40))
        vectors = rng.normal(size=(n, 5))
        # Not symmetric: the gradient must use the mask and its transpose.
        mask = rng.random((n, n)) < 0.3
        np.fill_diagonal(mask, False)
        mask[0, 1] = True
        pairs = mask_pairs(mask)
        _, grads = contrastive_loss(vectors, pairs, tau=0.2)
        expected = dense_contrastive_gradient(vectors, mask, 0.2)
        np.testing.assert_allclose(grads, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


def test_value_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(2, 8))
        vectors = rng.normal(size=(n, 3))
        mask = rng.random((n, n)) < 0.4
        mask = mask | mask.T
        np.fill_diagonal(mask, False)
        pairs = mask_pairs(mask)
        similar, every = index_pairs(pairs)
        expected = brute_force_contrastive(vectors, similar, every, tau=0.2)
        loss, _ = contrastive_loss(vectors, pairs, tau=0.2)
        assert loss == pytest.approx(expected, abs=1e-10)


def test_large_magnitude_vectors_stable():
    vectors = np.array([[50.0, 0.0], [49.0, 1.0], [0.0, -50.0]])
    pairs = pair_sets(3, [(0, 1)])
    loss, grads = contrastive_loss(vectors, pairs, tau=0.1)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grads))


def random_batch(rng, n, scale):
    vectors = rng.normal(scale=scale, size=(n, 16))
    mask = rng.random((n, n)) < 0.05
    mask |= mask.T
    np.fill_diagonal(mask, False)
    return vectors, mask


def test_float32_batch_tracks_float64():
    # Float32 input runs the logits, the exp and both products in float32;
    # about 1e-7 relative was seen on the loss and on the gradient.
    vectors, mask = random_batch(np.random.default_rng(21), 300, 0.3)
    pairs = mask_pairs(mask)
    loss64, grads64 = contrastive_loss(vectors, pairs, tau=0.2)
    loss32, grads32 = contrastive_loss(vectors.astype(np.float32), pairs,
                                       tau=0.2)
    assert grads32.dtype == np.float64
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    np.testing.assert_allclose(grads32, grads64, rtol=0,
                               atol=1e-5 * np.abs(grads64).max())


def test_large_norm_batch_float32_finite_and_close():
    # Shifted logits span thousands, far below the -60 floor of the exp:
    # float32 stays finite and close to float64, and the floor leaves the
    # float64 gradient at the unfloored dense formula.
    vectors, mask = random_batch(np.random.default_rng(22), 200, 4.0)
    pairs = mask_pairs(mask)
    logits = vectors @ vectors.T / 0.1
    off_diag = ~np.eye(200, dtype=bool)
    assert np.ptp(logits[off_diag]) > 200
    loss64, grads64 = contrastive_loss(vectors, pairs, tau=0.1)
    loss32, grads32 = contrastive_loss(vectors.astype(np.float32), pairs,
                                       tau=0.1)
    assert np.isfinite(loss32) and np.all(np.isfinite(grads32))
    assert grads32.dtype == np.float64
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    np.testing.assert_allclose(grads32, grads64, rtol=0,
                               atol=1e-5 * np.abs(grads64).max())
    with np.errstate(over="ignore"):  # the oracle's exp on the diagonal
        expected = dense_contrastive_gradient(vectors, mask, 0.1)
    np.testing.assert_allclose(grads64, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


def clustered_batch(rng, n=1500, dim=64, n_clusters=8, n_pairs=60):
    """A batch the size of a training step's: ``n`` users around cluster
    centres, and ``n_pairs`` symmetric similar pairs within clusters."""
    centres = rng.normal(scale=0.2, size=(n_clusters, dim))
    cluster = rng.integers(n_clusters, size=n)
    vectors = centres[cluster] + rng.normal(scale=0.1, size=(n, dim))
    mask = np.zeros((n, n), dtype=bool)
    for i in rng.choice(n, size=n_pairs, replace=False):
        same = np.flatnonzero(cluster == cluster[i])
        j = rng.choice(same[same != i])
        mask[i, j] = mask[j, i] = True
    return vectors, mask


def test_batch_scale_gradient_matches_dense_mask_formula():
    # At this size the denominator comes out of the gradient product and
    # the similar-pair term is a sparse product over a small share of
    # the matrix: both must still give the dense formula.
    vectors, mask = clustered_batch(np.random.default_rng(31))
    pairs = mask_pairs(mask)
    assert pairs.n_similar >= 100
    _, grads = contrastive_loss(vectors, pairs, tau=0.1)
    expected = dense_contrastive_gradient(vectors, mask, 0.1)
    np.testing.assert_allclose(grads, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


def test_batch_scale_float32_tracks_float64():
    # A few float32 ulps: 9.4e-8 relative was seen on the loss and 3.5e-6
    # of the largest entry on the gradient.
    vectors, mask = clustered_batch(np.random.default_rng(31))
    pairs = mask_pairs(mask)
    loss64, grads64 = contrastive_loss(vectors, pairs, tau=0.1)
    loss32, grads32 = contrastive_loss(vectors.astype(np.float32), pairs,
                                       tau=0.1)
    assert grads32.dtype == np.float64
    assert loss32 == pytest.approx(loss64, rel=1e-6)
    np.testing.assert_allclose(grads32, grads64, rtol=0,
                               atol=1e-5 * np.abs(grads64).max())


def test_tau_validation():
    with pytest.raises(ValueError):
        contrastive_loss(np.zeros((2, 2)), pair_sets(2, [(0, 1)]), tau=0.0)


# --- total loss ------------------------------------------------------------------

def transfer_batch(alpha, lam, pairs=True):
    """``transfer_forward_backward`` on one fixed MF batch whose target
    users have similar pairs: six target users (rows 0-5, the last three
    overlap) and five source users (rows 3-7)."""
    rng = np.random.default_rng(3)
    params = {name: rng.normal(scale=0.5, size=shape).astype(np.float32)
              for name, shape in (
                  (ROLE_USER, (8, 4)), (ROLE_ITEM_TARGET, (7, 4)),
                  (ROLE_ITEM_SOURCE, (6, 4)), (TRANSFORM_WEIGHT, (4, 4)),
                  (TRANSFORM_BIAS, (4,)))}
    config = TrainingConfig(alpha=alpha, contrastive_weight=lam,
                            embedding_dim=4)
    model = CutModel(config, params, interaction_set([[]] * 6, 7),
                     interaction_set([[]] * 5, 6))
    assert (model.n_target, model.source_offset) == (6, 3)
    tgt_users = np.arange(6)
    oracle = SimilarityOracle.from_embeddings(params[ROLE_USER][:6], 0.0)
    return transfer_forward_backward(
        model, np.array([0, 2, 4]), np.array([1, 3, 5]), np.array([0, 0, 2]),
        tgt_users, np.array([0, 1, 2, 3, 4, 5]),
        np.array([6, 5, 4, 3, 2, 1]),
        extract_pairs(tgt_users, oracle) if pairs else None)


def test_total_loss_paper_default_weights():
    defaults = TrainingConfig()
    assert (defaults.alpha, defaults.contrastive_weight) == (0.2, 1e-4)
    breakdown, _ = transfer_batch(defaults.alpha, defaults.contrastive_weight)
    assert breakdown.contrastive != 0.0
    assert breakdown.total == (0.8 * breakdown.target
                               + 0.2 * breakdown.source
                               + 1e-4 * breakdown.contrastive)


def test_total_loss_alpha_zero_ignores_source():
    breakdown, buf = transfer_batch(alpha=0.0, lam=0.5)
    assert breakdown.source > 0.0
    assert breakdown.total == breakdown.target + 0.5 * breakdown.contrastive
    _, source_items = buf.grads()[ROLE_ITEM_SOURCE]
    assert not source_items.any()


def test_total_loss_lambda_zero_is_weighted_joint():
    # The contrastive term is computed and reported, and moves nothing.
    with_pairs, buf = transfer_batch(alpha=0.25, lam=0.0)
    without, buf_joint = transfer_batch(alpha=0.25, lam=0.0, pairs=False)
    assert with_pairs.contrastive != 0.0 and without.contrastive == 0.0
    assert with_pairs.total == without.total \
        == 0.75 * with_pairs.target + 0.25 * with_pairs.source
    grads, joint = buf.grads(), buf_joint.grads()
    assert grads.keys() == joint.keys()
    for name, (rows, values) in grads.items():
        assert np.array_equal(rows, joint[name][0])
        assert values.tobytes() == joint[name][1].tobytes()


def test_total_loss_exact_recombination():
    # The components do not depend on the weights, and the total weighs
    # them exactly as written.
    parts = None
    for alpha in (0.0, 0.2, 1.0):
        for lam in (0.0, 1e-4, 0.5):
            breakdown, _ = transfer_batch(alpha, lam)
            got = (breakdown.target, breakdown.source, breakdown.contrastive)
            assert breakdown.contrastive != 0.0
            assert parts in (None, got)
            parts = got
            assert breakdown.total == ((1 - alpha) * breakdown.target
                                       + alpha * breakdown.source
                                       + lam * breakdown.contrastive)
