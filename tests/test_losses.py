import math

import numpy as np
import pytest

from cutrec.losses import bce_loss

from helpers import fd_gradient, sigmoid_reference


def test_bce_zero_score_positive_is_ln2():
    loss, _, _ = bce_loss(np.array([0.0]), np.array([]))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_bce_large_scores_stable():
    loss, d_pos, d_neg = bce_loss(np.array([30.0]), np.array([-30.0]))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(d_pos)) and np.all(np.isfinite(d_neg))
    loss, _, _ = bce_loss(np.array([-700.0]), np.array([700.0]))
    assert np.isfinite(loss)


def test_bce_gradient_formula():
    pos = np.array([0.3, -1.2])
    neg = np.array([0.7])
    _, d_pos, d_neg = bce_loss(pos, neg)
    n = 3
    np.testing.assert_allclose(d_pos, (sigmoid_reference(pos) - 1) / n,
                               atol=1e-15)
    np.testing.assert_allclose(d_neg, sigmoid_reference(neg) / n, atol=1e-15)


def relative_error(got, reference):
    """Largest error relative to the reference, or to the smallest normal
    float64 where the reference is smaller still."""
    tiny = np.finfo(np.float64).tiny
    return float(np.max(np.abs(got - reference)
                        / np.maximum(np.abs(reference), tiny)))


def test_gradients_keep_relative_precision_over_wide_scores():
    # For large s the positive gradient sigma(s) - 1 is about -e^-s, but
    # a rounded sigma(s) minus 1 is exactly 0 from s of about 37 on.
    scores = np.random.default_rng(7).uniform(-800.0, 800.0, 400_000)
    _, d_pos, d_neg = bce_loss(scores, scores)
    n = 2 * scores.size
    assert relative_error(d_pos, -sigmoid_reference(-scores) / n) <= 1e-15
    assert relative_error(d_neg, sigmoid_reference(scores) / n) <= 1e-15


def test_bce_gradient_matches_finite_difference():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=6)
    neg = rng.normal(size=4)
    _, d_pos, d_neg = bce_loss(pos, neg)
    fd_pos = fd_gradient(lambda: bce_loss(pos, neg)[0], pos,
                         range(pos.size), h=1e-5)
    fd_neg = fd_gradient(lambda: bce_loss(pos, neg)[0], neg,
                         range(neg.size), h=1e-5)
    np.testing.assert_allclose(d_pos, fd_pos, rtol=1e-5)
    np.testing.assert_allclose(d_neg, fd_neg, rtol=1e-5)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        bce_loss(np.array([]), np.array([]))
