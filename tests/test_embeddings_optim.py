import numpy as np
import pytest

from cutrec.embeddings import assert_finite, init_embeddings
from cutrec.errors import TrainingDivergedError
from cutrec.optim import Adam, GradBuffer


# --- initialisation ----------------------------------------------------------

def test_init_deterministic():
    a = init_embeddings(2, 64, seed=7)
    b = init_embeddings(2, 64, seed=7)
    assert np.array_equal(a.values, b.values)
    c = init_embeddings(2, 64, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_init_distribution_statistics():
    table = init_embeddings(10_000, 100, seed=123, dtype=np.float64)
    flat = table.values.ravel()  # 10^6 draws
    assert -0.001 <= flat.mean() <= 0.001
    assert 0.099 <= flat.std() <= 0.101


def test_init_rejects_nonpositive_shape():
    with pytest.raises(ValueError):
        init_embeddings(0, 8, seed=0)


def test_empty_table_and_finite_check():
    good = {"user": np.ones((2, 2)), "bias": np.zeros(2)}
    assert_finite(good)
    bad = {**good, "item": np.array([[1.0, np.nan]])}
    with pytest.raises(TrainingDivergedError, match="'item'.*epoch 3"):
        assert_finite(bad, "epoch 3")


# --- Adam --------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    param = np.array([[1.0, -2.0]], dtype=np.float64)
    opt = Adam({"p": param}, lr=0.01, weight_decay=0.0)
    opt.step({"p": (np.array([0]), np.zeros((1, 2)))})
    assert np.array_equal(param, [[1.0, -2.0]])


def test_adam_first_step_magnitude():
    # One step with gradient 1 on a fresh state moves by lr/(1+eps).
    param = np.zeros((1, 1), dtype=np.float64)
    lr = 0.001
    opt = Adam({"p": param}, lr=lr)
    opt.step({"p": (np.array([0]), np.ones((1, 1)))})
    expected = -lr / (1.0 + 1e-8)
    assert param[0, 0] == pytest.approx(expected, rel=1e-12)


def test_adam_dense_and_sparse_paths_agree():
    rng = np.random.default_rng(0)
    dense_param = rng.normal(size=(4, 3))
    sparse_param = dense_param.copy()
    grad = rng.normal(size=(4, 3))
    opt_a = Adam({"p": dense_param}, lr=0.01, weight_decay=0.1)
    opt_b = Adam({"p": sparse_param}, lr=0.01, weight_decay=0.1)
    opt_a.step({"p": (None, grad)})
    opt_b.step({"p": (np.arange(4), grad)})
    np.testing.assert_allclose(dense_param, sparse_param, atol=1e-15)


def test_adam_untouched_rows_unchanged():
    param = np.ones((5, 2), dtype=np.float32)
    opt = Adam({"p": param}, lr=0.1, weight_decay=0.5)
    opt.step({"p": (np.array([1, 3]), np.full((2, 2), 0.7))})
    np.testing.assert_array_equal(param[[0, 2, 4]], 1.0)
    assert np.all(param[[1, 3]] != 1.0)


def test_adam_weight_decay_coupled():
    # With zero raw gradient but nonzero decay, touched rows still move.
    param = np.full((2, 2), 2.0)
    opt = Adam({"p": param}, lr=0.001, weight_decay=0.1)
    opt.step({"p": (np.array([0]), np.zeros((1, 2)))})
    assert np.all(param[0] < 2.0)
    np.testing.assert_array_equal(param[1], 2.0)


def test_adam_nan_gradient_names_parameter():
    param = np.zeros((1, 2))
    opt = Adam({"item-target": param})
    with pytest.raises(TrainingDivergedError, match="item-target"):
        opt.step({"item-target": (np.array([0]), np.array([[np.nan, 0.0]]))})


def test_adam_bit_identical_runs():
    def run():
        rng = np.random.default_rng(42)
        param = rng.normal(size=(6, 4)).astype(np.float32)
        opt = Adam({"p": param}, lr=0.01, weight_decay=1e-4)
        for _ in range(50):
            rows = rng.choice(6, size=3, replace=False)
            opt.step({"p": (np.sort(rows), rng.normal(size=(3, 4)))})
        return param
    assert np.array_equal(run(), run())


# --- GradBuffer --------------------------------------------------------------

def test_grad_buffer_accumulates_duplicate_rows():
    param = np.zeros((4, 2))
    buf = GradBuffer({"p": param})
    buf.add_rows("p", np.array([1, 1, 3]), np.ones((3, 2)))
    rows, grads = buf.grads()["p"]
    assert list(rows) == [1, 3]
    np.testing.assert_array_equal(grads, [[2.0, 2.0], [1.0, 1.0]])


def test_grad_buffer_dense_param():
    param = np.zeros((2, 2))
    buf = GradBuffer({"w": param})
    buf.add_dense("w", np.eye(2))
    buf.add_dense("w", np.eye(2))
    rows, grads = buf.grads()["w"]
    assert rows is None
    np.testing.assert_array_equal(grads, 2 * np.eye(2))
