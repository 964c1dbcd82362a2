import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrec.embeddings import assert_finite, init_embeddings
from cutrec.errors import TrainingDivergedError
from cutrec.optim import Adam, GradBuffer

from helpers import adam_dense_step, adam_row_step, full_table_grads


# --- initialisation ----------------------------------------------------------

def test_init_deterministic():
    a = init_embeddings(2, 64, seed=7)
    b = init_embeddings(2, 64, seed=7)
    assert np.array_equal(a, b)
    c = init_embeddings(2, 64, seed=8)
    assert not np.array_equal(a, c)


def test_init_distribution_statistics():
    table = init_embeddings(10_000, 100, seed=123, dtype=np.float64)
    flat = table.ravel()  # 10^6 draws
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
    opt = Adam({"p": param}, lr=0.01)
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
    # Rows covering the table take the dense path; the same rows of a
    # table one row longer take the row path.
    rng = np.random.default_rng(0)
    dense_param = rng.normal(size=(4, 3))
    sparse_param = np.vstack([dense_param, np.ones((1, 3))])
    grad = rng.normal(size=(4, 3))
    opt_a = Adam({"p": dense_param}, lr=0.01)
    opt_b = Adam({"p": sparse_param}, lr=0.01)
    opt_a.step({"p": (np.arange(4), grad)})
    opt_b.step({"p": (np.arange(4), grad)})
    np.testing.assert_allclose(dense_param, sparse_param[:4], atol=1e-15)
    np.testing.assert_array_equal(sparse_param[4], 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_full_coverage_matches_row_path_bytes(dtype):
    # Rows that cover the table take the dense path; the table and both
    # moments, in the table dtype, must come out as the per-row arithmetic
    # leaves them.
    rng = np.random.default_rng(5)
    param = rng.normal(size=(7, 4)).astype(dtype)
    expected = param.copy()
    m, v = np.zeros_like(param), np.zeros_like(param)
    opt = Adam({"p": param}, lr=0.01)
    for t in range(1, 9):
        rows = (np.arange(7) if t % 2 else
                np.sort(rng.choice(7, size=3, replace=False)))
        grad = rng.normal(size=(rows.size, 4)).astype(dtype)
        opt.step({"p": (rows, grad)})
        adam_row_step(expected, m, v, rows, grad, t, lr=0.01)
        assert param.tobytes() == expected.tobytes()
        assert opt._m["p"].tobytes() == m.tobytes()
        assert opt._v["p"].tobytes() == v.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_dense_step_matches_out_of_place_formula(dtype):
    # Signed zeros in the gradient and the table, which the in-place
    # update must leave as the formula does.
    rng = np.random.default_rng(8)
    param = rng.normal(size=(60, 5)).astype(dtype)
    param[rng.random(param.shape) < 0.1] = -0.0
    expected = param.copy()
    m, v = np.zeros_like(param), np.zeros_like(param)
    opt = Adam({"p": param}, lr=0.01)
    for t in range(1, 21):
        grad = rng.normal(size=param.shape).astype(dtype)
        grad[rng.random(param.shape) < 0.2] = -0.0
        opt.step({"p": (np.arange(60), grad)})
        adam_dense_step(expected, m, v, grad, t, lr=0.01)
        assert param.tobytes() == expected.tobytes()
        assert opt._m["p"].tobytes() == m.tobytes()
        assert opt._v["p"].tobytes() == v.tobytes()


def test_float32_adam_tracks_float64():
    # Moments follow the table dtype; over mixed row and full-table steps
    # a float32 table stays within float32 rounding of a float64 one.
    rng = np.random.default_rng(11)
    p64 = rng.normal(scale=0.4, size=(50, 8))
    p32 = p64.astype(np.float32)
    opt64 = Adam({"p": p64}, lr=0.01)
    opt32 = Adam({"p": p32}, lr=0.01)
    for t in range(200):
        rows = (np.arange(50) if t % 3 == 0 else
                np.unique(rng.integers(0, 50, size=20)))
        grad = rng.normal(size=(rows.size, 8))
        opt64.step({"p": (rows, grad)})
        opt32.step({"p": (rows, grad)})
    assert opt32._m["p"].dtype == opt32._v["p"].dtype == np.float32
    assert np.abs(p32 - p64).max() < 1e-5


def test_adam_gradient_overflowing_the_table_dtype_diverges():
    # 1e39 is finite in float64 but inf in float32: the check must see
    # the gradient as the float32 table would take it.
    param = np.zeros((2, 2), dtype=np.float32)
    opt = Adam({"user-table": param})
    with pytest.raises(TrainingDivergedError, match="user-table"):
        opt.step({"user-table": (np.array([1]), np.array([[1e39, 0.0]]))})
    np.testing.assert_array_equal(param, 0.0)


@pytest.mark.parametrize("rows", [np.array([1]), np.arange(2)],
                         ids=["rows", "dense"])
def test_adam_gradient_overflowing_the_second_moment_diverges(rows):
    # 1e20 is finite in float32, but its square, and so v / bias2, is not:
    # float32 moments would freeze the entry at a zero step.
    param = np.zeros((2, 2), dtype=np.float32)
    opt = Adam({"user-table": param})
    grad = np.array([[1e20, 0.0]] if rows.size == 1 else [[0.0, 0.0],
                                                           [-1e20, 0.0]])
    with pytest.raises(TrainingDivergedError, match="'user-table' at step 1"):
        opt.step({"user-table": (rows, grad)})
    np.testing.assert_array_equal(param, 0.0)
    np.testing.assert_array_equal(opt._v["user-table"], 0.0)


def test_adam_large_finite_gradient_steps_float32_table():
    # 1e17 is below the limit: every moment stays finite and the entry
    # takes Adam's first step of size lr.
    param = np.zeros((2, 2), dtype=np.float32)
    opt = Adam({"p": param}, lr=0.01)
    opt.step({"p": (np.array([1]), np.array([[1e17, 0.0]]))})
    assert param[1, 0] == pytest.approx(-0.01)
    assert np.all(np.isfinite(opt._v["p"]))


def test_adam_untouched_rows_unchanged():
    param = np.ones((5, 2), dtype=np.float32)
    opt = Adam({"p": param}, lr=0.1)
    opt.step({"p": (np.array([1, 3]), np.full((2, 2), 0.7))})
    np.testing.assert_array_equal(param[[0, 2, 4]], 1.0)
    assert np.all(param[[1, 3]] != 1.0)


def test_adam_nan_gradient_names_parameter():
    param = np.zeros((1, 2))
    opt = Adam({"item-target": param})
    with pytest.raises(TrainingDivergedError, match="item-target"):
        opt.step({"item-target": (np.array([0]), np.array([[np.nan, 0.0]]))})


def test_adam_bit_identical_runs():
    def run():
        rng = np.random.default_rng(42)
        param = rng.normal(size=(6, 4)).astype(np.float32)
        opt = Adam({"p": param}, lr=0.01)
        for _ in range(50):
            rows = rng.choice(6, size=3, replace=False)
            opt.step({"p": (np.sort(rows), rng.normal(size=(3, 4)))})
        return param
    assert np.array_equal(run(), run())


# --- GradBuffer --------------------------------------------------------------

def test_grad_buffer_refuses_rows_that_repeat_or_are_unsorted():
    # Adam updates rows by index, so a repeated row would lose a step.
    buf = GradBuffer({"p": np.zeros((4, 2))})
    for rows in ([1, 1, 3], [3, 1], [[1, 3]], [1.0, 3.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            buf.add_rows("p", np.array(rows), np.ones((len(rows), 2)))
    assert buf.grads() == {}


def test_grad_buffer_refuses_a_second_part_for_a_parameter():
    # Parts meet in the forward/backward that made them; the buffer only
    # carries each parameter's one part.
    buf = GradBuffer({"user": np.zeros((4, 2)), "item": np.zeros((3, 2))})
    buf.add_rows("user", np.array([0, 2]), np.ones((2, 2)))
    buf.add_rows("item", slice(None), np.ones((3, 2)))
    for rows in (np.array([1]), np.array([0, 2]), slice(None)):
        with pytest.raises(ValueError, match="'user'"):
            buf.add_rows("user", rows, np.ones((1, 2)))
    rows, values = buf.grads()["user"]
    assert list(rows) == [0, 2]
    np.testing.assert_array_equal(values, np.ones((2, 2)))


def test_grad_buffer_dense_param():
    # A whole weight and bias, as the transform's gradients arrive.
    buf = GradBuffer({"w": np.zeros((2, 2)), "b": np.zeros(2)})
    weight, bias = np.eye(2), np.ones(2)
    buf.add_rows("w", slice(None), weight)
    buf.add_rows("b", slice(None), bias)
    grads = buf.grads()
    for name, expected in (("w", weight), ("b", bias)):
        rows, values = grads[name]
        assert rows.dtype.kind == "i" and list(rows) == [0, 1]
        assert values is expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tables=st.integers(1, 3),
       n_dense=st.integers(0, 2), block_share=st.sampled_from([0.0, 0.5, 1.0]))
def test_grad_buffer_matches_full_table_oracle(seed, n_tables, n_dense,
                                               block_share):
    # One part per parameter, as a step makes them: each comes back
    # uncopied, on the int rows of the oracle, and the buffer empties.
    rng = np.random.default_rng(seed)
    params = {f"t{k}": np.zeros((int(rng.integers(1, 30)), 3), np.float32)
              for k in range(n_tables)}
    # Biases: 1-D parameters that only take whole-parameter parts.
    params.update({f"d{k}": np.zeros(3) for k in range(n_dense)})
    buf = GradBuffer(params)
    row_parts = {}
    for name, param in params.items():
        dtype = rng.choice([np.float32, np.float64])
        n = param.shape[0]
        if name.startswith("d"):
            rows, shape = slice(None), param.shape
        elif rng.random() < block_share:
            # A block: a third cover the table, the rest a random span
            # that may be empty.
            start, stop = (0, n) if rng.random() < 1 / 3 else sorted(
                int(i) for i in rng.integers(0, n + 1, size=2))
            rows, shape = slice(start, stop), (stop - start, 3)
        else:
            rows = np.unique(rng.integers(0, n, size=int(
                rng.integers(0, 40))))
            shape = (rows.size, 3)
        values = rng.normal(size=shape).astype(dtype)
        buf.add_rows(name, rows, values)
        row_parts[name] = [(rows, values)]
    got = buf.grads()
    expected = full_table_grads(params, row_parts)
    assert list(got) == list(params)
    for name, (rows, values) in expected.items():
        got_rows, got_values = got[name]
        assert got_rows.dtype.kind == "i"
        assert np.array_equal(got_rows, rows)
        assert got_values is row_parts[name][0][1]
        assert got_values.astype(np.float64).tobytes() == values.tobytes()
    assert buf.grads() == {}
