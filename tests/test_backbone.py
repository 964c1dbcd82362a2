from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrec import backbone as backbone_module
from cutrec.backbone import (LOSS_FNS, SingleDomainModel,
                             domain_forward_backward, rows_read,
                             sample_negatives_batch,
                             single_domain_forward_backward)
from cutrec.checkpoint import load_checkpoint, save_checkpoint
from cutrec.config import TrainingConfig
from cutrec.corpus import SplitDataset
from cutrec.errors import CheckpointError
from cutrec.graph import build_graph, propagate
from cutrec.optim import Adam

from helpers import (adam_step_oracle, assert_grad_matches, csr_graph,
                     dense_grads, interaction_set, per_entry_grads,
                     sample_negatives)


# --- negative sampling --------------------------------------------------------

def test_sample_negatives_only_candidate():
    rng = np.random.default_rng(0)
    train = interaction_set([[0, 1]], 3)
    draws = sample_negatives_batch(rng, 3, train, np.zeros(20, dtype=np.int64))
    assert draws.tolist() == [2] * 20


def test_sample_negatives_never_in_train_row():
    rng = np.random.default_rng(1)
    rows = [[2, 5, 7], [0, 1, 2, 3, 4, 5, 6, 7, 8], [], [9]]
    train = interaction_set(rows, 10)
    users = rng.integers(0, len(rows), size=2000)
    draws = sample_negatives_batch(rng, 10, train, users)
    assert not any(item in rows[user] for user, item in zip(users, draws))
    assert set(draws[users == 1].tolist()) == {9}


def test_sample_negatives_uniform_chi_squared():
    rng = np.random.default_rng(2)
    train = interaction_set([[0, 1]], 10)
    draws = sample_negatives_batch(rng, 10, train,
                                   np.zeros(100_000, dtype=np.int64))
    counts = np.bincount(draws, minlength=10)[2:]
    expected = 100_000 / 8.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 7 degrees of freedom; 40 is far beyond any reasonable quantile.
    assert chi2 < 40.0


def test_sample_negatives_exhausted_catalogue():
    rng = np.random.default_rng(0)
    train = interaction_set([[1], [0, 1, 2]], 3)
    sample_negatives_batch(rng, 3, train, np.array([0, 0]))
    with pytest.raises(ValueError, match="user 1"):
        sample_negatives_batch(rng, 3, train, np.array([0, 1, 0]))


def test_sample_negatives_empty_rows():
    rng = np.random.default_rng(3)
    # User 0 has no train items; the second set has none at all.
    for rows in ([[], [1, 2]], [[], []]):
        train = interaction_set(rows, 4)
        draws = sample_negatives_batch(rng, 4, train,
                                       np.zeros(4000, dtype=np.int64))
        assert set(draws.tolist()) == {0, 1, 2, 3}


def test_sample_negatives_n_items_must_match_train():
    train = interaction_set([[0]], 3)
    with pytest.raises(ValueError, match="n_items"):
        sample_negatives_batch(np.random.default_rng(0), 4, train,
                               np.array([0]))


def test_sample_negatives_batch_matches_per_user_oracle():
    rng = np.random.default_rng(4)
    n_items = 12
    rows = [sorted(rng.choice(n_items, size=k, replace=False).tolist())
            for k in (0, 3, 6, 11)]
    train = interaction_set(rows, n_items)
    users = np.repeat(np.arange(len(rows)), 6000)
    batch = sample_negatives_batch(np.random.default_rng(5), n_items, train,
                                   users)
    oracle_rng = np.random.default_rng(6)
    oracle = np.concatenate([
        sample_negatives(oracle_rng, n_items, np.array(row, dtype=np.int64),
                         6000) for row in rows])
    cells = users * n_items
    a = np.bincount(cells + batch, minlength=len(rows) * n_items)
    b = np.bincount(cells + oracle, minlength=len(rows) * n_items)
    used = (a + b) > 0
    # Two-sample chi-square over the (user, item) cells either drew.
    chi2 = float(((a - b)[used] ** 2 / (a + b)[used]).sum())
    dof = int(used.sum()) - len(rows)
    assert dof == sum(n_items - len(row) for row in rows) - len(rows)
    assert chi2 < dof + 6 * np.sqrt(2 * dof)


def test_sample_negatives_batch_rerun_bit_equal():
    train = interaction_set([[0, 2, 3], [1], [], [0, 1, 2]], 5)
    users = np.random.default_rng(7).integers(0, 4, size=3000)
    first = sample_negatives_batch(np.random.default_rng(8), 5, train, users)
    second = sample_negatives_batch(np.random.default_rng(8), 5, train, users)
    assert np.array_equal(first, second)


# --- gradients ----------------------------------------------------------------

def small_model(seed, backbone="mf", loss="bce", n_users=6, n_items=7, dim=4):
    rng = np.random.default_rng(seed)
    rows = [np.unique(rng.integers(0, n_items, size=rng.integers(1, 5)))
            for _ in range(n_users)]
    train = interaction_set([list(r) for r in rows], n_items)
    model = SingleDomainModel.create(n_users, n_items, dim, seed,
                                     backbone=backbone, train=train,
                                     k_layers=2, dtype=np.float64)
    users = rng.integers(0, n_users, size=5)
    pos = np.array([rng.choice(rows[u]) for u in users])
    neg = np.array([sample_negatives(rng, n_items, rows[u], 1)[0]
                    for u in users])
    return model, train, users, pos, neg


@pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
@pytest.mark.parametrize("loss", ["bce", "bpr"])
def test_gradients_match_finite_differences(backbone, loss):
    for seed in range(3):
        model, _, users, pos, neg = small_model(seed, backbone=backbone)
        _, buf = single_domain_forward_backward(model, users, pos, neg, loss)
        analytic = dense_grads(buf.grads(), model.params())
        assert_grad_matches(
            lambda: single_domain_forward_backward(model, users, pos, neg,
                                                   loss)[0],
            model.params(), analytic, rtol=1e-4, h=1e-6)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("loss", ["bce", "bpr"])
def test_lightgcn_steps_match_row_indexed_oracle(loss, dtype, weight_decay):
    # Whole-table blocks, one score matrix, CSC propagation and the
    # in-place Adam give the bits of the per-entry route over CSR.
    rng = np.random.default_rng(21)
    n_users, n_items = 30, 25
    rows = [np.unique(rng.integers(0, n_items, size=rng.integers(1, 8)))
            for _ in range(n_users)]
    train = interaction_set([list(r) for r in rows], n_items)
    model = SingleDomainModel.create(n_users, n_items, 8, 5,
                                     backbone="lightgcn", train=train,
                                     k_layers=2, dtype=dtype)
    opt = Adam(model.params(), lr=0.01, weight_decay=weight_decay)
    params = {name: value.copy() for name, value in model.params().items()}
    moments = {name: (np.zeros_like(value), np.zeros_like(value))
               for name, value in params.items()}
    graph = csr_graph(model.graph)
    for t in range(1, 6):
        batch = rng.integers(0, train.n_interactions, size=24)
        users, pos = train.users[batch], train.indices[batch]
        neg = sample_negatives_batch(rng, n_items, train, users)
        loss_value, buf = single_domain_forward_backward(model, users, pos,
                                                         neg, loss)
        grads = buf.grads()
        for name, (got_rows, _) in grads.items():
            assert np.array_equal(got_rows, np.arange(len(params[name])))
        opt.step(grads)
        expected, d_user, d_item = per_entry_grads(
            params["user"], params["item"], graph, users, pos, neg,
            LOSS_FNS[loss], 1.0)
        adam_step_oracle(params, moments, {
            "user": (np.arange(n_users), d_user),
            "item": (np.arange(n_items), d_item)}, t, lr=0.01,
            weight_decay=weight_decay)
        assert loss_value == expected
        for name, value in model.params().items():
            assert value.tobytes() == params[name].tobytes()
            assert opt._m[name].tobytes() == moments[name][0].tobytes()
            assert opt._v[name].tobytes() == moments[name][1].tobytes()


def max_error(values, reference) -> float:
    return float(np.abs(np.asarray(values, np.float64) - reference).max())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), backbone=st.sampled_from(["mf", "lightgcn"]),
       loss=st.sampled_from(["bce", "bpr"]),
       dtype=st.sampled_from([np.float32, np.float64]),
       weight=st.one_of(st.just(1.0), st.floats(0.01, 10.0)),
       n_users=st.integers(1, 6), n_items=st.integers(1, 6),
       dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_batch_gradients_match_per_entry_oracle(data, backbone, loss, dtype,
                                                weight, n_users, n_items,
                                                dim, seed):
    # Few users and items, so batches repeat users, positives and
    # negatives, and a negative may equal a positive.
    size = data.draw(st.integers(1, 12))
    users, pos, neg = (np.array(data.draw(st.lists(
        st.integers(0, n - 1), min_size=size, max_size=size)))
        for n in (n_users, n_items, n_items))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    user_vals = (scale * rng.normal(size=(n_users, dim))).astype(dtype)
    item_vals = (scale * rng.normal(size=(n_items, dim))).astype(dtype)
    graph = None
    if backbone == "lightgcn":
        train = interaction_set(
            [list(np.flatnonzero(rng.random(n_items) < 0.5))
             for _ in range(n_users)], n_items)
        graph = build_graph(train, data.draw(st.integers(0, 2)), dtype)
    loss_fn = LOSS_FNS[loss]
    rows, local = rows_read(graph, users)
    with mock.patch.object(backbone_module, "propagate",
                           wraps=propagate) as spy:
        value, d_rows, (item_rows, d_item_rows) = domain_forward_backward(
            user_vals[rows], item_vals, graph, local, pos, neg, loss_fn,
            weight)
    d_user, d_item = np.zeros(user_vals.shape), np.zeros(item_vals.shape)
    d_user[rows], d_item[item_rows] = d_rows, d_item_rows
    expected, ref_user, ref_item = per_entry_grads(
        user_vals, item_vals, graph, users, pos, neg, loss_fn, weight)
    assert value == expected
    if dtype == np.float64:
        for got, ref in ((d_user, ref_user), (d_item, ref_item)):
            assert max_error(got, ref) <= 1e-12 * np.abs(ref).max()
        return
    # On float32 tables the score matrix's products, the gradients a graph
    # propagates back, are no farther from float64 per-score rows than
    # rows rounded to float32, as the per-entry route rounded them.
    if graph is not None:
        d_user, d_item = spy.call_args_list[-1].args[1:]
    _, *reference = per_entry_grads(user_vals, item_vals, graph, users, pos,
                                    neg, loss_fn, weight, back=False)
    _, *rounded = per_entry_grads(user_vals, item_vals, graph, users, pos,
                                  neg, loss_fn, weight, row_dtype=dtype,
                                  back=False)
    for got, old, ref in zip((d_user, d_item), rounded, reference):
        if graph is not None:
            old = old.astype(dtype)
        assert max_error(got, ref) <= max_error(old, ref)


def test_untouched_rows_have_no_gradient():
    model, _, users, pos, neg = small_model(0, backbone="mf")
    _, buf = single_domain_forward_backward(model, users, pos, neg, "bce")
    grads = buf.grads()
    rows, _ = grads["user"]
    assert set(rows.tolist()) == set(users.tolist())
    item_rows, _ = grads["item"]
    assert set(item_rows.tolist()) == set(pos.tolist()) | set(neg.tolist())


def test_training_reduces_loss():
    rng = np.random.default_rng(3)
    n_users, n_items = 20, 15
    rows = [np.unique(rng.integers(0, n_items, size=6)) for _ in range(n_users)]
    train = interaction_set([list(r) for r in rows], n_items)
    model = SingleDomainModel.create(n_users, n_items, 8, 3, train=train)
    opt = Adam(model.params(), lr=0.01)
    users, items = train.users, train.indices
    losses = []
    for step in range(100):
        order = rng.permutation(users.size)[:32]
        neg = sample_negatives_batch(rng, n_items, train, users[order])
        loss, buf = single_domain_forward_backward(
            model, users[order], items[order], neg, "bce")
        opt.step(buf.grads())
        losses.append(loss)
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_training_deterministic():
    def run():
        rng = np.random.default_rng(11)
        rows = [[0, 1, 2], [1, 3], [0, 4]]
        train = interaction_set(rows, 5)
        model = SingleDomainModel.create(3, 5, 4, 11, train=train)
        opt = Adam(model.params(), lr=0.01, weight_decay=1e-5)
        users = np.array([0, 1, 2, 0])
        items = np.array([0, 1, 4, 2])
        for _ in range(25):
            neg = sample_negatives_batch(rng, 5, train, users)
            _, buf = single_domain_forward_backward(model, users, items, neg,
                                                    "bpr")
            opt.step(buf.grads())
        return model.users.values.copy(), model.items.values.copy()
    a_users, a_items = run()
    b_users, b_items = run()
    assert np.array_equal(a_users, b_users)
    assert np.array_equal(a_items, b_items)


def test_scorer_matches_mf_score():
    model, _, _, _, _ = small_model(4, backbone="mf")
    scorer = model.make_scorer()
    scores = scorer(2)
    expected = [np.dot(model.users.values[2], model.items.values[i])
                for i in range(model.n_items)]
    np.testing.assert_allclose(scores, expected, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_graph_dtype_follows_the_tables(tmp_path, dtype):
    config = TrainingConfig(backbone="lightgcn", embedding_dim=4, k_layers=2)
    train = interaction_set([[0, 2], [1], [3, 4, 5], [6]], 7)
    model = SingleDomainModel.create(4, 7, 4, 0, backbone="lightgcn",
                                     train=train, k_layers=2, dtype=dtype)
    assert model.graph.adjacency.dtype == dtype
    split = SplitDataset(train, train, train, 0)
    ckpt = model.to_checkpoint(config)
    assert SingleDomainModel.from_checkpoint(
        ckpt, split).graph.adjacency.dtype == dtype
    # A saved checkpoint holds float32 tables, so its graph is float32.
    save_checkpoint(tmp_path / "phase1.ckpt", ckpt)
    loaded = SingleDomainModel.from_checkpoint(
        load_checkpoint(tmp_path / "phase1.ckpt"), split)
    assert loaded.graph.adjacency.dtype == np.float32


@pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
def test_single_checkpoint_round_trip(tmp_path, backbone):
    config = TrainingConfig(backbone=backbone, embedding_dim=4, k_layers=2)
    rows = [[0, 2], [1], [3, 4, 5], [6]]
    train = interaction_set(rows, 7)
    model = SingleDomainModel.create(4, 7, 4, 0, backbone=backbone,
                                     train=train, k_layers=2)
    save_checkpoint(tmp_path / "phase1.ckpt", model.to_checkpoint(config))
    ckpt = load_checkpoint(tmp_path / "phase1.ckpt")
    empty = interaction_set([[]] * 4, 7)
    loaded = SingleDomainModel.from_checkpoint(
        ckpt, SplitDataset(train, empty, empty, 0))
    users = np.arange(4)
    block = model.make_scorer()(users)
    assert block.shape == (4, 7)
    np.testing.assert_array_equal(loaded.make_scorer()(users), block)
    # A scalar user gets one row; a vector-matrix product may round the
    # last float32 bit differently from the block product.
    np.testing.assert_allclose(model.make_scorer()(2), block[2], rtol=1e-6,
                               atol=1e-9)

    wider = interaction_set(rows, 9)
    with pytest.raises(CheckpointError, match="has 7 rows, the dataset needs 9"):
        SingleDomainModel.from_checkpoint(
            ckpt, SplitDataset(wider, wider, wider, 0))
