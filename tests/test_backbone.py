import numpy as np
import pytest

from cutrec.backbone import (SingleDomainModel, sample_negatives,
                             sample_negatives_batch,
                             single_domain_forward_backward)
from cutrec.optim import Adam

from helpers import assert_grad_matches, dense_grads, interaction_set


# --- negative sampling --------------------------------------------------------

def test_sample_negatives_only_candidate():
    rng = np.random.default_rng(0)
    row = np.array([0, 1])
    for _ in range(20):
        assert sample_negatives(rng, 3, row, 1)[0] == 2


def test_sample_negatives_never_in_train_row():
    rng = np.random.default_rng(1)
    row = np.array([2, 5, 7])
    draws = sample_negatives(rng, 10, row, 500)
    assert not set(draws.tolist()) & set(row.tolist())


def test_sample_negatives_uniform_chi_squared():
    rng = np.random.default_rng(2)
    row = np.array([0, 1])
    draws = sample_negatives(rng, 10, row, 100_000)
    counts = np.bincount(draws, minlength=10)[2:]
    expected = 100_000 / 8.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 7 degrees of freedom; 40 is far beyond any reasonable quantile.
    assert chi2 < 40.0


def test_sample_negatives_exhausted_catalogue():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_negatives(rng, 3, np.array([0, 1, 2]), 1)


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


def test_untouched_rows_have_no_gradient():
    model, _, users, pos, neg = small_model(0, backbone="mf")
    _, buf = single_domain_forward_backward(model, users, pos, neg, "bce")
    rows, _ = buf.grads()["user"]
    assert set(rows.tolist()) == set(users.tolist())
    item_rows, _ = buf.grads()["item"]
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
        neg = sample_negatives_batch(rng, n_items, train.rows, users[order])
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
            neg = sample_negatives_batch(rng, 5, train.rows, users)
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
