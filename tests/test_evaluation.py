import math

import numpy as np
import pytest

from cutrec.corpus import SplitDataset
from cutrec.evaluation import (evaluate_full, format_report, hr_at_k,
                               ndcg_at_k, rank_items, recall_at_k)

from helpers import full_sort_topk, interaction_set


# --- rank_items ---------------------------------------------------------------

def test_rank_simple_sort():
    topk = rank_items(np.array([0.5, 0.9, 0.1]), None, 2)
    assert list(topk) == [1, 0]


def test_rank_equal_scores_ascending_index():
    topk = rank_items(np.full(6, 3.3), None, 4)
    assert list(topk) == [0, 1, 2, 3]


def test_rank_masked_items_never_appear():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=30)
    mask = {1, 5, int(np.argmax(scores))}
    topk = rank_items(scores, mask, 10)
    assert not set(topk.tolist()) & mask


def test_rank_k_exceeding_catalogue_returns_all_unmasked():
    scores = np.array([0.1, 0.9, 0.5, 0.7])
    topk = rank_items(scores, {1}, 10)
    assert list(topk) == [3, 2, 0]


def test_rank_matches_full_sort_oracle():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(5, 100))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n).astype(float)
        scores += rng.normal(scale=1e-3, size=n) * rng.integers(0, 2, size=n)
        mask = set(rng.choice(n, size=int(rng.integers(0, n // 2 + 1)),
                              replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        assert list(rank_items(scores, mask, k)) == \
            full_sort_topk(scores, mask, k)


# --- metric formulas -------------------------------------------------------------

def test_ndcg_hit_at_rank_one():
    assert ndcg_at_k([3, 1, 2], {3}, k=10) == pytest.approx(1.0)


def test_ndcg_hit_at_rank_two():
    value = ndcg_at_k([9, 3, 2], {3}, k=10)
    assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-10)
    assert value == pytest.approx(0.6309297535714574, abs=1e-10)


def test_ndcg_miss_is_zero():
    assert ndcg_at_k([1, 2, 3], {9}, k=10) == 0.0


def test_ndcg_idcg_caps_at_k():
    # Two test items both in top-2 of a k=2 list: perfect score.
    assert ndcg_at_k([4, 7], {4, 7, 9}, k=2) == pytest.approx(1.0)


def test_recall_and_hr():
    assert recall_at_k([1, 2], {1}, k=10) == 1.0
    assert hr_at_k([1, 2], {1}, k=10) == 1
    assert recall_at_k([1, 9], {1, 5}, k=10) == 0.5
    assert hr_at_k([1, 9], {1, 5}, k=10) == 1
    assert recall_at_k([8, 9], {1, 5}, k=10) == 0.0
    assert hr_at_k([8, 9], {1, 5}, k=10) == 0


def test_metrics_require_nonempty_test():
    with pytest.raises(ValueError):
        ndcg_at_k([1], set(), k=10)


def test_adding_a_hit_never_decreases_metrics():
    rng = np.random.default_rng(2)
    for _ in range(20):
        topk = list(rng.choice(100, size=10, replace=False))
        test_items = set(rng.choice(100, size=3, replace=False).tolist())
        before = (recall_at_k(topk, test_items), hr_at_k(topk, test_items),
                  ndcg_at_k(topk, test_items))
        new_hit = next(i for i in topk if i not in test_items)
        grown = test_items | {new_hit}
        # Recall denominator grows too, so compare against the same set:
        # replace a non-hit slot with a test item instead.
        miss_slot = topk.index(new_hit)
        improved = list(topk)
        remaining = [t for t in test_items if t not in topk]
        if not remaining:
            continue
        improved[miss_slot] = remaining[0]
        after = (recall_at_k(improved, test_items),
                 hr_at_k(improved, test_items),
                 ndcg_at_k(improved, test_items))
        assert all(b >= a for b, a in zip(after, before))


# --- evaluate_full ----------------------------------------------------------------

def tiny_split():
    train = interaction_set([[0, 1], [2]], 6)
    valid = interaction_set([[2], [3]], 6)
    test = interaction_set([[3], [4, 5]], 6)
    return SplitDataset(train, valid, test, 0)


def test_evaluate_single_user_perfect():
    split = SplitDataset(interaction_set([[]], 3), interaction_set([[]], 3),
                         interaction_set([[0]], 3), 0)
    scores = np.array([5.0, 1.0, 0.0])
    report = evaluate_full(lambda u: scores, split, k=2)
    assert report.means["ndcg"] == 1.0
    assert report.means["recall"] == 1.0
    assert report.means["hr"] == 1.0
    assert report.n_users == 1


def test_evaluate_masks_seen_items():
    split = tiny_split()
    # Give user 0's train/valid items the best scores; they must be
    # masked, letting test item 3 reach rank 1.
    scores = {0: np.array([9.0, 8.0, 7.0, 1.0, 0.0, -1.0]),
              1: np.array([0.0, 0.0, 9.0, 8.0, 1.0, 1.0])}
    report = evaluate_full(lambda u: scores[u], split, k=2)
    assert report.means["hr"] == 1.0
    unmasked = evaluate_full(lambda u: scores[u], split, k=2,
                             mask_seen=False)
    assert unmasked.means["hr"] < 1.0


def test_evaluate_matches_full_sort_oracle():
    rng = np.random.default_rng(5)
    n_users, n_items = 12, 100
    all_items = np.arange(n_items)
    rows = [rng.choice(all_items, size=12, replace=False) for _ in range(n_users)]
    train = interaction_set([list(r[:8]) for r in rows], n_items)
    valid = interaction_set([list(r[8:10]) for r in rows], n_items)
    test = interaction_set([list(r[10:]) for r in rows], n_items)
    split = SplitDataset(train, valid, test, 0)
    table = rng.normal(size=(n_users, n_items))

    report = evaluate_full(lambda u: table[u], split, k=10)
    expected = {"recall": [], "hr": [], "ndcg": []}
    for u in range(n_users):
        mask = set(train.rows[u].tolist()) | set(valid.rows[u].tolist())
        topk = full_sort_topk(table[u], mask, 10)
        test_items = set(test.rows[u].tolist())
        expected["recall"].append(recall_at_k(topk, test_items))
        expected["hr"].append(hr_at_k(topk, test_items))
        expected["ndcg"].append(ndcg_at_k(topk, test_items))
    for name in expected:
        assert report.means[name] == pytest.approx(
            float(np.mean(expected[name])), abs=1e-12)


def test_evaluate_repeatable():
    split = tiny_split()
    scores = np.arange(6.0)
    a = evaluate_full(lambda u: scores, split, k=3)
    b = evaluate_full(lambda u: scores, split, k=3)
    assert a == b
    assert a.to_json() == b.to_json()


def test_evaluate_errors_without_test_users():
    split = SplitDataset(interaction_set([[0]], 2), interaction_set([[]], 2),
                         interaction_set([[]], 2), 0)
    with pytest.raises(ValueError):
        evaluate_full(lambda u: np.zeros(2), split, k=2)


def test_report_rendering():
    split = tiny_split()
    report = evaluate_full(lambda u: np.arange(6.0), split, k=3, seed=4)
    text = format_report(report)
    assert "ndcg@3" in text and "seed=4" in text
    payload = report.to_dict()
    assert payload["K"] == 3 and payload["seed"] == 4
    assert set(payload) == {"recall", "hr", "ndcg", "K", "users", "seed"}
