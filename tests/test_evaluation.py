import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrec import evaluation
from cutrec.corpus import SplitDataset
from cutrec.evaluation import evaluate_full, format_report, top_k

from helpers import full_sort_topk, interaction_set, per_user_metrics


def unmasked(items, values) -> list[int]:
    return [int(i) for i, v in zip(items, values) if v != -np.inf]


# --- top_k -------------------------------------------------------------------

def test_rank_simple_sort():
    items, _ = top_k(np.array([[0.5, 0.9, 0.1]]), 2)
    assert items.tolist() == [[1, 0]]


def test_rank_equal_scores_ascending_index():
    items, _ = top_k(np.full((1, 6), 3.3), 4)
    assert items.tolist() == [[0, 1, 2, 3]]


def test_rank_masked_items_never_appear():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(1, 30))
    mask = [1, 5, int(np.argmax(scores))]
    scores[0, mask] = -np.inf
    items, values = top_k(scores, 10)
    assert not set(items[0].tolist()) & set(mask)
    assert np.isfinite(values).all()


def test_rank_k_exceeding_catalogue_returns_all_unmasked():
    scores = np.array([[0.1, 0.9, 0.5, 0.7]])
    scores[0, 1] = -np.inf
    items, values = top_k(scores, 10)
    assert items.tolist() == [[3, 2, 0, 1]]
    assert unmasked(items[0], values[0]) == [3, 2, 0]


# Values that a sort key can confuse: -0.0 ties with 0.0, a float32
# subnormal and +inf rank as values, and 1.0 + 2**-40 lies above 1.0 in
# float64 only.
CLOSE_PAIRS = [(-0.0, 0.0), (0.0, 1e-40), (1.0, 1.0 + 2**-40), (1.0, np.inf)]
TIE_VALUES = [-np.inf, -1.0, -0.0, 0.0, 1e-40, 0.25, 0.5, 1.0, 1.0 + 2**-40,
              np.inf]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rank_matches_full_sort_oracle(data):
    # Catalogues up to 300 items and k up to 30, so that the chunk bound
    # sees many chunk widths and leftover columns. Scores from a palette of
    # a close pair and up to two more values make ties the rule, not the
    # exception; some rows hold one value throughout, and some are all -inf
    # or keep fewer finite scores than k.
    shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 300)))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    k = data.draw(st.integers(1, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        palette = [*data.draw(st.sampled_from(CLOSE_PAIRS)),
                   *data.draw(st.lists(st.sampled_from(TIE_VALUES),
                                       max_size=2))]
        scores = rng.choice(palette, size=shape)
    else:
        scores = rng.normal(scale=10.0, size=shape)
        scores[rng.random(shape) < data.draw(st.sampled_from([0, 0.1, 0.9]))] \
            = -np.inf
    scores = scores.astype(dtype)
    for row in data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=2)):
        scores[row] = data.draw(st.sampled_from(TIE_VALUES))
    for row in data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=3)):
        finite = data.draw(st.integers(0, k - 1))
        scores[row, rng.permutation(shape[1])[finite:]] = -np.inf
    before = scores.copy()
    items, values = top_k(scores, k)
    assert np.array_equal(scores, before)
    assert items.shape == (shape[0], min(k, shape[1]))
    assert values.dtype == scores.dtype
    assert np.array_equal(values, np.take_along_axis(scores, items, axis=1))
    for row, row_items, row_values in zip(scores, items, values):
        assert row_items.tolist() == full_sort_topk(row, None, k)
        masked = np.flatnonzero(row == -np.inf)
        assert unmasked(row_items, row_values) == \
            full_sort_topk(row, masked, k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pair", CLOSE_PAIRS, ids=str)
def test_rank_orders_close_pairs(pair, dtype):
    # Each pair's values alternate along the row, lower value first.
    scores = np.resize(np.array(pair, dtype=dtype), (1, 9))
    for k in (1, 4, 9):
        assert top_k(scores, k)[0][0].tolist() == \
            full_sort_topk(scores[0], None, k), k


def crowded_block(case: str, dtype) -> np.ndarray:
    """Six rows of 300 scores in which far more than 2k = 20 entries a row
    reach the row's 10th best: one value throughout, a row of -inf among
    distinct scores, or four scores above 150 ties of 0.0 and -0.0."""
    rng = np.random.default_rng(8)
    if case == "all-equal":
        return np.full((6, 300), 0.5, dtype=dtype)
    if case == "masked-row":
        scores = rng.normal(size=(6, 300))
        scores[2] = -np.inf
    else:
        scores = rng.uniform(-1.0, -0.5, size=(6, 300))
        for row in scores:
            spots = rng.permutation(300)
            row[spots[:4]] = [2.0, 3.0, 3.0, np.inf]
            row[spots[4:154]] = rng.choice([-0.0, 0.0], size=150)
    return scores.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["all-equal", "masked-row", "ties-at-bound"])
def test_rank_crowded_blocks_match_full_sort_oracle(case, dtype):
    scores, k = crowded_block(case, dtype), 10
    kth = -np.sort(-scores, axis=1)[:, k - 1]
    assert (scores >= kth[:, None]).sum() > 2 * k * len(scores)
    items, values = top_k(scores, k)
    assert np.array_equal(values, np.take_along_axis(scores, items, axis=1))
    for row, row_items, row_values in zip(scores, items, values):
        assert row_items.tolist() == full_sort_topk(row, None, k)
        masked = np.flatnonzero(row == -np.inf)
        assert unmasked(row_items, row_values) == \
            full_sort_topk(row, masked, k)


@pytest.mark.parametrize("column", [4, 22], ids=["in-chunk", "leftover"])
def test_rank_rejects_nan(column):
    # 23 items at k = 5 make chunks of two and leave column 22 over.
    scores = np.random.default_rng(3).normal(size=(3, 23))
    scores[1, column] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        top_k(scores, 5)


# --- metric formulas, through evaluate_full on one user -----------------------

def ranked_report(order, test_items, k, n_items=20, part="test"):
    """Report for one user whose scores rank ``order`` first, in that
    order, then every other item by ascending index."""
    scores = np.zeros((1, n_items), dtype=np.float32)
    scores[0, order] = np.arange(len(order), 0, -1)
    held = interaction_set([sorted(test_items)], n_items)
    empty = interaction_set([[]], n_items)
    split = (SplitDataset(empty, empty, held, 0) if part == "test"
             else SplitDataset(empty, held, empty, 0))
    return evaluate_full(lambda users: scores[users], split, k=k, part=part)


def test_ndcg_hit_at_rank_one():
    assert ranked_report([3, 1, 2], {3}, k=10).means["ndcg"] == 1.0


def test_ndcg_hit_at_rank_two():
    value = ranked_report([9, 3, 2], {3}, k=10).means["ndcg"]
    assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-10)
    assert value == pytest.approx(0.6309297535714574, abs=1e-10)


def test_ndcg_miss_is_zero():
    assert ranked_report([1, 2, 3], {9}, k=3).means["ndcg"] == 0.0


def test_ndcg_idcg_caps_at_k():
    # Two test items both in top-2 of a k=2 list: perfect score.
    assert ranked_report([4, 7], {4, 7, 9}, k=2).means["ndcg"] == 1.0


def test_recall_and_hr():
    for order, test_items, recall, hr in (([1, 2], {1}, 1.0, 1.0),
                                          ([1, 9], {1, 5}, 0.5, 1.0),
                                          ([8, 9], {1, 5}, 0.0, 0.0)):
        for part in ("test", "valid"):
            means = ranked_report(order, test_items, k=2, part=part).means
            assert (means["recall"], means["hr"]) == (recall, hr)


def test_metrics_require_nonempty_test():
    # Only the users with items in the evaluated part count.
    empty = interaction_set([[]], 3)
    split = SplitDataset(empty, empty, interaction_set([[1]], 3), 0)
    assert evaluate_full(lambda users: np.zeros((users.size, 3)), split,
                         k=2).n_users == 1
    with pytest.raises(ValueError):
        evaluate_full(lambda users: np.zeros((users.size, 3)), split, k=2,
                      part="valid")


def test_adding_a_hit_never_decreases_metrics():
    rng = np.random.default_rng(2)
    for _ in range(20):
        scores = rng.normal(size=(1, 100))
        test_items = rng.choice(100, size=3, replace=False)
        split = SplitDataset(interaction_set([[]], 100),
                             interaction_set([[]], 100),
                             interaction_set([sorted(test_items)], 100), 0)
        before = evaluate_full(lambda users: scores[users], split).means
        topk = list(np.argsort(-scores[0])[:10])
        remaining = [t for t in test_items if t not in topk]
        if not remaining:
            continue
        # Swap a top-10 miss with a test item ranked below the top 10.
        miss = next(i for i in topk if i not in test_items)
        scores[0, [miss, remaining[0]]] = scores[0, [remaining[0], miss]]
        after = evaluate_full(lambda users: scores[users], split).means
        assert all(after[name] >= before[name] for name in before)


# --- evaluate_full -----------------------------------------------------------

def tiny_split():
    train = interaction_set([[0, 1], [2]], 6)
    valid = interaction_set([[2], [3]], 6)
    test = interaction_set([[3], [4, 5]], 6)
    return SplitDataset(train, valid, test, 0)


def test_evaluate_single_user_perfect():
    split = SplitDataset(interaction_set([[]], 3), interaction_set([[]], 3),
                         interaction_set([[0]], 3), 0)
    scores = np.array([[5.0, 1.0, 0.0]])
    report = evaluate_full(lambda users: scores[users], split, k=2)
    assert report.means["ndcg"] == 1.0
    assert report.means["recall"] == 1.0
    assert report.means["hr"] == 1.0
    assert report.n_users == 1


def test_evaluate_masks_seen_items():
    split = tiny_split()
    # Give user 0's train/valid items the best scores; they must be
    # masked, letting test item 3 reach rank 1.
    scores = np.array([[9.0, 8.0, 7.0, 1.0, 0.0, -1.0],
                       [0.0, 0.0, 9.0, 8.0, 1.0, 1.0]])
    report = evaluate_full(lambda users: scores[users], split, k=2)
    assert report.means["hr"] == 1.0


def oracle_split(rng, n_users=40, n_items=30):
    """Random rows, plus a user without test items, one without valid
    items, one with only two items left unseen for the test part, one
    whose test item is also a train item, so masked and never a hit, and
    one with a dozen test items, whose DCG sums many discounts."""
    rows = [rng.choice(n_items, size=int(rng.integers(3, 12)), replace=False)
            for _ in range(n_users)]
    train = [list(r[:-2]) for r in rows]
    valid = [[r[-2]] for r in rows]
    test = [[r[-1]] for r in rows]
    test[0], valid[1] = [], []
    full = rng.permutation(n_items)
    train[2], valid[2], test[2] = list(full[:27]), [full[27]], [full[28]]
    train[3].append(test[3][0])
    full = rng.permutation(n_items)
    train[4], valid[4], test[4] = list(full[:10]), [full[10]], list(full[11:23])
    return SplitDataset(*(interaction_set(part, n_items)
                          for part in (train, valid, test)), 0)


def test_evaluate_matches_full_sort_oracle(monkeypatch):
    rng = np.random.default_rng(5)
    split = oracle_split(rng)
    n_users, n_items = split.train.n_users, split.train.n_items
    table = rng.choice([0.0, 0.5, 1.0], size=(n_users, n_items)).astype(
        np.float32)
    table += rng.normal(scale=0.1, size=table.shape).astype(np.float32) \
        * rng.integers(0, 2, size=table.shape)
    # One block, blocks of three users and blocks of one; k = 45 exceeds
    # the 30 items.
    cases = itertools.product([evaluation.BLOCK_ENTRIES, 3 * n_items, n_items],
                              [1, 10, 45], ["test", "valid"])
    for entries, k, part in cases:
        monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", entries)
        report = evaluate_full(lambda users: table[users], split, k=k,
                               part=part)
        means, stds = per_user_metrics(table, split, k, part)
        case = (entries, k, part)
        assert (report.means, report.stds) == (means, stds), case
        assert report.to_dict()["K"] == k, case
        held = split.test if part == "test" else split.valid
        assert report.n_users == sum(row.size > 0 for row in held.rows), case


def test_evaluate_masks_a_block_of_any_layout():
    # The masks must reach the scorer's block itself, not a C-ordered copy.
    rng = np.random.default_rng(6)
    split = oracle_split(rng)
    table = rng.normal(size=(split.train.n_users, split.train.n_items))
    for part in ("test", "valid"):
        expected = evaluate_full(lambda users: table[users], split, part=part)
        report = evaluate_full(
            lambda users: np.asfortranarray(table[users]), split, part=part)
        assert report == expected, part


def test_evaluate_repeatable():
    split = tiny_split()
    scores = np.tile(np.arange(6.0), (2, 1))
    a = evaluate_full(lambda users: scores[users], split, k=3)
    b = evaluate_full(lambda users: scores[users], split, k=3)
    assert a == b
    assert a.to_json() == b.to_json()


def test_evaluate_errors_without_test_users():
    split = SplitDataset(interaction_set([[0]], 2), interaction_set([[]], 2),
                         interaction_set([[]], 2), 0)
    with pytest.raises(ValueError):
        evaluate_full(lambda users: np.zeros((users.size, 2)), split, k=2)


def test_evaluate_rejects_bad_k_and_part():
    scorer = lambda users: np.zeros((users.size, 6))  # noqa: E731
    with pytest.raises(ValueError, match="k must be"):
        evaluate_full(scorer, tiny_split(), k=0)
    with pytest.raises(ValueError, match="part must be"):
        evaluate_full(scorer, tiny_split(), part="train")
    for k in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            evaluate_full(scorer, tiny_split(), k=k)
    assert evaluate_full(scorer, tiny_split(), k=np.int64(3)).k == 3


def test_report_rendering():
    split = tiny_split()
    scores = np.tile(np.arange(6.0), (2, 1))
    report = evaluate_full(lambda users: scores[users], split, k=3, seed=4)
    text = format_report(report)
    assert "ndcg@3" in text and "seed=4" in text
    payload = report.to_dict()
    assert payload["K"] == 3 and payload["seed"] == 4
    assert set(payload) == {"recall", "hr", "ndcg", "K", "users", "seed"}
