import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrec.similarity import (PairSets, SimilarityOracle, cosine,
                               extract_pairs)

from helpers import interaction_set, materialised_similarity


def embedding_oracle(values, gamma=0.9):
    return SimilarityOracle.from_embeddings(np.asarray(values, dtype=float),
                                            gamma)


# --- cosine -------------------------------------------------------------------

def test_cosine_identical_vectors():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0, rel=1e-12)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_45_degrees():
    value = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert value == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_zero_vector_defined_as_zero():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine(np.zeros(2), np.zeros(3))


# --- similar ------------------------------------------------------------------

def test_similar_above_threshold():
    oracle = embedding_oracle([[1.0, 0.0], [1.0, 0.1]], gamma=0.9)
    assert oracle.similar(0, 1) == 1  # cosine ~0.995


def test_similar_strict_at_exact_threshold():
    # (1,0) vs (8,6): norms 1 and 10, cosine exactly 0.8 in floats.
    oracle = embedding_oracle([[1.0, 0.0], [8.0, 6.0]], gamma=0.8)
    assert oracle.similar(0, 1) == 0
    slightly_lower = embedding_oracle([[1.0, 0.0], [8.0, 6.0]],
                                      gamma=np.nextafter(0.8, 0.0))
    assert slightly_lower.similar(0, 1) == 1


def test_similar_symmetric():
    rng = np.random.default_rng(0)
    oracle = embedding_oracle(rng.normal(size=(10, 4)), gamma=0.2)
    for p in range(10):
        for q in range(10):
            if p != q:
                assert oracle.similar(p, q) == oracle.similar(q, p)


def test_similar_out_of_range():
    oracle = embedding_oracle(np.eye(3))
    with pytest.raises(IndexError):
        oracle.similar(0, 3)


def test_history_mode_identical_rows_similar():
    train = interaction_set([[0, 2, 4], [0, 2, 4], [1, 3]], 6)
    oracle = SimilarityOracle.from_history(train, gamma=0.99)
    assert oracle.similar(0, 1) == 1
    assert oracle.similar(0, 2) == 0


def test_history_mode_zero_row_similarity_zero():
    train = interaction_set([[], [1, 2]], 4)
    oracle = SimilarityOracle.from_history(train, gamma=-0.5)
    # cosine involving the empty row is 0, not above gamma=-0.5... it is:
    # 0 > -0.5, so define via a positive gamma instead.
    strict = SimilarityOracle.from_history(train, gamma=0.0)
    assert strict.similar(0, 1) == 0
    assert oracle.similar(0, 1) == 1  # 0 > -0.5 by strict inequality


def test_gamma_validation():
    with pytest.raises(ValueError):
        embedding_oracle(np.eye(2), gamma=-1.0)
    with pytest.raises(ValueError):
        embedding_oracle(np.eye(2), gamma=1.5)


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=1000))
def test_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(6, 3))
    scaled = values.copy()
    scaled[2] *= scale
    a = embedding_oracle(values, gamma=0.5)
    b = embedding_oracle(scaled, gamma=0.5)
    for q in range(6):
        if q != 2:
            assert a.similar(2, q) == b.similar(2, q)


# --- pair extraction ------------------------------------------------------------

def test_extract_pairs_dedups_users():
    oracle = embedding_oracle(np.eye(4), gamma=0.5)
    pairs = extract_pairs(np.array([1, 1, 2]), oracle)
    assert list(pairs.users) == [1, 2]
    assert pairs.n_all == 2
    assert pairs.n_similar == 0


def test_extract_pairs_three_users_one_similar_pair():
    # Users 1 and 2 nearly parallel, user 0 orthogonal to both.
    values = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.05]])
    oracle = embedding_oracle(values, gamma=0.9)
    pairs = extract_pairs(np.array([0, 1, 2]), oracle)
    assert pairs.n_all == 6
    similar = pairs.users[np.argwhere(pairs.sim_mask)]
    assert similar.tolist() == [[1, 2], [2, 1]]


def test_extract_pairs_all_dissimilar():
    oracle = embedding_oracle(np.eye(5), gamma=0.5)
    pairs = extract_pairs(np.arange(5), oracle)
    assert pairs.n_similar == 0
    assert pairs.n_all == 20


def test_extract_pairs_fewer_than_two_users():
    oracle = embedding_oracle(np.eye(3), gamma=0.5)
    assert extract_pairs(np.array([2, 2, 2]), oracle).n_all == 0
    assert extract_pairs(np.array([], dtype=int), oracle).n_all == 0


def test_pairs_symmetric_membership():
    rng = np.random.default_rng(3)
    oracle = embedding_oracle(rng.normal(size=(12, 3)), gamma=0.3)
    pairs = extract_pairs(rng.integers(0, 12, size=30), oracle)
    assert np.array_equal(pairs.sim_mask, pairs.sim_mask.T)
    assert not np.diag(pairs.sim_mask).any()


def test_pair_sets_reject_self_pairs():
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = True
    with pytest.raises(ValueError):
        PairSets(np.array([3, 4]), mask)


@pytest.mark.parametrize("mode", ["embedding", "history"])
def test_lazy_extraction_equals_materialised_matrix(mode):
    rng = np.random.default_rng(7)
    n = 50
    if mode == "embedding":
        base = rng.normal(size=(8, 4))
        values = base[rng.integers(0, 8, size=n)] + 0.3 * rng.normal(size=(n, 4))
        oracle = embedding_oracle(values, gamma=0.8)
    else:
        rows = tuple(np.unique(rng.integers(0, 12, size=rng.integers(1, 8)))
                     for _ in range(n))
        oracle = SimilarityOracle.from_history(interaction_set(rows, 12),
                                               gamma=0.6)
    for subset_size in (2, 13, 50):
        users = np.sort(rng.choice(n, size=subset_size, replace=False))
        pairs = extract_pairs(users, oracle)
        expected = materialised_similarity(oracle, users)
        assert np.array_equal(pairs.sim_mask, expected)
