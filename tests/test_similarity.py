import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cutrec import similarity
from cutrec.corpus import SplitDataset, subsample_target
from cutrec.errors import ConfigError
from cutrec.similarity import PairSets, SimilarityOracle, extract_pairs

from helpers import (interaction_set, materialised_similarity, pair_cosines,
                     traced_peak)

DEFAULT_BLOCK = similarity.BLOCK_ENTRIES


def embedding_oracle(values, gamma=0.9):
    return SimilarityOracle.from_embeddings(np.asarray(values, dtype=float),
                                            gamma)


def similar(oracle, p, q) -> bool:
    return bool(oracle.graph[p, q])


def dense_history(rows, n_items):
    dense = np.zeros((len(rows), n_items))
    for user, row in enumerate(rows):
        dense[user, list(row)] = 1.0
    return dense


# --- cosine -------------------------------------------------------------------

def test_cosine_identical_vectors():
    v = np.array([0.3, -1.2, 4.0])
    oracle = embedding_oracle([v, v], gamma=0.999)
    assert oracle.max_cosine == pytest.approx(1.0, rel=1e-12)
    assert similar(oracle, 0, 1) and similar(oracle, 1, 0)


def test_cosine_orthogonal():
    values = [[1.0, 0.0], [0.0, 1.0]]
    assert embedding_oracle(values).max_cosine == 0.0
    assert not similar(embedding_oracle(values, gamma=0.0), 0, 1)
    assert similar(embedding_oracle(values, gamma=-0.1), 0, 1)


def test_cosine_45_degrees():
    values = [[1.0, 1.0], [1.0, 0.0]]
    assert embedding_oracle(values).max_cosine == pytest.approx(0.70710678,
                                                                abs=1e-8)
    assert similar(embedding_oracle(values, 0.7), 0, 1)
    assert not similar(embedding_oracle(values, 0.71), 0, 1)


def test_cosine_zero_vector_defined_as_zero():
    values = [np.zeros(3), np.ones(3)]
    assert embedding_oracle(values).max_cosine == 0.0
    assert not similar(embedding_oracle(values, gamma=0.0), 0, 1)
    assert similar(embedding_oracle(values, gamma=-0.1), 0, 1)


# --- similar ------------------------------------------------------------------

def test_similar_above_threshold():
    oracle = embedding_oracle([[1.0, 0.0], [1.0, 0.1]], gamma=0.9)
    assert similar(oracle, 0, 1)  # cosine ~0.995
    assert oracle.n_pairs == 2


def test_similar_strict_at_exact_threshold():
    # (1,0) vs (8,6): norms 1 and 10, cosine exactly 0.8 in floats.
    oracle = embedding_oracle([[1.0, 0.0], [8.0, 6.0]], gamma=0.8)
    assert not similar(oracle, 0, 1)
    slightly_lower = embedding_oracle([[1.0, 0.0], [8.0, 6.0]],
                                      gamma=np.nextafter(0.8, 0.0))
    assert similar(slightly_lower, 0, 1)


def test_similar_symmetric():
    rng = np.random.default_rng(0)
    n = 40
    rows = [np.flatnonzero(rng.random(10) < 0.3) for _ in range(n)]
    for oracle in (embedding_oracle(rng.normal(size=(n, 4)), gamma=0.2),
                   SimilarityOracle.from_history(interaction_set(rows, 10),
                                                 gamma=0.2)):
        graph = oracle.graph
        assert graph.shape == (n, n) and graph.dtype == bool
        assert 0 < oracle.n_pairs == graph.nnz
        assert (graph != graph.T).nnz == 0
        assert not graph.diagonal().any()
        assert graph.has_sorted_indices
        assert not graph.indices.flags.writeable


def test_similar_out_of_range():
    oracle = embedding_oracle(np.eye(3))
    for users in ([0, 3], [-1, 1]):
        with pytest.raises(IndexError):
            extract_pairs(np.array(users), oracle)


def test_history_mode_identical_rows_similar():
    train = interaction_set([[0, 2, 4], [0, 2, 4], [1, 3]], 6)
    oracle = SimilarityOracle.from_history(train, gamma=0.99)
    assert similar(oracle, 0, 1)
    assert not similar(oracle, 0, 2)


def test_history_mode_zero_row_similarity_zero():
    # Subsampling the training interactions leaves cold users with an
    # empty row: cosine 0 to everyone, so similar to everyone exactly
    # when gamma < 0 (strict inequality).
    rows = [[0, 1], [1, 2], [2, 3], [0, 3], [1, 3], [0, 2]]
    train = interaction_set(rows, 4)
    split = SplitDataset(train, interaction_set([[]] * 6, 4),
                         interaction_set([[]] * 6, 4), 0)
    sub = subsample_target(split, 0.3, seed=1).train
    cold = np.flatnonzero(np.diff(sub.indptr) == 0)
    assert 0 < cold.size < 6
    for gamma, expected in ((0.0, False), (0.5, False), (-0.5, True)):
        graph = SimilarityOracle.from_history(sub, gamma).graph.toarray()
        for user in cold:
            others = np.arange(6) != user
            assert np.all(graph[user, others] == expected)
            assert np.all(graph[others, user] == expected)


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
    assert (a.graph != b.graph).nnz == 0


# --- the graph against the per-pair oracle ------------------------------------

NEAR = 1e-12


def build_oracle(mode, reps, gamma):
    """The embedding oracle of the rows ``reps``, or the history oracle
    of their non-zero columns."""
    if mode == "embedding":
        return SimilarityOracle.from_embeddings(reps, gamma)
    rows = [np.flatnonzero(row) for row in reps]
    return SimilarityOracle.from_history(
        interaction_set(rows, reps.shape[1]), gamma)


@settings(max_examples=120, deadline=None)
@given(mode=st.sampled_from(["embedding", "history"]),
       clustered=st.booleans(), n=st.integers(min_value=0, max_value=30),
       n_duplicates=st.integers(min_value=0, max_value=3),
       n_zero=st.integers(min_value=0, max_value=3),
       gamma=st.one_of(st.floats(min_value=-0.9, max_value=1.0),
                       st.sampled_from([-0.5, 0.0, 0.5, 1.0])),
       block=st.sampled_from([1, 7, DEFAULT_BLOCK]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_graph_matches_per_pair_cosine_oracle(mode, clustered, n,
                                              n_duplicates, n_zero, gamma,
                                              block, seed):
    rng = np.random.default_rng(seed)
    if mode == "embedding":
        centres = rng.normal(size=(3, 5))
        reps = (centres[rng.integers(0, 3, size=n)]
                + 0.3 * rng.normal(size=(n, 5)) if clustered
                else rng.normal(size=(n, 5)))
    else:
        templates = rng.random((3, 12)) < 0.4
        reps = (templates[rng.integers(0, 3, size=n)]
                ^ (rng.random((n, 12)) < 0.1) if clustered
                else rng.random((n, 12)) < 0.3).astype(np.float64)
    if n:
        for _ in range(n_duplicates):
            reps[rng.integers(n)] = reps[rng.integers(n)]
        reps[rng.integers(0, n, size=n_zero)] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "BLOCK_ENTRIES", block)
        oracle = build_oracle(mode, reps, gamma)

    cosines = pair_cosines(reps)
    graph = oracle.graph.toarray()
    near = np.abs(cosines - gamma) <= NEAR
    expected = materialised_similarity(reps, gamma)
    assert np.array_equal(graph[~near], expected[~near])
    assert np.array_equal(graph, graph.T)
    if n >= 2:
        assert oracle.max_cosine == pytest.approx(np.nanmax(cosines),
                                                  abs=NEAR)
    zero = ~reps.any(axis=1)
    for user in np.flatnonzero(zero):
        assert np.all(graph[user, np.arange(n) != user] == (gamma < 0))

    # Only a tie can come within NEAR of gamma. Where the cosine is known
    # exactly: 0 with a zero row, 1 between equal rows, and in history
    # mode c / sqrt(a * b) over the item counts.
    exact = np.full((n, n), np.nan)
    if mode == "history":
        counts = reps @ reps.T
        with np.errstate(invalid="ignore", divide="ignore"):
            exact = counts / np.sqrt(np.outer(np.diag(counts),
                                              np.diag(counts)))
    exact[(reps[:, None] == reps[None]).all(axis=2)] = 1.0
    exact[zero[:, None] | zero[None]] = 0.0
    tie = np.abs(exact - gamma) <= 1e-9
    excluded = int(near.sum())
    assert excluded == int((near & tie).sum())
    event(f"pairs excluded near gamma: {'none' if excluded == 0 else 'some'}")


def test_graph_above_size_limit_is_config_error(monkeypatch):
    values = np.random.default_rng(0).normal(size=(6, 3))
    monkeypatch.setattr(similarity, "MAX_SIMILAR_PAIRS", 30)
    assert embedding_oracle(values, gamma=-0.99).n_pairs == 30
    monkeypatch.setattr(similarity, "MAX_SIMILAR_PAIRS", 29)
    with pytest.raises(ConfigError, match=r"gamma=-0\.99.*\(30 after"):
        embedding_oracle(values, gamma=-0.99)


# --- block sizes ----------------------------------------------------------------

def exact_rows(rng, n):
    """Clustered rows of 0 and +-1 with 1, 4 or 16 non-zeros among 16
    columns, each times a power of two. Their norms are powers of two, so
    the unit rows and every sum of their products are exact, in whatever
    order a BLAS kernel adds: the cosines lie on a grid of sixteenths."""
    rows = rng.choice([-1.0, 1.0], size=(3, 16))[rng.integers(0, 3, n)]
    rows[rng.random((n, 16)) < 0.15] *= -1.0
    for row, nnz in zip(rows, rng.choice([1, 4, 16], size=n)):
        row[rng.choice(16, 16 - nnz, replace=False)] = 0.0
    return rows * 2.0 ** rng.integers(-3, 4, size=(n, 1))


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["embedding", "history"]),
       n=st.integers(min_value=2, max_value=60),
       n_duplicates=st.integers(min_value=0, max_value=3),
       n_zero=st.integers(min_value=0, max_value=3),
       gamma=st.one_of(st.floats(min_value=-0.9, max_value=1.0),
                       st.sampled_from([-0.25, 0.0, 0.25, 0.5, 0.75, 1.0])),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_graph_is_the_same_for_every_block_size(mode, n, n_duplicates,
                                                n_zero, gamma, seed):
    # A BLAS product's last bit can depend on the block's shape, so the
    # embedding rows here have exact products (the per-pair oracle test
    # covers general rows). History products add in item order, exactly
    # as the rows are split.
    rng = np.random.default_rng(seed)
    if mode == "embedding":
        reps = exact_rows(rng, n)
    else:
        templates = rng.random((3, 12)) < 0.4
        reps = (templates[rng.integers(0, 3, size=n)]
                ^ (rng.random((n, 12)) < 0.1)).astype(np.float64)
    for _ in range(n_duplicates):
        reps[rng.integers(n)] = reps[rng.integers(n)]
    reps[rng.integers(0, n, size=n_zero)] = 0.0

    built = []
    for block in (1, 7, n, n * n, DEFAULT_BLOCK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "BLOCK_ENTRIES", block)
            built.append(build_oracle(mode, reps, gamma))
            if built[-1].n_pairs:
                patch.setattr(similarity, "MAX_SIMILAR_PAIRS",
                              built[-1].n_pairs - 1)
                with pytest.raises(ConfigError, match="raise gamma"):
                    build_oracle(mode, reps, gamma)
    first = built[0]
    for oracle in built[1:]:
        assert (oracle.graph != first.graph).nnz == 0
        assert oracle.n_pairs == first.n_pairs
        assert oracle.max_cosine == first.max_cosine
    event(f"similar pairs: {'none' if first.n_pairs == 0 else 'some'}")


def test_oracle_build_holds_one_small_block():
    # Phase one's frozen table on the medium data: 2600 users of 64 dims,
    # whose scores above the diagonal take 27 MB of float64. One 4 MB
    # block lives at a time, beside its mask and the float64 unit rows
    # (1.3 MB).
    table = np.random.default_rng(0).normal(size=(2600, 64)).astype(
        np.float32)
    peak = traced_peak(SimilarityOracle.from_embeddings, table, 0.9)
    assert peak <= 8 << 20


@pytest.mark.parametrize("block", [1, 7, 600, 300 * 300, DEFAULT_BLOCK])
def test_duplicate_users_are_not_similar_at_gamma_one(monkeypatch, block):
    # Rounding can put a unit row's product with its copy above 1; no
    # cosine exceeds 1, so at gamma = 1 no pair is similar.
    rows = np.random.default_rng(0).normal(size=(150, 64))
    monkeypatch.setattr(similarity, "BLOCK_ENTRIES", block)
    for mode, reps in (("embedding", np.repeat(rows, 2, axis=0)),
                       ("history", np.repeat(rows > 0.5, 2, axis=0))):
        oracle = build_oracle(mode, reps.astype(np.float64), 1.0)
        assert oracle.n_pairs == 0 and oracle.max_cosine <= 1.0


def test_oracle_norms_are_taken_a_block_at_a_time(monkeypatch):
    # 12,000 users of 64 dims: a float64 copy is 6.1 MB, squaring it
    # whole would take as much again, while a block is 0.5 MB.
    monkeypatch.setattr(similarity, "BLOCK_ENTRIES", 1 << 16)
    table = np.random.default_rng(0).normal(size=(12000, 64)).astype(
        np.float32)
    table[::1000] = 0.0
    peak = traced_peak(SimilarityOracle.from_embeddings, table, 0.9)
    assert peak <= table.size * 8 + (2 << 20)
    # The norms are np.linalg.norm's, bit for bit.
    values = table[:3000].astype(np.float64)
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    want = SimilarityOracle(values / np.where(norms == 0.0, 1.0, norms), 0.3)
    got = SimilarityOracle.from_embeddings(table[:3000], 0.3)
    assert want.n_pairs > 0 and (got.graph != want.graph).nnz == 0
    assert got.max_cosine == want.max_cosine


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
    similar_users = pairs.users[np.stack([pairs.sim_i, pairs.sim_j], axis=1)]
    assert similar_users.tolist() == [[1, 2], [2, 1]]


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
    forward = set(zip(pairs.sim_i.tolist(), pairs.sim_j.tolist()))
    assert forward and forward == {(j, i) for i, j in forward}
    assert all(i != j for i, j in forward)


def test_pair_sets_reject_self_pairs():
    for sim_i, sim_j in (([0], [0]),          # a self-pair
                         ([0, 0], [1, 1]),    # a duplicate
                         ([1, 0], [0, 1]),    # not row-major
                         ([0], [2]),          # outside the two users
                         ([-1], [1])):
        with pytest.raises(ValueError):
            PairSets(np.array([3, 4]), np.array(sim_i), np.array(sim_j))


@pytest.mark.parametrize("mode", ["embedding", "history"])
def test_lazy_extraction_equals_materialised_matrix(mode):
    rng = np.random.default_rng(7)
    n = 50
    if mode == "embedding":
        base = rng.normal(size=(8, 4))
        reps = base[rng.integers(0, 8, size=n)] + 0.3 * rng.normal(size=(n, 4))
        oracle = embedding_oracle(reps, gamma=0.8)
    else:
        rows = tuple(np.unique(rng.integers(0, 12, size=rng.integers(1, 8)))
                     for _ in range(n))
        reps = dense_history(rows, 12)
        oracle = SimilarityOracle.from_history(interaction_set(rows, 12),
                                               gamma=0.6)
    for subset_size in (2, 13, 50):
        users = np.sort(rng.choice(n, size=subset_size, replace=False))
        batch = rng.permutation(np.repeat(users, 2))
        pairs = extract_pairs(batch, oracle)
        expected = materialised_similarity(reps, oracle.gamma, users)
        assert np.array_equal(pairs.users, users)
        # Row-major, as np.nonzero lists a mask's entries.
        sim_i, sim_j = np.nonzero(expected)
        assert np.array_equal(pairs.sim_i, sim_i)
        assert np.array_equal(pairs.sim_j, sim_j)
