"""Binary user-user similarity and in-batch pair extraction.

The oracle's representations are frozen, so it decides every user pair
once, when it is built: the similar pairs form a read-only boolean CSR
graph over the users, and ``extract_pairs`` slices it for one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionSet
from .errors import ConfigError

# Ordered pairs (5 bytes each). Past it, slicing a batch costs more than
# scoring the batch's users against each other (see CHANGES.md).
MAX_SIMILAR_PAIRS = 1 << 19
# Scores per block (4 MB of float64). One block lives at a time, so the
# build's peak is a few MB above its unit rows; smaller blocks slow the
# products (1 MB blocks took 1.5x as long for 26,000 users, CHANGES.md).
BLOCK_ENTRIES = 1 << 19


def _similar_pair_graph(normed, gamma: float) -> tuple[sp.csr_matrix, float]:
    """Pairs with cosine strictly above ``gamma`` as a symmetric boolean CSR
    graph, and the largest off-diagonal cosine (-inf below two users). Row
    blocks of ``normed`` (unit or zero rows, dense or CSR) are scored against
    the rows from their own on: each pair is decided once, then mirrored."""
    n = normed.shape[0]
    upper = [np.zeros(0, dtype=np.int64)]
    found, max_cosine, lo = 0, -np.inf, 0
    while lo < n:
        hi = min(n, lo + max(1, BLOCK_ENTRIES // (n - lo)))
        scores = normed[lo:hi] @ normed[lo:].T
        scores = scores.toarray() if sp.issparse(scores) else scores
        # Rounding can lift a product of equal unit rows above 1, which
        # would make duplicates similar at gamma = 1.
        np.minimum(scores, 1.0, out=scores)
        scores[:, :hi - lo][np.tri(hi - lo, dtype=bool)] = -np.inf
        max_cosine = max(max_cosine, float(scores.max()))
        i, j = np.nonzero(scores > gamma)
        del scores  # freed before the next block is scored
        found += 2 * i.size
        if found > MAX_SIMILAR_PAIRS:
            raise ConfigError(
                f"gamma={gamma} makes more than {MAX_SIMILAR_PAIRS} ordered "
                f"user pairs similar ({found} after {hi} of {n} users, "
                f"largest cosine {max_cosine:.4f}); raise gamma")
        upper.append((i + lo) * n + (j + lo))
        lo = hi
    upper = np.concatenate(upper)
    keys = np.sort(np.concatenate([upper, upper % n * n + upper // n]))
    indptr = np.r_[0, np.cumsum(np.bincount(keys // n, minlength=n))]
    graph = sp.csr_matrix((np.ones(keys.size, bool), keys % n, indptr), (n, n))
    for array in (graph.data, graph.indices, graph.indptr):
        array.setflags(write=False)
    return graph, max_cosine


class SimilarityOracle:
    """Decides whether two target-domain users count as similar:
    cosine(rep_p, rep_q) strictly above ``gamma``, where a zero
    representation has cosine 0 to anything. ``graph`` holds every
    decision, ``n_pairs`` counts its ordered pairs and ``max_cosine`` is
    the largest off-diagonal cosine."""

    def __init__(self, normed, gamma: float = 0.9):
        if not -1.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (-1, 1], got {gamma}")
        self.gamma = gamma
        self.graph, self.max_cosine = _similar_pair_graph(normed, gamma)
        self.n_pairs = self.graph.nnz

    @classmethod
    def from_embeddings(cls, table: np.ndarray,
                        gamma: float = 0.9) -> "SimilarityOracle":
        values = np.array(table, dtype=np.float64)
        # Row norms a block of squares at a time, as np.linalg.norm sums
        # them, without squaring the whole table at once.
        norms = np.empty((len(values), 1))
        step = max(1, BLOCK_ENTRIES // max(1, values.shape[1]))
        for lo in range(0, len(values), step):
            block = values[lo:lo + step]
            norms[lo:lo + step, 0] = np.sqrt((block * block).sum(axis=1))
        values /= np.where(norms == 0.0, 1.0, norms)
        return cls(values, gamma)

    @classmethod
    def from_history(cls, train: InteractionSet,
                     gamma: float = 0.9) -> "SimilarityOracle":
        """Binary training-history rows, normalised without densifying."""
        counts = np.diff(train.indptr)
        normed = sp.csr_matrix(
            (np.repeat(1.0 / np.sqrt(np.maximum(counts, 1)), counts),
             train.indices, train.indptr),
            shape=(train.n_users, train.n_items))
        return cls(normed, gamma)


@dataclass(frozen=True)
class PairSets:
    """Ordered user pairs over the distinct users of one batch.

    Users ``users[sim_i[k]]`` and ``users[sim_j[k]]`` are similar. The
    similar pairs are distinct, row-major (by ``sim_i``, then ``sim_j``)
    and never pair a user with itself, so they are a subset of the
    u*(u-1) ordered distinct pairs.
    """

    users: np.ndarray
    sim_i: np.ndarray
    sim_j: np.ndarray

    def __post_init__(self):
        for array in (self.users, self.sim_i, self.sim_j):
            array.setflags(write=False)
        if np.any(self.sim_i == self.sim_j):
            raise ValueError("self-pairs are not allowed")
        # Raises ValueError for an index outside the batch users.
        keys = np.ravel_multi_index((self.sim_i, self.sim_j),
                                    (self.users.size,) * 2)
        if np.any(np.diff(keys) <= 0):
            raise ValueError("similar pairs must be distinct and row-major")

    @property
    def n_users(self) -> int:
        return self.users.size

    @property
    def n_similar(self) -> int:
        return self.sim_i.size

    @property
    def n_all(self) -> int:
        u = self.users.size
        return u * (u - 1)


def extract_pairs(batch_users, oracle: SimilarityOracle) -> PairSets:
    """Distinct batch users and their similar pairs, sliced from the graph."""
    batch = np.asarray(batch_users, dtype=np.int64)
    n = oracle.graph.shape[0]
    if batch.size and (batch.min() < 0 or batch.max() >= n):
        raise IndexError(f"batch user outside target user range [0, {n})")
    present = np.zeros(n, dtype=bool)
    present[batch] = True
    users = np.flatnonzero(present)
    local = np.where(present, np.cumsum(present) - 1, -1)
    starts = oracle.graph.indptr[users]
    counts = oracle.graph.indptr[users + 1] - starts
    # Graph positions of the batch users' rows, one row after another.
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    cols = local[oracle.graph.indices[np.arange(offsets.size) + offsets]]
    rows = np.repeat(np.arange(users.size), counts)
    return PairSets(users, rows[cols >= 0], cols[cols >= 0])
