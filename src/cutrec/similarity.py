"""Binary user-user similarity and in-batch pair extraction.

The oracle keeps only the frozen per-user representations (embedding rows
or binary training-history rows) and answers pairwise queries lazily; the
full n-by-n matrix is never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionSet
from .embeddings import EmbeddingTable

MODE_EMBEDDING = "embedding"
MODE_HISTORY = "history"


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; a zero vector has similarity 0 to anything."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("vectors must have equal dimension")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def _normalise_rows(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return values / norms


class SimilarityOracle:
    """Answers whether two target-domain users count as similar:
    cosine(rep_p, rep_q) strictly above the threshold."""

    def __init__(self, mode: str, representations, gamma: float = 0.9):
        if mode not in (MODE_EMBEDDING, MODE_HISTORY):
            raise ValueError(f"unknown similarity mode {mode!r}")
        if not -1.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (-1, 1], got {gamma}")
        self.mode = mode
        self.gamma = gamma
        if mode == MODE_EMBEDDING:
            values = np.asarray(representations, dtype=np.float64)
            self._normed = _normalise_rows(values)
            self._normed.setflags(write=False)
            self._history = None
        else:
            self._history = representations.tocsr()
            self._normed = None

    @classmethod
    def from_embeddings(cls, table: EmbeddingTable | np.ndarray,
                        gamma: float = 0.9) -> "SimilarityOracle":
        values = table.values if isinstance(table, EmbeddingTable) else table
        return cls(MODE_EMBEDDING, np.array(values, dtype=np.float64), gamma)

    @classmethod
    def from_history(cls, train: InteractionSet,
                     gamma: float = 0.9) -> "SimilarityOracle":
        matrix = sp.csr_matrix(
            (np.ones(train.n_interactions), train.indices, train.indptr),
            shape=(train.n_users, train.n_items))
        return cls(MODE_HISTORY, matrix, gamma)

    @property
    def n_users(self) -> int:
        if self._normed is not None:
            return self._normed.shape[0]
        return self._history.shape[0]

    def _check(self, user: int) -> None:
        if not 0 <= user < self.n_users:
            raise IndexError(f"user index {user} outside target user range "
                             f"[0, {self.n_users})")

    def _subset(self, users: np.ndarray) -> np.ndarray:
        """Normalised representation rows for a user subset."""
        if self._normed is not None:
            return self._normed[users]
        dense = self._history[users].toarray()
        return _normalise_rows(dense)

    def similar(self, p: int, q: int) -> int:
        self._check(p)
        self._check(q)
        rows = self._subset(np.array([p, q]))
        return int(float(rows[0] @ rows[1]) > self.gamma)

    def pairwise(self, users: np.ndarray) -> np.ndarray:
        """Boolean similarity matrix over a user subset, diagonal False."""
        for user in (int(users.min()), int(users.max())) if users.size else ():
            self._check(user)
        rows = self._subset(users)
        mask = (rows @ rows.T) > self.gamma
        np.fill_diagonal(mask, False)
        return mask


@dataclass(frozen=True)
class PairSets:
    """Ordered user pairs over the distinct users of one batch.

    ``sim_mask[i, j]`` says users ``users[i]`` and ``users[j]`` are
    similar; the diagonal is always False, so similar pairs are a subset
    of the u*(u-1) ordered distinct pairs.
    """

    users: np.ndarray
    sim_mask: np.ndarray

    def __post_init__(self):
        self.users.setflags(write=False)
        self.sim_mask.setflags(write=False)
        u = self.users.size
        if self.sim_mask.shape != (u, u):
            raise ValueError("sim_mask shape does not match user count")
        if u and np.any(np.diag(self.sim_mask)):
            raise ValueError("self-pairs are not allowed")

    @property
    def n_users(self) -> int:
        return self.users.size

    @property
    def n_similar(self) -> int:
        return int(np.count_nonzero(self.sim_mask))

    @property
    def n_all(self) -> int:
        u = self.users.size
        return u * (u - 1)


def extract_pairs(batch_users, oracle: SimilarityOracle) -> PairSets:
    """Deduplicate batch users, then build all/similar ordered pair sets
    by querying the oracle on the fly."""
    distinct = np.unique(np.asarray(batch_users, dtype=np.int64))
    if distinct.size < 2:
        return PairSets(distinct,
                        np.zeros((distinct.size, distinct.size), dtype=bool))
    return PairSets(distinct, oracle.pairwise(distinct))
