"""Independent oracles and utilities shared by the test suite.

The oracles here are deliberately written as the naive/brute-force route
so they stay independent of the implementation under test;
``interaction_set`` only builds test inputs.
"""

from __future__ import annotations

import math

import numpy as np

from cutrec.corpus import InteractionSet


def fd_gradient(loss_fn, array: np.ndarray, flat_indices, h: float = 1e-6):
    """Central finite differences of ``loss_fn()`` w.r.t. entries of
    ``array`` (perturbed in place)."""
    out = np.zeros(len(flat_indices))
    flat = array.reshape(-1)
    for pos, idx in enumerate(flat_indices):
        original = flat[idx]
        flat[idx] = original + h
        up = loss_fn()
        flat[idx] = original - h
        down = loss_fn()
        flat[idx] = original
        out[pos] = (up - down) / (2.0 * h)
    return out


def assert_grad_matches(loss_fn, params: dict[str, np.ndarray],
                        analytic: dict[str, np.ndarray], *,
                        rtol: float = 1e-4, h: float = 1e-6,
                        max_entries_per_param: int | None = None,
                        rng: np.random.Generator | None = None):
    """Check every (or a sampled subset of) parameter entry against
    central differences. ``analytic`` maps names to dense gradients."""
    for name, array in params.items():
        dense = analytic.get(name)
        if dense is None:
            dense = np.zeros_like(array, dtype=np.float64)
        n = array.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            assert rng is not None
            indices = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            indices = np.arange(n)
        fd = fd_gradient(loss_fn, array, indices, h=h)
        ana = dense.reshape(-1)[indices]
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-6)
        rel = np.abs(fd - ana) / scale
        worst = int(np.argmax(rel))
        assert rel.max() <= rtol, (
            f"gradient mismatch for {name!r}: analytic={ana[worst]!r} "
            f"fd={fd[worst]!r} rel={rel.max():.3g}")


def dense_grads(grads: dict, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Expand (rows, values) sparse gradients to dense arrays."""
    out = {}
    for name, (rows, values) in grads.items():
        dense = np.zeros(params[name].shape, dtype=np.float64)
        if rows is None:
            dense[...] = values
        else:
            dense[rows] = values
        out[name] = dense
    return out


def dense_propagation_oracle(adjacency_dense: np.ndarray, base: np.ndarray,
                             k_layers: int) -> np.ndarray:
    """Mean over matrix powers 0..K, computed with dense matrix products."""
    acc = base.astype(np.float64).copy()
    current = base.astype(np.float64)
    power = np.eye(adjacency_dense.shape[0])
    for _ in range(k_layers):
        power = adjacency_dense @ power
        current = power @ base
        acc += current
    return acc / (k_layers + 1)


def brute_force_contrastive(vectors: np.ndarray, similar_pairs, all_pairs,
                            tau: float) -> float:
    """Literal evaluation of the batch regulariser via python loops."""
    if not similar_pairs:
        return 0.0
    denom = sum(math.exp(float(np.dot(vectors[x], vectors[y])) / tau)
                for x, y in all_pairs)
    total = 0.0
    for i, j in similar_pairs:
        numer = len(all_pairs) * math.exp(
            float(np.dot(vectors[i], vectors[j])) / tau)
        total += math.log(numer / denom)
    return -total / len(similar_pairs)


def brute_force_k_core(records, min_count: int):
    """Repeated count-and-filter over plain tuples until stable."""
    current = list(records)
    changed = True
    while changed:
        users = {}
        items = {}
        for u, i, _ in current:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        nxt = [r for r in current
               if users[r[0]] >= min_count and items[r[1]] >= min_count]
        changed = len(nxt) != len(current)
        current = nxt
    return current


def full_sort_topk(scores: np.ndarray, mask, k: int) -> list[int]:
    """Rank every item by (score desc, index asc) and keep the unmasked
    prefix of length k."""
    masked = set(int(i) for i in mask) if mask is not None else set()
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    kept = [i for i in order if i not in masked]
    return kept[:k]


def materialised_similarity(oracle, users) -> np.ndarray:
    """Full pairwise matrix over a subset via scalar oracle queries."""
    u = len(users)
    out = np.zeros((u, u), dtype=bool)
    for a in range(u):
        for b in range(u):
            if a != b:
                out[a, b] = bool(oracle.similar(int(users[a]), int(users[b])))
    return out


def interaction_set(rows, n_items: int) -> InteractionSet:
    """An interaction set whose user ``u`` has the items ``rows[u]``."""
    users = [user for user, row in enumerate(rows) for _ in row]
    items = [int(item) for row in rows for item in row]
    return InteractionSet.from_pairs(len(rows), n_items, users, items)


def naive_rows(n_users: int, pairs) -> list[list[int]]:
    """Each user's distinct items, sorted, from (user, item) pairs."""
    return [sorted({item for u, item in pairs if u == user})
            for user in range(n_users)]
