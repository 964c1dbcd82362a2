"""Full-ranking top-K evaluation: Recall@K, HR@K, NDCG@K.

Items a user has already seen (train plus valid when scoring the test
set) are always masked out of the ranking; ties are broken by ascending
item index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import SplitDataset

METRIC_NAMES = ("recall", "hr", "ndcg")

# Score entries per ranked block of users; bounds the block's temporaries.
BLOCK_ENTRIES = 1 << 18


def top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the indices and values of the ``min(k, n_items)`` best
    scores, by score descending, then index ascending; -0.0 ties with 0.0.
    Only entries at or above a lower bound of the row's k-th best score are
    ranked, all of them: a row of many ties at the bound sorts every one."""
    n_rows, n_items = scores.shape
    k = min(k, n_items)
    # k distinct entries reach the k-th largest of >= k chunk maxima, so it
    # bounds the row's k-th best score from below. The last chunk takes the
    # columns left over, and NaN, which no comparison admits, propagates.
    width = n_items // min(n_items, 2 * k)
    maxima = np.maximum.reduceat(scores, np.arange(n_items // width) * width,
                                 axis=1)
    if np.isnan(maxima).any():
        raise ValueError("scores hold NaN; cannot rank them")
    bound = np.partition(maxima, -k, axis=1)[:, -k]
    # Row r's candidates, at least k of them, begin at flat[starts[r]].
    flat = np.flatnonzero(scores >= bound[:, None])
    values = np.take(scores, flat)
    starts = np.searchsorted(flat, np.arange(n_rows) * n_items)
    # Sort by row, then by the score's rank descending. Equal scores share a
    # rank, so the stable sort keeps them in index order.
    order = np.argsort(values)
    ordered = values[order]
    ranks = np.zeros(values.size, dtype=np.int64)
    ranks[order[1:]] = np.cumsum(ordered[1:] != ordered[:-1])
    order = np.argsort(flat // n_items * values.size - ranks, kind="stable")
    pick = order[starts[:, None] + np.arange(k)]
    return flat[pick] % n_items, values[pick]


@dataclass(frozen=True)
class MetricsReport:
    means: dict[str, float]
    stds: dict[str, float]
    k: int
    n_users: int
    seed: int | None = None

    def to_dict(self) -> dict:
        return {**{name: {"mean": self.means[name], "std": self.stds[name]}
                   for name in METRIC_NAMES},
                "K": self.k, "users": self.n_users, "seed": self.seed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def format_report(report: MetricsReport) -> str:
    lines = [f"{'metric':<12}{'mean':>12}{'std':>12}"]
    for name in METRIC_NAMES:
        lines.append(f"{name + '@' + str(report.k):<12}"
                     f"{report.means[name]:>12.6f}"
                     f"{report.stds[name]:>12.6f}")
    lines.append(f"users={report.n_users}"
                 + (f" seed={report.seed}" if report.seed is not None else ""))
    return "\n".join(lines) + "\n"


def evaluate_full(scorer, split: SplitDataset, *, k: int = 10,
                  part: str = "test",
                  seed: int | None = None) -> MetricsReport:
    """Rank every item for each user and aggregate the metrics over users
    with at least one held-out interaction.

    ``scorer(users)`` takes an int64 array of user ids and returns their
    ``(len(users), n_items)`` score block as a fresh array of any memory
    layout; masked items are written into it as -inf and never count as
    hits. ``part='test'`` masks train+valid items; ``part='valid'`` masks
    train items only.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    parts = {"test": (split.test, (split.train, split.valid)),
             "valid": (split.valid, (split.train,))}
    if part not in parts:
        raise ValueError(f"part must be 'test' or 'valid', got {part!r}")
    held, mask_parts = parts[part]
    n_held = np.diff(held.indptr)
    if not n_held.any():
        raise ValueError("no users with held-out interactions to evaluate")

    n_items = held.n_items
    discounts = np.array([1.0 / math.log2(rank + 1)
                          for rank in range(1, min(k, n_items) + 1)])
    ideal = np.cumsum(discounts)
    block = max(1, BLOCK_ENTRIES // n_items)
    ranked = []
    for start in range(0, held.n_users, block):
        stop = min(start + block, held.n_users)
        scores = scorer(np.arange(start, stop))
        for p in mask_parts:
            lo, hi = p.indptr[start], p.indptr[stop]
            np.put(scores, (p.users[lo:hi] - start) * n_items
                   + p.indices[lo:hi], -np.inf)
        keep = n_held[start:stop] > 0
        ranked.append([r[keep] for r in top_k(scores, k)])
    items, values = map(np.concatenate, zip(*ranked))
    users = np.flatnonzero(n_held)
    hit = held.contains(users[:, None] * n_items + items) & (values != -np.inf)
    hits, counts = hit.sum(axis=1), n_held[users]
    per_user = {"recall": hits / counts,
                "hr": (hits > 0).astype(np.float64),
                "ndcg": np.cumsum(hit * discounts, axis=1)[:, -1]
                / ideal[np.minimum(counts, k) - 1]}
    means = {name: float(np.mean(vals)) for name, vals in per_user.items()}
    stds = {name: float(np.std(vals)) for name, vals in per_user.items()}
    return MetricsReport(means, stds, k, users.size, seed)
