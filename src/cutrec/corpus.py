"""Interaction corpora: ingestion, k-core filtering, cross-domain index
spaces, and per-user train/validation/test splits.

All types here are immutable after construction (underlying numpy arrays
are marked read-only), so they can be shared freely across workers.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DatasetCollapsedError, ParseError

logger = logging.getLogger(__name__)

# (user_token, item_token, timestamp-or-None)
Record = tuple[str, str, int | None]


class DomainId(Enum):
    SOURCE = "source"
    TARGET = "target"


class UserRole(IntEnum):
    TARGET_ONLY = 0
    OVERLAP = 1
    SOURCE_ONLY = 2


@dataclass(frozen=True)
class RawInteractions:
    """Deduplicated (user, item, timestamp) records for one domain."""

    records: tuple[Record, ...]
    domain_id: DomainId

    def __len__(self) -> int:
        return len(self.records)

    @property
    def user_tokens(self) -> set[str]:
        return {r[0] for r in self.records}

    @property
    def item_tokens(self) -> set[str]:
        return {r[1] for r in self.records}


def load_interactions(path, domain_id: DomainId) -> RawInteractions:
    """Read a TAB-separated interaction file.

    Each line is ``user<TAB>item[<TAB>timestamp]``; lines starting with
    ``#`` and blank lines are ignored. Duplicate (user, item) pairs are
    collapsed, keeping the earliest known timestamp.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"interaction file not found: {path}")
    best: dict[tuple[str, str], int | None] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw_line in enumerate(handle, start=1):
            line = raw_line.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise ParseError(
                    path, line_no,
                    f"expected 2 or 3 tab-separated fields, got {len(parts)}")
            user, item = parts[0], parts[1]
            if not user or not item:
                raise ParseError(path, line_no, "empty user or item token")
            ts: int | None = None
            if len(parts) == 3:
                try:
                    ts = int(parts[2])
                except ValueError:
                    raise ParseError(
                        path, line_no, f"invalid timestamp {parts[2]!r}") from None
            key = (user, item)
            if key in best:
                prev = best[key]
                if ts is not None and (prev is None or ts < prev):
                    best[key] = ts
            else:
                best[key] = ts
    if not best:
        raise ParseError(path, None, "file contains no interaction records")
    records = tuple(sorted((u, i, t) for (u, i), t in best.items()))
    logger.info("loaded %d interactions (%d users, %d items) from %s",
                len(records), len({r[0] for r in records}),
                len({r[1] for r in records}), path)
    return RawInteractions(records, domain_id)


def filter_k_core(raw: RawInteractions, min_count: int = 5) -> RawInteractions:
    """Iteratively drop users and items with fewer than ``min_count``
    interactions until no more removals occur."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    records = raw.records
    while True:
        user_counts = Counter(r[0] for r in records)
        item_counts = Counter(r[1] for r in records)
        kept = tuple(r for r in records
                     if user_counts[r[0]] >= min_count
                     and item_counts[r[1]] >= min_count)
        if len(kept) == len(records):
            break
        records = kept
    if not records:
        raise DatasetCollapsedError(
            f"dataset collapsed: no interactions survive {min_count}-core filtering")
    return RawInteractions(records, raw.domain_id)


@dataclass(frozen=True)
class InteractionSet:
    """Sparse binary interaction matrix, one sorted item-index row per user.

    ``times`` (when present) is aligned with ``rows`` and enables
    chronological splitting.
    """

    n_users: int
    n_items: int
    rows: tuple[np.ndarray, ...]
    times: tuple[np.ndarray | None, ...] | None = None

    def __post_init__(self):
        if len(self.rows) != self.n_users:
            raise ValueError("rows length does not match n_users")
        for user, row in enumerate(self.rows):
            row.setflags(write=False)
            if row.size:
                if row[0] < 0 or row[-1] >= self.n_items:
                    raise ValueError(f"item index out of range in row {user}")
                if row.size > 1 and not np.all(np.diff(row) > 0):
                    raise ValueError(f"row {user} is not strictly increasing")
        if self.times is not None:
            if len(self.times) != self.n_users:
                raise ValueError("times length does not match n_users")
            for user, ts in enumerate(self.times):
                if ts is None:
                    continue
                ts.setflags(write=False)
                if ts.size != self.rows[user].size:
                    raise ValueError(f"times row {user} misaligned with items")

    @property
    def n_interactions(self) -> int:
        return sum(row.size for row in self.rows)


def _interaction_set(per_user: list[list[tuple[int, int | None]]],
                     n_items: int) -> InteractionSet:
    rows = []
    times: list[np.ndarray | None] = []
    any_time = False
    for pairs in per_user:
        pairs.sort(key=lambda p: p[0])
        rows.append(np.array([p[0] for p in pairs], dtype=np.int64))
        if pairs and all(p[1] is not None for p in pairs):
            times.append(np.array([p[1] for p in pairs], dtype=np.int64))
            any_time = True
        else:
            times.append(None)
    return InteractionSet(len(per_user), n_items, tuple(rows),
                          tuple(times) if any_time else None)


@dataclass(frozen=True)
class CrossDomainDataset:
    """Two domains over a shared user universe.

    Global user order is TARGET_ONLY, then OVERLAP, then SOURCE_ONLY,
    sorted by token within each role. Target-local indices coincide with
    global indices; source-local index ``v`` maps to global
    ``n_target_only + v``. Item index spaces are disjoint per domain.
    """

    source: InteractionSet
    target: InteractionSet
    user_tokens: tuple[str, ...]
    user_roles: np.ndarray
    source_item_tokens: tuple[str, ...]
    target_item_tokens: tuple[str, ...]

    def __post_init__(self):
        self.user_roles.setflags(write=False)
        if len(self.user_tokens) != self.user_roles.size:
            raise ValueError("user_tokens / user_roles length mismatch")
        if self.target.n_users != self.n_target_only + self.n_overlap:
            raise ValueError("target user count inconsistent with partition")
        if self.source.n_users != self.n_overlap + self.n_source_only:
            raise ValueError("source user count inconsistent with partition")

    @cached_property
    def role_counts(self) -> tuple[int, int, int]:
        roles = self.user_roles
        return (int(np.sum(roles == UserRole.TARGET_ONLY)),
                int(np.sum(roles == UserRole.OVERLAP)),
                int(np.sum(roles == UserRole.SOURCE_ONLY)))

    @property
    def n_target_only(self) -> int:
        return self.role_counts[0]

    @property
    def n_overlap(self) -> int:
        return self.role_counts[1]

    @property
    def n_source_only(self) -> int:
        return self.role_counts[2]

    @cached_property
    def item_token_maps(self) -> dict[str, dict[str, int]]:
        return {
            "source": {tok: idx for idx, tok in enumerate(self.source_item_tokens)},
            "target": {tok: idx for idx, tok in enumerate(self.target_item_tokens)},
        }


def build_cross_domain(source: RawInteractions,
                       target: RawInteractions) -> CrossDomainDataset:
    """Assemble the joint index space from two filtered domains."""
    if source.domain_id == target.domain_id:
        raise ValueError("source and target must have distinct domain ids")
    source_users = source.user_tokens
    target_users = target.user_tokens
    overlap = sorted(source_users & target_users)
    target_only = sorted(target_users - source_users)
    source_only = sorted(source_users - target_users)
    if not overlap:
        logger.warning("no overlapping users between domains; "
                       "transfer will rely on the contrastive term only")

    user_tokens = tuple(target_only + overlap + source_only)
    roles = np.concatenate([
        np.full(len(target_only), UserRole.TARGET_ONLY, dtype=np.int8),
        np.full(len(overlap), UserRole.OVERLAP, dtype=np.int8),
        np.full(len(source_only), UserRole.SOURCE_ONLY, dtype=np.int8),
    ])
    user_index = {tok: idx for idx, tok in enumerate(user_tokens)}
    n_target_users = len(target_only) + len(overlap)
    n_target_only = len(target_only)

    source_items = tuple(sorted(source.item_tokens))
    target_items = tuple(sorted(target.item_tokens))
    source_item_index = {tok: idx for idx, tok in enumerate(source_items)}
    target_item_index = {tok: idx for idx, tok in enumerate(target_items)}

    target_rows: list[list[tuple[int, int | None]]] = [
        [] for _ in range(n_target_users)]
    for user, item, ts in target.records:
        target_rows[user_index[user]].append((target_item_index[item], ts))

    n_source_users = len(overlap) + len(source_only)
    source_rows: list[list[tuple[int, int | None]]] = [
        [] for _ in range(n_source_users)]
    for user, item, ts in source.records:
        source_rows[user_index[user] - n_target_only].append(
            (source_item_index[item], ts))

    return CrossDomainDataset(
        source=_interaction_set(source_rows, len(source_items)),
        target=_interaction_set(target_rows, len(target_items)),
        user_tokens=user_tokens,
        user_roles=roles,
        source_item_tokens=source_items,
        target_item_tokens=target_items,
    )


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/valid/test views over one domain's index space."""

    train: InteractionSet
    valid: InteractionSet
    test: InteractionSet
    split_seed: int


def _split_counts(n: int, ratios: tuple[float, ...]) -> list[int]:
    """Floor proportions with remainder to train; each positive eval part
    gets at least one interaction when the user can afford it."""
    total = float(sum(ratios))
    counts = [math.floor(n * r / total) for r in ratios]
    eval_parts = [i for i in range(1, len(ratios)) if ratios[i] > 0]
    if n >= 1 + len(eval_parts):
        for i in eval_parts:
            counts[i] = max(counts[i], 1)
    counts[0] = n - sum(counts[1:])
    return counts


def _split_interactions(inter: InteractionSet, ratios: tuple[float, ...],
                        seed: int, n_parts: int) -> list[InteractionSet]:
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[] for _ in range(n_parts)]
    for user in range(inter.n_users):
        row = inter.rows[user]
        ts = inter.times[user] if inter.times is not None else None
        if ts is not None:
            order = np.argsort(ts, kind="stable")
        else:
            order = rng.permutation(row.size)
        counts = _split_counts(row.size, ratios)
        offset = 0
        for part in range(n_parts):
            take = counts[part] if part < len(ratios) else 0
            picked = row[order[offset:offset + take]]
            parts[part].append(np.sort(picked))
            offset += take
    return [InteractionSet(inter.n_users, inter.n_items, tuple(rows))
            for rows in parts]


def split_target(ds: CrossDomainDataset, ratios: tuple[float, ...] = (8, 1, 1),
                 seed: int = 0) -> SplitDataset:
    """Per-user target split: chronological when timestamps are present
    (oldest into train), seeded-uniform otherwise."""
    if len(ratios) != 3:
        raise ValueError("target split needs (train, valid, test) ratios")
    train, valid, test = _split_interactions(ds.target, ratios, seed, 3)
    return SplitDataset(train, valid, test, seed)


def split_source(ds: CrossDomainDataset, ratios: tuple[float, ...] = (8, 2),
                 seed: int = 0) -> SplitDataset:
    """Per-user source split into train/valid; the test partition is empty."""
    if len(ratios) != 2:
        raise ValueError("source split needs (train, valid) ratios")
    train, valid, test = _split_interactions(ds.source, ratios, seed, 3)
    return SplitDataset(train, valid, test, seed)


def subsample_target(split: SplitDataset, retain_fraction: float,
                     seed: int) -> SplitDataset:
    """Uniformly retain ``ceil(fraction * count)`` training interactions.

    Validation and test sets are untouched; users whose training row
    becomes empty stay in the index space (cold users).
    """
    if not 0.0 < retain_fraction <= 1.0:
        raise ValueError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    if retain_fraction == 1.0:
        return split
    train = split.train
    users = np.repeat(np.arange(train.n_users), [r.size for r in train.rows])
    items = (np.concatenate(train.rows) if users.size
             else np.array([], dtype=np.int64))
    keep = math.ceil(retain_fraction * users.size)
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(users.size, size=keep, replace=False))
    rows: list[np.ndarray] = []
    kept_users = users[chosen]
    kept_items = items[chosen]
    for user in range(train.n_users):
        rows.append(np.sort(kept_items[kept_users == user]))
    sub_train = InteractionSet(train.n_users, train.n_items, tuple(rows))
    return SplitDataset(sub_train, split.valid, split.test, split.split_seed)


# --- dataset archive --------------------------------------------------------

INDEX_FILE = "index.json"
SPLITS_FILE = "splits.json"
SOURCE_TSV = "source.tsv"
TARGET_TSV = "target.tsv"
ARCHIVE_VERSION = 1


def _rows_to_lists(inter: InteractionSet) -> list[list[int]]:
    return [row.tolist() for row in inter.rows]


def _write_tsv(path: Path, inter: InteractionSet, user_tokens,
               item_tokens) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for user in range(inter.n_users):
            row = inter.rows[user]
            ts = inter.times[user] if inter.times is not None else None
            for pos, item in enumerate(row):
                fields = [user_tokens[user], item_tokens[item]]
                if ts is not None:
                    fields.append(str(int(ts[pos])))
                handle.write("\t".join(fields) + "\n")


def save_dataset(out_dir, ds: CrossDomainDataset, target_split: SplitDataset,
                 source_split: SplitDataset, *, force: bool = False) -> list[Path]:
    """Write the dataset archive: TSVs plus index.json and splits.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in
             (SOURCE_TSV, TARGET_TSV, INDEX_FILE, SPLITS_FILE)]
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing[0]} (pass force/--force)")

    a = ds.n_target_only
    n = ds.target.n_users
    _write_tsv(out / SOURCE_TSV, ds.source, ds.user_tokens[a:],
               ds.source_item_tokens)
    _write_tsv(out / TARGET_TSV, ds.target, ds.user_tokens[:n],
               ds.target_item_tokens)

    index = {
        "version": ARCHIVE_VERSION,
        "users": {
            "target_only": list(ds.user_tokens[:a]),
            "overlap": list(ds.user_tokens[a:n]),
            "source_only": list(ds.user_tokens[n:]),
        },
        "items": {
            "source": list(ds.source_item_tokens),
            "target": list(ds.target_item_tokens),
        },
    }
    splits = {
        "version": ARCHIVE_VERSION,
        "target": {
            "seed": target_split.split_seed,
            "train": _rows_to_lists(target_split.train),
            "valid": _rows_to_lists(target_split.valid),
            "test": _rows_to_lists(target_split.test),
        },
        "source": {
            "seed": source_split.split_seed,
            "train": _rows_to_lists(source_split.train),
            "valid": _rows_to_lists(source_split.valid),
            "test": _rows_to_lists(source_split.test),
        },
    }
    (out / INDEX_FILE).write_text(
        json.dumps(index, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (out / SPLITS_FILE).write_text(
        json.dumps(splits, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return paths


def _lists_to_rows(lists: list[list[int]], n_items: int) -> InteractionSet:
    rows = tuple(np.array(sorted(items), dtype=np.int64) for items in lists)
    return InteractionSet(len(lists), n_items, rows)


def _merge_split(split_obj, n_items: int) -> InteractionSet:
    merged = []
    for parts in zip(split_obj["train"], split_obj["valid"], split_obj["test"]):
        merged.append(sorted(parts[0] + parts[1] + parts[2]))
    return _lists_to_rows(merged, n_items)


def load_dataset(in_dir) -> tuple[CrossDomainDataset, SplitDataset, SplitDataset]:
    """Reload an archive written by :func:`save_dataset`."""
    root = Path(in_dir)
    index_path = root / INDEX_FILE
    splits_path = root / SPLITS_FILE
    for path in (index_path, splits_path):
        if not path.exists():
            raise FileNotFoundError(f"dataset archive file missing: {path}")
    index = json.loads(index_path.read_text(encoding="utf-8"))
    splits = json.loads(splits_path.read_text(encoding="utf-8"))
    for blob, path in ((index, index_path), (splits, splits_path)):
        if blob.get("version") != ARCHIVE_VERSION:
            raise ValueError(f"unsupported archive version in {path}")

    target_only = index["users"]["target_only"]
    overlap = index["users"]["overlap"]
    source_only = index["users"]["source_only"]
    user_tokens = tuple(target_only + overlap + source_only)
    roles = np.concatenate([
        np.full(len(target_only), UserRole.TARGET_ONLY, dtype=np.int8),
        np.full(len(overlap), UserRole.OVERLAP, dtype=np.int8),
        np.full(len(source_only), UserRole.SOURCE_ONLY, dtype=np.int8),
    ])
    m = len(index["items"]["target"])
    j = len(index["items"]["source"])

    ds = CrossDomainDataset(
        source=_merge_split(splits["source"], j),
        target=_merge_split(splits["target"], m),
        user_tokens=user_tokens,
        user_roles=roles,
        source_item_tokens=tuple(index["items"]["source"]),
        target_item_tokens=tuple(index["items"]["target"]),
    )
    target_split = SplitDataset(
        _lists_to_rows(splits["target"]["train"], m),
        _lists_to_rows(splits["target"]["valid"], m),
        _lists_to_rows(splits["target"]["test"], m),
        splits["target"]["seed"],
    )
    source_split = SplitDataset(
        _lists_to_rows(splits["source"]["train"], j),
        _lists_to_rows(splits["source"]["valid"], j),
        _lists_to_rows(splits["source"]["test"], j),
        splits["source"]["seed"],
    )
    return ds, target_split, source_split
