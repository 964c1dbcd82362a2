"""Interaction corpora: ingestion, k-core filtering, cross-domain index
spaces, and per-user train/validation/test splits.

Every interaction matrix is an ``InteractionSet`` in CSR form, which the
graph, the history oracle, the trainers and the splits read directly.
All types here are immutable after construction (underlying numpy
arrays are marked read-only), so they can be shared across workers.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DatasetCollapsedError, ParseError

logger = logging.getLogger(__name__)

# (user_token, item_token, timestamp-or-None)
Record = tuple[str, str, int | None]

# ``InteractionSet.times`` entry of an interaction without a timestamp;
# ingested timestamps lie above it and within int64.
NO_TIME = int(np.iinfo(np.int64).min)
_MAX_TIME = int(np.iinfo(np.int64).max)


class DomainId(Enum):
    SOURCE = "source"
    TARGET = "target"


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
                if not NO_TIME < ts <= _MAX_TIME:
                    raise ParseError(path, line_no,
                                     f"timestamp {ts} outside int64 range")
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


def write_interactions(path, records) -> None:
    """Write (user, item, timestamp-or-None) records as the TSV that
    ``load_interactions`` reads."""
    write_atomic(path, "".join(f"{user}\t{item}\n" if ts is None
                               else f"{user}\t{item}\t{ts}\n"
                               for user, item, ts in records))


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
    """Sparse binary user-item matrix in CSR form.

    User ``u``'s items are ``indices[indptr[u]:indptr[u + 1]]``, strictly
    increasing. ``times`` (when present) is aligned with ``indices`` and
    holds ``NO_TIME`` where an interaction has no timestamp; a user all of
    whose interactions have one is split chronologically. The arrays are
    read-only. Build one from (user, item) pairs with ``from_pairs``.
    """

    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self):
        for array in (self.indptr, self.indices, self.times):
            if array is not None:
                array.setflags(write=False)
        indptr, indices = self.indptr, self.indices
        if (indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0
                or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0)):
            raise ValueError("indptr must start at 0, never decrease and "
                             "end at the interaction count")
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.n_items):
            raise ValueError(f"item index outside [0, {self.n_items})")
        # Rows are strictly increasing exactly when the (user, item) keys
        # of the flattened matrix are.
        bad = np.flatnonzero(np.diff(self.keys) <= 0)
        if bad.size:
            raise ValueError(
                f"row {self.users[bad[0] + 1]} is not strictly increasing")
        if self.times is not None and self.times.shape != indices.shape:
            raise ValueError("times are not aligned with indices")

    @classmethod
    def from_pairs(cls, n_users: int, n_items: int, users, items,
                   times=None) -> "InteractionSet":
        """Build from (user, item[, time]) triples given in any order."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= n_users):
            raise ValueError(f"user index outside [0, {n_users})")
        order = np.lexsort((items, users))
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=n_users), out=indptr[1:])
        if times is not None:
            times = np.asarray(times, dtype=np.int64)[order]
        return cls(n_items, indptr, items[order], times)

    @property
    def n_users(self) -> int:
        return self.indptr.size - 1

    @property
    def n_interactions(self) -> int:
        return self.indices.size

    @cached_property
    def users(self) -> np.ndarray:
        """The user of each entry of ``indices``."""
        users = np.repeat(np.arange(self.n_users), np.diff(self.indptr))
        users.setflags(write=False)
        return users

    @cached_property
    def keys(self) -> np.ndarray:
        """The key ``user * n_items + item`` of each entry of ``indices``;
        sorted, so a (user, item) lookup is one ``searchsorted``."""
        keys = self.users * self.n_items + self.indices
        keys.setflags(write=False)
        return keys

    @cached_property
    def rows(self) -> tuple[np.ndarray, ...]:
        """Each user's item row, as a read-only view of ``indices``."""
        bounds = self.indptr.tolist()
        return tuple(self.indices[start:stop]
                     for start, stop in zip(bounds, bounds[1:]))

    @cached_property
    def timed(self) -> np.ndarray:
        """Per user: whether the row is non-empty and fully timestamped."""
        if self.times is None:
            return np.zeros(self.n_users, dtype=bool)
        untimed = np.bincount(self.users[self.times == NO_TIME],
                              minlength=self.n_users)
        return (untimed == 0) & (np.diff(self.indptr) > 0)


@dataclass(frozen=True)
class CrossDomainDataset:
    """Two domains over a shared user universe.

    Global user order is target-only, then overlap, then source-only
    users, sorted by token within each group. Target-local indices
    coincide with global indices; source-local index ``v`` maps to global
    ``n_target_only + v``. The group sizes follow from the two domains'
    user counts and ``user_tokens``. Item index spaces are disjoint per
    domain, and each domain's interactions are one ``InteractionSet``.
    """

    source: InteractionSet
    target: InteractionSet
    user_tokens: tuple[str, ...]
    source_item_tokens: tuple[str, ...]
    target_item_tokens: tuple[str, ...]

    def __post_init__(self):
        if min(self.n_target_only, self.n_overlap, self.n_source_only) < 0:
            raise ValueError("domain user counts do not fit user_tokens")

    @property
    def n_overlap(self) -> int:
        return self.target.n_users + self.source.n_users - len(self.user_tokens)

    @property
    def n_target_only(self) -> int:
        return self.target.n_users - self.n_overlap

    @property
    def n_source_only(self) -> int:
        return self.source.n_users - self.n_overlap


def _domain_set(raw: RawInteractions, user_index: dict[str, int],
                first_user: int, n_users: int,
                item_tokens: tuple[str, ...]) -> InteractionSet:
    item_index = {tok: idx for idx, tok in enumerate(item_tokens)}
    records = raw.records
    return InteractionSet.from_pairs(
        n_users, len(item_tokens),
        [user_index[r[0]] - first_user for r in records],
        [item_index[r[1]] for r in records],
        [NO_TIME if r[2] is None else r[2] for r in records])


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
    user_index = {tok: idx for idx, tok in enumerate(user_tokens)}
    source_items = tuple(sorted(source.item_tokens))
    target_items = tuple(sorted(target.item_tokens))
    return CrossDomainDataset(
        _domain_set(source, user_index, len(target_only),
                    len(overlap) + len(source_only), source_items),
        _domain_set(target, user_index, 0, len(target_only) + len(overlap),
                    target_items),
        user_tokens, source_items, target_items)


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
                        seed: int) -> list[InteractionSet]:
    """Order each user's row oldest first when it is fully timestamped,
    by a seeded permutation otherwise (users draw in index order), and
    cut it into train/valid/test by ``_split_counts``; a part past
    ``ratios`` stays empty."""
    rng = np.random.default_rng(seed)
    part = np.empty(inter.n_interactions, dtype=np.int64)
    labels = np.arange(len(ratios))
    bounds = inter.indptr.tolist()
    for user, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if inter.timed[user]:
            order = np.argsort(inter.times[start:stop], kind="stable")
        else:
            order = rng.permutation(stop - start)
        part[start + order] = np.repeat(labels,
                                        _split_counts(stop - start, ratios))
    return [InteractionSet.from_pairs(inter.n_users, inter.n_items,
                                      inter.users[part == p],
                                      inter.indices[part == p])
            for p in range(3)]


def split_target(ds: CrossDomainDataset, ratios: tuple[float, ...] = (8, 1, 1),
                 seed: int = 0) -> SplitDataset:
    """Per-user target split: chronological when timestamps are present
    (oldest into train), seeded-uniform otherwise."""
    if len(ratios) != 3:
        raise ValueError("target split needs (train, valid, test) ratios")
    return SplitDataset(*_split_interactions(ds.target, ratios, seed), seed)


def split_source(ds: CrossDomainDataset, ratios: tuple[float, ...] = (8, 2),
                 seed: int = 0) -> SplitDataset:
    """Per-user source split into train/valid; the test partition is empty."""
    if len(ratios) != 2:
        raise ValueError("source split needs (train, valid) ratios")
    return SplitDataset(*_split_interactions(ds.source, ratios, seed), seed)


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
    keep = math.ceil(retain_fraction * train.n_interactions)
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(train.n_interactions, size=keep,
                                replace=False))
    sub_train = InteractionSet.from_pairs(train.n_users, train.n_items,
                                          train.users[chosen],
                                          train.indices[chosen])
    return SplitDataset(sub_train, split.valid, split.test, split.split_seed)


# --- dataset archive --------------------------------------------------------

INDEX_FILE = "index.json"
SPLITS_FILE = "splits.json"
SOURCE_TSV = "source.tsv"
TARGET_TSV = "target.tsv"
ARCHIVE_VERSION = 1
_PARTS = ("train", "valid", "test")
_USER_GROUPS = ("target_only", "overlap", "source_only")


def ensure_writable(paths: list[Path], force: bool) -> None:
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing[0]} (use --force)")


def write_atomic(path, data: bytes | str) -> Path:
    """Write ``data`` (text as UTF-8) to a temporary file beside ``path``,
    then rename it over ``path``: a failure leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str)
                         else data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_tsv(path: Path, inter: InteractionSet, user_tokens,
               item_tokens) -> None:
    """A user's timestamps are written only when all of them exist."""
    stamped = inter.timed[inter.users]
    write_interactions(path, (
        (user_tokens[user], item_tokens[item],
         int(inter.times[pos]) if stamped[pos] else None)
        for pos, (user, item) in enumerate(zip(inter.users.tolist(),
                                               inter.indices.tolist()))))


def save_dataset(out_dir, ds: CrossDomainDataset, target_split: SplitDataset,
                 source_split: SplitDataset, *, force: bool = False) -> list[Path]:
    """Write the dataset archive: TSVs plus index.json and splits.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in
             (SOURCE_TSV, TARGET_TSV, INDEX_FILE, SPLITS_FILE)]
    ensure_writable(paths, force)

    a = ds.n_target_only
    n = ds.target.n_users
    _write_tsv(out / SOURCE_TSV, ds.source, ds.user_tokens[a:],
               ds.source_item_tokens)
    _write_tsv(out / TARGET_TSV, ds.target, ds.user_tokens[:n],
               ds.target_item_tokens)

    groups = (ds.user_tokens[:a], ds.user_tokens[a:n], ds.user_tokens[n:])
    index = {
        "version": ARCHIVE_VERSION,
        "users": {name: list(group)
                  for name, group in zip(_USER_GROUPS, groups)},
        "items": {"source": list(ds.source_item_tokens),
                  "target": list(ds.target_item_tokens)},
    }
    splits = {"version": ARCHIVE_VERSION}
    for domain, split in (("target", target_split), ("source", source_split)):
        splits[domain] = {part: [row.tolist() for row in
                                 getattr(split, part).rows]
                          for part in _PARTS}
        splits[domain]["seed"] = split.split_seed
    write_atomic(out / INDEX_FILE, json.dumps(index, sort_keys=True, indent=2)
                 + "\n")
    write_atomic(out / SPLITS_FILE, json.dumps(splits, sort_keys=True,
                                               indent=2) + "\n")
    return paths


def _entry(blob, path: Path, *keys: str, kind: type = list):
    """``blob[keys[0]][keys[1]]...`` if it is a ``kind``, else a
    ValueError naming the file."""
    for depth, key in enumerate(keys):
        if not isinstance(blob, dict) or key not in blob:
            raise ValueError(
                f"{path}: missing entry {'/'.join(keys[:depth + 1])}")
        blob = blob[key]
    if not isinstance(blob, kind):
        raise ValueError(f"{path}: entry {'/'.join(keys)} is not a "
                         f"{kind.__name__}")
    return blob


def _lists_to_set(lists: list[list[int]], n_items: int) -> InteractionSet:
    users = [user for user, row in enumerate(lists) for _ in row]
    items = [item for row in lists for item in row]
    return InteractionSet.from_pairs(len(lists), n_items, users, items)


def _archive_split(splits, path: Path, domain: str,
                   n_items: int) -> tuple[SplitDataset, InteractionSet]:
    """One domain's split from ``splits.json``, and the union of its
    parts: the domain's interactions."""
    lists = [_entry(splits, path, domain, part) for part in _PARTS]
    seed = _entry(splits, path, domain, "seed", kind=int)
    if len({len(rows) for rows in lists}) != 1:
        raise ValueError(f"{path}: {domain} train/valid/test lists differ "
                         f"in user count")
    try:
        parts = [_lists_to_set(rows, n_items) for rows in lists]
        union = _lists_to_set([a + b + c for a, b, c in zip(*lists)], n_items)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {domain} split: {err}") from None
    return SplitDataset(*parts, seed), union


def load_dataset(in_dir) -> tuple[CrossDomainDataset, SplitDataset, SplitDataset]:
    """Reload an archive written by :func:`save_dataset`; a malformed one
    raises ValueError naming the file at fault."""
    root = Path(in_dir)
    index_path = root / INDEX_FILE
    splits_path = root / SPLITS_FILE
    for path in (index_path, splits_path):
        if not path.exists():
            raise FileNotFoundError(f"dataset archive file missing: {path}")
    index = json.loads(index_path.read_text(encoding="utf-8"))
    splits = json.loads(splits_path.read_text(encoding="utf-8"))
    for blob, path in ((index, index_path), (splits, splits_path)):
        if not isinstance(blob, dict) or blob.get("version") != ARCHIVE_VERSION:
            raise ValueError(f"unsupported archive version in {path}")

    groups = [_entry(index, index_path, "users", name)
              for name in _USER_GROUPS]
    items = {domain: tuple(_entry(index, index_path, "items", domain))
             for domain in ("source", "target")}
    target_split, target = _archive_split(splits, splits_path, "target",
                                          len(items["target"]))
    source_split, source = _archive_split(splits, splits_path, "source",
                                          len(items["source"]))
    sizes = [len(group) for group in groups]
    if (target.n_users != sizes[0] + sizes[1]
            or source.n_users != sizes[1] + sizes[2]):
        raise ValueError(
            f"{index_path}: target-only/overlap/source-only users "
            f"{sizes} do not fit the {target.n_users} target and "
            f"{source.n_users} source users of {splits_path}")
    ds = CrossDomainDataset(source, target, tuple(sum(groups, [])),
                            items["source"], items["target"])
    return ds, target_split, source_split
