"""Interaction corpora: ingestion, k-core filtering, cross-domain index
spaces, per-user train/validation/test splits, and the dataset archive
that stores one split, a single ``dataset.npz`` (version 3).

Every interaction matrix is an ``InteractionSet`` in CSR form, which the
graph, the history oracle, the trainers and the splits read directly.
All types here are immutable after construction (underlying numpy
arrays are marked read-only), so they can be shared across workers.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import zipfile
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.dtypes import StringDType

from .errors import DatasetCollapsedError, ParseError

logger = logging.getLogger(__name__)

# ``RawInteractions.times`` and ``InteractionSet.times`` entry of an
# interaction without a timestamp; ingested timestamps lie above it and
# within int64.
NO_TIME = int(np.iinfo(np.int64).min)
_MAX_TIME = int(np.iinfo(np.int64).max)


class DomainId(Enum):
    SOURCE = "source"
    TARGET = "target"


@dataclass(frozen=True)
class RawInteractions:
    """Distinct (user, item) interactions of one domain, as columns.

    Row ``r`` is user ``user_tokens[users[r]]`` with item
    ``item_tokens[items[r]]`` at ``times[r]``, which is ``NO_TIME`` when
    the interaction has no timestamp. Both token tables are sorted and
    hold exactly the tokens that the rows use; the columns are read-only.
    Build one from codes into any name tables with ``from_codes``.
    """

    user_tokens: tuple[str, ...]
    item_tokens: tuple[str, ...]
    users: np.ndarray
    items: np.ndarray
    times: np.ndarray
    domain_id: DomainId

    def __post_init__(self):
        columns = (self.users, self.items, self.times)
        for column in columns:
            column.setflags(write=False)
        if any(c.dtype != np.int64 or c.shape != (self.users.size,)
               for c in columns):
            raise ValueError("users, items and times must be int64 columns "
                             "of one length")
        for tokens, codes in ((self.user_tokens, self.users),
                              (self.item_tokens, self.items)):
            if list(tokens) != sorted(set(tokens)):
                raise ValueError("a token table is not sorted and distinct")
            counts = np.bincount(codes, minlength=len(tokens))
            if counts.size != len(tokens) or not counts.all():
                raise ValueError("codes must use every token of their table "
                                 "and no other")

    @classmethod
    def from_codes(cls, domain_id: DomainId, user_names, users, item_names,
                   items, times=None) -> "RawInteractions":
        """Rows as codes into name tables that may be unsorted and hold
        unused names; ``times`` defaults to none known. The tables keep the
        used names, sorted, and the codes are renumbered to match; the
        rows keep their order."""
        user_tokens, users = _token_table(user_names, users)
        item_tokens, items = _token_table(item_names, items)
        times = (np.full(users.size, NO_TIME) if times is None
                 else np.asarray(times, dtype=np.int64))
        return cls(user_tokens, item_tokens, users, items, times, domain_id)

    def __len__(self) -> int:
        return self.users.size

    @property
    def records(self) -> tuple[tuple[str, str, int | None], ...]:
        """The rows as (user, item, timestamp-or-None) tuples, built anew
        on each call."""
        return tuple(zip(
            map(self.user_tokens.__getitem__, self.users.tolist()),
            map(self.item_tokens.__getitem__, self.items.tolist()),
            [None if ts == NO_TIME else ts for ts in self.times.tolist()]))


def _token_table(names, codes) -> tuple[tuple[str, ...], np.ndarray]:
    """The names that ``codes`` use, sorted, and the codes renumbered
    into them."""
    codes = np.asarray(codes, dtype=np.int64)
    used = np.flatnonzero(np.bincount(codes, minlength=len(names))).tolist()
    used.sort(key=names.__getitem__)
    renumber = np.zeros(len(names), dtype=np.int64)
    renumber[used] = np.arange(len(used))
    return tuple(names[i] for i in used), renumber[codes]


def _decoded(data: np.ndarray, starts, stops) -> list[str]:
    """The UTF-8 text of each byte span ``data[starts[r]:stops[r]]``, in
    one gather, one decode and one split: no span holds a tab."""
    if not starts.size:
        return []
    # Each span and the byte after it, which becomes the joining tab: the
    # gather index steps by one within a span and jumps between spans.
    ends = np.cumsum(stops - starts + 1)
    index = np.ones(ends[-1], dtype=np.int64)
    index[0] = starts[0]
    index[ends[:-1]] = starts[1:] - stops[:-1]
    joined = data[np.cumsum(index, out=index)]
    joined[ends - 1] = ord("\t")
    return joined[:-1].tobytes().decode("utf-8").split("\t")


# _HEAD_BYTES[k] keeps the first k bytes of a big-endian 8-byte word.
_HEAD_BYTES = np.array([(1 << 64) - (1 << 8 * (8 - k)) for k in range(9)],
                       dtype=np.uint64)


def _token_codes(data: np.ndarray, starts,
                 stops) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct tokens ``data[starts[r]:stops[r]]``, decoded and sorted,
    and each row's position among them.

    Rows sort on their bytes as big-endian 8-byte words, zero-padded, with
    the length as the last key: UTF-8 byte order is code-point order, and
    the length orders tokens that differ only in trailing NULs. Each pass
    reads the next word only for the runs of tied rows that hold a longer
    row, so one long token costs no word for every row. ``data`` must hold
    8 bytes past the last span."""
    words = np.ndarray((data.size - 7,), ">u8", data, strides=(1,))
    sizes = stops - starts
    # order[i] is the row at position i; new[i] marks the first position
    # of each run of rows whose keys so far are equal.
    order = np.arange(sizes.size)
    new = np.zeros(sizes.size, dtype=bool)
    new[0] = True

    def split(at, key):
        """Sort the rows at the positions ``at``, whole runs, by ``key``
        within their runs, and start a run where it changes."""
        # A quicksort on the key, then a stable sort on the run, which is
        # one run on the first pass: lexsort's stable passes took three
        # times as long on the item column of the synthetic logs.
        by = np.argsort(key)
        by = by[np.argsort(np.cumsum(new[at])[by], kind="stable")]
        order[at], key = order[at][by], key[by]
        new[at[1:]] |= key[1:] != key[:-1]

    def runs_where(at, keep):
        """The positions ``at`` of the runs whose rows' sizes pass
        ``keep(longest, shortest)``; ``at`` holds whole runs."""
        first = np.flatnonzero(new[at])
        length = np.diff(first, append=at.size)
        held = sizes[order[at]]
        return at[np.repeat((length > 1) & keep(
            np.maximum.reduceat(held, first),
            np.minimum.reduceat(held, first)), length)]

    at = np.arange(sizes.size)
    for offset in range(0, int(sizes.max()), 8):
        at = runs_where(at, lambda longest, _: longest > offset)
        if not at.size:
            break
        rows = order[at]
        split(at, words[np.minimum(starts[rows] + offset, len(words) - 1)]
              & _HEAD_BYTES[np.clip(sizes[rows] - offset, 0, 8)])
    # Rows tied on every padded word differ in length only where the
    # longer one ends in NUL bytes.
    if not data[stops - 1].all():
        at = runs_where(np.arange(sizes.size), np.not_equal)
        split(at, sizes[order[at]])
    codes = np.empty(sizes.size, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    first = order[new]
    return tuple(_decoded(data, starts[first], stops[first])), codes


def _timestamp(text: str) -> int:
    """``int(text)`` when it parses and lies above ``NO_TIME`` within
    int64, else ``NO_TIME``."""
    try:
        value = int(text)
    except ValueError:
        return NO_TIME
    return value if NO_TIME < value <= _MAX_TIME else NO_TIME


def _line_error(line: str) -> str:
    """Why ``load_interactions`` refuses a data line."""
    parts = line.split("\t")
    if len(parts) not in (2, 3):
        return f"expected 2 or 3 tab-separated fields, got {len(parts)}"
    if not parts[0] or not parts[1]:
        return "empty user or item token"
    try:
        return f"timestamp {int(parts[2])} outside (-2**63, 2**63)"
    except ValueError:
        return f"invalid timestamp {parts[2]!r}"


def _data_lines(path, data: np.ndarray, size: int):
    """The user and the item byte spans, as (starts, stops), and the
    timestamp or ``NO_TIME`` of each data line among the first ``size``
    bytes of ``data``. Raises the ``ParseError`` of the first bad line."""
    # Field f is data[seps[f] + 1:seps[f + 1]]. In UTF-8 a tab or a newline
    # byte is never part of another character.
    seps = np.concatenate(([-1], np.flatnonzero((data == 9) | (data == 10)),
                           [size]))

    def span(field):
        return seps[field] + 1, seps[field + 1]

    line_start = np.flatnonzero(np.append(True, data[seps[1:-1]] == 10))
    line_fields = np.diff(line_start, append=seps.size - 1)
    lead = seps[line_start] + 1
    lines = np.flatnonzero(((line_fields > 1) | (seps[line_start + 1] > lead))
                           & (data[lead] != ord("#")))
    del lead
    head, count = line_start[lines], line_fields[lines]
    stamped = count == 3
    stamps = _decoded(data, *span(head[stamped] + 2))
    times = np.full(lines.size, NO_TIME)
    try:
        times[stamped] = list(map(int, stamps))
    except (ValueError, OverflowError):
        times[stamped] = [_timestamp(stamp) for stamp in stamps]
    user = span(head)
    # A last line of one field has no field after it; its count refuses it.
    item = span(np.minimum(head + 1, seps.size - 2))
    bad = ((count < 2) | (count > 3) | (user[0] == user[1])
           | (item[0] == item[1]) | (stamped & (times == NO_TIME)))
    if bad.any():
        line = lines[bad.argmax()]
        first = line_start[line]
        text = data[seps[first] + 1:seps[first + line_fields[line]]]
        raise ParseError(path, int(line) + 1,
                         _line_error(text.tobytes().decode("utf-8")))
    if not lines.size:
        raise ParseError(path, None, "file contains no interaction records")
    return user, item, times


def load_interactions(path, domain_id: DomainId) -> RawInteractions:
    """Read a TAB-separated interaction file.

    Each line is ``user<TAB>item[<TAB>timestamp]``, where the timestamp is
    anything ``int()`` reads in (-2**63, 2**63): int64 but ``NO_TIME``.
    Lines starting with ``#`` and blank lines are ignored. Duplicate (user,
    item) pairs are collapsed, keeping the earliest known timestamp. Rows
    come sorted by user, then item.

    The file is parsed as bytes. The loader holds them, one int64 byte
    position per field (the separator that ends it) and a few int64
    columns per line, and never a string per field: only the distinct
    tokens and the timestamps are decoded to ``str``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"interaction file not found: {path}")
    # Line ends as text mode reads them: \r\n, \r and \n alike.
    text = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text.decode("utf-8")
    except UnicodeDecodeError as err:
        column = err.start - text.rfind(b"\n", 0, err.start)
        raise ParseError(path, text.count(b"\n", 0, err.start) + 1,
                         f"invalid UTF-8 at byte {column}") from None
    # Eight zero bytes past the end, so that every 8-byte word of a token
    # can be read whole.
    data, size = np.frombuffer(text + bytes(8), dtype=np.uint8), len(text)
    del text
    # Rebinding each column of spans to its codes frees the spans before
    # the next column is coded.
    users, items, times = _data_lines(path, data, size)
    user_tokens, users = _token_codes(data, *users)
    item_tokens, items = _token_codes(data, *items)
    order = np.argsort(users * len(item_tokens) + items)
    users, items, times = users[order], items[order], times[order]
    pair = np.flatnonzero(np.append(True, (np.diff(users) != 0)
                                    | (np.diff(items) != 0)))
    # Each pair's earliest known timestamp, NO_TIME when none is known.
    known = times != NO_TIME
    earliest = np.minimum.reduceat(np.where(known, times, _MAX_TIME), pair)
    logger.info("loaded %d interactions (%d users, %d items) from %s",
                pair.size, len(user_tokens), len(item_tokens), path)
    return RawInteractions(
        user_tokens, item_tokens, users[pair], items[pair],
        np.where(np.logical_or.reduceat(known, pair), earliest, NO_TIME),
        domain_id)


def write_interactions(path, raw: RawInteractions) -> None:
    """Write the rows, in order, as the TSV that ``load_interactions``
    reads: a timestamp only where one is known."""
    text = StringDType()
    users = np.array(raw.user_tokens, dtype=text)[raw.users]
    items = np.array(raw.item_tokens, dtype=text)[raw.items]
    stamps = np.where(raw.times == NO_TIME, "",
                      np.strings.add("\t", raw.times.astype(text)))
    write_atomic(path, "".join((users + "\t" + items + stamps
                                + "\n").tolist()))


def filter_k_core(raw: RawInteractions, min_count: int = 5) -> RawInteractions:
    """Iteratively drop users and items with fewer than ``min_count``
    interactions until no more removals occur; rows keep their order.
    When no row is dropped, ``raw`` itself is returned."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    users, items, times = raw.users, raw.items, raw.times
    while True:
        keep = ((np.bincount(users)[users] >= min_count)
                & (np.bincount(items)[items] >= min_count))
        if keep.all():
            break
        users, items, times = users[keep], items[keep], times[keep]
    if not users.size:
        raise DatasetCollapsedError(
            f"dataset collapsed: no interactions survive {min_count}-core filtering")
    if users is raw.users:
        return raw
    return RawInteractions.from_codes(raw.domain_id, raw.user_tokens, users,
                                      raw.item_tokens, items, times)


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
        if (indptr.dtype != np.int64 or indices.dtype != np.int64
                or indices.ndim != 1):
            raise ValueError("indptr and indices must be 1-D int64 arrays")
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
        # Distinct pairs have one sorted order, so the sort need not be
        # stable; a repeated pair fails the row check.
        order = np.argsort(users * n_items + items)
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

    @property
    def keys(self) -> np.ndarray:
        """The key ``user * n_items + item`` of each entry of ``indices``,
        sorted, as a new array; ``contains`` looks keys up in ``bits``."""
        return self.users * self.n_items + self.indices

    @cached_property
    def bits(self) -> np.ndarray:
        """Read-only packed membership, ``ceil(n_users * n_items / 8)``
        bytes: bit ``key & 7`` of byte ``key >> 3`` is set for each key."""
        keys = self.keys
        ones = np.left_shift(np.uint8(1), keys.astype(np.uint8) & 7)
        bits = np.zeros(-(-self.n_users * self.n_items // 8), dtype=np.uint8)
        np.bitwise_or.at(bits, np.right_shift(keys, 3, out=keys), ones)
        bits.setflags(write=False)
        return bits

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Whether each key ``user * n_items + item``, of any shape, is held."""
        return (self.bits[keys >> 3] >> (keys & 7) & 1).astype(bool)

    @cached_property
    def full_users(self) -> np.ndarray:
        """The users whose row holds every item, ascending."""
        return np.flatnonzero(np.diff(self.indptr) >= self.n_items)

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


def _user_order(raw: RawInteractions, other: RawInteractions,
                shared_first: bool) -> tuple[np.ndarray, int]:
    """The domain's user codes in dataset order, and how many of its users
    ``other`` shares: the users it does not share, then the shared ones
    (the other way round with ``shared_first``), each group by token."""
    other_users = set(other.user_tokens)
    shared = np.fromiter(map(other_users.__contains__, raw.user_tokens),
                         dtype=bool, count=len(raw.user_tokens))
    return (np.argsort(shared != shared_first, kind="stable"),
            int(shared.sum()))


def _domain_set(raw: RawInteractions, order: np.ndarray) -> InteractionSet:
    local = np.empty_like(order)
    local[order] = np.arange(order.size)
    return InteractionSet.from_pairs(order.size, len(raw.item_tokens),
                                     local[raw.users], raw.items, raw.times)


def build_cross_domain(source: RawInteractions,
                       target: RawInteractions) -> CrossDomainDataset:
    """Assemble the joint index space from two filtered domains."""
    if source.domain_id == target.domain_id:
        raise ValueError("source and target must have distinct domain ids")
    target_order, n_overlap = _user_order(target, source, shared_first=False)
    source_order, _ = _user_order(source, target, shared_first=True)
    if not n_overlap:
        logger.warning("no overlapping users between domains; "
                       "transfer will rely on the contrastive term only")
    user_tokens = tuple(
        [target.user_tokens[code] for code in target_order.tolist()]
        + [source.user_tokens[code]
           for code in source_order[n_overlap:].tolist()])
    return CrossDomainDataset(
        _domain_set(source, source_order), _domain_set(target, target_order),
        user_tokens, source.item_tokens, target.item_tokens)


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/valid/test views over one domain's index space."""

    train: InteractionSet
    valid: InteractionSet
    test: InteractionSet
    split_seed: int


def _split_counts(sizes: np.ndarray, ratios: tuple[float, ...]) -> np.ndarray:
    """Per row size, the part sizes: floor proportions with the remainder
    to train; each positive eval part gets at least one interaction when
    the user can afford it."""
    total = float(sum(ratios))
    counts = np.floor(sizes[:, None] * np.array(ratios) / total).astype(
        np.int64)
    positive = np.array(ratios[1:]) > 0
    afford = (sizes >= 1 + positive.sum())[:, None] & positive
    counts[:, 1:] = np.where(afford, np.maximum(counts[:, 1:], 1),
                             counts[:, 1:])
    counts[:, 0] = sizes - counts[:, 1:].sum(axis=1)
    return counts


def _split_interactions(inter: InteractionSet, ratios: tuple[float, ...],
                        seed: int) -> list[InteractionSet]:
    """Order each user's row oldest first when it is fully timestamped,
    by a seeded permutation otherwise (users draw in index order), and
    cut it into train/valid/test by ``_split_counts``; a part past
    ``ratios`` stays empty."""
    rng = np.random.default_rng(seed)
    sizes = np.diff(inter.indptr)
    starts = inter.indptr[inter.users]
    # sequence[k] is the entry at place k - starts[k] of its user's order.
    sequence = (np.arange(inter.n_interactions) if inter.times is None
                else np.lexsort((inter.times, inter.users)))
    drawn = ~inter.timed[inter.users]
    permutations = [rng.permutation(size)
                    for size in sizes[~inter.timed].tolist()]
    if permutations:
        sequence[drawn] = np.concatenate(permutations) + starts[drawn]
    ends = np.cumsum(_split_counts(sizes, ratios), axis=1)[:, :-1]
    place = np.arange(inter.n_interactions) - starts
    part = np.empty(inter.n_interactions, dtype=np.int64)
    part[sequence] = (place[:, None] >= ends[inter.users]).sum(axis=1)
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

ARCHIVE_FILE = "dataset.npz"
ARCHIVE_VERSION = 3
_PARTS = ("train", "valid", "test")
_USER_GROUPS = ("target_only", "overlap", "source_only")


def write_atomic(path, data: bytes | str) -> Path:
    """Write ``data`` (text as UTF-8) to a temporary file beside ``path``,
    then rename it over ``path``: a failure leaves the old file whole.
    Missing parent directories are created; an existing ``path`` is
    replaced, as refusing is the caller's choice."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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


def read_json(path):
    """The JSON value in ``path``; a file that is not JSON raises a
    ValueError naming it."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:
        raise ValueError(f"{path}: invalid JSON ({err})") from None


def write_arrays(path, header: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write an uncompressed ``.npz``, atomically: ``header`` as JSON text
    in a ``header`` member, then the ``arrays`` in order. Every member
    bears the same date, so equal content gives equal bytes."""
    buffer = io.BytesIO()
    members = {"header": np.array(json.dumps(header, sort_keys=True)),
               **arrays}
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, array in members.items():
            info = zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w") as member:
                np.lib.format.write_array(member, np.asarray(array),
                                          allow_pickle=False)
    return write_atomic(path, buffer.getvalue())


def read_arrays(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the named arrays of a ``write_arrays`` file; any
    other, truncated or damaged file (the zip CRC covers every member)
    raises a ValueError naming it."""
    path = Path(path)
    try:
        data = path.read_bytes()
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            arrays = {name.removesuffix(".npy"): np.lib.format.read_array(
                io.BytesIO(archive.read(name)), allow_pickle=False)
                for name in archive.namelist()}
        # zipfile stops quietly at a damaged directory entry; the end record,
        # the last 22 bytes (no zip comment is written), counts them all.
        if len(arrays) != int.from_bytes(data[-12:-10], "little"):
            raise zipfile.BadZipFile("the zip directory lost entries")
        header = json.loads(str(arrays.pop("header")))
    except FileNotFoundError:
        raise
    # What zipfile and numpy raise on a file that is not one or is damaged.
    except (KeyError, ValueError, EOFError, OSError, RuntimeError,
            NotImplementedError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path}: not a readable array file "
                         f"({type(err).__name__}: {err})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header is not a JSON object")
    return header, arrays


def save_dataset(out_dir, ds: CrossDomainDataset, target_split: SplitDataset,
                 source_split: SplitDataset) -> list[Path]:
    """Write the dataset archive, one ``dataset.npz`` in ``out_dir``
    (replacing any earlier one): its header holds the version, the split
    seeds and the user and item tokens, and its members each part's CSR,
    as int64 ``{domain}-{part}-indptr`` and ``-indices`` arrays."""
    path = Path(out_dir) / ARCHIVE_FILE
    a, n = ds.n_target_only, ds.target.n_users
    groups = (ds.user_tokens[:a], ds.user_tokens[a:n], ds.user_tokens[n:])
    splits = (("target", target_split), ("source", source_split))
    write_arrays(path, {
        "version": ARCHIVE_VERSION,
        "seeds": {domain: split.split_seed for domain, split in splits},
        "users": {name: list(group)
                  for name, group in zip(_USER_GROUPS, groups)},
        "items": {"source": list(ds.source_item_tokens),
                  "target": list(ds.target_item_tokens)},
    }, {f"{domain}-{part}-{name}": getattr(getattr(split, part), name)
        for domain, split in splits for part in _PARTS
        for name in ("indptr", "indices")})
    return [path]


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


def _archive_split(header: dict, arrays: dict, path: Path, domain: str,
                   n_items: int) -> tuple[SplitDataset, InteractionSet]:
    """One domain's split from the archive, and the union of its parts:
    the domain's interactions."""
    seed = _entry(header, path, "seeds", domain, kind=int)
    try:
        parts = [InteractionSet(n_items, arrays[f"{domain}-{part}-indptr"],
                                arrays[f"{domain}-{part}-indices"])
                 for part in _PARTS]
        if len({part.n_users for part in parts}) != 1:
            raise ValueError("train/valid/test differ in user count")
        union = InteractionSet.from_pairs(
            parts[0].n_users, n_items,
            np.concatenate([part.users for part in parts]),
            np.concatenate([part.indices for part in parts]))
    except KeyError as err:
        raise ValueError(f"{path}: no member {err}") from None
    except ValueError as err:
        raise ValueError(f"{path}: {domain} split: {err}") from None
    return SplitDataset(*parts, seed), union


def load_dataset(in_dir) -> tuple[CrossDomainDataset, SplitDataset, SplitDataset]:
    """Reload the ``dataset.npz`` that :func:`save_dataset` wrote in
    ``in_dir``; a malformed one raises ValueError naming it."""
    path = Path(in_dir) / ARCHIVE_FILE
    header, arrays = read_arrays(path)
    if header.get("version") != ARCHIVE_VERSION:
        raise ValueError(f"unsupported archive version in {path}")
    groups = [_entry(header, path, "users", name) for name in _USER_GROUPS]
    items = {domain: tuple(_entry(header, path, "items", domain))
             for domain in ("source", "target")}
    target_split, target = _archive_split(header, arrays, path, "target",
                                          len(items["target"]))
    source_split, source = _archive_split(header, arrays, path, "source",
                                          len(items["source"]))
    sizes = [len(group) for group in groups]
    if (target.n_users != sizes[0] + sizes[1]
            or source.n_users != sizes[1] + sizes[2]):
        raise ValueError(
            f"{path}: target-only/overlap/source-only users {sizes} do not "
            f"fit the {target.n_users} target and {source.n_users} source "
            f"users")
    ds = CrossDomainDataset(source, target, tuple(sum(groups, [])),
                            items["source"], items["target"])
    return ds, target_split, source_split
