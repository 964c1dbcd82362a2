import tempfile
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutrec import cli, corpus
from cutrec.checkpoint import Checkpoint, save_checkpoint
from cutrec.corpus import (DomainId, InteractionSet, build_cross_domain,
                           filter_k_core, load_dataset, load_interactions,
                           save_dataset, split_source, split_target,
                           subsample_target)
from cutrec.errors import DatasetCollapsedError, ParseError

from helpers import (brute_force_k_core, cross_domain_from_records,
                     held_keys, load_records, naive_rows, raw_interactions,
                     rewrite_arrays, split_per_user, traced_peak)


def raw(records, domain=DomainId.TARGET):
    return raw_interactions(records, domain)


# --- load_interactions ------------------------------------------------------

def test_load_dedups_pairs(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("u1\ti1\t100\nu1\ti1\t50\nu2\ti1\n")
    out = load_interactions(path, DomainId.TARGET)
    assert len(out) == 2
    assert ("u1", "i1", 50) in out.records  # earliest timestamp kept


def test_load_parses_three_field_line(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("u1\ti9\t100\n")
    out = load_interactions(path, DomainId.SOURCE)
    assert out.records == (("u1", "i9", 100),)


def test_load_rejects_empty_token(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("u1\ti1\t1\nu1\t\t100\n")
    with pytest.raises(ParseError) as err:
        load_interactions(path, DomainId.TARGET)
    assert err.value.line_no == 2


def test_load_rejects_bad_field_count(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("u1\ti1\t1\t9\n")
    with pytest.raises(ParseError):
        load_interactions(path, DomainId.TARGET)


def test_load_skips_comments_and_errors_on_empty(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("# header only\n\n")
    with pytest.raises(ParseError):
        load_interactions(path, DomainId.TARGET)


@pytest.mark.parametrize("stamp", [-2**63, 2**63])
def test_load_names_the_timestamp_range_it_accepts(tmp_path, stamp):
    # -2**63 lies inside int64 but is NO_TIME, which no line may set; the
    # first line holds the accepted bound next to it.
    inside = stamp + 1 if stamp < 0 else stamp - 1
    path = tmp_path / "a.tsv"
    path.write_text(f"u1\ti1\t{inside}\nu1\ti2\t{stamp}\n")
    with pytest.raises(ParseError) as err:
        load_interactions(path, DomainId.TARGET)
    assert (err.value.line_no, err.value.reason) == (
        2, f"timestamp {stamp} outside (-2**63, 2**63)")


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_interactions("/nonexistent/file.tsv", DomainId.TARGET)


# Tokens that differ only in trailing NULs, which NumPy's fixed-width
# unicode dtype would drop, and characters that are not line ends. The
# loader sorts tokens as 8-byte words, so long tokens share a prefix of 6
# to 15 bytes and then differ, in NULs too, or in a character of 2 to 4
# bytes that straddles byte 8 or 16.
TOKENS = st.one_of(
    st.sampled_from(["u", "u\x00", "u\x00\x00", "\x00", "ü", "#u",
                     "u\u2028", "u\x0b", "abcdefgh", "abcdefgh\x00",
                     "abcdefgh\x00\x00\x00", "abcdefgh\x00a",
                     "abcdefghi", "abcdefgé", "abcdefg€", "abcdefghijklmnopq",
                     "abcdefghijklmnop\x00"]),
    st.text(alphabet="ab\x00é #\u2028", min_size=1, max_size=3),
    st.tuples(st.sampled_from(["abcdef", "abcdefg", "abcdefgh",
                               "abcdefghijklmno"]),
              st.text(alphabet="a\x00é€\U0001f600", min_size=1,
                      max_size=5)).map("".join))
STAMPS = st.one_of(
    st.sampled_from([" 12", "1_000", "+7", "-5", "\u0663", "12 ", "0",
                     "9223372036854775807", "-9223372036854775807",
                     "9223372036854775808", "-9223372036854775808",
                     "1__0", "1e3", "x", ""]),
    st.integers(-2**64, 2**64).map(str))
DATA_LINES = st.one_of(
    st.tuples(TOKENS, TOKENS).map("\t".join),
    st.tuples(TOKENS, TOKENS, st.sampled_from(["1", "2", "3"])).map(
        "\t".join))
LINES = st.one_of(
    DATA_LINES, DATA_LINES, DATA_LINES,
    st.tuples(TOKENS, TOKENS, STAMPS).map("\t".join),
    st.sampled_from(["", "# comment\tx", "#", "u", "u\t", "\tx",
                     "u\tx\t1\t2", " "]))


@st.composite
def tsv_texts(draw):
    lines = draw(st.lists(st.tuples(LINES, st.sampled_from(
        ["\n", "\r\n", "\r"])), min_size=1, max_size=25))
    text = "".join(line + end for line, end in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


DUPLICATES = ("u\ti\t 12\r\nu\ti\t1_000\ru\x00\ti\n\n# note\r\n"
              "u\x00\ti\t5\nu\ti\x00\nv\ti\nv\tj\t3\nu\tj\n")
# User "a" is fully timestamped, with ties; "b" is not, as "b", "y" has
# no timestamp ("b", "x0" keeps the one it has).
TIMED = "".join(f"a\tx{k}\t{t}\nb\tx{k}\t{t}\n" for k, t in
                enumerate([3, 1, 2, 1, 5, 9, 0, 4, 4, 7])) + "b\tx0\nb\ty\n"

# A byte order mark is part of the first token, and \r\r\n ends two lines.
BOM_CR = ("\ufeffu\ti\r\r\nu\ti\t4\r\r\n\ufeffu\ti\nv\ti\t2\r"
          "# x\r\r\nv\tj\r\r")


def _load_like_oracle(path, domain):
    """The loaded records, or the oracle's ParseError after checking that
    ``load_interactions`` raises the same one."""
    try:
        expected = load_records(path)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            load_interactions(path, domain)
        assert (got.value.line_no, str(got.value)) == (err.line_no, str(err))
        return None
    raw = load_interactions(path, domain)
    assert raw.records == expected
    return raw


def _assert_same_set(got: InteractionSet, expected: InteractionSet):
    assert got.n_items == expected.n_items
    for name in ("indptr", "indices", "times"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(source=tsv_texts(), target=tsv_texts(),
       min_count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       ratios=st.sampled_from([((8, 1, 1), (8, 2)), ((0.8, 0.1, 0.1), (1, 0)),
                               ((5, 0, 1), (0.5, 0.5))]))
@example(source=DUPLICATES, target=DUPLICATES.replace("i", "t"),
         min_count=1, seed=0, ratios=((8, 1, 1), (8, 2)))
@example(source=TIMED, target=TIMED, min_count=2, seed=3,
         ratios=((5, 0, 1), (0.5, 0.5)))
@example(source=BOM_CR, target=BOM_CR.replace("i", "t"), min_count=1,
         seed=0, ratios=((8, 1, 1), (8, 2)))
def test_columnar_setup_matches_record_oracle(source, target, min_count,
                                              seed, ratios):
    kept = {}
    with tempfile.TemporaryDirectory() as tmp:
        for domain, text in ((DomainId.SOURCE, source),
                             (DomainId.TARGET, target)):
            path = Path(tmp) / f"{domain.value}.tsv"
            path.write_bytes(text.encode("utf-8"))
            raw = _load_like_oracle(path, domain)
            if raw is None:
                return
            records = brute_force_k_core(raw.records, min_count)
            if not records:
                with pytest.raises(DatasetCollapsedError):
                    filter_k_core(raw, min_count)
                return
            kept[domain] = filter_k_core(raw, min_count)
            assert kept[domain].records == tuple(records)
    ds = build_cross_domain(kept[DomainId.SOURCE], kept[DomainId.TARGET])
    expected = cross_domain_from_records(kept[DomainId.SOURCE].records,
                                         kept[DomainId.TARGET].records)
    assert ds.user_tokens == expected.user_tokens
    assert ds.source_item_tokens == expected.source_item_tokens
    assert ds.target_item_tokens == expected.target_item_tokens
    _assert_same_set(ds.source, expected.source)
    _assert_same_set(ds.target, expected.target)
    for split, inter, part_ratios in (
            (split_target(ds, ratios[0], seed), expected.target, ratios[0]),
            (split_source(ds, ratios[1], seed), expected.source, ratios[1])):
        oracle = split_per_user(inter, part_ratios, seed)
        for part, want in zip((split.train, split.valid, split.test), oracle):
            _assert_same_set(part, want)


def test_load_names_the_line_of_invalid_utf8(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_bytes(b"u1\ti1\r\n# note\nu2\ti\xff2\n\tbad\n")
    with pytest.raises(ParseError) as err:
        load_interactions(path, DomainId.TARGET)
    assert (err.value.line_no, err.value.reason) == (3, "invalid UTF-8 at "
                                                        "byte 5")


@settings(max_examples=100, deadline=None)
@given(text=tsv_texts(), at=st.integers(0, 2**10),
       junk=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82",
                             b"\xed\xa0\x80", b"\xf0\x9f\x98", b"\xc0\xaf"]))
def test_invalid_utf8_fails_like_record_oracle(text, at, junk):
    data = text.encode("utf-8")
    at %= len(data) + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.tsv"
        path.write_bytes(data[:at] + junk + data[at:])
        _load_like_oracle(path, DomainId.TARGET)


@pytest.mark.parametrize("last", ["", "u\t" + "i" * 4000 + "\n"],
                         ids=["synthetic", "one-long-token"])
def test_load_holds_no_string_per_field(tmp_path, last):
    # About 1 MB laid out as the synthetic logs are, some lines stamped;
    # in one case also a 4000-byte token, whose later words only its own
    # rows read.
    rng = np.random.default_rng(0)
    path = tmp_path / "a.tsv"
    path.write_text("".join(
        f"u{u:05d}\ti{i:05d}\n" if i % 4 else f"u{u:05d}\ti{i:05d}\t{t}\n"
        for u, i, t in zip(rng.integers(0, 4000, 70000).tolist(),
                           rng.integers(0, 2000, 70000).tolist(),
                           rng.integers(0, 2**40, 70000).tolist())) + last)
    assert traced_peak(load_interactions, path, DomainId.TARGET) \
        <= 12 * path.stat().st_size


# --- filter_k_core ----------------------------------------------------------

def _grid_records(n_users, n_items):
    return [(f"u{u}", f"i{i}", None) for u in range(n_users)
            for i in range(n_items)]


def test_k_core_identity_when_already_dense():
    records = _grid_records(6, 6)  # every user/item has 6 interactions
    dense = raw(records)
    assert filter_k_core(dense, 5) is dense
    # A dropped row gives a new set, rebuilt from the surviving rows.
    weak = raw(records + [("u_weak", "i0", 7)])
    out = filter_k_core(weak, 5)
    assert out is not weak
    assert out.records == dense.records


def test_k_core_collapse_raises():
    records = [("u0", f"i{i}", None) for i in range(4)]
    with pytest.raises(DatasetCollapsedError):
        filter_k_core(raw(records), 5)


def test_k_core_chain_removal_matches_brute_force():
    # Dense 8x6 block plus one extra user whose 5 interactions lean on a
    # weak item; dropping the weak item pulls the extra user below 5,
    # which in turn drops another item below threshold.
    records = _grid_records(8, 6)
    records += [("u_extra", "i_weak", None)] + \
        [("u_extra", f"i{i}", None) for i in range(4)]
    records += [("u0", "i_weak", None), ("u1", "i_weak", None),
                ("u2", "i_weak", None)]  # i_weak has 4 < 5 interactions
    expected = sorted(brute_force_k_core(records, 5))
    out = filter_k_core(raw(records), 5)
    assert sorted(out.records) == expected
    survivors = {r[0] for r in out.records}
    assert "u_extra" not in survivors
    assert all(r[1] != "i_weak" for r in out.records)


def test_k_core_is_fixpoint():
    rng = np.random.default_rng(0)
    records = list({(f"u{rng.integers(12)}", f"i{rng.integers(12)}", None)
                    for _ in range(80)})
    once = filter_k_core(raw(records), 3)
    twice = filter_k_core(once, 3)
    assert once.records == twice.records


def test_k_core_rejects_bad_min_count():
    with pytest.raises(ValueError):
        filter_k_core(raw(_grid_records(2, 2)), 0)


# --- build_cross_domain -----------------------------------------------------

def test_partition_by_token_intersection():
    source = raw([("a", "s1", None), ("b", "s1", None)], DomainId.SOURCE)
    target = raw([("b", "t1", None), ("c", "t1", None)], DomainId.TARGET)
    ds = build_cross_domain(source, target)
    assert ds.user_tokens == ("c", "b", "a")
    assert (ds.n_target_only, ds.n_overlap, ds.n_source_only) == (1, 1, 1)


def test_identical_user_sets_all_overlap():
    source = raw([("a", "s1", None), ("b", "s2", None)], DomainId.SOURCE)
    target = raw([("a", "t1", None), ("b", "t2", None)], DomainId.TARGET)
    ds = build_cross_domain(source, target)
    assert ds.n_overlap == 2 and ds.n_target_only == 0 and ds.n_source_only == 0


def test_zero_overlap_warns_not_errors(caplog):
    source = raw([("a", "s1", None)], DomainId.SOURCE)
    target = raw([("b", "t1", None)], DomainId.TARGET)
    with caplog.at_level("WARNING"):
        ds = build_cross_domain(source, target)
    assert ds.n_overlap == 0
    assert any("overlap" in rec.message for rec in caplog.records)


def test_item_spaces_disjoint():
    source = raw([("a", "x", None)], DomainId.SOURCE)
    target = raw([("a", "x", None)], DomainId.TARGET)
    ds = build_cross_domain(source, target)
    # Same token maps to independent per-domain index spaces.
    assert ds.source_item_tokens.index("x") == 0
    assert ds.target_item_tokens.index("x") == 0
    assert ds.source.n_items == ds.target.n_items == 1


# --- splits -----------------------------------------------------------------

def _single_user_ds(n_interactions, with_times=False):
    recs = [("u", f"i{k}", k + 1 if with_times else None)
            for k in range(n_interactions)]
    target = raw(recs, DomainId.TARGET)
    source = raw([("u", "s0", None)], DomainId.SOURCE)
    return build_cross_domain(source, target)


def test_split_ten_interactions_is_8_1_1():
    ds = _single_user_ds(10)
    split = split_target(ds, seed=0)
    assert (split.train.rows[0].size, split.valid.rows[0].size,
            split.test.rows[0].size) == (8, 1, 1)


def test_split_five_interactions_is_3_1_1():
    ds = _single_user_ds(5)
    split = split_target(ds, seed=0)
    assert (split.train.rows[0].size, split.valid.rows[0].size,
            split.test.rows[0].size) == (3, 1, 1)


def test_split_chronological_newest_in_test():
    ds = _single_user_ds(5, with_times=True)
    split = split_target(ds, seed=0)
    # Items sorted by token == timestamp order here; newest (ts=5) is i4.
    newest = ds.target_item_tokens.index("i4")
    assert list(split.test.rows[0]) == [newest]


def test_split_timestamps_apply_per_user():
    # User "a" has a timestamp on every record, user "b" lacks one: "a"
    # splits chronologically whatever the seed, "b" by the seed.
    recs = [("a", f"i{k}", k + 1) for k in range(10)]
    recs += [("b", f"i{k}", k + 1 if k else None) for k in range(10)]
    source = raw([("a", "s0", None), ("b", "s0", None)], DomainId.SOURCE)
    ds = build_cross_domain(source, raw(recs))
    a, b = ds.user_tokens.index("a"), ds.user_tokens.index("b")
    items = ds.target_item_tokens
    b_tests = set()
    for seed in range(12):
        split = split_target(ds, seed=seed)
        assert list(split.test.rows[a]) == [items.index("i9")]
        assert list(split.valid.rows[a]) == [items.index("i8")]
        b_tests.add(tuple(split.test.rows[b]))
    assert len(b_tests) > 1


def test_split_source_8_2():
    recs = [("u", f"s{k}", None) for k in range(10)]
    source = raw(recs, DomainId.SOURCE)
    target = raw([("u", "t0", None)], DomainId.TARGET)
    ds = build_cross_domain(source, target)
    split = split_source(ds, seed=0)
    assert (split.train.rows[0].size, split.valid.rows[0].size) == (8, 2)
    assert split.test.n_interactions == 0


def test_split_source_five_is_4_1():
    recs = [("u", f"s{k}", None) for k in range(5)]
    ds = build_cross_domain(raw(recs, DomainId.SOURCE),
                            raw([("u", "t0", None)], DomainId.TARGET))
    split = split_source(ds, seed=0)
    assert (split.train.rows[0].size, split.valid.rows[0].size) == (4, 1)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=40),
                      min_size=1, max_size=8),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_split_partitions_every_user(sizes, seed):
    recs = [(f"u{u}", f"i{u}_{k}", None)
            for u, size in enumerate(sizes) for k in range(size)]
    ds = build_cross_domain(raw([(f"u{u}", "s0", None)
                                 for u in range(len(sizes))], DomainId.SOURCE),
                            raw(recs, DomainId.TARGET))
    split = split_target(ds, seed=seed)
    for u in range(ds.target.n_users):
        parts = [set(split.train.rows[u]), set(split.valid.rows[u]),
                 set(split.test.rows[u])]
        assert parts[0] | parts[1] | parts[2] == set(ds.target.rows[u])
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) \
            and not (parts[1] & parts[2])
        if ds.target.rows[u].size >= 3:
            assert parts[1] and parts[2]


def test_split_deterministic_under_seed():
    ds = _single_user_ds(20)
    one = split_target(ds, seed=9)
    two = split_target(ds, seed=9)
    assert all(np.array_equal(a, b)
               for a, b in zip(one.train.rows, two.train.rows))


# --- subsample --------------------------------------------------------------

def _many_user_split():
    recs = [(f"u{u}", f"i{k}", None) for u in range(10) for k in range(12)]
    ds = build_cross_domain(raw([(f"u{u}", "s0", None) for u in range(10)],
                                DomainId.SOURCE),
                            raw(recs, DomainId.TARGET))
    return ds, split_target(ds, seed=0)


def test_subsample_full_fraction_identity():
    _, split = _many_user_split()
    assert subsample_target(split, 1.0, seed=3) is split


def test_subsample_counts_and_untouched_eval():
    _, split = _many_user_split()
    total = split.train.n_interactions
    sub = subsample_target(split, 0.2, seed=3)
    assert sub.train.n_interactions == int(np.ceil(0.2 * total))
    assert all(np.array_equal(a, b)
               for a, b in zip(sub.test.rows, split.test.rows))
    for u in range(split.train.n_users):
        assert set(sub.train.rows[u]) <= set(split.train.rows[u])


def test_subsample_deterministic():
    _, split = _many_user_split()
    a = subsample_target(split, 0.4, seed=11)
    b = subsample_target(split, 0.4, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a.train.rows, b.train.rows))


def test_subsample_rejects_bad_fraction():
    _, split = _many_user_split()
    with pytest.raises(ValueError):
        subsample_target(split, 0.0, seed=0)


# --- invariants and archive round-trip ---------------------------------------

@settings(max_examples=60, deadline=None)
@given(n_users=st.integers(min_value=1, max_value=6),
       n_items=st.integers(min_value=1, max_value=8), data=st.data())
def test_interaction_set_matches_naive_rows(n_users, n_items, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
        unique=True, max_size=30))
    users = [u for u, _ in pairs]
    items = [i for _, i in pairs]
    inter = InteractionSet.from_pairs(n_users, n_items, users, items,
                                      [100 * u + i for u, i in pairs])
    expected = naive_rows(n_users, pairs)
    assert [row.tolist() for row in inter.rows] == expected
    flat = [(u, i) for u, row in enumerate(expected) for i in row]
    assert list(zip(inter.users.tolist(), inter.indices.tolist())) == flat
    assert inter.times.tolist() == [100 * u + i for u, i in flat]
    assert inter.n_users == n_users and inter.n_interactions == len(pairs)


def _csr(indptr, indices):
    return lambda: InteractionSet(5, np.array(indptr, dtype=np.int64),
                                  np.array(indices, dtype=np.int64))


MALFORMED = {
    "unsorted-row": _csr([0, 2], [3, 1]),
    "repeated-item": _csr([0, 3], [1, 2, 2]),
    "repeated-pair": lambda: InteractionSet.from_pairs(2, 5, [1, 0, 1],
                                                       [4, 4, 4]),
    "negative-item": _csr([0, 1], [-1]),
    "item-past-n_items": _csr([0, 2], [0, 5]),
    "float-indptr": lambda: InteractionSet(1, np.array([0.0, 1.0]),
                                           np.array([0])),
    "indices-2-D": lambda: InteractionSet(1, np.array([0, 1]),
                                          np.array([[0]])),
    "indptr-not-from-0": _csr([1, 2], [0, 1]),
    "indptr-decreasing": _csr([0, 2, 1, 3], [0, 1, 2]),
    "indptr-short": _csr([0, 1], [0, 1]),
    "indptr-long": _csr([0, 3], [0, 1]),
    "user-past-n_users": lambda: InteractionSet.from_pairs(1, 5, [1], [0]),
}


@pytest.mark.parametrize("build", MALFORMED.values(), ids=list(MALFORMED))
def test_interaction_set_rejects_unsorted_rows(build):
    with pytest.raises(ValueError):
        build()


def test_interaction_rows_are_read_only():
    ds = _single_user_ds(5)
    with pytest.raises(ValueError):
        ds.target.rows[0][0] = 99


# Cells are user * n_items + item; the examples are an empty set with no
# users, an empty 1 x 1 set, a full 1 x 1 set, a 3 x 3 set (9 bits, not a
# multiple of 8) holding only its last key, and a full 2 x 4 set.
@settings(max_examples=80, deadline=None)
@given(n_users=st.integers(min_value=0, max_value=6),
       n_items=st.integers(min_value=1, max_value=11),
       cells=st.sets(st.integers(min_value=0, max_value=65)))
@example(n_users=0, n_items=3, cells=set())
@example(n_users=1, n_items=1, cells=set())
@example(n_users=1, n_items=1, cells={0})
@example(n_users=3, n_items=3, cells={8})
@example(n_users=2, n_items=4, cells=set(range(8)))
def test_contains_matches_membership_oracle(n_users, n_items, cells):
    size = n_users * n_items
    users, items = np.divmod(np.array(sorted(c for c in cells if c < size),
                                      dtype=np.int64), n_items)
    order = np.random.default_rng(len(cells)).permutation(users.size)
    inter = InteractionSet.from_pairs(n_users, n_items, users[order],
                                      items[order])
    keys = np.arange(size)
    assert np.array_equal(inter.contains(keys), held_keys(inter, keys))
    grid = keys.reshape(n_users, n_items)
    assert np.array_equal(inter.contains(grid), held_keys(inter, grid))
    assert inter.bits.dtype == np.uint8 and inter.bits.size == -(-size // 8)
    # The padding past the last key is clear.
    assert not np.unpackbits(inter.bits, bitorder="little")[size:].any()
    assert inter.full_users.tolist() == [
        user for user, row in enumerate(inter.rows) if row.size == n_items]
    assert not inter.bits.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        inter.bits[...] = 0


def test_bits_build_allocates_no_dense_matrix():
    # 2600 users x 2000 items, 24 items a row: a users x items bool array
    # would take eight times the 650,000 packed bytes.
    rng = np.random.default_rng(0)
    items = np.concatenate([rng.choice(2000, size=24, replace=False)
                            for _ in range(2600)])
    inter = InteractionSet.from_pairs(2600, 2000,
                                      np.repeat(np.arange(2600), 24), items)
    peak = traced_peak(lambda: inter.bits)
    assert inter.bits.nbytes == 650_000
    assert peak < 2 * inter.bits.nbytes
    assert inter.contains(inter.keys).all()


@st.composite
def archive_datasets(draw):
    """A small cross-domain dataset, timestamped in part, that may share no
    user between its domains, and ratios that may leave eval parts empty."""
    n_target = draw(st.integers(min_value=1, max_value=6))
    first_source = draw(st.integers(min_value=0, max_value=n_target))
    stamps = st.none() | st.integers(min_value=-5, max_value=5)

    def records(users, prefix):
        pairs = draw(st.lists(st.tuples(st.sampled_from(users),
                                        st.integers(0, 6)),
                              min_size=1, max_size=30, unique=True))
        return [(u, f"{prefix}{i}", draw(stamps)) for u, i in pairs]

    source = records([f"u{k}" for k in range(first_source, first_source
                                             + draw(st.integers(1, 6)))], "s")
    target = records([f"u{k}" for k in range(n_target)], "t")
    ds = build_cross_domain(raw(source, DomainId.SOURCE), raw(target))
    return (ds, draw(st.sampled_from([(8, 1, 1), (1, 0, 0), (3, 1, 0)])),
            draw(st.sampled_from([(8, 2), (1, 0)])))


@settings(max_examples=40, deadline=None)
@given(case=archive_datasets(), seed=st.integers(0, 2**31 - 1))
def test_archive_round_trip_bit_exact(case, seed):
    ds, target_ratios, source_ratios = case
    t_split = split_target(ds, target_ratios, seed)
    s_split = split_source(ds, source_ratios, seed + 1)
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "dataset.npz"
        assert save_dataset(tmp, ds, t_split, s_split) == [archive]
        ds2, t2, s2 = load_dataset(tmp)
        assert ds2.user_tokens == ds.user_tokens
        assert (ds2.n_target_only, ds2.n_overlap, ds2.n_source_only) == \
            (ds.n_target_only, ds.n_overlap, ds.n_source_only)
        assert ds2.source_item_tokens == ds.source_item_tokens
        assert ds2.target_item_tokens == ds.target_item_tokens
        pairs = [(ds2.target, ds.target), (ds2.source, ds.source)]
        for loaded, split in ((t2, t_split), (s2, s_split)):
            assert loaded.split_seed == split.split_seed
            pairs += [(getattr(loaded, part), getattr(split, part))
                      for part in ("train", "valid", "test")]
        for a, b in pairs:
            assert (a.n_items, a.indptr.tolist(), a.indices.tolist()) == \
                (b.n_items, b.indptr.tolist(), b.indices.tolist())
        with np.load(archive, allow_pickle=False) as npz:
            assert npz["target-test-indices"].dtype == np.int64

        # Re-serialisation reproduces identical bytes in the one file.
        before = archive.read_bytes()
        save_dataset(tmp, ds2, t2, s2)
        assert archive.read_bytes() == before
        assert list(Path(tmp).iterdir()) == [archive]


def _break_user_counts(header, arrays):
    indptr = arrays["target-test-indptr"][:-1]
    arrays["target-test-indptr"] = indptr
    arrays["target-test-indices"] = arrays["target-test-indices"][:indptr[-1]]


def _break_partition(header, arrays):
    header["users"]["overlap"].append(header["users"]["source_only"].pop())


def _drop_valid(header, arrays):
    del arrays["source-valid-indices"]


def _users_not_a_list(header, arrays):
    header["users"]["overlap"] = "u2"


def _float_indptr(header, arrays):
    arrays["target-train-indptr"] = arrays["target-train-indptr"] * 1.0


@pytest.mark.parametrize("corrupt, message", [
    (_drop_valid, "no member 'source-valid-indices'"),
    (_break_user_counts, "user count"),
    (_break_partition, "do not fit"),
    (_users_not_a_list, "users/overlap is not a list"),
    (_float_indptr,
     "target split: indptr and indices must be 1-D int64 arrays"),
    (lambda header, arrays: header.update(version=2),
     "unsupported archive version"),
], ids=["missing-entry", "user-counts-differ", "partition-misfit",
        "entry-not-a-list", "float-indptr", "version-2"])
def test_load_dataset_rejects_malformed_archive(tmp_path, corrupt, message):
    recs = [(f"u{u}", f"i{k}", None) for u in range(4) for k in range(5)]
    ds = build_cross_domain(
        raw([(f"u{u}", "s0", None) for u in range(2, 6)], DomainId.SOURCE),
        raw(recs))
    archive, = save_dataset(tmp_path, ds, split_target(ds), split_source(ds))
    rewrite_arrays(archive, corrupt)
    with pytest.raises(ValueError, match=message) as err:
        load_dataset(tmp_path)
    assert str(archive) in str(err.value)


def _write_checkpoint(path, value):
    save_checkpoint(path, Checkpoint({"user": np.full((3, 2), value)}, {}, 0))


def _write_manifest(path, value):
    # The manifest of a command that read nothing, then of one that read
    # this file.
    cli._write_manifest(Namespace(out=path.parent),
                        [] if value == 1 else [Path(__file__)], [])


@pytest.mark.parametrize("name, write", [
    ("model.ckpt", _write_checkpoint),
    ("target.tsv", lambda path, value: corpus.write_interactions(
        path, raw([(f"u{value}", "i0", None), ("u9", "i1", 5)]))),
    ("manifest.json", _write_manifest),
], ids=["checkpoint", "tsv", "manifest"])
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, name,
                                           write):
    path = tmp_path / name
    write(path, 1)
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError("no space left on device")

    # The new content is in the temporary file when the flush fails.
    monkeypatch.setattr(corpus.os, "fsync", disk_full)
    with pytest.raises(OSError, match="no space left"):
        write(path, 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
    monkeypatch.undo()
    write(path, 2)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == [name]
