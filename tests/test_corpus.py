import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrec import corpus
from cutrec.corpus import (DomainId, InteractionSet, RawInteractions,
                           build_cross_domain, filter_k_core, load_dataset,
                           load_interactions, save_dataset, split_source,
                           split_target, subsample_target)
from cutrec.errors import DatasetCollapsedError, ParseError

from helpers import brute_force_k_core, naive_rows


def raw(records, domain=DomainId.TARGET):
    return RawInteractions(tuple(records), domain)


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


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_interactions("/nonexistent/file.tsv", DomainId.TARGET)


# --- filter_k_core ----------------------------------------------------------

def _grid_records(n_users, n_items):
    return [(f"u{u}", f"i{i}", None) for u in range(n_users)
            for i in range(n_items)]


def test_k_core_identity_when_already_dense():
    records = _grid_records(6, 6)  # every user/item has 6 interactions
    out = filter_k_core(raw(records), 5)
    assert out.records == raw(records).records


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


def test_archive_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    src_recs = list({(f"u{rng.integers(20)}", f"s{rng.integers(15)}", None)
                     for _ in range(150)})
    tgt_dedup = {(f"u{rng.integers(25)}", f"t{rng.integers(15)}"):
                 int(rng.integers(1000)) for _ in range(180)}
    tgt_recs = [(u, i, ts) for (u, i), ts in tgt_dedup.items()]
    ds = build_cross_domain(filter_k_core(raw(src_recs, DomainId.SOURCE), 2),
                            filter_k_core(raw(tgt_recs, DomainId.TARGET), 2))
    t_split = split_target(ds, seed=7)
    s_split = split_source(ds, seed=8)
    save_dataset(tmp_path, ds, t_split, s_split)

    ds2, t2, s2 = load_dataset(tmp_path)
    assert ds2.user_tokens == ds.user_tokens
    assert (ds2.n_target_only, ds2.n_overlap, ds2.n_source_only) == \
        (ds.n_target_only, ds.n_overlap, ds.n_source_only)
    assert ds2.source_item_tokens == ds.source_item_tokens
    assert ds2.target_item_tokens == ds.target_item_tokens
    for a, b in zip(ds2.target.rows, ds.target.rows):
        assert np.array_equal(a, b)
    for a, b in zip(ds2.source.rows, ds.source.rows):
        assert np.array_equal(a, b)
    for part in ("train", "valid", "test"):
        for a, b in zip(getattr(t2, part).rows, getattr(t_split, part).rows):
            assert np.array_equal(a, b)

    # Re-serialisation reproduces identical bytes.
    before = {(tmp_path / name).read_bytes()
              for name in (corpus.INDEX_FILE, corpus.SPLITS_FILE)}
    save_dataset(tmp_path, ds2, t2, s2, force=True)
    after = {(tmp_path / name).read_bytes()
             for name in (corpus.INDEX_FILE, corpus.SPLITS_FILE)}
    assert before == after


def _break_user_counts(index, splits):
    splits["target"]["test"].pop()


def _break_partition(index, splits):
    index["users"]["overlap"].append(index["users"]["source_only"].pop())


def _drop_valid(index, splits):
    del splits["source"]["valid"]


def _users_not_a_list(index, splits):
    index["users"]["overlap"] = "u2"


@pytest.mark.parametrize("corrupt, file, message", [
    (_drop_valid, corpus.SPLITS_FILE, "source/valid"),
    (_break_user_counts, corpus.SPLITS_FILE, "user count"),
    (_break_partition, corpus.INDEX_FILE, "do not fit"),
    (_users_not_a_list, corpus.INDEX_FILE, "users/overlap is not a list"),
], ids=["missing-entry", "user-counts-differ", "partition-misfit",
        "entry-not-a-list"])
def test_load_dataset_rejects_malformed_archive(tmp_path, corrupt, file,
                                                message):
    recs = [(f"u{u}", f"i{k}", None) for u in range(4) for k in range(5)]
    ds = build_cross_domain(
        raw([(f"u{u}", "s0", None) for u in range(2, 6)], DomainId.SOURCE),
        raw(recs))
    save_dataset(tmp_path, ds, split_target(ds), split_source(ds))
    blobs = [json.loads((tmp_path / name).read_text())
             for name in (corpus.INDEX_FILE, corpus.SPLITS_FILE)]
    corrupt(*blobs)
    for name, blob in zip((corpus.INDEX_FILE, corpus.SPLITS_FILE), blobs):
        (tmp_path / name).write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=message) as err:
        load_dataset(tmp_path)
    assert file in str(err.value)


def test_archive_refuses_overwrite(tmp_path):
    ds = _single_user_ds(5)
    t_split = split_target(ds, seed=0)
    s_split = split_source(ds, seed=0)
    save_dataset(tmp_path, ds, t_split, s_split)
    with pytest.raises(FileExistsError):
        save_dataset(tmp_path, ds, t_split, s_split)
