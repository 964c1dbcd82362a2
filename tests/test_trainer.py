import copy
import os
import platform
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrec import similarity, trainer
from cutrec.backbone import (SingleDomainModel, domain_forward_backward,
                             rows_read, sample_negatives_batch)
from cutrec.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cutrec.config import TrainingConfig
from cutrec.corpus import (DomainId, build_cross_domain, split_source,
                           split_target)
from cutrec.contrastive import contrastive_loss
from cutrec.embeddings import (ROLE_ITEM_SOURCE, ROLE_ITEM_TARGET, ROLE_USER,
                               assert_finite)
from cutrec.errors import CheckpointError, ConfigError, TrainingDivergedError
from cutrec.optim import Adam
from cutrec.similarity import SimilarityOracle, extract_pairs
from cutrec.synthgen import SynthConfig, generate
from cutrec.trainer import (CutModel, LossBreakdown, run_target_phase,
                            run_transfer_phase, transfer_forward_backward,
                            transfer_step)

from helpers import (adam_step_oracle, assert_grad_matches, csr_graph,
                     dense_grads, interaction_set, lightgcn_transfer_oracle,
                     merge_row_parts, raw_interactions, traced_peak)


def toy_dataset(seed=0, n_target=9, n_source=6, overlap=3, per_user=6,
                n_items=10):
    rng = np.random.default_rng(seed)
    users = [f"u{k:02d}" for k in range(n_target + n_source - overlap)]
    target_users = users[:n_target]
    source_users = users[n_target - overlap:]

    def domain_records(domain_users, prefix):
        records = []
        for user in domain_users:
            items = rng.choice(n_items, size=per_user, replace=False)
            records += [(user, f"{prefix}{i}", None) for i in items]
        return tuple(records)

    source = raw_interactions(domain_records(source_users, "s"),
                              DomainId.SOURCE)
    target = raw_interactions(domain_records(target_users, "t"),
                              DomainId.TARGET)
    ds = build_cross_domain(source, target)
    return ds, split_target(ds, seed=seed), split_source(ds, seed=seed)


def small_config(**overrides):
    params = dict(embedding_dim=4, batch_size=16, max_epochs=3, patience=2,
                  lr=0.01, seed=0, gamma=0.0, contrastive_weight=0.05,
                  temperature=0.1, alpha=0.3)
    params.update(overrides)
    return TrainingConfig(**params)


def fixed_batches(ds, target_split, source_split, rng):
    tgt_users, tgt_pos = [], []
    for u in range(ds.target.n_users):
        row = target_split.train.rows[u]
        if row.size:
            tgt_users.append(u)
            tgt_pos.append(int(rng.choice(row)))
    src_users, src_pos = [], []
    for v in range(ds.source.n_users):
        row = source_split.train.rows[v]
        if row.size:
            src_users.append(v)
            src_pos.append(int(rng.choice(row)))

    def negatives(split, users, n_items):
        out = []
        for u in users:
            row = set(split.train.rows[u].tolist())
            out.append(next(i for i in range(n_items) if i not in row))
        return np.array(out)

    return (np.array(src_users), np.array(src_pos),
            negatives(source_split, src_users, ds.source.n_items),
            np.array(tgt_users), np.array(tgt_pos),
            negatives(target_split, tgt_users, ds.target.n_items))


# --- early stopping contract ---------------------------------------------------

def fit_on_curve(monkeypatch, curve, patience):
    """``fit`` over the scripted validation ``curve``, one epoch per
    value at most, where each epoch is one step that adds 1 to the only
    parameter. Returns the best epoch, the curve read and the restored
    parameter."""
    values = iter(curve)
    monkeypatch.setattr(trainer, "evaluate_full", lambda *args, **kwargs:
                        SimpleNamespace(means={"ndcg": next(values)}))
    params = {"p": np.zeros(1)}

    def step(batch):
        params["p"] += 1.0
        return 0.0

    config = small_config(max_epochs=len(curve), patience=patience)
    best_epoch, history = trainer.fit(
        SimpleNamespace(params=lambda: params), step, 1, lambda: None, None,
        config, np.random.default_rng(0), "target")
    return best_epoch, history, float(params["p"][0])


def test_early_stopper_stops_by_epoch_eleven(monkeypatch):
    curve = [1.0] + [0.5] * 48  # never improves after epoch 1
    best_epoch, history, _ = fit_on_curve(monkeypatch, curve, patience=10)
    assert len(history) == 11
    assert best_epoch == 1


def test_early_stopper_resets_on_improvement(monkeypatch):
    # Without the reset at epoch 3, patience 2 would stop there.
    curve = [1.0, 0.5, 2.0, 0.5, 0.5, 9.0]
    best_epoch, history, _ = fit_on_curve(monkeypatch, curve, patience=2)
    assert history == curve[:5]
    assert best_epoch == 3


@pytest.mark.parametrize("curve, best_epoch", [
    ([0.1, 0.3, 0.2, 0.3, 0.25], 2),  # a tie is no gain
    ([0.1, 0.2, 0.3, 0.4, 0.5], 5),
    ([np.nan] * 5, 0)])  # no epoch beats -inf: the initial parameters
def test_fit_restores_the_best_epoch_parameters(monkeypatch, curve,
                                               best_epoch):
    got, history, restored = fit_on_curve(monkeypatch, curve, patience=5)
    assert len(history) == 5
    assert got == best_epoch
    assert restored == best_epoch


# --- full-step gradients ---------------------------------------------------------

@pytest.mark.parametrize("backbone, no_transform", [
    pytest.param(backbone, no_transform, id=f"bce-{backbone}"
                 + ("-no_transform" if no_transform else ""))
    for no_transform in (False, True) for backbone in ("mf", "lightgcn")])
def test_transfer_step_gradients_match_finite_differences(backbone,
                                                          no_transform):
    ds, target_split, source_split = toy_dataset(seed=1, n_target=6,
                                                 n_source=5, overlap=3,
                                                 per_user=5, n_items=8)
    config = small_config(backbone=backbone, k_layers=2, alpha=0.4,
                          contrastive_weight=0.1, no_transform=no_transform)
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=np.float64)
    rng = np.random.default_rng(2)
    batches = fixed_batches(ds, target_split, source_split, rng)
    oracle = SimilarityOracle.from_embeddings(
        np.random.default_rng(3).normal(size=(ds.target.n_users, 4)),
        gamma=0.0)
    pairs = extract_pairs(batches[3], oracle)
    assert pairs.n_similar > 0

    _, buf = transfer_forward_backward(model, *batches, pairs)
    analytic = dense_grads(buf.grads(), model.params())
    assert_grad_matches(
        lambda: transfer_forward_backward(model, *batches, pairs)[0].total,
        model.params(), analytic, rtol=1e-4, h=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["pairs", "no-pairs"])
@pytest.mark.parametrize("no_transform", [False, True],
                         ids=["bce-transform", "bce-no-transform"])
def test_lightgcn_transfer_steps_match_row_indexed_oracle(no_transform,
                                                          gamma, dtype):
    # Blocks over whole tables, one score matrix per domain, the user
    # table's source and target blocks summed where they overlap, CSC
    # propagation and the in-place Adam give the bits of the per-entry
    # route over CSR: tables, moments and transform.
    ds, target_split, source_split = toy_dataset(seed=3, n_target=12,
                                                 n_source=10, overlap=4)
    config = small_config(backbone="lightgcn", k_layers=2, alpha=0.4,
                          contrastive_weight=0.1, no_transform=no_transform)
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=dtype)
    twin = copy.deepcopy(model)
    twin.graph_target = csr_graph(model.graph_target)
    twin.graph_source = csr_graph(model.graph_source)
    opt = Adam(model.params(), lr=0.01)
    moments = {name: (np.zeros_like(value), np.zeros_like(value))
               for name, value in twin.params().items()}
    rng = np.random.default_rng(4)
    oracle = SimilarityOracle.from_embeddings(
        rng.normal(size=(ds.target.n_users, 4)), gamma=gamma)
    tgt, src = target_split.train, source_split.train

    def draw(train, size):
        pick = rng.integers(0, train.n_interactions, size=size)
        users = train.users[pick]
        return users, train.indices[pick], sample_negatives_batch(
            rng, train.n_items, train, users)

    for t in range(1, 5):
        (src_users, src_pos, src_neg), (tgt_users, tgt_pos, tgt_neg) = (
            draw(src, 20), draw(tgt, 24))
        batches = (src_users, src_pos, src_neg, tgt_users, tgt_pos, tgt_neg)
        pairs = extract_pairs(tgt_users, oracle)
        assert (pairs.n_similar > 0) == (gamma == 0.0)
        breakdown, buf = transfer_forward_backward(model, *batches, pairs)
        grads = buf.grads()
        for name, (rows, _) in grads.items():
            if not name.startswith("transform"):
                n_rows = len(twin.params()[name])
                assert np.array_equal(rows, np.arange(n_rows))
        opt.step(grads)
        losses, expected = lightgcn_transfer_oracle(twin, *batches, pairs)
        adam_step_oracle(twin.params(), moments, expected, t, lr=0.01)
        assert (breakdown.target, breakdown.source,
                breakdown.contrastive) == losses
        for name, value in model.params().items():
            assert value.tobytes() == twin.params()[name].tobytes(), name
            assert opt._m[name].tobytes() == moments[name][0].tobytes()
            assert opt._v[name].tobytes() == moments[name][1].tobytes()


def user_parts(model, batches, pairs):
    """The user table's two gradient parts as ``transfer_forward_backward``
    makes them: the source domain's on its table rows, then the target
    domain's, contrastive term included, chained back through the
    transform."""
    src_users, src_pos, src_neg, tgt_users, tgt_pos, tgt_neg = batches
    config, params = model.config, model.params()
    rows, local = rows_read(model.graph_source, src_users)
    _, d_source, _ = domain_forward_backward(
        model.source_users[rows], params[ROLE_ITEM_SOURCE],
        model.graph_source, local, src_pos, src_neg, config.alpha)
    source_rows = np.arange(model.source_offset,
                            len(params[ROLE_USER]))[rows]
    graph = model.graph_target
    rows, local = rows_read(graph, tgt_users)
    transformed = model.apply_transform(model.target_users[rows])
    _, d_target, _ = domain_forward_backward(
        transformed, params[ROLE_ITEM_TARGET], graph, local, tgt_pos,
        tgt_neg, 1.0 - config.alpha)
    d_target = d_target.astype(np.float64)
    if pairs.n_similar > 0:
        at = pairs.users if graph is not None else slice(None)
        d_target[at] += config.contrastive_weight * contrastive_loss(
            transformed[at], pairs, config.temperature)[1]
    if not config.no_transform:
        d_target = d_target @ params["transform-weight"]
    return [(source_rows, d_source),
            (np.arange(model.n_target)[rows], d_target)]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       backbone=st.sampled_from(["mf", "lightgcn"]),
       dtype=st.sampled_from([np.float32, np.float64]),
       no_transform=st.booleans(), gamma=st.sampled_from([0.0, 1.0]),
       mix=st.sampled_from(["overlap", "disjoint", "any"]),
       sizes=st.tuples(st.integers(1, 30), st.integers(1, 30)))
def test_user_gradient_parts_meet_as_the_buffer_merged_them(
        seed, backbone, dtype, no_transform, gamma, mix, sizes):
    # The source and target parts, summed in the forward/backward, give
    # the rows and bits of the merge the gradient buffer used to make:
    # overlap users in both domains' batches, in neither, or as drawn.
    ds, target_split, source_split = toy_dataset(seed=3, n_target=12,
                                                 n_source=10, overlap=4)
    config = small_config(backbone=backbone, k_layers=2, alpha=0.4,
                          contrastive_weight=0.1, no_transform=no_transform)
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=dtype)
    rng = np.random.default_rng(seed)
    if not no_transform:
        model.params()["transform-weight"] += rng.normal(
            scale=0.1, size=(4, 4)).astype(dtype)

    def draw(train, pool, size):
        pick = rng.choice(np.flatnonzero(pool), size=size)
        users = train.users[pick]
        return users, train.indices[pick], sample_negatives_batch(
            rng, train.n_items, train, users)

    # Source user v is target user n_target_only + v, for v < n_overlap.
    src, tgt = source_split.train, target_split.train
    everyone = mix == "any"
    src_batch = draw(src, everyone | ((src.users < ds.n_overlap)
                                      == (mix == "overlap")), sizes[0])
    shared = ds.n_target_only + src_batch[0]
    tgt_batch = draw(tgt, everyone | (np.isin(tgt.users, shared)
                                      if mix == "overlap"
                                      else tgt.users < ds.n_target_only),
                     sizes[1])
    batches = (*src_batch, *tgt_batch)
    pairs = extract_pairs(batches[3], SimilarityOracle.from_embeddings(
        rng.normal(size=(ds.target.n_users, 4)), gamma=gamma))
    _, buf = transfer_forward_backward(model, *batches, pairs)
    grads = buf.grads()
    assert list(grads) == [ROLE_USER, ROLE_ITEM_SOURCE, ROLE_ITEM_TARGET,
                           *list(model.params())[3:]]
    rows, values = grads[ROLE_USER]
    parts = user_parts(model, batches, pairs)
    want_rows, want_values = merge_row_parts(model.params()[ROLE_USER],
                                             parts)
    assert np.array_equal(rows, want_rows)
    assert values.dtype == np.float64
    assert values.tobytes() == want_values.tobytes()
    source_rows, target_rows = (set(part[0].tolist()) for part in parts)
    if mix != "any":
        assert bool(source_rows & target_rows) == (
            mix == "overlap" or backbone == "lightgcn")


def test_breakdown_total_is_exact_recombination():
    ds, target_split, source_split = toy_dataset(seed=4)
    config = small_config(alpha=0.2, contrastive_weight=1e-4)
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=np.float64)
    rng = np.random.default_rng(5)
    batches = fixed_batches(ds, target_split, source_split, rng)
    oracle = SimilarityOracle.from_embeddings(
        rng.normal(size=(ds.target.n_users, 4)), gamma=0.0)
    pairs = extract_pairs(batches[3], oracle)
    breakdown, _ = transfer_forward_backward(model, *batches, pairs)
    expected = (0.8 * breakdown.target + 0.2 * breakdown.source
                + 1e-4 * breakdown.contrastive)
    assert abs(breakdown.total - expected) <= 1e-12 * max(1.0, abs(expected))


# --- activation invariants --------------------------------------------------------

def test_source_only_rows_touched_only_by_source_batch():
    ds, target_split, source_split = toy_dataset(seed=6)
    config = small_config()
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=np.float64)
    rng = np.random.default_rng(7)
    batches = fixed_batches(ds, target_split, source_split, rng)
    oracle = SimilarityOracle.from_embeddings(
        rng.normal(size=(ds.target.n_users, 4)), gamma=0.0)
    pairs = extract_pairs(batches[3], oracle)
    _, buf = transfer_forward_backward(model, *batches, pairs)
    user_rows = buf.grads()[ROLE_USER][0]
    n_target = ds.target.n_users
    expected_rows = {ds.n_target_only + int(v) for v in batches[0]
                     if ds.n_target_only + v >= n_target}
    assert set(user_rows[user_rows >= n_target].tolist()) == expected_rows


def test_transform_gets_no_gradient_from_source_loss():
    # With the target weight and the contrastive weight both zero, the
    # remaining (source) term must leave W and b untouched.
    ds, target_split, source_split = toy_dataset(seed=8)
    config = small_config(alpha=1.0, contrastive_weight=0.0)
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=np.float64)
    rng = np.random.default_rng(9)
    batches = fixed_batches(ds, target_split, source_split, rng)
    oracle = SimilarityOracle.from_embeddings(
        rng.normal(size=(ds.target.n_users, 4)), gamma=0.0)
    pairs = extract_pairs(batches[3], oracle)
    _, buf = transfer_forward_backward(model, *batches, pairs)
    grads = buf.grads()
    np.testing.assert_array_equal(grads["transform-weight"][1], 0.0)
    np.testing.assert_array_equal(grads["transform-bias"][1], 0.0)


def test_item_scores_identical_between_full_and_no_transform_at_identity():
    ds, target_split, source_split = toy_dataset(seed=10)
    base = small_config()
    full = CutModel.build(ds, target_split, source_split, base)
    bare = CutModel.build(ds, target_split, source_split,
                          base.replace(no_transform=True))
    for role in (ROLE_USER, ROLE_ITEM_TARGET, ROLE_ITEM_SOURCE):
        assert np.array_equal(full.params()[role], bare.params()[role])
    score_full = full.make_target_scorer()
    score_bare = bare.make_target_scorer()
    for user in range(ds.target.n_users):
        assert np.array_equal(score_full(user), score_bare(user))


def test_transform_weight_nan_is_divergence():
    ds, target_split, source_split = toy_dataset(seed=22)
    model = CutModel.build(ds, target_split, source_split, small_config())
    assert_finite(model.params())
    model.params()["transform-weight"][0, 1] = np.nan
    with pytest.raises(TrainingDivergedError, match="transform-weight"):
        assert_finite(model.params())


# --- ablation flags ---------------------------------------------------------------

def test_zero_contrastive_weight_zeroes_term_and_runs_without_oracle():
    ds, target_split, source_split = toy_dataset(seed=11)
    config = small_config(contrastive_weight=0.0, max_epochs=2)
    result = run_transfer_phase(ds, target_split, source_split, config,
                                oracle=None)
    assert "transform-weight" in result.model.params()
    model = result.model
    opt = Adam(model.params(), lr=0.01)
    rng = np.random.default_rng(1)
    breakdown = transfer_step(
        model, opt, None, np.array([0, 1]),
        np.array([source_split.train.rows[0][0],
                  source_split.train.rows[1][0]]),
        np.array([0, 1]),
        np.array([target_split.train.rows[0][0],
                  target_split.train.rows[1][0]]),
        source_split.train, target_split.train, rng, rng)
    assert breakdown.contrastive == 0.0
    assert breakdown.total == pytest.approx(
        0.7 * breakdown.target + 0.3 * breakdown.source, rel=1e-12)


def test_joint_baseline_has_no_transform_and_no_contrastive():
    ds, target_split, source_split = toy_dataset(seed=12)
    config = small_config(no_transform=True, contrastive_weight=0.0,
                          max_epochs=2)
    result = run_transfer_phase(ds, target_split, source_split, config)
    assert list(result.model.params()) == [ROLE_USER, ROLE_ITEM_TARGET,
                                           ROLE_ITEM_SOURCE]


def test_missing_oracle_rejected_when_contrastive_active():
    ds, target_split, source_split = toy_dataset(seed=13)
    with pytest.raises(ConfigError, match="frozen phase-one user table"):
        run_transfer_phase(ds, target_split, source_split, small_config())


def test_empty_similarity_graph_warns_before_phase_two(caplog):
    ds, target_split, source_split = toy_dataset(seed=22)
    config = small_config(gamma=0.9, max_epochs=1, embedding_dim=16)
    phase1 = run_target_phase(ds, target_split, config)
    for gamma in (0.9, -0.5):
        oracle = SimilarityOracle.from_embeddings(phase1.frozen, gamma)
        assert (oracle.n_pairs == 0) == (gamma == 0.9)
        caplog.clear()
        with caplog.at_level("WARNING", logger="cutrec.trainer"):
            run_transfer_phase(ds, target_split, source_split,
                               config.replace(gamma=gamma), oracle)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING"]
        if gamma == 0.9:
            assert len(warnings) == 1
            assert "gamma=0.9" in warnings[0]
            assert f"largest {oracle.max_cosine:.4f}" in warnings[0]
            assert "zero for every batch" in warnings[0]
        else:
            assert warnings == []


def test_empty_similarity_graph_trains_as_no_contrastive(monkeypatch):
    # Without similar pairs the contrastive term is skipped, and tables and
    # transform come out byte-equal to a run with the term switched off.
    ds, target_split, source_split = toy_dataset(seed=22)
    config = small_config(gamma=0.9, max_epochs=2, embedding_dim=16)
    phase1 = run_target_phase(ds, target_split, config)
    oracle = SimilarityOracle.from_embeddings(phase1.frozen, config.gamma)
    assert oracle.n_pairs == 0

    def no_pairs_expected(*args, **kwargs):
        raise AssertionError("contrastive term ran without similar pairs")
    monkeypatch.setattr(trainer, "contrastive_loss", no_pairs_expected)
    empty = run_transfer_phase(ds, target_split, source_split, config,
                               oracle).model.params()
    off = run_transfer_phase(ds, target_split, source_split,
                             config.replace(contrastive_weight=0.0),
                             None).model.params()
    assert set(empty) == set(off)
    assert "transform-weight" in off
    for name in off:
        assert empty[name].tobytes() == off[name].tobytes(), name


def test_zero_contrastive_weight_builds_no_oracle_and_slices_no_pairs(
        monkeypatch):
    # At contrastive_weight 0 the term is off: neither oracle is built,
    # and an oracle passed in is never sliced into pairs.
    ds, target_split, source_split = toy_dataset(seed=24)
    config = small_config(contrastive_weight=0.0, max_epochs=2)
    frozen = run_target_phase(ds, target_split, config).frozen
    oracle = SimilarityOracle.from_embeddings(frozen, config.gamma)
    assert oracle.n_pairs > 0

    def refuse(*args, **kwargs):
        raise AssertionError("contrastive weight 0 built or read an oracle")
    monkeypatch.setattr(SimilarityOracle, "from_embeddings", refuse)
    monkeypatch.setattr(SimilarityOracle, "from_history", refuse)
    embedding = run_transfer_phase(ds, target_split, source_split, config,
                                   frozen=frozen).model.params()
    history = run_transfer_phase(
        ds, target_split, source_split,
        config.replace(history_similarity=True)).model.params()
    monkeypatch.setattr(trainer, "extract_pairs", refuse)
    given = run_transfer_phase(ds, target_split, source_split, config,
                               oracle, frozen=frozen).model.params()
    assert_same_params(embedding, history)
    assert_same_params(embedding, given)


def test_zero_contrastive_weight_trains_past_the_pair_cap(monkeypatch):
    # A gamma whose oracle holds more pairs than MAX_SIMILAR_PAIRS refuses
    # the contrastive term, not a run that switches it off.
    ds, target_split, source_split = toy_dataset(seed=25)
    config = small_config(backbone="lightgcn", gamma=-0.5, max_epochs=1)
    frozen = run_target_phase(ds, target_split, config).frozen
    monkeypatch.setattr(similarity, "MAX_SIMILAR_PAIRS", 4)
    with pytest.raises(ConfigError, match="more than 4 ordered user pairs"):
        run_transfer_phase(ds, target_split, source_split, config,
                           frozen=frozen)
    result = run_transfer_phase(ds, target_split, source_split,
                                config.replace(contrastive_weight=0.0),
                                frozen=frozen)
    assert result.step_count > 0


def test_overlap_embedding_shared_across_domains_without_transform():
    ds, target_split, source_split = toy_dataset(seed=14)
    config = small_config(no_transform=True, contrastive_weight=0.0)
    model = CutModel.build(ds, target_split, source_split, config)
    # The first overlap user, by target-local and by source-local index.
    target_view = model.target_users[ds.n_target_only]
    source_view = model.source_users[0]
    assert np.shares_memory(target_view, source_view)
    assert np.array_equal(target_view, source_view)
    assert np.array_equal(model.apply_transform(target_view), target_view)


# --- phase orchestration -----------------------------------------------------------

def same_graph(oracle, expected) -> bool:
    """Whether two oracles hold the same similar-pair graph."""
    return all(np.array_equal(getattr(oracle.graph, name),
                              getattr(expected.graph, name))
               for name in ("indptr", "indices", "data"))


def test_target_phase_freezes_best_and_builds_oracle():
    ds, target_split, source_split = toy_dataset(seed=15)
    config = small_config(max_epochs=5, patience=2)
    result = run_target_phase(ds, target_split, config)
    assert result.frozen.shape == (ds.target.n_users, 4)
    assert not result.frozen.flags.writeable
    assert np.array_equal(result.frozen,
                          result.model.params()["user-target-phase1"])
    expected = SimilarityOracle.from_embeddings(result.frozen, config.gamma)
    assert same_graph(result.oracle, expected)
    assert len(result.valid_history) <= 5
    assert result.best_epoch >= 1


def test_target_phase_builds_its_oracle_only_when_asked(monkeypatch):
    monkeypatch.setattr(similarity, "MAX_SIMILAR_PAIRS", 0)
    ds, target_split, _ = toy_dataset(seed=23)
    result = run_target_phase(ds, target_split,
                              small_config(gamma=-0.5, max_epochs=1))
    with pytest.raises(ConfigError, match=r"gamma=-0\.5"):
        result.oracle


def test_target_phase_history_similarity_flag():
    # Phase one's oracle is the frozen table's whatever the flag says: the
    # transfer phase builds the history oracle itself.
    ds, target_split, _ = toy_dataset(seed=16)
    for history in (False, True):
        config = small_config(history_similarity=history, max_epochs=2)
        result = run_target_phase(ds, target_split, config)
        assert same_graph(result.oracle, SimilarityOracle.from_embeddings(
            result.frozen, config.gamma))
        assert not same_graph(result.oracle, SimilarityOracle.from_history(
            target_split.train, config.gamma))


def test_target_phase_early_stopping_bounds_epochs():
    ds, target_split, _ = toy_dataset(seed=17)
    config = small_config(max_epochs=60, patience=3, lr=0.0)  # frozen model
    result = run_target_phase(ds, target_split, config)
    # With lr=0 the metric never improves after epoch 1.
    assert len(result.valid_history) == 1 + 3


def test_oracle_prefers_same_cluster_pairs_on_undistorted_data():
    cfg = SynthConfig(n_users=60, n_items_per_domain=40, latent_dim=5,
                      overlap_fraction=1.0, distortion=0.0,
                      interactions_per_user=10, seed=3, n_clusters=3,
                      cluster_spread=0.2)
    source, target, meta = generate(cfg)
    ds = build_cross_domain(source, target)
    target_split = split_target(ds, seed=3)
    config = small_config(embedding_dim=8, max_epochs=25, patience=25,
                          batch_size=64, gamma=0.5)
    result = run_target_phase(ds, target_split, config)
    clusters = {tok: int(c) for tok, c in
                zip(meta.user_tokens, meta.target_cluster)}
    same, cross = [], []
    rng = np.random.default_rng(0)
    for _ in range(800):
        p, q = rng.choice(ds.target.n_users, size=2, replace=False)
        answer = bool(result.oracle.graph[p, q])
        tok_p, tok_q = ds.user_tokens[p], ds.user_tokens[q]
        (same if clusters[tok_p] == clusters[tok_q] else cross).append(answer)
    assert np.mean(same) > np.mean(cross)


def test_transfer_phase_improves_and_is_deterministic():
    ds, target_split, source_split = toy_dataset(seed=18, per_user=8)
    config = small_config(max_epochs=6, patience=6)
    phase1 = run_target_phase(ds, target_split, config)

    def run():
        result = run_transfer_phase(ds, target_split, source_split, config,
                                    phase1.oracle, frozen=phase1.frozen)
        return result.model.params()
    state_a = run()
    state_b = run()
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name])


def assert_same_params(a, b):
    assert list(a) == list(b)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def test_transfer_phase_builds_the_embedding_oracle_from_frozen():
    ds, target_split, source_split = toy_dataset(seed=18, per_user=8)
    config = small_config(max_epochs=2, gamma=0.3)
    phase1 = run_target_phase(ds, target_split, config)
    assert phase1.oracle.n_pairs > 0
    given = run_transfer_phase(ds, target_split, source_split, config,
                               phase1.oracle, frozen=phase1.frozen)
    built = run_transfer_phase(ds, target_split, source_split, config,
                               frozen=phase1.frozen)
    assert_same_params(built.model.params(), given.model.params())


def test_history_similarity_ignores_a_passed_oracle():
    ds, target_split, source_split = toy_dataset(seed=18, per_user=8)
    config = small_config(max_epochs=2, gamma=0.3, contrastive_weight=1.0,
                          history_similarity=True)
    frozen = run_target_phase(ds, target_split, config).frozen
    embedding = SimilarityOracle.from_embeddings(frozen, config.gamma)
    history = SimilarityOracle.from_history(target_split.train, config.gamma)
    assert embedding.n_pairs > 0 and history.n_pairs > 0
    assert not same_graph(embedding, history)
    runs = [run_transfer_phase(ds, target_split, source_split, config,
                               oracle).model.params()
            for oracle in (embedding, history)]
    assert_same_params(*runs)


def test_warm_start_requires_frozen_and_copies_rows():
    ds, target_split, source_split = toy_dataset(seed=19)
    config = small_config(warm_start=True, contrastive_weight=0.0,
                          max_epochs=1)
    with pytest.raises(ConfigError):
        CutModel.build(ds, target_split, source_split, config)
    frozen = run_target_phase(ds, target_split, config).frozen
    model = CutModel.build(ds, target_split, source_split, config,
                           frozen=frozen)
    np.testing.assert_array_equal(model.target_users,
                                  frozen.astype(np.float32))
    cold = CutModel.build(ds, target_split, source_split,
                          config.replace(warm_start=False))
    source_only = slice(ds.n_overlap, None)
    np.testing.assert_array_equal(model.source_users[source_only],
                                  cold.source_users[source_only])


@pytest.mark.parametrize("warm_start, shape, message", [
    (True, (9, 8), "warm_start: the phase-one user table is 8 wide (9 rows), "
     "embedding_dim is 4 (9 target users)"),
    (True, (8, 4), "warm_start: the phase-one user table is 4 wide (8 rows), "
     "embedding_dim is 4 (9 target users)"),
    (False, (10, 8), "the embedding similarity oracle: the phase-one user "
     "table is 8 wide (10 rows), embedding_dim is 4 (9 target users)"),
], ids=["warm-width", "warm-rows", "oracle-rows"])
def test_phase_one_table_is_checked_before_any_oracle(monkeypatch, warm_start,
                                                      shape, message):
    # The O(n^2) oracle build must not come first: it is made to fail.
    def refuse(*args, **kwargs):
        raise AssertionError("oracle built before the phase-one check")

    monkeypatch.setattr(SimilarityOracle, "from_embeddings", refuse)
    ds, target_split, source_split = toy_dataset(seed=19)
    with pytest.raises(ConfigError) as err:
        run_transfer_phase(ds, target_split, source_split,
                           small_config(warm_start=warm_start),
                           frozen=np.zeros(shape, dtype=np.float32))
    assert str(err.value) == message


# --- persistence --------------------------------------------------------------------

def test_cut_model_checkpoint_round_trip(tmp_path):
    ds, target_split, source_split = toy_dataset(seed=20)
    config = small_config(max_epochs=2)
    phase1 = run_target_phase(ds, target_split, config)
    result = run_transfer_phase(ds, target_split, source_split, config,
                                phase1.oracle)
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, result.model.to_checkpoint(result.step_count))
    loaded = CutModel.from_checkpoint(load_checkpoint(path), target_split,
                                      source_split)
    original = result.model.make_target_scorer()
    restored = loaded.make_target_scorer()
    for user in range(ds.target.n_users):
        np.testing.assert_array_equal(original(user), restored(user))


def test_frozen_table_checkpoint_reproduces_oracle_answers(tmp_path):
    ds, target_split, _ = toy_dataset(seed=21)
    config = small_config(max_epochs=2, gamma=0.3)
    phase1 = run_target_phase(ds, target_split, config)
    path = tmp_path / "frozen.ckpt"
    save_checkpoint(path, Checkpoint({"user-target-phase1": phase1.frozen},
                                     {}, 0))
    reloaded = load_checkpoint(path).arrays["user-target-phase1"]
    oracle_b = SimilarityOracle.from_embeddings(reloaded, gamma=0.3)
    assert phase1.oracle.n_pairs > 0
    assert (phase1.oracle.graph != oracle_b.graph).nnz == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cut_graph_dtypes_follow_the_tables(tmp_path, dtype):
    ds, target_split, source_split = toy_dataset(seed=24)
    config = small_config(backbone="lightgcn", k_layers=2)
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=dtype)
    ckpt = model.to_checkpoint()
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, ckpt)
    for built, wanted in (
            (model, dtype),
            (CutModel.from_checkpoint(ckpt, target_split, source_split),
             dtype),
            (CutModel.from_checkpoint(load_checkpoint(path), target_split,
                                      source_split), np.float32)):
        assert built.graph_target.adjacency.dtype == wanted
        assert built.graph_source.adjacency.dtype == wanted


def test_cut_checkpoint_must_fit_the_splits():
    ds, target_split, source_split = toy_dataset(seed=23)
    config = small_config()
    ckpt = CutModel.build(ds, target_split, source_split,
                          config).to_checkpoint()
    assert list(ckpt.arrays) == [ROLE_USER, ROLE_ITEM_TARGET,
                                 ROLE_ITEM_SOURCE, "transform-weight",
                                 "transform-bias"]
    model = CutModel.from_checkpoint(ckpt, target_split, source_split)
    assert model.source_offset == ds.n_target_only
    assert model.n_target == ds.target.n_users

    users = ckpt.arrays[ROLE_USER]
    short = Checkpoint({**ckpt.arrays,
                        ROLE_USER: users[:ds.source.n_users - 1]},
                       ckpt.hyper, 0)
    with pytest.raises(CheckpointError, match="rows"):
        CutModel.from_checkpoint(short, target_split, source_split)
    tables = {name: ckpt.arrays[name]
              for name in (ROLE_USER, ROLE_ITEM_TARGET, ROLE_ITEM_SOURCE)}
    untransformed = Checkpoint(tables, ckpt.hyper, 0)
    with pytest.raises(CheckpointError, match="no_transform=False"):
        CutModel.from_checkpoint(untransformed, target_split, source_split)
    no_bias = Checkpoint({**tables, "transform-weight":
                          ckpt.arrays["transform-weight"]}, ckpt.hyper, 0)
    with pytest.raises(CheckpointError, match="no member 'transform-bias'"):
        CutModel.from_checkpoint(no_bias, target_split, source_split)

    # Three per-partition user tables, as older cut checkpoints held.
    a, b = ds.n_target_only, ds.target.n_users
    older = {"user-target-only": users[:a], "user-overlap": users[a:b],
             "user-source-only": users[b:],
             **{k: v for k, v in ckpt.arrays.items() if k != ROLE_USER}}
    with pytest.raises(CheckpointError, match="'user'"):
        CutModel.from_checkpoint(Checkpoint(older, ckpt.hyper, 0),
                                 target_split, source_split)


PARAM_NAMES = {
    "single": ["user-target-phase1", "item-target"],
    "cut": [ROLE_USER, ROLE_ITEM_TARGET, ROLE_ITEM_SOURCE,
            "transform-weight", "transform-bias"],
    "cut-no-transform": [ROLE_USER, ROLE_ITEM_TARGET, ROLE_ITEM_SOURCE],
}


@pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
@pytest.mark.parametrize("kind", list(PARAM_NAMES))
def test_checkpoint_members_are_the_params_in_order(tmp_path, kind,
                                                    backbone):
    ds, target_split, source_split = toy_dataset(seed=25)
    config = small_config(backbone=backbone,
                          no_transform=kind == "cut-no-transform")
    if kind == "single":
        model = SingleDomainModel.create(config, target_split.train,
                                         np.random.SeedSequence(0))
    else:
        model = CutModel.build(ds, target_split, source_split, config)
    ckpt = model.to_checkpoint(3)
    params = model.params()
    assert list(params) == PARAM_NAMES[kind]
    assert ckpt.arrays is params
    assert ckpt.training_config() == config
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["header", *params]
    loaded = load_checkpoint(path)
    back = (SingleDomainModel.from_checkpoint(loaded, target_split)
            if kind == "single" else
            CutModel.from_checkpoint(loaded, target_split, source_split))
    assert (loaded.step, back.config) == (3, config)
    assert list(loaded.arrays) == list(back.params()) == list(params)
    for name, values in params.items():
        assert back.params()[name].tobytes() == values.tobytes(), name


# --- step memory ---------------------------------------------------------------

def lightgcn_step_peak() -> int:
    """The traced peak bytes of one LightGCN phase-two forward/backward
    and its ``grads()`` on the medium shapes: 2600 target and 2600 source
    users, 1200 of them in both (4000 rows), 2000 items a domain with 24
    a user, 64 dimensions in float32, batches of 2048."""
    rng = np.random.default_rng(0)
    target, source = (interaction_set(
        [rng.choice(2000, 24, replace=False) for _ in range(2600)], 2000)
        for _ in range(2))
    config = small_config(backbone="lightgcn", embedding_dim=64,
                          batch_size=2048, contrastive_weight=0.0)
    params = {name: rng.normal(size=(rows, 64)).astype(np.float32)
              for name, rows in ((ROLE_USER, 4000), (ROLE_ITEM_TARGET, 2000),
                                 (ROLE_ITEM_SOURCE, 2000))}
    params["transform-weight"] = np.eye(64, dtype=np.float32)
    params["transform-bias"] = np.zeros(64, dtype=np.float32)
    model = CutModel(config, params, target, source)

    def draw(train):
        pick = rng.integers(0, train.n_interactions, size=2048)
        users = train.users[pick]
        return users, train.indices[pick], sample_negatives_batch(
            rng, train.n_items, train, users)

    batches = (*draw(source), *draw(target))
    return traced_peak(lambda: transfer_forward_backward(
        model, *batches, None)[1].grads())


def test_lightgcn_transfer_step_peak_stays_within_the_merge_in_the_buffer():
    # Summed in the forward/backward, the user table's two parts live no
    # longer than they did while the gradient buffer merged them: that
    # code traced 6,866,333 to 6,866,512 bytes over eleven processes.
    assert lightgcn_step_peak() <= 6_866_512


STEP_FAULTS = """
import resource
from types import SimpleNamespace
import numpy as np
from cutrec import trainer
from cutrec.config import TrainingConfig
trainer.evaluate_full = lambda *a, **k: SimpleNamespace(means={"ndcg": 0.0})

def step(batch):
    # Three 2 MB temporaries: once they are freed, the heap top holds
    # more than twice the largest block glibc has mapped before.
    parts = [np.ones(1 << 18) for _ in range(3)]
    return float(sum(part.sum() for part in parts))

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trainer.fit(SimpleNamespace(params=dict), step, 64, lambda: None, None,
            TrainingConfig(batch_size=1, max_epochs=1, patience=1),
            np.random.default_rng(0), "target")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap threshold")
def test_fit_reuses_step_temporaries_in_a_fresh_process():
    # Faulted in anew on every step, they took 64k pages over 64 steps.
    out = subprocess.run([sys.executable, "-c", STEP_FAULTS],
                         capture_output=True, text=True, check=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert int(out.stdout) < 8 * 1024
