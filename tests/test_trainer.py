import copy

import numpy as np
import pytest

from cutrec import similarity, trainer
from cutrec.backbone import sample_negatives_batch
from cutrec.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cutrec.config import TrainingConfig
from cutrec.corpus import (DomainId, build_cross_domain, split_source,
                           split_target)
from cutrec.embeddings import (ROLE_ITEM_SOURCE, ROLE_ITEM_TARGET, ROLE_USER,
                               EmbeddingTable, assert_finite)
from cutrec.errors import CheckpointError, ConfigError, TrainingDivergedError
from cutrec.optim import Adam
from cutrec.similarity import SimilarityOracle, extract_pairs
from cutrec.synthgen import SynthConfig, generate
from cutrec.trainer import (CutModel, EarlyStopper, LossBreakdown,
                            run_target_phase, run_transfer_phase,
                            transfer_forward_backward, transfer_step)

from helpers import (adam_step_oracle, assert_grad_matches, csr_graph,
                     dense_grads, lightgcn_transfer_oracle, raw_interactions)


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

def test_early_stopper_stops_by_epoch_eleven():
    stopper = EarlyStopper(patience=10)
    stopper.update(1.0, 1)
    stopped_at = None
    for epoch in range(2, 50):
        stopper.update(0.5, epoch)  # never improves after epoch 1
        if stopper.should_stop:
            stopped_at = epoch
            break
    assert stopped_at == 11
    assert stopper.best_epoch == 1


def test_early_stopper_resets_on_improvement():
    stopper = EarlyStopper(patience=2)
    stopper.update(1.0, 1)
    stopper.update(0.5, 2)
    stopper.update(2.0, 3)
    assert not stopper.should_stop
    assert stopper.best_epoch == 3


# --- full-step gradients ---------------------------------------------------------

@pytest.mark.parametrize("backbone, loss_kind, no_transform", [
    pytest.param(backbone, loss_kind, no_transform,
                 id=f"{loss_kind}-{backbone}"
                    + ("-no_transform" if no_transform else ""))
    for no_transform in (False, True)
    for loss_kind in ("bce", "bpr")
    for backbone in ("mf", "lightgcn")])
def test_transfer_step_gradients_match_finite_differences(backbone, loss_kind,
                                                          no_transform):
    ds, target_split, source_split = toy_dataset(seed=1, n_target=6,
                                                 n_source=5, overlap=3,
                                                 per_user=5, n_items=8)
    config = small_config(backbone=backbone, loss_kind=loss_kind,
                          k_layers=2, alpha=0.4, contrastive_weight=0.1,
                          no_transform=no_transform)
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
                         ids=["transform", "no-transform"])
@pytest.mark.parametrize("loss_kind", ["bce", "bpr"])
def test_lightgcn_transfer_steps_match_row_indexed_oracle(loss_kind,
                                                          no_transform,
                                                          gamma, dtype):
    # Blocks over whole tables, one score matrix per domain, the user
    # table's source and target blocks summed where they overlap, CSC
    # propagation and the in-place Adam give the bits of the per-entry
    # route over CSR: tables, moments and transform.
    ds, target_split, source_split = toy_dataset(seed=3, n_target=12,
                                                 n_source=10, overlap=4)
    config = small_config(backbone="lightgcn", loss_kind=loss_kind,
                          k_layers=2, alpha=0.4, contrastive_weight=0.1,
                          no_transform=no_transform, weight_decay=1e-3)
    model = CutModel.build(ds, target_split, source_split, config,
                           dtype=dtype)
    twin = copy.deepcopy(model)
    twin.graph_target = csr_graph(model.graph_target)
    twin.graph_source = csr_graph(model.graph_source)
    opt = Adam(model.params(), lr=0.01, weight_decay=1e-3)
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
        adam_step_oracle(twin.params(), moments, expected, t, lr=0.01,
                         weight_decay=1e-3)
        assert (breakdown.target, breakdown.source,
                breakdown.contrastive) == losses
        for name, value in model.params().items():
            assert value.tobytes() == twin.params()[name].tobytes(), name
            assert opt._m[name].tobytes() == moments[name][0].tobytes()
            assert opt._v[name].tobytes() == moments[name][1].tobytes()


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
    base = small_config(transform_init="identity")
    full = CutModel.build(ds, target_split, source_split, base)
    bare = CutModel.build(ds, target_split, source_split,
                          base.replace(no_transform=True))
    for role in (ROLE_USER, ROLE_ITEM_TARGET, ROLE_ITEM_SOURCE):
        assert np.array_equal(full.tables[role].values,
                              bare.tables[role].values)
    score_full = full.make_target_scorer()
    score_bare = bare.make_target_scorer()
    for user in range(ds.target.n_users):
        assert np.array_equal(score_full(user), score_bare(user))


def test_transform_weight_nan_is_divergence():
    ds, target_split, source_split = toy_dataset(seed=22)
    model = CutModel.build(ds, target_split, source_split, small_config())
    assert_finite(model.params())
    model.transform.weight[0, 1] = np.nan
    with pytest.raises(TrainingDivergedError, match="transform-weight"):
        assert_finite(model.params())


# --- ablation flags ---------------------------------------------------------------

def test_no_contrastive_flag_zeroes_term_and_runs_without_oracle():
    ds, target_split, source_split = toy_dataset(seed=11)
    config = small_config(no_contrastive=True, max_epochs=2)
    result = run_transfer_phase(ds, target_split, source_split, config,
                                oracle=None)
    assert result.model.transform is not None
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
    config = small_config(no_transform=True, no_contrastive=True,
                          max_epochs=2)
    result = run_transfer_phase(ds, target_split, source_split, config)
    assert result.model.transform is None
    assert "transform-weight" not in result.model.params()


def test_missing_oracle_rejected_when_contrastive_active():
    ds, target_split, source_split = toy_dataset(seed=13)
    with pytest.raises(ConfigError):
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
                             config.replace(no_contrastive=True),
                             None).model.params()
    assert set(empty) == set(off)
    assert "transform-weight" in off
    for name in off:
        assert empty[name].tobytes() == off[name].tobytes(), name


def test_overlap_embedding_shared_across_domains_without_transform():
    ds, target_split, source_split = toy_dataset(seed=14)
    config = small_config(no_transform=True, no_contrastive=True)
    model = CutModel.build(ds, target_split, source_split, config)
    # The first overlap user, by target-local and by source-local index.
    target_view = model.target_users[ds.n_target_only]
    source_view = model.source_users[0]
    assert np.shares_memory(target_view, source_view)
    assert np.array_equal(target_view, source_view)
    assert np.array_equal(model.apply_transform(target_view), target_view)


# --- phase orchestration -----------------------------------------------------------

def test_target_phase_freezes_best_and_builds_oracle():
    ds, target_split, source_split = toy_dataset(seed=15)
    config = small_config(max_epochs=5, patience=2)
    result = run_target_phase(ds, target_split, config)
    assert result.frozen.role == "user-target-phase1"
    assert result.frozen.values.shape == (ds.target.n_users, 4)
    assert not result.frozen.values.flags.writeable
    assert result.oracle.mode == "embedding"
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
    ds, target_split, _ = toy_dataset(seed=16)
    config = small_config(history_similarity=True, max_epochs=2)
    result = run_target_phase(ds, target_split, config)
    assert result.oracle.mode == "history"


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


def test_warm_start_requires_frozen_and_copies_rows():
    ds, target_split, source_split = toy_dataset(seed=19)
    config = small_config(warm_start=True, no_contrastive=True, max_epochs=1)
    with pytest.raises(ConfigError):
        CutModel.build(ds, target_split, source_split, config)
    frozen = run_target_phase(ds, target_split, config).frozen
    model = CutModel.build(ds, target_split, source_split, config,
                           frozen=frozen)
    np.testing.assert_array_equal(model.target_users,
                                  frozen.values.astype(np.float32))
    cold = CutModel.build(ds, target_split, source_split,
                          config.replace(warm_start=False))
    source_only = slice(ds.n_overlap, None)
    np.testing.assert_array_equal(model.source_users[source_only],
                                  cold.source_users[source_only])


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
    save_checkpoint(path, Checkpoint([phase1.frozen], {}, 0))
    reloaded = load_checkpoint(path).table("user-target-phase1")
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
    assert [tbl.role for tbl in ckpt.tables] == [
        ROLE_USER, ROLE_ITEM_TARGET, ROLE_ITEM_SOURCE]
    model = CutModel.from_checkpoint(ckpt, target_split, source_split)
    assert model.source_offset == ds.n_target_only
    assert model.n_target == ds.target.n_users

    users = ckpt.table(ROLE_USER)
    too_few = EmbeddingTable(ROLE_USER, users.values[:ds.source.n_users - 1])
    short = Checkpoint([too_few, *ckpt.tables[1:]], ckpt.hyper, 0)
    with pytest.raises(CheckpointError, match="rows"):
        CutModel.from_checkpoint(short, target_split, source_split)
    untransformed = Checkpoint(ckpt.tables, ckpt.hyper, 0)
    with pytest.raises(CheckpointError, match="no_transform=False"):
        CutModel.from_checkpoint(untransformed, target_split, source_split)

    # Three per-partition user tables, as older cut checkpoints held.
    a, b = ds.n_target_only, ds.target.n_users
    parts = [EmbeddingTable(role, values) for role, values in (
        ("user-target-only", users.values[:a]),
        ("user-overlap", users.values[a:b]),
        ("user-source-only", users.values[b:]))]
    older = Checkpoint([*parts, *ckpt.tables[1:]], ckpt.hyper, 0)
    with pytest.raises(CheckpointError, match="'user'"):
        CutModel.from_checkpoint(older, target_split, source_split)
