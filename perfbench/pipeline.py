"""One pass of the benchmarked pipeline, and the checks on its outputs.

A pass trains the ``cut`` variant the way ``experiment._evaluate_variants``
does: prepare the data, train phase one, train phase two from the
phase-one oracle and frozen table, and evaluate on the test split.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cutrec import backbone, corpus, evaluation, optim, similarity, trainer
from cutrec.config import TrainingConfig

from clock import ScaledClock
from tracing import Tracer, summarize
from workloads import MIN_INTERACTIONS, TRAINING, Workload

# ExperimentConfig defaults: split ratios and NDCG cut-off.
TARGET_RATIOS = (8, 1, 1)
SOURCE_RATIOS = (8, 2)
K = 10

STAGES = ("setup", "phase1", "phase2", "test_eval")
PHASES = ("stage.phase1", "stage.phase2")


@dataclass
class Counts:
    """What the hooks saw during one pass."""

    steps_phase1: int = 0
    steps_phase2: int = 0
    pairs_trained: int = 0
    nonfinite_losses: int = 0
    distinct_users: list[int] = field(default_factory=list)
    similar_pairs: list[int] = field(default_factory=list)
    all_pairs: int = 0
    users_evaluated: int = 0
    records_in: int = 0
    records_kept: int = 0
    # Only a traced pass counts the rest.
    negatives: int = 0
    contrastive_active: int = 0
    graph_nnz: int = 0
    adam_rows: list[int] = field(default_factory=list)
    adam_table_rows: int = 0


@dataclass
class Pass:
    """One pass's figures. ``times`` are scaled-clock seconds in an
    untraced pass and wall seconds in a traced one; ``wall`` is always
    wall seconds."""

    times: dict[str, list[float]] = field(
        default_factory=lambda: {stage: [] for stage in STAGES})
    wall: dict[str, list[float]] = field(
        default_factory=lambda: {stage: [] for stage in STAGES})
    valid_ndcg10: float = 0.0
    test_ndcg10: float = 0.0
    random_ndcg10: float = 0.0
    counts: Counts = field(default_factory=Counts)
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def complete(self) -> bool:
        return all(self.times.values())

    def end_to_end(self) -> dict[str, float]:
        stage = {name: statistics.median(values)
                 for name, values in self.times.items()}
        train = stage["phase1"] + stage["phase2"]
        return {
            **{f"{name}_s": value for name, value in stage.items()},
            "total_s": sum(stage.values()),
            "train_pairs_per_s": self.counts.pairs_trained / train,
            "valid_ndcg10": self.valid_ndcg10,
            "test_ndcg10": self.test_ndcg10,
        }

    def wall_total_s(self) -> float:
        return sum(statistics.median(values) for values in self.wall.values())


def _install_hooks(tracer: Tracer, counts: Counts,
                   tick: Callable[[], None]) -> None:
    """Counting hooks on every pass; the other wraps only when timed."""

    def phase1_step(result, model, users, *args):
        tick()
        counts.steps_phase1 += 1
        counts.pairs_trained += users.size
        counts.nonfinite_losses += not math.isfinite(result[0])

    def phase2_step(losses, model, optimizer, oracle, src_users, src_pos,
                    tgt_users, *args):
        tick()
        counts.steps_phase2 += 1
        counts.pairs_trained += src_users.size + tgt_users.size
        counts.nonfinite_losses += not all(math.isfinite(value) for value in (
            losses.target, losses.source, losses.contrastive, losses.total))

    def pair_sets(pairs, *args):
        counts.distinct_users.append(pairs.n_users)
        counts.similar_pairs.append(pairs.n_similar)
        counts.all_pairs += pairs.n_all

    def evaluated(report, *args, **kwargs):
        tick()
        counts.users_evaluated += report.n_users

    tracer.wrap(trainer, "single_domain_forward_backward", "backbone.fwd_bwd",
                phase1_step)
    tracer.wrap(trainer, "transfer_step", "trainer.transfer_step",
                phase2_step)
    tracer.wrap(trainer, "extract_pairs", "similarity.extract_pairs",
                pair_sets)
    tracer.wrap(trainer, "evaluate_full", "evaluation.valid", evaluated)
    if not tracer.timed:
        return

    def negatives(result, rng, n_items, train_rows, users):
        counts.negatives += users.size

    def contrastive(result, transformed, pairs, *args, **kwargs):
        counts.contrastive_active += pairs.n_similar > 0

    def graph_built(graph, *args):
        counts.graph_nnz += graph.adjacency.nnz

    def adam_step(result, adam, grads):
        sparse = [(rows.size, adam.params[name].shape[0])
                  for name, (rows, _) in grads.items() if rows is not None]
        counts.adam_rows.append(sum(touched for touched, _ in sparse))
        counts.adam_table_rows += sum(rows for _, rows in sparse)

    tracer.wrap(trainer, "sample_negatives_batch", "backbone.neg_sample",
                negatives)
    tracer.wrap(trainer, "transfer_forward_backward", "trainer.fwd_bwd")
    tracer.wrap(trainer, "contrastive_loss", "contrastive.loss", contrastive)
    for module in (trainer, backbone):
        tracer.wrap(module, "propagate", "graph.propagate")
        tracer.wrap(module, "build_graph", "graph.build", graph_built)
    tracer.wrap(optim.Adam, "step", "optim.adam", adam_step)
    tracer.wrap(optim.GradBuffer, "add_rows", "optim.scatter")
    tracer.wrap(similarity.SimilarityOracle, "from_embeddings",
                "similarity.oracle_build")
    tracer.wrap(evaluation, "evaluate_full", "evaluation.test", evaluated)


def random_ranking_ndcg(split: corpus.SplitDataset) -> float:
    """Expected test NDCG@K of a uniformly random ranking of the items
    left after masking each user's train and valid items."""
    discounts = 1.0 / np.log2(np.arange(2, K + 2))
    values = []
    for user in range(split.test.n_users):
        held = split.test.rows[user].size
        if held == 0:
            continue
        candidates = split.test.n_items - split.train.rows[user].size \
            - split.valid.rows[user].size
        dcg = held / candidates * discounts[:min(K, candidates)].sum()
        values.append(dcg / discounts[:min(K, held)].sum())
    return float(np.mean(values))


def _check_counts(problems: list[str], workload: Workload,
                  expected: dict, kept: list[corpus.RawInteractions]) -> None:
    for raw in kept:
        name = raw.domain_id.value
        got = {"users": len(raw.user_tokens), "items": len(raw.item_tokens),
               "records": len(raw)}
        if got != expected[name]:
            problems.append(f"{name} k-core kept {got}, reference filter "
                            f"kept {expected[name]}")
        if got["users"] != workload.users_per_domain:
            problems.append(f"{name} has {got['users']} users after k-core, "
                            f"workload records {workload.users_per_domain}")


def _params_finite(model) -> bool:
    return all(np.isfinite(value).all() for value in model.params().values())


def run_pass(workload: Workload, seed: int, data: Path, expected: dict,
             tracer: Tracer, setup_reps: int, eval_reps: int) -> Pass:
    """Set up ``setup_reps`` times, train both phases once, evaluate on the
    test split ``eval_reps`` times. Raises whatever the library raises.

    An untraced pass times its stages with a ``ScaledClock``; a traced pass
    takes wall time, so that the clock's samples stay out of its spans.
    """
    out = Pass(tracer=tracer)
    problems = out.problems
    counts = out.counts
    clock = None if tracer.timed else ScaledClock()
    config = TrainingConfig(**{**TRAINING, **workload.training},
                            max_epochs=workload.epochs,
                            patience=workload.epochs, seed=seed)
    domains = (corpus.DomainId.SOURCE, corpus.DomainId.TARGET)

    @contextlib.contextmanager
    def stage(name):
        if clock:
            clock.start()
        start = time.perf_counter()
        with tracer.span(f"stage.{name}"):
            yield
        wall = time.perf_counter() - start
        out.wall[name].append(wall)
        out.times[name].append(clock.stop() if clock else wall)

    with tracer:
        _install_hooks(tracer, counts, clock.tick if clock else lambda: None)
        for _ in range(setup_reps):
            # Each set-up starts from the heap a single one would meet: a
            # live previous result makes the collector's passes slower.
            raw = kept = ds = target_split = source_split = None
            gc.collect()
            with stage("setup"):
                with tracer.span("corpus.load"):
                    raw = [corpus.load_interactions(
                        data / f"{d.value}.tsv", d) for d in domains]
                with tracer.span("corpus.k_core"):
                    kept = [corpus.filter_k_core(r, MIN_INTERACTIONS)
                            for r in raw]
                with tracer.span("corpus.build"):
                    ds = corpus.build_cross_domain(*kept)
                with tracer.span("corpus.split"):
                    target_split = corpus.split_target(ds, TARGET_RATIOS,
                                                       seed)
                    source_split = corpus.split_source(ds, SOURCE_RATIOS,
                                                       seed)
            _check_counts(problems, workload, expected, kept)
        counts.records_in = sum(len(r) for r in raw)
        counts.records_kept = sum(len(r) for r in kept)

        with stage("phase1"):
            phase1 = trainer.run_target_phase(ds, target_split, config)
        with stage("phase2"):
            phase2 = trainer.run_transfer_phase(
                ds, target_split, source_split, config, phase1.oracle,
                frozen=phase1.frozen)
        reports = []
        for _ in range(eval_reps):
            with stage("test_eval"):
                reports.append(evaluation.evaluate_full(
                    phase2.model.make_target_scorer(), target_split, k=K,
                    seed=seed))

    out.valid_ndcg10 = max(phase2.valid_history)
    out.test_ndcg10 = reports[0].means["ndcg"]
    out.random_ndcg10 = random_ranking_ndcg(target_split)

    if any(r.means["ndcg"] != out.test_ndcg10 for r in reports):
        problems.append("repeated test evaluations disagree")
    for name, value in (("valid_ndcg10", out.valid_ndcg10),
                        ("test_ndcg10", out.test_ndcg10)):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value} is outside [0, 1]")
    with_test = sum(row.size > 0 for row in target_split.test.rows)
    if reports[0].n_users != with_test:
        problems.append(f"test evaluation covered {reports[0].n_users} users,"
                        f" {with_test} have held-out test items")
    if counts.nonfinite_losses:
        problems.append(f"{counts.nonfinite_losses} steps had a non-finite "
                        "loss")
    if not (_params_finite(phase1.model) and _params_finite(phase2.model)):
        problems.append("a model table is not finite")
    if workload.needs_similar_pairs and not any(counts.similar_pairs):
        problems.append("contrastive term idle: every phase-two batch had "
                        "zero similar pairs")
    return out


def _p50_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def per_layer(traced: Pass) -> dict[str, tuple[float, str]]:
    """Layer metrics of a traced pass that set up and evaluated once."""
    stats, nested_self = summarize(traced.tracer.spans, set(PHASES))
    counts = traced.counts
    train_s = traced.wall["phase1"][0] + traced.wall["phase2"][0]

    def total(name):
        return stats[name].total if name in stats else 0.0

    def calls(name):
        return len(stats[name].durations) if name in stats else 0

    def p50(name):
        return _p50_ms(stats[name].durations) if name in stats else 0.0

    steps = stats["trainer.transfer_step"].durations
    tail_pct = max(0, math.floor(100.0 * (1.0 - 10.0 / len(steps))))
    evaluated_s = total("evaluation.valid") + total("evaluation.test")
    similar = counts.similar_pairs
    return {
        "corpus.load_s": (total("corpus.load"), "s"),
        "corpus.k_core_s": (total("corpus.k_core"), "s"),
        "corpus.build_s": (total("corpus.build"), "s"),
        "corpus.split_s": (total("corpus.split"), "s"),
        "corpus.records_in": (counts.records_in, "count"),
        "corpus.records_kept": (counts.records_kept, "count"),
        "backbone.neg_sample_s": (total("backbone.neg_sample"), "s"),
        "backbone.neg_sample_calls": (calls("backbone.neg_sample"), "count"),
        "backbone.neg_sample_ms_p50": (p50("backbone.neg_sample"), "ms"),
        "backbone.negatives_drawn": (counts.negatives, "count"),
        "backbone.fwd_bwd_s": (stats["backbone.fwd_bwd"].self_time, "s"),
        "graph.build_s": (total("graph.build"), "s"),
        "graph.propagate_s": (total("graph.propagate"), "s"),
        "graph.propagate_calls": (calls("graph.propagate"), "count"),
        "graph.propagate_ms_p50": (p50("graph.propagate"), "ms"),
        "graph.nnz": (counts.graph_nnz, "count"),
        "optim.scatter_s": (total("optim.scatter"), "s"),
        "optim.scatter_calls": (calls("optim.scatter"), "count"),
        "optim.adam_s": (total("optim.adam"), "s"),
        "optim.adam_ms_p50": (p50("optim.adam"), "ms"),
        "optim.rows_per_step_p50": (statistics.median(counts.adam_rows),
                                    "count"),
        "optim.touched_row_fraction": (
            sum(counts.adam_rows) / counts.adam_table_rows, "ratio"),
        "similarity.oracle_build_s": (total("similarity.oracle_build"), "s"),
        "similarity.extract_pairs_s": (total("similarity.extract_pairs"),
                                       "s"),
        "similarity.extract_pairs_ms_p50": (p50("similarity.extract_pairs"),
                                            "ms"),
        "similarity.distinct_users_p50": (
            statistics.median(counts.distinct_users), "count"),
        "similarity.similar_pairs_p50": (statistics.median(similar),
                                         "count"),
        "similarity.similar_pair_fraction": (
            sum(similar) / counts.all_pairs, "ratio"),
        "similarity.zero_pair_batches": (similar.count(0), "count"),
        "contrastive.loss_s": (total("contrastive.loss"), "s"),
        "contrastive.loss_ms_p50": (p50("contrastive.loss"), "ms"),
        "contrastive.active_steps": (counts.contrastive_active, "count"),
        "trainer.transfer_step_ms_p50": (_p50_ms(steps), "ms"),
        "trainer.transfer_step_ms_tail": (
            1000.0 * float(np.percentile(steps, tail_pct)), "ms"),
        "trainer.transfer_step_tail_pct": (tail_pct, "percent"),
        "trainer.transfer_step_samples": (len(steps), "count"),
        "trainer.transfer_step_self_s": (
            stats["trainer.transfer_step"].self_time, "s"),
        "trainer.fwd_bwd_self_s": (stats["trainer.fwd_bwd"].self_time, "s"),
        "trainer.steps_phase1": (counts.steps_phase1, "count"),
        "trainer.steps_phase2": (counts.steps_phase2, "count"),
        "evaluation.valid_s": (total("evaluation.valid"), "s"),
        "evaluation.valid_calls": (calls("evaluation.valid"), "count"),
        "evaluation.users_per_s": (counts.users_evaluated / evaluated_s,
                                   "1/s"),
        "trace.layer_coverage": (nested_self / train_s, "ratio"),
    }
