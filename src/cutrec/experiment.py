"""End-to-end experiment pipelines: data preparation, two-phase training
across variants and seeds, evaluation and aggregation. Nothing here
writes a file: the report and the checkpoints go back to the caller.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                wait)
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import corpus, synthgen
from .checkpoint import Checkpoint
from .config import TrainingConfig, check_kind
from .errors import ConfigError
from .evaluation import METRIC_NAMES, evaluate_full
from .trainer import run_target_phase, run_transfer_phase

logger = logging.getLogger(__name__)

# Variant name -> TrainingConfig overrides (None = phase-one model only).
VARIANTS: dict[str, dict | None] = {
    "target-only": None,
    "joint": {"no_transform": True, "contrastive_weight": 0.0},
    "cut": {},
    "cut-no-transform": {"no_transform": True},
    "cut-no-contrastive": {"contrastive_weight": 0.0},
    "cut-history": {"history_similarity": True},
    "cut-warm": {"warm_start": True},
}

DEFAULT_VARIANTS = ("target-only", "joint", "cut")

# The kind of each entry of ExperimentConfig's list fields.
_LIST_KINDS = {"seeds": "int", "variants": "str", "target_ratios": "float",
               "source_ratios": "float", "sparsity_fractions": "float"}


@dataclass
class ExperimentConfig:
    data: dict
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seeds: tuple[int, ...] = (0,)
    variants: tuple[str, ...] = DEFAULT_VARIANTS
    eval_k: int = 10
    mask_seen: bool = True
    min_interactions: int = 5
    target_ratios: tuple[float, float, float] = (8, 1, 1)
    source_ratios: tuple[float, float] = (8, 2)
    sparsity_fractions: tuple[float, ...] = ()
    save_checkpoints: bool = True

    def __post_init__(self):
        if not isinstance(self.data, dict):
            raise ConfigError(f"data must be an object, got {self.data!r}")
        kinds = [k for k in ("synthetic", "archive", "source_tsv")
                 if k in self.data]
        if len(kinds) != 1:
            raise ConfigError(
                "data section must contain exactly one of 'synthetic', "
                "'archive', or 'source_tsv'/'target_tsv' paths")
        if kinds[0] == "source_tsv" and "target_tsv" not in self.data:
            raise ConfigError("data section with 'source_tsv' also needs "
                              "'target_tsv'")
        for key in sorted(set(self.data) - {"synthetic", "archive",
                                            "source_tsv", "target_tsv"}):
            raise ConfigError(f"unknown data config key {key!r}")
        if kinds[0] == "synthetic":
            # The run seed replaces the generator's seed, so it may be absent.
            synthgen.SynthConfig.from_dict(self.data["synthetic"], seed=0)
        else:
            for key, path in self.data.items():
                check_kind(f"data.{key}", path, "str")
        if not isinstance(self.training, TrainingConfig):
            raise ConfigError(f"training must be a TrainingConfig, "
                              f"got {self.training!r}")
        for name in ("eval_k", "min_interactions"):
            value = getattr(self, name)
            check_kind(name, value, "int")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        for name in ("mask_seen", "save_checkpoints"):
            check_kind(name, getattr(self, name), "bool")
        for name, kind in _LIST_KINDS.items():
            values = getattr(self, name)
            if not isinstance(values, tuple):
                raise ConfigError(f"{name} must be a list, got {values!r}")
            for value in values:
                check_kind(f"{name} entry", value, kind)
        for name in self.variants:
            if name not in VARIANTS:
                raise ConfigError(f"unknown variant {name!r}; "
                                  f"available: {sorted(VARIANTS)}")
        for name in ("seeds", "variants"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{name} must be a non-empty list without "
                                  f"repeats, got {list(values)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        if len(self.target_ratios) != 3 or min(self.target_ratios) <= 0:
            raise ConfigError(f"target_ratios must be three numbers > 0 "
                              f"(train, valid, test), "
                              f"got {list(self.target_ratios)}")
        if (len(self.source_ratios) != 2 or self.source_ratios[0] <= 0
                or self.source_ratios[1] < 0):
            raise ConfigError(f"source_ratios must be two numbers, train > 0 "
                              f"and valid >= 0, "
                              f"got {list(self.source_ratios)}")
        for fraction in self.sparsity_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigError("sparsity fractions must be in (0, 1]")
        for f in dataclasses.fields(self):  # an archive fixes its splits
            if (f.name in ("min_interactions", "target_ratios",
                           "source_ratios") and "archive" in self.data
                    and getattr(self, f.name) != f.default):
                raise ConfigError(f"{f.name} does not apply to "
                                  f"data.archive, whose splits are fixed")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"experiment config must be an object, "
                              f"got {data!r}")
        payload = dict(data)
        training = TrainingConfig.from_dict(payload.pop("training", {}))
        known = {f.name for f in dataclasses.fields(cls)}
        for key in payload:
            if key not in known:
                raise ConfigError(f"unknown experiment config key {key!r}")
        for tuple_key in _LIST_KINDS:
            if isinstance(payload.get(tuple_key), list):
                payload[tuple_key] = tuple(payload[tuple_key])
        if "data" not in payload:
            raise ConfigError("experiment config needs a 'data' section")
        return cls(training=training, **payload)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def prepare_data(cfg: ExperimentConfig, seed: int):
    """Build (dataset, target split, source split) for one run seed."""
    if "archive" in cfg.data:
        return corpus.load_dataset(cfg.data["archive"])
    if "synthetic" in cfg.data:
        synth_cfg = synthgen.SynthConfig.from_dict(cfg.data["synthetic"],
                                                   seed=seed)
        raw = synthgen.generate(synth_cfg)[:2]
    else:
        raw = [corpus.load_interactions(cfg.data[f"{d.value}_tsv"], d)
               for d in (corpus.DomainId.SOURCE, corpus.DomainId.TARGET)]
    ds = corpus.build_cross_domain(
        *(corpus.filter_k_core(r, cfg.min_interactions) for r in raw))
    return (ds, corpus.split_target(ds, cfg.target_ratios, seed),
            corpus.split_source(ds, cfg.source_ratios, seed))


def _evaluate_variants(cfg: ExperimentConfig, seed: int, ds, target_split,
                       source_split) -> tuple[dict[str, dict[str, float]],
                                              dict[str, Checkpoint]]:
    """Each variant's test metrics, and the checkpoints of the phase-one
    model and of each transfer variant, by file stem."""
    training = cfg.training.replace(seed=seed)
    # The variants use phase one's model or its frozen table.
    phase1 = run_target_phase(ds, target_split, training)
    checkpoints = {"phase1": phase1.model.to_checkpoint()}
    results: dict[str, dict[str, float]] = {}
    for name in cfg.variants:
        model, overrides = phase1.model, VARIANTS[name]
        if overrides is not None:
            result = run_transfer_phase(ds, target_split, source_split,
                                        training.replace(**overrides),
                                        frozen=phase1.frozen)
            model = result.model
            checkpoints[name] = model.to_checkpoint(result.step_count)
        report = evaluate_full(model.make_target_scorer(), target_split,
                               k=cfg.eval_k, mask_seen=cfg.mask_seen,
                               seed=seed)
        results[name] = {metric: report.means[metric]
                         for metric in METRIC_NAMES}
        logger.info("seed %d variant %-18s ndcg@%d=%.4f", seed, name,
                    cfg.eval_k, results[name]["ndcg"])
    return results, checkpoints


def run_single_seed(cfg: ExperimentConfig, seed: int) -> dict:
    """Full pipeline for one seed: data, phases, all variants, optional
    sparsity sweep. With ``save_checkpoints``, ``checkpoints`` maps each
    checkpoint's file name under the output directory,
    ``seed-N/<stem>.ckpt``, to the checkpoint."""
    ds, target_split, source_split = prepare_data(cfg, seed)
    results, checkpoints = _evaluate_variants(cfg, seed, ds, target_split,
                                              source_split)
    out: dict = {"variants": results, "checkpoints": {
        f"seed-{seed}/{stem}.ckpt": ckpt for stem, ckpt in checkpoints.items()
        if cfg.save_checkpoints}}
    if cfg.sparsity_fractions:
        out["sparsity"] = {
            f"{fraction:g}": _evaluate_variants(
                cfg, seed, ds,
                corpus.subsample_target(target_split, fraction, seed),
                source_split)[0]
            for fraction in cfg.sparsity_fractions}
    return out


def _aggregate(per_seed: dict[str, dict]) -> dict:
    variants: dict[str, dict] = {}
    seeds = sorted(per_seed)
    for name in per_seed[seeds[0]]:
        variants[name] = {}
        for metric in METRIC_NAMES:
            values = [per_seed[s][name][metric] for s in seeds]
            variants[name][metric] = {"mean": float(np.mean(values)),
                                      "std": float(np.std(values))}
    return variants


def run_experiment(cfg: ExperimentConfig, *, parallel_seeds: int = 1
                   ) -> tuple[dict, dict[str, Checkpoint]]:
    """Run every seed, in up to ``parallel_seeds`` worker processes (whose
    checkpoints come back pickled), and aggregate mean/std per variant.
    Return the report and every seed's checkpoints by file name,
    ``seed-N/<stem>.ckpt``, for the caller to write once all seeds have
    finished."""
    if parallel_seeds < 1:
        raise ConfigError(f"parallel_seeds must be >= 1, got {parallel_seeds}")
    workers = min(parallel_seeds, len(cfg.seeds))
    done: dict[int, dict] = {}
    if workers == 1:
        done = {seed: run_single_seed(cfg, seed) for seed in cfg.seeds}
    else:
        # A seed starts as another ends: a failure starts no more seeds.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            queue = iter(cfg.seeds)
            running = {pool.submit(run_single_seed, cfg, seed): seed
                       for seed in islice(queue, workers)}
            while running:
                for future in wait(running, return_when=FIRST_COMPLETED)[0]:
                    done[running.pop(future)] = future.result()
                    running.update((pool.submit(run_single_seed, cfg, seed),
                                    seed) for seed in islice(queue, 1))
    per_seed = {str(seed): done[seed] for seed in cfg.seeds}

    report = {
        "config": cfg.to_dict(),
        "per_seed": {s: per_seed[s]["variants"] for s in per_seed},
        "aggregate": _aggregate({s: per_seed[s]["variants"]
                                 for s in per_seed}),
    }
    if cfg.sparsity_fractions:
        report["sparsity"] = {
            f"{fraction:g}": _aggregate(
                {s: per_seed[s]["sparsity"][f"{fraction:g}"]
                 for s in per_seed})
            for fraction in cfg.sparsity_fractions
        }
        report["sparsity_per_seed"] = {s: per_seed[s]["sparsity"]
                                       for s in per_seed}
    return report, {name: ckpt for s in per_seed
                    for name, ckpt in per_seed[s]["checkpoints"].items()}


def format_aggregate_table(report: dict, k: int) -> str:
    header = f"{'variant':<20}" + "".join(
        f"{name + '@' + str(k):>22}" for name in METRIC_NAMES)
    lines = [header]
    for name, metrics in report["aggregate"].items():
        cells = "".join(
            f"{metrics[m]['mean']:>13.6f}±{metrics[m]['std']:<8.6f}"
            for m in METRIC_NAMES)
        lines.append(f"{name:<20}" + cells)
    return "\n".join(lines) + "\n"

