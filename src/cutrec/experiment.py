"""End-to-end experiment pipelines: data preparation, two-phase training
across variants and seeds, evaluation, and report/manifest emission.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corpus, synthgen
from .checkpoint import Checkpoint, save_checkpoint
from .config import TrainingConfig
from .errors import ConfigError
from .evaluation import METRIC_NAMES, evaluate_full
from .similarity import SimilarityOracle
from .trainer import run_target_phase, run_transfer_phase

logger = logging.getLogger(__name__)

# Variant name -> TrainingConfig overrides (None = phase-one model only).
VARIANTS: dict[str, dict | None] = {
    "target-only": None,
    "joint": {"joint_training_baseline": True},
    "cut": {},
    "cut-no-transform": {"no_transform": True},
    "cut-no-contrastive": {"no_contrastive": True},
    "cut-history": {"history_similarity": True},
}

DEFAULT_VARIANTS = ("target-only", "joint", "cut")


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
        kinds = [k for k in ("synthetic", "archive", "source_tsv")
                 if k in self.data]
        if len(kinds) != 1:
            raise ConfigError(
                "data section must contain exactly one of 'synthetic', "
                "'archive', or 'source_tsv'/'target_tsv' paths")
        if kinds[0] == "source_tsv" and "target_tsv" not in self.data:
            raise ConfigError("data section with 'source_tsv' also needs "
                              "'target_tsv'")
        allowed_data_keys = {"synthetic", "archive", "source_tsv", "target_tsv"}
        for key in self.data:
            if key not in allowed_data_keys:
                raise ConfigError(f"unknown data config key {key!r}")
        for name in self.variants:
            if name not in VARIANTS:
                raise ConfigError(f"unknown variant {name!r}; "
                                  f"available: {sorted(VARIANTS)}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.eval_k < 1:
            raise ConfigError("eval_k must be >= 1")
        for fraction in self.sparsity_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigError("sparsity fractions must be in (0, 1]")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        payload = dict(data)
        preset = payload.pop("preset", None)
        training = TrainingConfig.from_dict(payload.pop("training", {}),
                                            preset=preset)
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs: dict = {}
        for key, value in payload.items():
            if key not in known:
                raise ConfigError(f"unknown experiment config key {key!r}")
            kwargs[key] = value
        for tuple_key in ("seeds", "variants", "target_ratios",
                          "source_ratios", "sparsity_fractions"):
            if tuple_key in kwargs and kwargs[tuple_key] is not None:
                kwargs[tuple_key] = tuple(kwargs[tuple_key])
        if "data" not in kwargs:
            raise ConfigError("experiment config needs a 'data' section")
        return cls(training=training, **kwargs)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["training"] = self.training.to_dict()
        out["seeds"] = list(self.seeds)
        out["variants"] = list(self.variants)
        out["target_ratios"] = list(self.target_ratios)
        out["source_ratios"] = list(self.source_ratios)
        out["sparsity_fractions"] = list(self.sparsity_fractions)
        return out


def prepare_data(cfg: ExperimentConfig, seed: int):
    """Build (dataset, target split, source split) for one run seed."""
    if "archive" in cfg.data:
        return corpus.load_dataset(cfg.data["archive"])
    if "synthetic" in cfg.data:
        synth_cfg = synthgen.SynthConfig(**cfg.data["synthetic"]).with_seed(seed)
        raw = synthgen.generate(synth_cfg)[:2]
    else:
        raw = [corpus.load_interactions(cfg.data[f"{d.value}_tsv"], d)
               for d in (corpus.DomainId.SOURCE, corpus.DomainId.TARGET)]
    ds = corpus.build_cross_domain(
        *(corpus.filter_k_core(r, cfg.min_interactions) for r in raw))
    return (ds, corpus.split_target(ds, cfg.target_ratios, seed),
            corpus.split_source(ds, cfg.source_ratios, seed))


def _evaluate_variants(cfg: ExperimentConfig, seed: int, ds, target_split,
                       source_split, checkpoint_dir: Path | None
                       ) -> dict[str, dict[str, float]]:
    training = cfg.training.replace(seed=seed)
    needs_oracle = any(VARIANTS[name] is not None for name in cfg.variants)
    phase1 = None
    if "target-only" in cfg.variants or needs_oracle:
        phase1 = run_target_phase(ds, target_split, training)
        if checkpoint_dir is not None:
            ckpt = Checkpoint(
                [phase1.model.users, phase1.model.items],
                {"model_kind": "single", "training": training.to_dict()},
                0)
            save_checkpoint(checkpoint_dir / "phase1.ckpt", ckpt)

    results: dict[str, dict[str, float]] = {}
    for name in cfg.variants:
        overrides = VARIANTS[name]
        if overrides is None:
            report = evaluate_full(phase1.model.make_scorer(), target_split,
                                   k=cfg.eval_k, mask_seen=cfg.mask_seen,
                                   seed=seed)
        else:
            variant_cfg = training.replace(**overrides)
            if variant_cfg.history_similarity:
                oracle = SimilarityOracle.from_history(target_split.train,
                                                       variant_cfg.gamma)
            else:
                oracle = phase1.oracle if not variant_cfg.effective_no_contrastive else None
            result = run_transfer_phase(ds, target_split, source_split,
                                        variant_cfg, oracle,
                                        frozen=None if phase1 is None
                                        else phase1.frozen)
            if checkpoint_dir is not None:
                save_checkpoint(checkpoint_dir / f"{name}.ckpt",
                                result.model.to_checkpoint(result.step_count))
            report = evaluate_full(result.model.make_target_scorer(),
                                   target_split, k=cfg.eval_k,
                                   mask_seen=cfg.mask_seen, seed=seed)
        results[name] = {metric: report.means[metric]
                         for metric in METRIC_NAMES}
        logger.info("seed %d variant %-18s ndcg@%d=%.4f", seed, name,
                    cfg.eval_k, results[name]["ndcg"])
    return results


def run_single_seed(cfg: ExperimentConfig, seed: int,
                    checkpoint_root: Path | str | None = None) -> dict:
    """Full pipeline for one seed: data, phases, all variants, optional
    sparsity sweep."""
    checkpoint_dir = None
    if checkpoint_root is not None and cfg.save_checkpoints:
        checkpoint_dir = Path(checkpoint_root) / f"seed-{seed}"
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    ds, target_split, source_split = prepare_data(cfg, seed)
    out = {"variants": _evaluate_variants(cfg, seed, ds, target_split,
                                          source_split, checkpoint_dir)}
    if cfg.sparsity_fractions:
        sweep: dict[str, dict] = {}
        for fraction in cfg.sparsity_fractions:
            sub_split = corpus.subsample_target(target_split, fraction, seed)
            sweep[f"{fraction:g}"] = _evaluate_variants(
                cfg, seed, ds, sub_split, source_split, None)
        out["sparsity"] = sweep
    return out


def _aggregate(per_seed: dict[str, dict]) -> dict:
    variants: dict[str, dict] = {}
    seeds = sorted(per_seed)
    if not seeds:
        return variants
    for name in per_seed[seeds[0]]:
        variants[name] = {}
        for metric in METRIC_NAMES:
            values = [per_seed[s][name][metric] for s in seeds]
            variants[name][metric] = {"mean": float(np.mean(values)),
                                      "std": float(np.std(values))}
    return variants


def run_experiment(cfg: ExperimentConfig, *, parallel_seeds: int = 1,
                   checkpoint_root=None) -> dict:
    """Run every seed, aggregate mean/std per variant, return the report."""
    per_seed: dict[str, dict] = {}
    if parallel_seeds > 1:
        with ProcessPoolExecutor(max_workers=parallel_seeds) as pool:
            futures = {str(seed): pool.submit(run_single_seed, cfg, seed,
                                              checkpoint_root)
                       for seed in cfg.seeds}
            per_seed = {key: fut.result() for key, fut in futures.items()}
    else:
        for seed in cfg.seeds:
            per_seed[str(seed)] = run_single_seed(cfg, seed, checkpoint_root)

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
    return report


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


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, inputs: dict[str, str],
                   outputs: list[Path]) -> Path:
    manifest = {
        "inputs": inputs,
        "outputs": {str(p.relative_to(out_dir)): sha256_file(p)
                    for p in sorted(outputs)},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def ensure_writable(paths: list[Path], force: bool) -> None:
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing[0]} (use --force)")


def write_experiment_outputs(report: dict, out_dir, *, force: bool = False,
                             input_hashes: dict[str, str] | None = None
                             ) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_json = out / "report.json"
    report_txt = out / "report.txt"
    ensure_writable([report_json, report_txt], force)
    report_json.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
    k = report["config"]["eval_k"]
    report_txt.write_text(format_aggregate_table(report, k),
                          encoding="utf-8")
    outputs = [report_json, report_txt]
    outputs += [p for p in out.rglob("*.ckpt")]
    write_manifest(out, input_hashes or {}, outputs)
    return outputs
