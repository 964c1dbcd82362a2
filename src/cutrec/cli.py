"""Command-line front end.

Commands: ingest, synth, train-target, train-transfer, evaluate,
experiment. Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import corpus, synthgen
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TrainingConfig
from .backbone import SingleDomainModel
from .embeddings import ROLE_USER_TARGET_PHASE1
from .errors import (CheckpointError, ConfigError, CutRecError, ParseError)
from .evaluation import evaluate_full, format_report
from .experiment import (ExperimentConfig, ensure_writable,
                         format_aggregate_table, run_experiment, sha256_file,
                         write_experiment_outputs, write_manifest)
from .graph import build_graph
from .similarity import SimilarityOracle
from .trainer import CutModel, run_target_phase, run_transfer_phase

logger = logging.getLogger(__name__)


def _load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err


def _training_config(args) -> TrainingConfig:
    data = _load_json(args.config) if args.config else {}
    preset = data.pop("preset", None)
    cfg = TrainingConfig.from_dict(data, preset=preset)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def cmd_ingest(args) -> int:
    raw = [corpus.load_interactions(args.source_tsv, corpus.DomainId.SOURCE),
           corpus.load_interactions(args.target_tsv, corpus.DomainId.TARGET)]
    ds = corpus.build_cross_domain(
        *(corpus.filter_k_core(r, args.min_interactions) for r in raw))
    seed = args.seed if args.seed is not None else 0
    target_split = corpus.split_target(ds, seed=seed)
    source_split = corpus.split_source(ds, seed=seed)
    out = Path(args.out)
    paths = corpus.save_dataset(out, ds, target_split, source_split,
                                force=args.force)
    inputs = {str(p): sha256_file(p)
              for p in (args.source_tsv, args.target_tsv)}
    write_manifest(out, inputs, paths)
    print(f"wrote dataset archive to {out} "
          f"({ds.target.n_users} target users, {ds.source.n_users} source "
          f"users, {ds.n_overlap} overlapping)")
    return 0


def cmd_synth(args) -> int:
    data = _load_json(args.config)
    cfg = synthgen.SynthConfig(**data)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    source, target, _ = synthgen.generate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "source.tsv", out / "target.tsv"]
    ensure_writable(paths, args.force)
    for path, raw in zip(paths, (source, target)):
        corpus.write_interactions(path, raw.records)
    write_manifest(out, {str(args.config): sha256_file(args.config)}, paths)
    print(f"wrote synthetic domains to {out} "
          f"({len(source)} source, {len(target)} target interactions)")
    return 0


def cmd_train_target(args) -> int:
    cfg = _training_config(args)
    ds, target_split, _ = corpus.load_dataset(args.data)
    result = run_target_phase(ds, target_split, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phase1_path = out / "phase1.ckpt"
    frozen_path = out / "theta-t1.ckpt"
    ensure_writable([phase1_path, frozen_path], args.force)
    save_checkpoint(phase1_path, Checkpoint(
        [result.model.users, result.model.items],
        {"model_kind": "single", "training": cfg.to_dict()}, 0))
    save_checkpoint(frozen_path, Checkpoint(
        [result.frozen], {"model_kind": "frozen-user-table",
                          "training": cfg.to_dict()}, 0))
    inputs = {str(Path(args.data) / name): sha256_file(Path(args.data) / name)
              for name in (corpus.INDEX_FILE, corpus.SPLITS_FILE)}
    write_manifest(out, inputs, [phase1_path, frozen_path])
    print(f"target phase done (best epoch {result.best_epoch}, "
          f"valid ndcg@10={max(result.valid_history):.4f}); "
          f"checkpoints in {out}")
    return 0


def cmd_train_transfer(args) -> int:
    cfg = _training_config(args)
    ds, target_split, source_split = corpus.load_dataset(args.data)
    embedding_oracle = not (cfg.effective_no_contrastive
                            or cfg.history_similarity)
    frozen = oracle = None
    if cfg.warm_start or embedding_oracle:
        if not args.phase1:
            raise ConfigError("--phase1 checkpoint required for warm_start "
                              "and for the embedding similarity oracle")
        frozen = load_checkpoint(args.phase1).table(ROLE_USER_TARGET_PHASE1)
    if cfg.history_similarity:
        oracle = SimilarityOracle.from_history(target_split.train, cfg.gamma)
    elif embedding_oracle:
        oracle = SimilarityOracle.from_embeddings(frozen, cfg.gamma)
    result = run_transfer_phase(ds, target_split, source_split, cfg, oracle,
                                frozen=frozen)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "cut.ckpt"
    ensure_writable([model_path], args.force)
    save_checkpoint(model_path, result.model.to_checkpoint(result.step_count))
    write_manifest(out, {}, [model_path])
    print(f"transfer phase done (best epoch {result.best_epoch}); "
          f"model checkpoint at {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    ds, target_split, source_split = corpus.load_dataset(args.data)
    ckpt = load_checkpoint(args.checkpoint)
    kind = ckpt.hyper.get("model_kind")
    if kind == "cut":
        model = CutModel.from_checkpoint(ckpt, target_split, source_split)
        scorer = model.make_target_scorer()
    elif kind == "single":
        training = TrainingConfig.from_dict(ckpt.hyper["training"])
        graph = None
        if training.backbone == "lightgcn":
            graph = build_graph(target_split.train, training.k_layers)
        model = SingleDomainModel(ckpt.tables[0], ckpt.tables[1], graph)
        scorer = model.make_scorer()
    else:
        raise CheckpointError(
            f"{args.checkpoint}: cannot evaluate model_kind {kind!r}")
    report = evaluate_full(scorer, target_split, k=args.k,
                           mask_seen=not args.no_mask_seen)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    txt_path = out / "report.txt"
    ensure_writable([json_path, txt_path], args.force)
    json_path.write_text(report.to_json(), encoding="utf-8")
    txt_path.write_text(format_report(report), encoding="utf-8")
    write_manifest(out, {str(args.checkpoint): sha256_file(args.checkpoint)},
                   [json_path, txt_path])
    print(format_report(report), end="")
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    out = Path(args.out)
    ensure_writable([out / "report.json", out / "report.txt"], args.force)
    report = run_experiment(cfg, parallel_seeds=args.parallel_seeds,
                            checkpoint_root=out if cfg.save_checkpoints
                            else None)
    input_hashes = {str(args.config): sha256_file(args.config)}
    write_experiment_outputs(report, out, force=True,
                             input_hashes=input_hashes)
    print(format_aggregate_table(report, cfg.eval_k), end="")
    print(f"full report in {out / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutrec",
        description="Cross-domain recommendation with two-phase "
                    "similarity-preserving transfer training.")
    parser.add_argument("--verbose", action="store_true",
                        help="enable debug logging")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    common.add_argument("--out", type=Path, required=True,
                        help="output directory")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="build a dataset archive from two TSV files")
    p.add_argument("source_tsv", type=Path)
    p.add_argument("target_tsv", type=Path)
    p.add_argument("--min-interactions", type=int, default=5)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic domain pair")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-target", parents=[common],
                       help="run the target phase on a dataset archive")
    p.add_argument("--data", type=Path, required=True)
    p.set_defaults(func=cmd_train_target)

    p = sub.add_parser("train-transfer", parents=[common],
                       help="run the transfer phase")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--phase1", type=Path, default=None,
                   help="frozen user-table checkpoint from train-target")
    p.set_defaults(func=cmd_train_transfer)

    p = sub.add_parser("evaluate", parents=[common],
                       help="evaluate a checkpoint on the target test split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--no-mask-seen", action="store_true",
                   help="rank over all items including seen ones")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", parents=[common],
                       help="full multi-seed pipeline with aggregation")
    p.add_argument("--parallel-seeds", type=int, default=1)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, ParseError, FileNotFoundError, FileExistsError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CutRecError, OSError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
