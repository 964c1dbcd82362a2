"""Command-line front end.

Commands: ingest, synth, train-target, train-transfer, evaluate,
experiment. Exit codes: 0 success, 1 validation or usage error, 2 runtime
failure. Every command refuses, before any work and unless ``--force``,
when one of its files or a ``manifest.json`` exists under ``--out``; it
writes its files, atomically, only once its work has succeeded; and it
writes ``manifest.json`` last, with the SHA-256 of each file it read and
wrote, so a complete manifest marks a finished run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import corpus, synthgen
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainingConfig
from .backbone import SingleDomainModel
from .embeddings import ROLE_USER_TARGET_PHASE1
from .errors import (CheckpointError, ConfigError, CutRecError, ParseError)
from .evaluation import evaluate_full, format_report
from .experiment import (ExperimentConfig, format_aggregate_table,
                         run_experiment)
from .trainer import (CutModel, needs_phase_one, run_target_phase,
                      run_transfer_phase)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _outputs(args, *names: str) -> list[Path]:
    """The command's files under ``--out``; unless ``--force``, an
    existing one, or an existing manifest, is refused."""
    paths = [args.out / name for name in names]
    for path in (*paths, args.out / "manifest.json"):
        if path.exists() and not args.force:
            raise FileExistsError(f"refusing to overwrite {path} (use --force)")
    return paths


def _write_manifest(args, inputs, outputs: list[Path]) -> None:
    """Write ``manifest.json``, the command's last file: the SHA-256 of
    each file it read, ``--config`` included, and of each it wrote."""
    if getattr(args, "config", None):
        inputs = [*inputs, args.config]
    manifest = {"inputs": {str(p): _sha256(p) for p in inputs},
                "outputs": {str(p.relative_to(args.out)): _sha256(p)
                            for p in sorted(outputs)}}
    corpus.write_atomic(args.out / "manifest.json",
                        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _training_config(args) -> TrainingConfig:
    data = corpus.read_json(args.config) if args.config else {}
    cfg = TrainingConfig.from_dict(data)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def cmd_ingest(args) -> int:
    _outputs(args, corpus.ARCHIVE_FILE)
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if args.min_interactions < 1:
        raise ConfigError(f"min_interactions must be >= 1, "
                          f"got {args.min_interactions}")
    raw = [corpus.load_interactions(args.source_tsv, corpus.DomainId.SOURCE),
           corpus.load_interactions(args.target_tsv, corpus.DomainId.TARGET)]
    ds = corpus.build_cross_domain(
        *(corpus.filter_k_core(r, args.min_interactions) for r in raw))
    target_split = corpus.split_target(ds, seed=seed)
    source_split = corpus.split_source(ds, seed=seed)
    paths = corpus.save_dataset(args.out, ds, target_split, source_split)
    _write_manifest(args, [args.source_tsv, args.target_tsv], paths)
    print(f"wrote dataset archive to {args.out} "
          f"({ds.target.n_users} target users, {ds.source.n_users} source "
          f"users, {ds.n_overlap} overlapping)")
    return 0


def cmd_synth(args) -> int:
    paths = _outputs(args, "source.tsv", "target.tsv")
    overrides = {} if args.seed is None else {"seed": args.seed}
    cfg = synthgen.SynthConfig.from_dict(corpus.read_json(args.config),
                                         **overrides)
    source, target, _ = synthgen.generate(cfg)
    for path, raw in zip(paths, (source, target)):
        corpus.write_interactions(path, raw)
    _write_manifest(args, [], paths)
    print(f"wrote synthetic domains to {args.out} "
          f"({len(source)} source, {len(target)} target interactions)")
    return 0


def cmd_train_target(args) -> int:
    phase1_path, = _outputs(args, "phase1.ckpt")
    cfg = _training_config(args)
    ds, target_split, _ = corpus.load_dataset(args.data)
    result = run_target_phase(ds, target_split, cfg)
    save_checkpoint(phase1_path, result.model.to_checkpoint())
    _write_manifest(args, [args.data / corpus.ARCHIVE_FILE], [phase1_path])
    print(f"target phase done (best epoch {result.best_epoch}, "
          f"valid ndcg@10={max(result.valid_history):.4f}); "
          f"checkpoint at {phase1_path}")
    return 0


def cmd_train_transfer(args) -> int:
    model_path, = _outputs(args, "cut.ckpt")
    cfg = _training_config(args)
    ds, target_split, source_split = corpus.load_dataset(args.data)
    inputs = [args.data / corpus.ARCHIVE_FILE]
    frozen = None
    if needs_phase_one(cfg):
        if not args.phase1:
            raise ConfigError("--phase1 checkpoint required for warm_start "
                              "and for the embedding similarity oracle")
        phase1 = load_checkpoint(args.phase1)
        inputs.append(args.phase1)
        rows = {ROLE_USER_TARGET_PHASE1: target_split.train.n_users}
        try:
            frozen, = phase1.take(rows).values()
        except CheckpointError as err:
            raise CheckpointError(f"{args.phase1}: {err}") from None
    result = run_transfer_phase(ds, target_split, source_split, cfg,
                                frozen=frozen)
    save_checkpoint(model_path, result.model.to_checkpoint(result.step_count))
    _write_manifest(args, inputs, [model_path])
    print(f"transfer phase done (best epoch {result.best_epoch}); "
          f"model checkpoint at {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    json_path, txt_path = _outputs(args, "report.json", "report.txt")
    ds, target_split, source_split = corpus.load_dataset(args.data)
    ckpt = load_checkpoint(args.checkpoint)
    kind = ckpt.hyper.get("model_kind")
    try:
        if kind == "cut":
            model = CutModel.from_checkpoint(ckpt, target_split, source_split)
        elif kind == "single":
            model = SingleDomainModel.from_checkpoint(ckpt, target_split)
        else:
            raise CheckpointError(f"cannot evaluate model_kind {kind!r}")
        scorer = model.make_target_scorer()
    except CheckpointError as err:
        raise CheckpointError(f"{args.checkpoint}: {err}") from None
    report = evaluate_full(scorer, target_split, k=args.k)
    corpus.write_atomic(json_path, report.to_json())
    corpus.write_atomic(txt_path, format_report(report))
    _write_manifest(args, [args.data / corpus.ARCHIVE_FILE, args.checkpoint],
                    [json_path, txt_path])
    print(format_report(report), end="")
    return 0


def cmd_experiment(args) -> int:
    json_path, txt_path = _outputs(args, "report.json", "report.txt")
    cfg = ExperimentConfig.from_dict(corpus.read_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    report, checkpoints = run_experiment(cfg,
                                         parallel_seeds=args.parallel_seeds)
    table = format_aggregate_table(report, cfg.eval_k)
    corpus.write_atomic(json_path,
                        json.dumps(report, sort_keys=True, indent=2) + "\n")
    corpus.write_atomic(txt_path, table)
    outputs = [json_path, txt_path,
               *(save_checkpoint(args.out / name, ckpt)
                 for name, ckpt in checkpoints.items())]
    inputs = [cfg.data[key] for key in ("source_tsv", "target_tsv")
              if key in cfg.data]
    if "archive" in cfg.data:
        inputs.append(Path(cfg.data["archive"]) / corpus.ARCHIVE_FILE)
    _write_manifest(args, inputs, outputs)
    print(table, end="")
    print(f"full report in {json_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not 2: a usage error is invalid input
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutrec",
        description="Cross-domain recommendation with two-phase "
                    "similarity-preserving transfer training.")
    parser.add_argument("--verbose", action="store_true",
                        help="enable debug logging")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, required=True,
                        help="output directory")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, seed=True, config=None):
        """A command's parser: --out, --force and, only if the command
        reads them, --seed and --config (required if ``config``)."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the configured seed")
        if config is not None:
            p.add_argument("--config", type=Path, required=config,
                           help="JSON config file")
        return p

    p = command("ingest", cmd_ingest,
                "build a dataset archive from two TSV files")
    p.add_argument("source_tsv", type=Path)
    p.add_argument("target_tsv", type=Path)
    p.add_argument("--min-interactions", type=int, default=5)
    command("synth", cmd_synth, "generate a synthetic domain pair",
            config=True)
    p = command("train-target", cmd_train_target,
                "run the target phase on a dataset archive", config=False)
    p.add_argument("--data", type=Path, required=True)
    p = command("train-transfer", cmd_train_transfer,
                "run the transfer phase", config=False)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--phase1", type=Path, default=None,
                   help="phase1.ckpt written by train-target")
    p = command("evaluate", cmd_evaluate,
                "evaluate a checkpoint on the target test split", seed=False)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--k", type=int, default=10)
    p = command("experiment", cmd_experiment,
                "full multi-seed pipeline with aggregation", config=True)
    p.add_argument("--parallel-seeds", type=int, default=1)
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
