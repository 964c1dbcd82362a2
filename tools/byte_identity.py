"""Run a fixed CLI pipeline and print a SHA-256 for every file it writes,
so that the outputs of two source trees can be diffed.

    python3 tools/byte_identity.py OUT_DIR > hashes.txt

The pipeline runs the ``cutrec`` of the tree this script lives in, one
BLAS thread per process, with OUT_DIR as its working directory so that
the manifests hold the same relative paths in both trees:

- ``synth`` (1200 users in 4 clusters) and ``ingest``;
- for MF at gamma 0.5 and LightGCN at gamma 0.7: ``train-target``, then
  ``train-transfer --phase1`` for the default config, ``joint``,
  ``cut-no-contrastive``, ``cut-history`` (each from the tree's
  ``experiment.VARIANTS``, so each tree writes its own form of the same
  settings) and ``warm_start``, and ``evaluate`` on every checkpoint.
  LightGCN's ``cut-history`` run takes gamma 0.4, at which the target
  history's oracle holds 184 ordered pairs (at 0.7 it holds none);
- a two-seed MF ``experiment --parallel-seeds 2`` over every variant of
  the tree.

Each output line is ``<sha256>  <name>``. Besides each file, a checkpoint
or archive gets one line per member (``file:member``) and one per entry of
its JSON header, and a JSON file one per entry, to three levels
(``file#key/key/key``). A change that alters only a recorded setting, or
adds a variant, then shows as those entries' lines, with the arrays' lines
equal. It takes about 15 s on two cores and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from cutrec.experiment import VARIANTS  # noqa: E402

SYNTH = {"n_users": 1200, "n_items_per_domain": 600, "latent_dim": 16,
         "overlap_fraction": 0.3, "distortion": 0.5,
         "interactions_per_user": 20, "n_clusters": 4, "seed": 11}
TRAINING = {"embedding_dim": 32, "batch_size": 512, "lr": 0.01,
            "max_epochs": 4, "patience": 4, "seed": 3}
BACKBONES = {"mf": {"backbone": "mf", "gamma": 0.5},
             "lightgcn": {"backbone": "lightgcn", "gamma": 0.7}}
TRANSFER = {**{name: VARIANTS[name] for name in (
    "cut", "joint", "cut-no-contrastive", "cut-history")},
    "warm": {"warm_start": True}}
# Settings of one (backbone, run) on top of the backbone's.
RUN_SETTINGS = {("lightgcn", "cut-history"): {"gamma": 0.4}}
DEPTH = 3


def cli(out: Path, *args: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "cutrec.cli", *args], cwd=out,
                   env=env, check=True, stdout=subprocess.DEVNULL)


def run(out: Path) -> None:
    (out / "synth.json").write_text(json.dumps(SYNTH))
    cli(out, "synth", "--config", "synth.json", "--out", "raw")
    cli(out, "ingest", "raw/source.tsv", "raw/target.tsv", "--out", "data",
        "--seed", "5")
    for backbone, settings in BACKBONES.items():
        training = {**TRAINING, **settings}
        (out / backbone).mkdir()
        (out / backbone / "train.json").write_text(json.dumps(training))
        cli(out, "train-target", "--data", "data", "--config",
            f"{backbone}/train.json", "--out", f"{backbone}/phase1")
        checkpoints = {"phase1": f"{backbone}/phase1/phase1.ckpt"}
        for name, overrides in TRANSFER.items():
            (out / backbone / f"{name}.json").write_text(
                json.dumps({**training, **overrides,
                            **RUN_SETTINGS.get((backbone, name), {})}))
            cli(out, "train-transfer", "--data", "data", "--config",
                f"{backbone}/{name}.json", "--phase1", checkpoints["phase1"],
                "--out", f"{backbone}/{name}")
            checkpoints[name] = f"{backbone}/{name}/cut.ckpt"
        for name, path in checkpoints.items():
            cli(out, "evaluate", "--checkpoint", path, "--data", "data",
                "--out", f"{backbone}/eval-{name}")
    (out / "experiment.json").write_text(json.dumps({
        "data": {"archive": "data"},
        "training": {**TRAINING, **BACKBONES["mf"]},
        "seeds": [1, 2], "variants": list(VARIANTS)}))
    cli(out, "experiment", "--config", "experiment.json", "--out",
        "experiment", "--parallel-seeds", "2")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entries(name: str, value, depth: int = 0):
    """(name, sha256) of ``value`` as sorted JSON, then of its entries."""
    yield name, digest(json.dumps(value, sort_keys=True).encode())
    if isinstance(value, dict) and depth < DEPTH:
        sep = "#" if depth == 0 else "/"
        for key in sorted(value):
            yield from entries(f"{name}{sep}{key}", value[key], depth + 1)


def hashes(out: Path):
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = str(path.relative_to(out))
        data = path.read_bytes()
        yield name, digest(data)
        if path.suffix in (".ckpt", ".npz"):
            with zipfile.ZipFile(io.BytesIO(data)) as archive:
                for member in archive.namelist():
                    array = np.lib.format.read_array(
                        io.BytesIO(archive.read(member)), allow_pickle=False)
                    key = f"{name}:{member.removesuffix('.npy')}"
                    if key.endswith(":header"):
                        yield from entries(key, json.loads(str(array)))
                    else:
                        yield key, digest(f"{array.dtype.str}{array.shape}"
                                          .encode() + array.tobytes())
        elif path.suffix == ".json":
            yield from list(entries(name, json.loads(data)))[1:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="new or empty directory")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    run(args.out.resolve())
    for name, sha in hashes(args.out):
        print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
