"""Run one benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (untimed, in a child
process), then repeats untraced passes of the pipeline until S seconds
have passed, at least once, and reports the median of each end-to-end
metric. With ``--trace 1`` it then makes one traced pass on the same seed
and reports the per-layer metrics instead. The last line of standard
output is the result object; the line before it holds the details:
environment, checks and every pass's figures. The exit status is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import benchenv

benchenv.limit_blas_threads()
benchenv.import_cutrec()

import pipeline  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
# Set-up and test evaluation last under a second each, so an untraced pass
# repeats them and reports the median. A single 0.2 s test evaluation
# jitters by 15% even while the machine's speed holds.
SETUP_REPS = 3
EVAL_REPS = 7
UNITS = {"setup_s": "s", "phase1_s": "s", "phase2_s": "s",
         "test_eval_s": "s", "total_s": "s", "train_pairs_per_s": "1/s",
         "peak_rss_mb": "MB", "valid_ndcg10": "ndcg", "test_ndcg10": "ndcg"}


def generate(workload: str, seed: int, out: Path) -> dict:
    subprocess.run([sys.executable, str(HERE / "gen_inputs.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(out)], check=True, timeout=170)
    return json.loads((out / "expected.json").read_text(encoding="utf-8"))


def attempt(workload, seed, data, expected, *, timed, reps):
    """One pass; an exception becomes a problem on a pass without figures."""
    try:
        return pipeline.run_pass(workload, seed, data, expected,
                                 Tracer(timed), *reps)
    except Exception as err:  # noqa: BLE001 - a raising pass is a failed run
        traceback.print_exc()
        return pipeline.Pass(problems=[f"raised {type(err).__name__}: {err}"])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the generator's child is not included.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    benchenv.OUT.mkdir(exist_ok=True)
    data = Path(tempfile.mkdtemp(prefix="inputs-", dir=benchenv.OUT))
    try:
        expected = generate(workload.name, args.seed, data)
        passes = []
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start < args.seconds
                             and not passes[-1].problems):
            passes.append(attempt(workload, args.seed, data, expected,
                                  timed=False,
                                  reps=(SETUP_REPS, EVAL_REPS)))
        rss = peak_rss_mb()
        traced = None
        if args.trace and not passes[-1].problems:
            traced = attempt(workload, args.seed, data, expected,
                             timed=True, reps=(1, 1))
            passes.append(traced)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    untraced = passes[:-1] if traced else passes
    complete = [p for p in passes if p.complete]
    ndcg = {p.test_ndcg10 for p in complete}
    if len(ndcg) > 1:
        passes[-1].problems.append(
            f"same-seed passes gave different test_ndcg10: {sorted(ndcg)}")
    failed = sum(bool(p.problems) for p in passes)

    metrics = {}
    if not failed:
        if traced:
            layers = pipeline.per_layer(traced)
            layers["trace.overhead_ratio"] = (
                traced.wall_total_s()
                / statistics.median(p.wall_total_s() for p in untraced),
                "ratio")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
            traced.tracer.dump(
                benchenv.OUT / f"spans-{workload.name}-{args.seed}.json")
        else:
            figures = [p.end_to_end() for p in untraced]
            values = {name: statistics.median(f[name] for f in figures)
                      for name in figures[0]}
            values["peak_rss_mb"] = rss
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in UNITS.items()}

    reference = untraced[0]
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "environment": benchenv.environment(),
        "problems": [problem for p in passes for problem in p.problems],
        "passes": [{**p.end_to_end(), "wall_total_s": p.wall_total_s()}
                   for p in complete],
        "random_ndcg10": reference.random_ndcg10,
        "steps_phase2": reference.counts.steps_phase2,
        "zero_pair_batches": reference.counts.similar_pairs.count(0),
        "peak_rss_mb": rss,
    }))
    print(json.dumps({"correct": not failed, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
