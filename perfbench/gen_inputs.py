"""Write one workload's synthetic interaction logs as TSV files.

usage: python3 perfbench/gen_inputs.py --workload NAME --seed N --out DIR

run.py starts this in its own process, so the generator's memory does not
count towards the benchmark's peak RSS. Besides ``source.tsv`` and
``target.tsv`` it writes ``expected.json``: the user, item and record
counts that a reference k-core filter keeps in each domain, which run.py
checks ``corpus.filter_k_core`` against.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import benchenv

benchenv.limit_blas_threads()
benchenv.import_cutrec()

import numpy as np  # noqa: E402

from cutrec import synthgen  # noqa: E402
from workloads import MIN_INTERACTIONS, WORKLOADS  # noqa: E402


def reference_k_core(records, min_count: int) -> dict[str, int]:
    """Counts left by iterated k-core filtering, computed on integer codes."""
    _, users = np.unique([r[0] for r in records], return_inverse=True)
    _, items = np.unique([r[1] for r in records], return_inverse=True)
    keep = np.ones(users.size, dtype=bool)
    while True:
        user_deg = np.bincount(users[keep], minlength=users.max() + 1)
        item_deg = np.bincount(items[keep], minlength=items.max() + 1)
        now = keep & (user_deg[users] >= min_count) \
            & (item_deg[items] >= min_count)
        if now.sum() == keep.sum():
            break
        keep = now
    return {"users": int(np.unique(users[keep]).size),
            "items": int(np.unique(items[keep]).size),
            "records": int(keep.sum())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    config = synthgen.SynthConfig(seed=args.seed,
                                  **WORKLOADS[args.workload].synth)
    source, target, _ = synthgen.generate(config)
    expected = {}
    for raw in (source, target):
        name = raw.domain_id.value
        with open(args.out / f"{name}.tsv", "w", encoding="utf-8") as handle:
            handle.writelines(f"{user}\t{item}\n"
                              for user, item, _ in raw.records)
        expected[name] = reference_k_core(raw.records, MIN_INTERACTIONS)
    (args.out / "expected.json").write_text(json.dumps(expected),
                                            encoding="utf-8")


if __name__ == "__main__":
    main()
