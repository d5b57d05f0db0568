"""Alternating benchmark pairs of a parent tree and this tree, saved as a BENCH file.

    python3 tools/bench_pairs.py PARENT_TREE --out BENCH_<PR>.json --seed S

For each workload in BENCHMARK.json, the script runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in
PARENT_TREE and once in the tree next to this script, PAIRS = 10 times; T
is the benchmark's own `run_seconds`.  A claim needs all ten pairs, and a
seed not used while writing the change, so S has no default.  The order
alternates from pair to pair (parent first, then change first), so slow
drift of the machine hits both sides alike.  Each run.py call starts its
own fresh processes, one at a time.

The output file holds, per workload and end-to-end metric, both sides'
values run by run, their median, Q1 and Q3 (`statistics.quantiles`,
inclusive method), and the number of pairs the change won (strictly better
in the metric's direction).  It also records fail_frac per run, the CPU
count, the Python and numpy versions, the settings, and a SHA-256 digest of
each tree's src/azeta sources.  No absolute path is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def _src_digest(tree: Path) -> str:
    """SHA-256 over the relative names and bytes of tree/src/azeta/*.py."""
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "azeta").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py call in `tree`; its closing JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"run.py {workload} exited {out.returncode} in "
                         f"{tree.name}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        print(f"{args.parent} holds no perfbench/run.py", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sides = {"parent": parent, "change": ROOT}

    report = {
        "settings": {"pairs": PAIRS, "seed": args.seed,
                     "seconds": seconds, "trace": 0,
                     "order": "alternating, parent first in even pairs"},
        "environment": {"cpus": os.cpu_count(),
                        "machine": platform.machine(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__},
        "src_digest": {side: _src_digest(tree) for side, tree in sides.items()},
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(sides[side], workload, args.seed, seconds))
            print(f"{workload} pair {i + 1}/{PAIRS} done", flush=True)
        entry = {"fail_frac": {side: [r["failed"] / r["attempted"] for r in rs]
                               for side, rs in runs.items()},
                 "metrics": {}}
        for name, spec in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in runs.items()}
            lower = spec["better"] == "lower"
            won = sum((c < p) if lower else (c > p)
                      for p, c in zip(values["parent"], values["change"]))
            entry["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"],
                "parent": _summary(values["parent"]),
                "change": _summary(values["change"]),
                "pairs_won": won,
            }
            p, c = entry["metrics"][name]["parent"], entry["metrics"][name]["change"]
            print(f"  {workload:<11} {name:<13} {p['median']:.4g} -> {c['median']:.4g} "
                  f"(parent Q1-Q3 {p['q1']:.4g}-{p['q3']:.4g}), won {won}/{PAIRS}")
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
