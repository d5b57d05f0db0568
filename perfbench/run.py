"""azeta benchmark: one workload, several fresh-process runs, checked results.

    python3 perfbench/run.py --workload plane_grid|pole_table|small_w
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run is a fresh process (cold caches,
its own peak RSS) that makes the workload's seeded calls one after another
(a closed loop with one client).  The number of runs is
round(S / nominal run length), at least 1, so both sides of a comparison
measure the same work.  Every returned value is checked against an
independent reference (see checks.py and oracle.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs (at least one of each) and prints the per-layer table.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

# Run length of each workload at the seed commit on a 2-core x86-64 VM
# (Python 3.11, numpy 2.4).  It fixes how many runs one invocation makes.
NOMINAL_RUN_S = {"plane_grid": 15.0, "pole_table": 10.0, "small_w": 15.0}
SETUP_SAMPLES = 5           # set-ups timed per invocation (runs + set-up-only)
CHILD_TIMEOUT_S = 150.0
TAIL_BEYOND = 10            # calls that must lie beyond the tail percentile
THREAD_ENV = {"AZETA_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("first_call_s", "s"),
    ("call_p50_s", "s"), ("call_tail_s", "s"), ("peak_rss_mb", "MB"),
    ("bar_rel_p50", "1"),
)


class BenchError(Exception):
    pass


def _child(workload, seed, mode, run_id=0, spans_out=None) -> dict:
    """Start one fresh process; return its JSON result plus its set-up time.

    Set-up time runs from just before the process starts until its READY line
    arrives, so it includes interpreter start and every import.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--run-id", str(run_id)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, **THREAD_ENV)
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    data, setup = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"{mode} process ran past {CHILD_TIMEOUT_S:g} s")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            data += chunk
            if setup is None and b"\n" in data:
                setup = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = data.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    return result


def _mark_first_calls(plan, calls):
    seen = set()
    for call, rec in zip(plan, calls):
        key = (call["phi"], call["fn"])
        rec["first"] = key not in seen
        seen.add(key)


def _tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def _environment() -> dict:
    env = {"cpus": os.cpu_count(),
           "python": sys.version.split()[0],
           "rlimit_as_gib": child.ADDRESS_SPACE_CAP / 2**30}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = "missing"
    env.update(THREAD_ENV)
    return env


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "azeta" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no azeta source tree under {ROOT}: need src/azeta and configs/",
              file=sys.stderr)
        return 2

    configs = inputs.load_shape_configs(ROOT)
    plan = inputs.make_plan(args.workload, args.seed, configs)
    n_runs = max(1, round(args.seconds / NOMINAL_RUN_S[args.workload]))
    traced = [False] * n_runs
    if args.trace:
        n_runs = max(2, n_runs)
        traced = [i % 2 == 1 for i in range(n_runs)]
    spans_dir = HERE / "out"
    spans_dir.mkdir(exist_ok=True)
    refs = checks.references(plan)

    try:
        runs = []
        for i in range(n_runs):
            out = spans_dir / f"spans-{args.workload}-run{i}.json" if traced[i] else None
            runs.append(_child(args.workload, args.seed, "run", i, out))
        setups = [r["setup_s"] for r, t in zip(runs, traced) if not t]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - len(setups)):
                setups.append(_child(args.workload, args.seed, "setup")["setup_s"])
        library_refs = {}
        if any(kind == "library" for kind, _ in refs.values()):
            library_refs = _child(args.workload, args.seed, "reference")["refs"]
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    self_checks = oracle.self_checks()
    outcomes, attempted, failed = [], 0, 0
    for run in runs:
        _mark_first_calls(plan, run["calls"])
        for call, rec in zip(plan, run["calls"]):
            outcome = checks.check(rec, refs[call["id"]], library_refs.get(str(call["id"])))
            outcomes.append(outcome)
            attempted += 1
            failed += outcome.failed
            if outcome.failed:
                print(f"FAILED call {call}: {rec}", file=sys.stderr)
    rounding_misses = sum(o.rounding_miss for o in outcomes)
    worst_ratio = max((o.ratio for o in outcomes if o.ratio is not None), default=0.0)
    correct = failed == 0 and all(ok for _, ok in self_checks)

    plain = [r for r, t in zip(runs, traced) if not t]
    plain_times = [c["t"] for r in plain for c in r["calls"]]
    tail, tail_pct = _tail(plain_times)
    bars = [b for b in map(checks.bar_rel, plain[0]["calls"]) if b is not None]
    e2e = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in plain]),
        "first_call_s": median([sum(c["t"] for c in r["calls"] if c["first"]) for r in plain]),
        "call_p50_s": median([median([c["t"] for c in r["calls"]]) for r in plain]),
        "call_tail_s": tail,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "bar_rel_p50": median(bars),
    }
    units = dict(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  runs {n_runs} "
          f"({sum(traced)} traced), each a fresh process; {len(plan)} calls per run")
    for name, unit in END_TO_END:
        extra = ""
        if name == "call_tail_s":
            extra = f"  (p{tail_pct:.1f} of {len(plain_times)} calls pooled over runs)"
        if name == "setup_s":
            extra = f"  (median of {len(setups)} set-ups)"
        print(f"  {name:<14} {_fmt(e2e[name]):>12} {unit}{extra}")
    print(f"  {'fail_frac':<14} {_fmt(failed / attempted):>12} 1  "
          f"({failed} failed of {attempted} attempted)")
    print(f"checks: worst |value-ref|/error {worst_ratio:.3g}; "
          f"{rounding_misses} misses inside the rounding allowance "
          f"({oracle.ROUNDING_ALLOWANCE:.3g} |ref|)")
    print("oracle self-checks: " + ", ".join(
        f"{name} {'ok' if ok else 'FAILED'}" for name, ok in self_checks))
    print("env: " + " ".join(f"{k}={v}" for k, v in _environment().items()))

    if args.trace:
        metrics = _layer_table(args.workload, runs, traced, spans_dir)
        metrics["check.worst_ratio"] = (worst_ratio, "1")
        metrics["check.rounding_misses"] = (rounding_misses, "count")
    else:
        metrics = {name: (e2e[name], units[name]) for name in units}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_table(workload, runs, traced, spans_dir) -> dict:
    """Per-layer metrics (medians over the traced runs) and the split lines."""
    per_run, share = [], None
    for i, (run, is_traced) in enumerate(zip(runs, traced)):
        if not is_traced:
            continue
        dumped = json.loads((spans_dir / f"spans-{workload}-run{i}.json").read_text())
        table = spans.SpanTable(dumped["spans"], dumped["rss"])
        per_run.append(spans.layer_metrics(table))
        if share is None:
            first = sum(c["t"] for c in run["calls"] if c["first"])
            share = spans.split_shares(table, per_run[-1], run["calls"], run["wall_s"], first)
    walls = {t: median([r["wall_s"] for r, tt in zip(runs, traced) if tt == t])
             for t in (False, True)}
    metrics = {}
    print(f"per-layer (median over {len(per_run)} traced runs, "
          f"{median([m['trace.spans'] for m in per_run]):.0f} spans each):")
    for name, unit in spans.PER_LAYER:
        value = median([m[name] for m in per_run])
        metrics[name] = (value, unit)
        print(f"  {name:<28} {_fmt(value):>12} {unit}")
    overhead = walls[True] - walls[False]
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"  {'trace.overhead_s':<28} {_fmt(overhead):>12} s  "
          f"(traced wall {walls[True]:.4g} s, untraced {walls[False]:.4g} s)")
    print(f"split: zeta_direct self + its evaluate_many = "
          f"{share['direct_share_of_wall']:.1%} of wall_s")
    print(f"split: fourier_transform + theta_star_matrix in first calls = "
          f"{share['transform_and_star_share_of_first_calls']:.1%} of first_call_s")
    print(f"split: largest layer by self time = {share['largest_layer']} "
          f"({share['largest_layer_self_s']:.4g} s)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
