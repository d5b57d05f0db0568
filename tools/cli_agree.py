"""Check that two source trees give the same CLI outputs, or values that
agree within their bars.

    python3 tools/cli_agree.py PARENT_TREE

This script runs every command of `cli_digest.py` on every config in
configs/, once with the package sources of PARENT_TREE/src and once with the
sources next to this script.  For each run pair it prints, from the digest
rows of `cli_digest._run`,

    <config> <command> identical            or
    <config> <command> differs: <files>

and after all of them the number of byte-identical pairs.

A change that reorders a floating-point sum cannot keep the CLI outputs
byte-identical; it is judged by agreement within the stated error bars
instead.  For the `zeta`, `zeta-direct`, `zeta-estimated`, `theta`,
`asymp` and `volume` commands the script compares each row of zeta.csv,
keyed s=<s>, each row of theta.csv, keyed w=<w>, the θ expansion of
asymp_summary.json at the last magnitude given (0.05 by default): each term
(`expansion_terms`, keyed term=<k>; term k >= 1 is the ζ(φ,−k) correction)
and their sum (`expansion_at_largest_w`, keyed largest_w), and each row of
volume.csv, a real value keyed estimator=<name>.  For each it prints

    <config> <command> <key> ratio=<|Δvalue| / (err_parent + err_change)>

then the worst row.  For each such command whose outputs differ it also
prints the row whose bar moved most,

    <config> <command> largest bar change <err_change/err_parent - 1> at <key>

so a change that keeps values and moves bars shows by how much.  For
`verify` it prints, for each check of
verify_summary.json, keyed by its name,

    <config> verify <check> parent=<PASS|FAIL> change=<PASS|FAIL>

It exits 1 if any ratio is above 1, if the two runs do not produce the same
keys, or if a check that passes at the parent fails (or is missing) at the
change, and 0 otherwise; outputs that differ in bytes alone do not fail it.
The script takes no other options; it runs one child at a time.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

from cli_digest import COMMANDS, ROOT, _run

LABELS = ("zeta", "zeta-direct", "zeta-estimated", "theta", "asymp", "volume")


def _value(row: dict) -> tuple:
    return complex(float(row["value_re"]), float(row["value_im"])), float(row["error"])


def _rows(out: Path) -> list:
    """The bounded values of one run's outputs as (key, value, error)."""
    if (out / "asymp_summary.json").is_file():
        summary = json.loads((out / "asymp_summary.json").read_text())
        terms = [(f"term={k}", row) for k, row in enumerate(summary["expansion_terms"])]
        return [(key, *_value(row)) for key, row in
                terms + [("largest_w", summary["expansion_at_largest_w"])]]
    if (out / "volume.csv").is_file():
        with open(out / "volume.csv", newline="") as fh:
            return [(f"estimator={r['estimator']}", float(r["value"]), float(r["error"]))
                    for r in csv.DictReader(fh)]
    for name, var in (("zeta.csv", "s"), ("theta.csv", "w")):
        if (out / name).is_file():
            with open(out / name, newline="") as fh:
                return [(f"{var}={complex(float(r[var + '_re']), float(r[var + '_im']))}",
                         *_value(r)) for r in csv.DictReader(fh)]
    return []


def _checks(out: Path) -> dict:
    """{check name: passed} of one `verify` run's outputs."""
    summary = out / "verify_summary.json"
    if not summary.is_file():
        return {}
    return {row["name"]: row["passed"] for row in json.loads(summary.read_text())["checks"]}


def _outputs(config: Path, args: list, root: Path):
    """(digest rows, bounded values, verify checks) of one run."""
    with tempfile.TemporaryDirectory(prefix="azeta-agree-") as tmp:
        digest, _, _ = _run(config, args, Path(tmp), root)
        out = Path(tmp) / "out"
        return digest, _rows(out), _checks(out)


def _ratio(diff: float, bar: float) -> float:
    if diff == 0.0:
        return 0.0
    return diff / bar if bar > 0.0 else math.inf


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_agree.py PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "azeta").is_dir():
        print(f"{parent} holds no src/azeta", file=sys.stderr)
        return 2
    worst = (-1.0, "")
    failed = False
    identical = total = 0
    for config in sorted((ROOT / "configs").glob("*.json")):
        for label, args in COMMANDS:
            digest0, before, checks0 = _outputs(config, args, parent)
            digest1, after, checks1 = _outputs(config, args, ROOT)
            differ = sorted({name for name, _ in set(digest0) ^ set(digest1)})
            print(f"{config.stem} {label} "
                  + (f"differs: {' '.join(differ)}" if differ else "identical"), flush=True)
            identical += not differ
            total += 1
            for name, passed in checks0.items():
                kept = checks1.get(name, False)
                print(f"{config.stem} verify {name} parent={'PASS' if passed else 'FAIL'} "
                      f"change={'PASS' if kept else 'FAIL'}", flush=True)
                failed = failed or (passed and not kept)
            if label not in LABELS:
                continue
            if not before or [r[0] for r in before] != [r[0] for r in after]:
                print(f"{config.stem} {label}: the runs differ in their keys "
                      f"({len(before)} and {len(after)} rows)")
                failed = True
                continue
            moved = (-1.0, 0.0, "")
            for (key, v0, e0), (_, v1, e1) in zip(before, after):
                ratio = _ratio(abs(v1 - v0), e0 + e1)
                line = f"{config.stem} {label} {key} ratio={ratio:.3e}"
                print(line, flush=True)
                worst = max(worst, (ratio, line))
                failed = failed or ratio > 1.0
                change = _ratio(e1 - e0, e0)  # err_change/err_parent - 1
                moved = max(moved, (abs(change), change, key))
            if differ:
                print(f"{config.stem} {label} largest bar change {moved[1]:+.3e} "
                      f"at {moved[2]}", flush=True)
    print(f"byte-identical: {identical} of {total} commands")
    print(f"worst: {worst[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
