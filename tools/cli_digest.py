"""Digest every azeta subcommand on the shipped configs, for byte-identity checks.

For each file in configs/, every subcommand below runs in a fresh Python
process against the package sources next to this script (src/).  Each run
gets its own temporary directory, and the config's output_dir points into it.
The script prints one line per output file,

    <config> <command> <file> <sha256>

where <file> is a file the command wrote, or <stdout>, <stderr> or <exit>
for the captured streams and the exit code.  After a line "# peak RSS and
wall time", it prints the child's peak resident set size per command, in MB,
and its wall time from start to exit, in seconds.

Two source trees produce byte-identical CLI outputs exactly when the digest
sections of their runs agree, so

    python3 tools/cli_digest.py > before.txt    # on the parent
    python3 tools/cli_digest.py > after.txt     # on the change
    diff <(sed '/^# peak RSS/q' before.txt) <(sed '/^# peak RSS/q' after.txt)

is the whole gate.  The script takes no options.  It runs one child at a
time.  On the shipped configs every command peaks under 55 MB; the largest
is superellipse2d `verify`, about 53 MB.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ("zeta", ["zeta", "--s", "0.25+1i", "--s=-1.5+0i", "--s", "3.1+0.4i",
              "--s", "0+0i"]),
    ("zeta-direct", ["zeta", "--method", "direct", "--s", "4+0.5i",
                     "--s", "2.9+0i"]),
    # between α and βn + 0.25 on every config: the estimated direct route
    ("zeta-estimated", ["zeta", "--method", "direct", "--s", "1.2+0.5i"]),
    ("theta", ["theta", "--w", "0.05", "--w", "0.5+0.2i", "--w", "2"]),
    ("volume", ["volume"]),
    ("count", ["count"]),
    ("asymp", ["asymp"]),
    ("verify", ["verify"]),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(config: Path, args: list, work: Path, root: Path = ROOT):
    """Run one subcommand in `work` with the sources of `root`/src.

    The outputs stay in `work`/out.  Returns (digest rows, peak RSS in MB,
    wall time in s).
    """
    cfg = json.loads(config.read_text())
    out_dir = work / "out"
    cfg["output_dir"] = str(out_dir)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "azeta.cli", args[0], "--config",
            str(cfg_path), *args[1:]]
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
        # wait4 reaps the child with its own rusage, so the peak RSS is this
        # command's alone; recording the exit code keeps Popen from waiting
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    rows = []
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                rows.append((str(path.relative_to(out_dir)), _sha256(path)))
    rows.append(("<stdout>", _sha256(work / "stdout")))
    rows.append(("<stderr>", _sha256(work / "stderr")))
    rows.append(("<exit>", str(proc.returncode)))
    return rows, usage.ru_maxrss / 1024.0, wall


def main() -> int:
    costs = []
    for config in sorted((ROOT / "configs").glob("*.json")):
        for label, args in COMMANDS:
            with tempfile.TemporaryDirectory(prefix="azeta-digest-") as tmp:
                rows, peak, wall = _run(config, args, Path(tmp))
            for name, digest in rows:
                print(f"{config.stem} {label} {name} {digest}", flush=True)
            costs.append((config.stem, label, peak, wall))
    print("# peak RSS and wall time")
    for stem, label, peak, wall in costs:
        print(f"{stem} {label} {peak:.1f} MB {wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
