"""The import path: no scipy, no thread pool, and numpy's lazy submodules
loaded up front; and the public surface the README names.

A fresh interpreter imports azeta, builds the three shipped configs and makes
one call of each kind the CLI and the benchmark make.  scipy is only needed by
the 2-D `Profile` and by defective generators, which none of these reach;
`concurrent.futures` by nothing in the package.
"""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import azeta

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

_SCRIPT = """
import json, sys
import azeta
from azeta.cli import _build_phi, _load_config

early = {name: name in sys.modules for name in ("numpy.fft", "numpy.polynomial")}
for path in sys.argv[1:]:
    phi = _build_phi(_load_config(path))
    azeta.zeta_continued(phi, 0.25 + 1.0j)
    azeta.zeta_at_zero(phi)
    azeta.zeta_direct(phi, phi.alpha + 1.5, box_budget=1e6)
    azeta.theta_phi(phi, 0.5)
    azeta.volume_exp_integral(phi)
    azeta.lattice_count(phi, 100.0)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
futures = "concurrent.futures" in sys.modules
print(json.dumps({"early": early, "scipy": scipy, "futures": futures}))
"""


def test_no_scipy_on_the_cli_and_benchmark_paths():
    src = str(Path(azeta.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    configs = [str(p) for p in sorted(CONFIGS.glob("*.json"))]
    assert len(configs) == 3
    out = subprocess.run([sys.executable, "-c", _SCRIPT, *configs], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["scipy"] == []
    assert report["futures"] is False
    assert report["early"] == {"numpy.fft": True, "numpy.polynomial": True}


def test_readme_public_surface_matches_the_exports():
    # every name the README's public-surface paragraph lists is exported, and
    # every exported function, and every exported class that is neither an
    # exception nor a dataclass record, is listed there
    text = (ROOT / "README.md").read_text()
    start = text.index("The public surface is re-exported from `azeta`:")
    paragraph = text[start:text.index("\n\n", start)].split(":", 1)[1]
    listed = set(re.findall(r"`(\w+)`", paragraph))
    exported = set(azeta.__all__)
    assert sorted(listed - exported) == []

    def record_or_error(obj):
        return inspect.isclass(obj) and (issubclass(obj, Exception)
                                         or dataclasses.is_dataclass(obj))

    surface = {name for name in exported if not record_or_error(getattr(azeta, name))}
    assert sorted(surface - listed) == []
