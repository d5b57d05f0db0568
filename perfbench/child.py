"""One run of a workload in a fresh process.

    python3 perfbench/child.py --workload W --seed N --mode run|setup|reference
                               [--run-id I] [--spans-out FILE]

The process caps its address space, imports azeta from the checkout's `src`,
builds every shape of the workload from the shipped configs (including the
growth certification) and prints `READY`.  Then, by mode:

  setup      stops there;
  run        makes the plan's calls, timing each, and prints one JSON line with
             the calls, the timed wall and the peak RSS; with --spans-out it
             records a span per public library call and writes them at exit;
  reference  computes the library-side references that have no closed form
             (a second kernel power, the continuation at the direct-sum points)
             and prints them as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ADDRESS_SPACE_CAP = 3 << 30   # bytes; an allocation past it is a failed call


def _cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _import_azeta():
    sys.path.insert(0, str(ROOT / "src"))
    import azeta

    where = Path(azeta.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"azeta imported from {where}, not from {ROOT / 'src'}")
    return azeta


def build_phi(az, cfg: dict):
    """A shape from a config dict, validated like the CLI validates configs.

    Only public constructors are used, so a refactor of the CLI's private
    helpers does not break the benchmark.
    """
    import numpy as np

    spec = cfg["phi"]
    variant = spec["variant"]
    if variant == "pnorm":
        phi = az.PNorm(int(spec["dim"]), float(spec["p"]))
    elif variant == "quadratic_form":
        phi = az.QuadraticForm(np.asarray(spec["matrix"], dtype=float))
    elif variant == "superellipse":
        phi = az.AnisotropicSuperellipse([float(m) for m in spec["powers"]],
                                         float(spec["root"]))
    else:
        raise ValueError(f"variant {variant!r} is not used by the benchmark")
    given = np.asarray(cfg["generator"], dtype=float)
    if given.shape != phi.generator.entries.shape or not np.allclose(
            given, phi.generator.entries, atol=1e-9):
        raise ValueError(f"config generator {given.tolist()} does not match the variant")
    if "scale" in cfg:
        phi = phi.scale(float(cfg["scale"]))
    phi.growth()
    return phi


def make_call(az, phis: dict, call: dict):
    phi = phis[call["phi"]]
    fn = call["fn"]
    if fn == "zeta_continued":
        return az.zeta_continued(phi, complex(*call["s"]), power=call.get("power"))
    if fn == "zeta_at_zero":
        return az.zeta_at_zero(phi)
    if fn == "zeta_direct":
        return az.zeta_direct(phi, complex(*call["s"]), box_budget=call["box_budget"])
    if fn == "lattice_count":
        return az.lattice_count(phi, float(call["r"]))
    if fn == "volume_exp_integral":
        return az.volume_exp_integral(phi)
    if fn == "volume_monte_carlo":
        return az.volume_monte_carlo(phi, call["samples"], seed=call["mc_seed"])
    if fn == "theta_phi":
        return az.theta_phi(phi, complex(*call["w"]))
    if fn == "remainder_check":
        return az.remainder_check(phi, call["ray_angle"], call["terms"], call["eps"],
                                  call["magnitudes"])
    raise ValueError(f"unknown call {fn!r}")


def summarize(result) -> dict:
    """The checkable part of a library result, as JSON-ready numbers."""
    if hasattr(result, "passed"):
        return {"passed": bool(result.passed), "slope": float(result.slope)}
    if hasattr(result, "value"):
        v = complex(result.value)
        return {"value": [v.real, v.imag], "error": float(result.error)}
    return {"value": int(result)}


def reference_call(call: dict, phis: dict):
    """The library call whose value must overlap `call`'s, or None.

    The superellipse continuation is checked for kernel independence (one
    smoothness step above the default power); a direct sum is checked
    against the continuation at the same point.
    """
    from azeta.zeta import default_power

    if call["fn"] == "zeta_continued" and call["phi"] == "superellipse":
        phi = phis[call["phi"]]
        s = complex(*call["s"])
        power = default_power(phi, max(0.0, -s.real)) + phi.smooth_step
        return dict(call, power=power)
    if call["fn"] == "zeta_direct":
        return {"fn": "zeta_continued", "phi": call["phi"], "s": call["s"]}
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "reference"), required=True)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    _cap_address_space()
    sys.path.insert(0, str(HERE))
    import inputs

    az = _import_azeta()
    tracer = None
    if args.spans_out:
        import spans

        tracer = spans.Tracer(args.run_id)
        tracer.install()
    configs = inputs.load_shape_configs(ROOT)
    phis = {key: build_phi(az, configs[key])
            for key in inputs.WORKLOAD_SHAPES[args.workload]}
    plan = inputs.make_plan(args.workload, args.seed, configs)
    print("READY", flush=True)

    if args.mode == "setup":
        print(json.dumps({}))
        return 0
    if args.mode == "reference":
        refs = {}
        for call in plan:
            ref = reference_call(call, phis)
            if ref is not None:
                refs[call["id"]] = summarize(make_call(az, phis, ref))
        print(json.dumps({"refs": refs}))
        return 0

    records = []
    clock = time.perf_counter
    start = clock()
    for call in plan:
        lo = len(tracer.spans) if tracer else 0
        t0 = clock()
        try:
            out = summarize(make_call(az, phis, call))
        except Exception:  # a failed call is counted, the run goes on
            out = {"exc": traceback.format_exc(limit=3)}
        out["t"] = clock() - t0
        out["spans"] = [lo, len(tracer.spans) if tracer else 0]
        records.append(out)
    wall = clock() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.dump(args.spans_out)
    print(json.dumps({"calls": records, "wall_s": wall, "peak_rss_mb": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
