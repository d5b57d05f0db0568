"""Config-driven command line front end.

Every subcommand takes `--config file.json` describing one homogeneous
function (variant, parameters, generator entries) plus a seed and an
output directory; results land as CSV tables and a JSON summary in
the output directory, and the summary is echoed to stdout.  Outputs are
deterministic for a fixed config: floats are printed with %.17g, the only
randomness sits behind the config seed, and nothing emits timestamps.

Exit codes: 0 success, 1 a verify check failed, 2 config or request
validation, 3 a resource budget was exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .asymp import remainder_check, theta_expansion
from .errors import BudgetExceededError, DomainError
from .homog import (
    AnisotropicSuperellipse,
    HomogeneousPolynomial,
    PNorm,
    Profile,
    QuadraticForm,
)
from .matflow import GeneratorMatrix
from .propsuite import verify_suite
from .theta import theta_phi
from .volume import (
    counting_limit_scan,
    lattice_count,
    volume_exp_integral,
    volume_monte_carlo,
)
from .zeta import zeta_continued, zeta_direct

__all__ = ["main"]


class ConfigError(Exception):
    """Config file problems, with one line per offending field."""

    def __init__(self, problems):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise ConfigError([f"cannot parse complex number {text!r}"]) from exc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError([f"config file not found: {path}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config is not valid JSON: line {exc.lineno} column {exc.colno}: "
             f"{exc.msg}"]
        ) from exc


def _build_phi(cfg: dict):
    problems = []
    spec = cfg.get("phi")
    if not isinstance(spec, dict):
        problems.append('missing or malformed required field "phi" (object)')
    if "generator" not in cfg:
        problems.append('missing required field "generator" (matrix entries)')
    if problems:
        raise ConfigError(problems)

    variant = spec.get("variant")
    try:
        if variant == "pnorm":
            phi = PNorm(int(spec["dim"]), float(spec["p"]))
        elif variant == "quadratic_form":
            phi = QuadraticForm(np.asarray(spec["matrix"], dtype=float))
        elif variant == "superellipse":
            phi = AnisotropicSuperellipse(
                [float(m) for m in spec["powers"]], float(spec["root"])
            )
        elif variant == "polynomial":
            terms = {
                tuple(int(v) for v in key.split(",")): float(coeff)
                for key, coeff in spec["terms"].items()
            }
            phi = HomogeneousPolynomial(int(spec["dim"]), terms)
        elif variant == "profile":
            gen = GeneratorMatrix(np.asarray(cfg["generator"], dtype=float))
            phi = Profile(gen, np.asarray(spec["directions"], dtype=float),
                          np.asarray(spec["values"], dtype=float))
        elif variant is None:
            raise ConfigError(['phi is missing required field "variant"'])
        else:
            raise ConfigError([f'unknown phi variant {variant!r}'])
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(
            [f'phi variant {variant!r} is missing required field {exc.args[0]!r}']
        ) from exc
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError([f"phi parameters rejected: {exc}"]) from exc

    given = np.asarray(cfg["generator"], dtype=float)
    have = phi.generator.entries
    if given.shape != have.shape or not np.allclose(given, have, atol=1e-9):
        raise ConfigError(
            [f'field "generator" {given.tolist()} does not match the generator '
             f"implied by the phi variant {have.tolist()}"]
        )
    if "scale" in cfg:
        phi = phi.scale(float(cfg["scale"]))
    return phi


def _seed(cfg: dict) -> int:
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ConfigError([f'field "seed" must be a 64-bit nonnegative integer, got {seed!r}'])
    return seed


def _out_dir(cfg: dict) -> str:
    out = cfg.get("output_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(cfg: dict, name: str, header, rows):
    with open(os.path.join(_out_dir(cfg), name), "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                cell if isinstance(cell, str) else
                str(cell) if isinstance(cell, int) else _fmt(cell)
                for cell in row
            ) + "\n")


def _emit(cfg: dict, phi, command: str, fields: dict):
    """Write <command>_summary.json, headed by the command and φ, and echo it."""
    summary = {"command": command, "phi": phi.label, "alpha": phi.alpha} | fields
    path = os.path.join(_out_dir(cfg), f"{command}_summary.json")
    text = json.dumps(summary, indent=2, sort_keys=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    print(text)


def _value_entry(value, error, kind) -> dict:
    value = complex(value)
    return {
        "value_re": value.real,
        "value_im": value.imag,
        "error": float(error),
        "rigor": kind,
    }


# -- subcommands --------------------------------------------------------------


def _parse_grid(text: str) -> list:
    """A grid spec "re0:re1:nre,im0:im1:nim" into a row-major point list."""
    try:
        re_part, im_part = text.split(",")
        r0, r1, nr = re_part.split(":")
        i0, i1, ni = im_part.split(":")
        res = np.linspace(float(r0), float(r1), int(nr))
        ims = np.linspace(float(i0), float(i1), int(ni))
    except ValueError as exc:
        raise ConfigError(
            [f"cannot parse grid {text!r}, expected re0:re1:nre,im0:im1:nim"]
        ) from exc
    return [complex(re, im) for re in res for im in ims]


def _point_table(cfg: dict, phi, command: str, var: str, points, compute,
                 **extra) -> int:
    """Write <command>.csv and <command>_summary.json for compute(p) at each
    complex point p, the point's columns named <var>_re and <var>_im; the
    `extra` fields join the summary."""
    rows, results = [], []
    for p in points:
        got = compute(p)
        rows.append((p.real, p.imag, got.value.real, got.value.imag,
                     got.error, got.kind))
        results.append({f"{var}_re": p.real, f"{var}_im": p.imag}
                       | _value_entry(got.value, got.error, got.kind))
    _write_csv(cfg, f"{command}.csv",
               (f"{var}_re", f"{var}_im", "value_re", "value_im", "error", "rigor"), rows)
    _emit(cfg, phi, command, {"results": results} | extra)
    return 0


def _cmd_zeta(cfg: dict, args) -> int:
    phi = _build_phi(cfg)
    points = [_parse_complex(text) for text in args.s or []]
    if args.grid:
        points.extend(_parse_grid(args.grid))
    if not points:
        raise ConfigError(["zeta needs at least one --s point or a --grid"])
    power = cfg.get("kernel", {}).get("power")

    def compute(s):
        if args.method == "direct":
            return zeta_direct(phi, s)
        if args.method == "continued":
            return zeta_continued(phi, s, power=power)
        try:
            return zeta_continued(phi, s, power=power)
        except DomainError:
            return zeta_direct(phi, s)

    return _point_table(cfg, phi, "zeta", "s", points, compute, method=args.method)


def _cmd_theta(cfg: dict, args) -> int:
    phi = _build_phi(cfg)
    if not args.w:
        raise ConfigError(["theta needs at least one --w point"])
    return _point_table(cfg, phi, "theta", "w", [_parse_complex(t) for t in args.w],
                        lambda w: theta_phi(phi, w))


def _cmd_volume(cfg: dict, args) -> int:
    phi = _build_phi(cfg)
    seed = _seed(cfg)
    quad = volume_exp_integral(phi)
    mc = volume_monte_carlo(phi, args.samples, seed=seed)
    count = lattice_count(phi, args.count_radius)
    ratio = count / args.count_radius ** phi.alpha
    deviation = abs(ratio - quad.value)
    gap = abs(quad.value - mc.value)
    agree = gap <= quad.error + mc.error
    _write_csv(cfg, "volume.csv", ("estimator", "value", "error", "rigor"),
               [("exp_integral", quad.value, quad.error, quad.kind),
                ("monte_carlo", mc.value, mc.error, mc.kind),
                ("counting_ratio", ratio, deviation, "estimated")])
    _emit(cfg, phi, "volume", {
        "exp_integral": _value_entry(quad.value, quad.error, quad.kind),
        "monte_carlo": _value_entry(mc.value, mc.error, mc.kind),
        "counting": {
            "r": args.count_radius,
            "count": count,
            "ratio": ratio,
            "deviation_from_exp_integral": deviation,
        },
        "samples": args.samples,
        "seed": seed,
        "agreement": bool(agree),
        "gap": gap,
    })
    return 0


def _cmd_count(cfg: dict, args) -> int:
    phi = _build_phi(cfg)
    radii = [float(r) for r in args.radii.split(",")] if args.radii else None
    scan = counting_limit_scan(phi, r_schedule=radii)
    # the CSV columns are also the keys of the summary's row objects
    counting = ("r", "count", "ratio", "target", "deviation")
    pole = ("sigma", "scaled_zeta", "alpha_volume", "deviation")
    _write_csv(cfg, "counting.csv", counting, scan.rows)
    _write_csv(cfg, "pole_limit.csv", pole, scan.pole_rows)
    _emit(cfg, phi, "count", {
        "volume": _value_entry(scan.volume.value, scan.volume.error,
                               scan.volume.kind),
        "rows": [dict(zip(counting, row)) for row in scan.rows],
        "pole_rows": [dict(zip(pole, row)) for row in scan.pole_rows],
    })
    return 0


def _cmd_asymp(cfg: dict, args) -> int:
    phi = _build_phi(cfg)
    mags = [float(m) for m in args.magnitudes.split(",")]
    report = remainder_check(phi, args.ray_angle, args.terms, args.eps, mags)
    # a slope fitted to remainders inside their bars measures noise, not the
    # decay: it is left empty in the CSV and null in the summary
    slope = None if report.within_bars else report.slope
    _write_csv(cfg, "asymp.csv", ("abs_w", "remainder", "slope", "threshold"),
               [(m, e, "" if slope is None else slope, report.threshold)
                for m, e in report.rows])
    value, terms, bars = theta_expansion(
        phi, mags[-1] * complex(math.cos(args.ray_angle), math.sin(args.ray_angle)),
        args.terms)
    _emit(cfg, phi, "asymp", {
        "terms": args.terms,
        "eps": args.eps,
        "ray_angle": args.ray_angle,
        "rows": [{"abs_w": m, "remainder": e, "bar": bar}
                 for (m, e), bar in zip(report.rows, report.bars)],
        "slope": slope,
        "threshold": report.threshold,
        "passed": bool(report.passed),
        "within_bars": bool(report.within_bars),
        "expansion_at_largest_w": _value_entry(value, sum(bars), "estimated"),
        "expansion_terms": [_value_entry(t, bar, "estimated")
                            for t, bar in zip(terms, bars)],
    })
    return 0


def _cmd_verify(cfg: dict, args) -> int:
    phi = _build_phi(cfg)
    rows = verify_suite(phi, seed=_seed(cfg) or 11)
    for row in rows:
        print(f"[{'PASS' if row.passed else 'FAIL'}] {row.name}: {row.detail}")
    _emit(cfg, phi, "verify", {
        "checks": [dataclasses.asdict(r) for r in rows],
        "all_passed": bool(all(r.passed for r in rows)),
    })
    return 0 if all(r.passed for r in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azeta",
        description="zeta, theta, volume and counting computations for "
        "A-homogeneous functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, parents=[config], help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("zeta", _cmd_zeta, "evaluate the zeta function at points")
    p.add_argument("--s", action="append",
                   help="evaluation point, e.g. 2+0i (repeatable)")
    p.add_argument("--grid", help="grid spec re0:re1:nre,im0:im1:nim")
    p.add_argument("--method", choices=("auto", "direct", "continued"),
                   default="auto")

    p = command("theta", _cmd_theta, "theta sums along the imaginary ray")
    p.add_argument("--w", action="append",
                   help="ray parameter with Re w > 0 (repeatable)")

    p = command("volume", _cmd_volume, "unit ball volume, three estimators")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--count-radius", type=float, default=1e4,
                   help="radius for the lattice-counting estimator")

    p = command("count", _cmd_count, "lattice counting convergence tables")
    p.add_argument("--radii", help="comma-separated radii (default decades 1e2..1e6)")

    p = command("asymp", _cmd_asymp, "theta expansion and remainder decay")
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--ray-angle", type=float, default=0.0)
    p.add_argument("--magnitudes", default="0.4,0.2,0.1,0.05")

    command("verify", _cmd_verify, "run the invariant suite for the config")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.handler(cfg, args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"budget exceeded: out of memory ({exc})", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
