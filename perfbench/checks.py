"""Reference checks of every returned value.

A call fails if it raised, or if its reference lies outside value +- error by
more than the rounding allowance `oracle.ROUNDING_ALLOWANCE * |ref|`.  Misses
inside the allowance are not failures but are counted, so the gap between
the library's bars and its summation rounding stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

import oracle


def closed_reference(call: dict):
    """(kind, reference) from the oracle, or ("library", None) when the
    reference is another library call made by the reference process."""
    fn, shape = call["fn"], call["phi"]
    if fn == "zeta_continued":
        ref = oracle.zeta_closed_form(shape, complex(*call["s"]))
        return ("library", None) if ref is None else ("bar", ref)
    if fn == "zeta_at_zero":
        return "bar", mpmath.mpf(-1)
    if fn == "zeta_direct":
        return "library", None
    if fn == "lattice_count":
        count = oracle.count_superellipse if shape == "superellipse" else oracle.count_disc
        return "exact", count(call["r"])
    if fn in ("volume_exp_integral", "volume_monte_carlo"):
        return "bar", oracle.superellipse_area()
    if fn == "theta_phi":
        w = complex(*call["w"])
        if shape == "absx":
            return "bar", oracle.theta_absx(w)
        if shape == "disc":
            return "bar", oracle.theta3_squared(w)
        return "bar", oracle.theta_superellipse(w.real)
    if fn == "remainder_check":
        return "verdict", oracle.remainder_verdict(
            call["ray_angle"], call["magnitudes"], call["terms"], call["eps"])
    raise ValueError(f"no reference for {fn!r}")


def references(plan) -> dict:
    return {call["id"]: closed_reference(call) for call in plan}


@dataclass(frozen=True)
class Outcome:
    failed: bool
    rounding_miss: bool = False
    ratio: float | None = None   # |value - ref| / error


def _value(rec) -> mpmath.mpc:
    return mpmath.mpc(*rec["value"])


def check(rec: dict, ref, library_ref: dict | None) -> Outcome:
    if "exc" in rec:
        return Outcome(failed=True)
    kind, target = ref
    if kind == "exact":
        return Outcome(failed=rec["value"] != target)
    if kind == "verdict":
        return Outcome(failed=not (rec["passed"] and target))
    bar = rec["error"]
    if kind == "library":
        target = _value(library_ref)
        bar += library_ref["error"]
    gap = float(abs(_value(rec) - target))
    allowance = oracle.ROUNDING_ALLOWANCE * float(abs(target))
    return Outcome(
        failed=gap > bar + allowance,
        rounding_miss=bar < gap <= bar + allowance,
        ratio=gap / bar if bar > 0 else (0.0 if gap == 0 else float("inf")),
    )


def bar_rel(rec: dict):
    """error / |value| for a call that returned a value with an error bar."""
    if "error" not in rec:
        return None
    size = abs(complex(*rec["value"]))
    return rec["error"] / size if size > 0 else None
