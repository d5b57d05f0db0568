"""Seeded call plans for the benchmark workloads.

A plan is the ordered list of library calls one run makes.  It is a pure
function of (workload, seed): the same seed gives the same plan, so every run
of one invocation repeats the same calls on cold caches.  Only the standard
library is used here, so the plan can be built without importing azeta.

Where an input's cost or error bar depends steeply on its value, the seed
moves it inside a narrow stratum instead of across the whole range, so that a
metric moves with the code and not with the seed:

  * plane_grid points sit one per Re-stratum and one per Im-stratum, paired
    by a fixed permutation, each within +-5% of its stratum's centre, so
    every seed hits the same kernel powers and the same neighbourhoods of
    the zeros of zeta and beta;
  * the |x| theta ladder keeps its magnitudes within +-5% of fixed rungs and
    its phases within +-0.05 of fixed angles (the sign is free); the disc
    and superellipse rungs are fixed, because where a theta sum stops, and
    so its bar, jumps with w;
  * the near-pole sigmas sit within 0.004 of the steps the `count`
    subcommand uses, because the direct-sum bar shrinks like T^(1/2 - sigma).
"""

from __future__ import annotations

import cmath
import copy
import json
import random
from pathlib import Path

WORKLOADS = ("plane_grid", "pole_table", "small_w")

# shape key -> how to build it: a shipped config, optionally with overrides
SHAPES = {
    "absx": {"config": "riemann1d.json"},
    "square": {"inline": {"phi": {"variant": "quadratic_form", "matrix": [[1.0]]},
                          "generator": [[0.5]]}},
    "disc": {"config": "disc2d.json"},
    "disc17": {"config": "disc2d.json", "scale": 1.7},
    "superellipse": {"config": "superellipse2d.json"},
}

WORKLOAD_SHAPES = {
    "plane_grid": ("absx", "square", "disc", "disc17", "superellipse"),
    "pole_table": ("superellipse",),
    "small_w": ("absx", "disc", "superellipse"),
}

PLANE_POINTS = 30            # zeta_continued points per shape
PLANE_IM = 10.0              # |Im s| bound of the plane grid
POLE_STEPS = (0.5, 0.2, 0.1, 0.05)   # sigma - alpha, as `azeta count` uses
POLE_EXPONENTS = (2.0, 2.75, 3.5, 4.25, 5.0, 6.0)   # lattice_count radii 10^k .. 1.12*10^k
# Enumeration budget of the direct sums.  The library default for anisotropic
# shapes (5.5e7 points, 20 s and 2.3 GB for the first call) does not fit a run;
# this keeps the same cold-enumeration / warm-window-sum structure at 1/5.5 of
# the size.
POLE_BOX_BUDGET = 1.0e7
ABSX_LADDER = ((0.04, 0.55), (0.03, 0.4), (0.02, 0.25), (0.015, 0.1))  # (|w|, |arg w|)
PLANE_W_LADDER = (0.05, 0.02, 0.01, 0.005, 0.002)   # disc and superellipse theta
REMAINDER_MAGNITUDES = (0.4, 0.2, 0.1, 0.05)          # `azeta asymp` defaults
REMAINDER_TERMS = 3
REMAINDER_EPS = 0.1
MC_SAMPLES = 4_000_000
DISC_COUNT_RADIUS = 1_000_000


def load_shape_configs(root: Path) -> dict:
    """Config dict per shape key, read from the shipped configs under root."""
    out = {}
    for key, spec in SHAPES.items():
        if "inline" in spec:
            cfg = copy.deepcopy(spec["inline"])
        else:
            cfg = json.loads((root / "configs" / spec["config"]).read_text())
        if "scale" in spec:
            cfg["scale"] = spec["scale"]
        out[key] = cfg
    return out


def alpha_of(cfg: dict) -> float:
    gen = cfg["generator"]
    return float(sum(gen[i][i] for i in range(len(gen))))


def _jitter(rng: random.Random, width: float) -> float:
    return rng.uniform(-width, width)


def _phase(rng: random.Random, nominal: float) -> complex:
    """e^{i theta} with |theta| within 0.05 of nominal (nominal in [0.05, 0.55])."""
    angle = nominal + _jitter(rng, 0.05)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return cmath.exp(1j * sign * angle)


def _plane_grid(rng, alphas):
    calls = []
    n = PLANE_POINTS
    for key in WORKLOAD_SHAPES["plane_grid"]:
        lo, hi = -3.0, alphas[key] + 3.0
        for i in range(n):
            re = lo + (i + 0.5 + _jitter(rng, 0.05)) * (hi - lo) / n
            im_stratum = (11 * i + 5) % n
            im = -PLANE_IM + (im_stratum + 0.5 + _jitter(rng, 0.05)) * 2.0 * PLANE_IM / n
            calls.append({"fn": "zeta_continued", "phi": key, "s": [re, im]})
    for key in WORKLOAD_SHAPES["plane_grid"]:
        calls.append({"fn": "zeta_at_zero", "phi": key})
    return calls


def _pole_table(rng, alphas):
    a = alphas["superellipse"]
    calls = []
    for k in POLE_EXPONENTS:
        r = int(10**k * (1.0 + 0.12 * rng.random()))
        calls.append({"fn": "lattice_count", "phi": "superellipse", "r": r})
    calls.append({"fn": "volume_exp_integral", "phi": "superellipse"})
    for step in POLE_STEPS:
        sigma = a + step - 0.004 * rng.random()
        calls.append({"fn": "zeta_direct", "phi": "superellipse",
                      "s": [sigma, 0.0], "box_budget": POLE_BOX_BUDGET})
    return calls


def _small_w(rng, alphas):
    calls = []
    for mag, angle in ABSX_LADDER:
        w = mag * (1.0 + _jitter(rng, 0.05)) * _phase(rng, angle)
        calls.append({"fn": "theta_phi", "phi": "absx", "w": [w.real, w.imag]})
    for key in ("disc", "superellipse"):
        for w in PLANE_W_LADDER:
            calls.append({"fn": "theta_phi", "phi": key, "w": [w, 0.0]})
    ray = cmath.phase(_phase(rng, 0.3))
    calls.append({"fn": "remainder_check", "phi": "absx", "ray_angle": ray,
                  "terms": REMAINDER_TERMS, "eps": REMAINDER_EPS,
                  "magnitudes": list(REMAINDER_MAGNITUDES)})
    # the Monte Carlo seed is the shipped config's seed, as `azeta volume` uses
    calls.append({"fn": "volume_monte_carlo", "phi": "superellipse",
                  "samples": MC_SAMPLES, "mc_seed": 0})
    calls.append({"fn": "lattice_count", "phi": "disc", "r": DISC_COUNT_RADIUS})
    return calls


_BUILDERS = {"plane_grid": _plane_grid, "pole_table": _pole_table, "small_w": _small_w}


def make_plan(workload: str, seed: int, configs: dict) -> list:
    """The ordered calls of one run; each call gets its index as `id`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    alphas = {key: alpha_of(cfg) for key, cfg in configs.items()}
    rng = random.Random(f"{workload}:{int(seed)}")
    calls = _BUILDERS[workload](rng, alphas)
    for i, call in enumerate(calls):
        call["id"] = i
    return calls

