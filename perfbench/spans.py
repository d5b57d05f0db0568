"""Spans around the public functions of each azeta module, and the layer table.

`Tracer.install()` replaces every public function and every public method of
the public (non-record) classes of the layer modules with a wrapper that
records one span per call: name, start, end, parent span and run id, plus a
work count where the call carries one.  Spans stay in memory until `dump`.
Only names in each module's `__all__` are wrapped, so refactors of private
helpers do not break the trace.  `cli` and `propsuite` are not layers: the
first parses configs, the second only composes the other modules.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import resource
import sys
import time

LAYERS = ("matflow", "homog", "kernel", "quadrature", "special", "theta",
          "zeta", "volume", "asymp")

# span fields
NAME, START, END, PARENT, RUN, WORK = range(6)


def rss_mb() -> float:
    """Current resident set size in MB (peak if the current one is unreadable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * resource.getpagesize() / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _leading_rows(args, index):
    arr = args[index] if len(args) > index else None
    shape = getattr(arr, "shape", None)
    return int(shape[0]) if shape else None


def _transform_samples(result):
    values = getattr(result, "values", None)
    if values is not None:
        return int(values.size)
    return sum(int(f.values.size) for f in getattr(result, "factors", ()))


# work counts: span name suffix -> fn(args, kwargs, result)
_WORK = {
    ".evaluate_many": lambda a, k, r: _leading_rows(a, 1),
    ".count_strict": lambda a, k, r: _leading_rows(a, 1),
    "kernel.fourier_transform": lambda a, k, r: _transform_samples(r),
    "quadrature.box_integral": lambda a, k, r: int(r[2]),
    "volume.volume_monte_carlo": lambda a, k, r: int(a[1]),
}


def _work_fn(name):
    for suffix, fn in _WORK.items():
        if name.endswith(suffix):
            return fn
    return None


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []
        self.rss = {}          # span index -> (rss before, peak after), zeta_direct only
        self._stack = []
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        work = _work_fn(name)
        watch_rss = name == "zeta.zeta_direct"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            spans.append(span)
            stack.append(index)
            before = rss_mb() if watch_rss else None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            if watch_rss:
                self.rss[index] = (before, peak_rss_mb())
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name, original) for every public callable."""
        for layer in LAYERS:
            module = importlib.import_module(f"azeta.{layer}")
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if dataclasses.is_dataclass(obj) or issubclass(obj, Exception):
                        continue
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member) and (
                            attr == "__init__" or not attr.startswith("_")
                        ):
                            yield obj, attr, f"{layer}.{public}.{attr}", member
                elif callable(obj):
                    yield module, public, f"{layer}.{public}", obj

    def install(self):
        """Wrap every target, also where another azeta module imported it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "azeta" or n.startswith("azeta."))]
        for owner, attr, name, original in self._targets():
            wrapped = self._wrap(name, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "rss": {str(k): v for k, v in self.rss.items()}}, fh)


# ---------------------------------------------------------------------------
# layer metrics from spans
# ---------------------------------------------------------------------------

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("matflow.generator_s", "s"),
        ("homog.growth_s", "s"),
        ("homog.eval_points", "count"),
        ("homog.eval_s", "s"),
        ("zeta.direct_points", "count"),
        ("zeta.direct_rss_delta_mb", "MB"),
        ("zeta.direct_first_self_s", "s"),
        ("zeta.direct_warm_self_s", "s"),
        ("kernel.transform_calls", "count"),
        ("kernel.transform_s", "s"),
        ("kernel.transform_samples", "count"),
        ("theta.star_calls", "count"),
        ("theta.star_s", "s"),
        ("zeta.continued_self_s", "s"),
        ("zeta.continued_hits", "count"),
        ("zeta.continued_misses", "count"),
        ("zeta.at_zero_s", "s"),
        ("kernel.space_integral_s", "s"),
        ("quadrature.box_integral_s", "s"),
        ("quadrature.box_points", "count"),
        ("theta.phi_s", "s"),
        ("theta.phi_points", "count"),
        ("volume.count_s", "s"),
        ("volume.count_points", "count"),
        ("volume.mc_s", "s"),
        ("volume.mc_samples", "count"),
        ("asymp.remainder_s", "s"),
    ]
)


def _is_eval(name):
    return name.startswith("homog.") and name.endswith(".evaluate_many")


def _is_count(name):
    return name.startswith("homog.") and name.endswith(".count_strict")


class SpanTable:
    """Derived views of one run's spans: durations, self times, ancestry."""

    def __init__(self, spans, rss=None):
        self.spans = spans
        self.rss = {int(k): v for k, v in (rss or {}).items()}
        n = len(spans)
        self.duration = [s[END] - s[START] for s in spans]
        child_time = [0.0] * n
        self.children = [[] for _ in range(n)]
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child_time[p] += self.duration[i]
                self.children[p].append(i)
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def has_ancestor(self, i, pred) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if pred(self.spans[p][NAME]):
                return True
            p = self.spans[p][PARENT]
        return False

    def outermost(self, pred):
        """Indices of spans matching pred that have no matching ancestor."""
        return [i for i, s in enumerate(self.spans)
                if pred(s[NAME]) and not self.has_ancestor(i, pred)]

    def inclusive(self, pred) -> float:
        return sum(self.duration[i] for i in self.outermost(pred))

    def work_under(self, work_pred, under_pred) -> int:
        """Work counted by outermost work_pred spans inside an under_pred span."""
        return sum(self.spans[i][WORK] or 0 for i in self.outermost(work_pred)
                   if self.has_ancestor(i, under_pred))

    def subtree_has(self, i, pred) -> bool:
        todo = list(self.children[i])
        while todo:
            j = todo.pop()
            if pred(self.spans[j][NAME]):
                return True
            todo.extend(self.children[j])
        return False


def layer_metrics(t: SpanTable) -> dict:
    """Every PER_LAYER metric of one run, and its span count (`trace.spans`)."""
    spans = t.spans
    named = lambda full: (lambda name: name == full)  # noqa: E731
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            st for st, s in zip(t.self_time, spans) if s[NAME].split(".")[0] == layer)
    out["matflow.generator_s"] = t.inclusive(named("matflow.GeneratorMatrix.__init__"))
    out["homog.growth_s"] = t.inclusive(lambda n: n.startswith("homog.") and n.endswith(".growth"))
    evals = t.outermost(_is_eval)
    out["homog.eval_points"] = sum(spans[i][WORK] or 0 for i in evals)
    out["homog.eval_s"] = sum(t.duration[i] for i in evals)

    direct = [i for i, s in enumerate(spans) if s[NAME] == "zeta.zeta_direct"]
    out["zeta.direct_points"] = t.work_under(_is_eval, named("zeta.zeta_direct"))
    if direct:
        before, peak_after = t.rss.get(direct[0], (0.0, 0.0))
        out["zeta.direct_rss_delta_mb"] = peak_after - before
        out["zeta.direct_first_self_s"] = t.self_time[direct[0]]
        out["zeta.direct_warm_self_s"] = sum(t.self_time[i] for i in direct[1:])
    else:
        out["zeta.direct_rss_delta_mb"] = 0.0
        out["zeta.direct_first_self_s"] = 0.0
        out["zeta.direct_warm_self_s"] = 0.0

    transform = named("kernel.fourier_transform")
    transforms = t.outermost(transform)
    out["kernel.transform_calls"] = len(transforms)
    out["kernel.transform_s"] = sum(t.duration[i] for i in transforms)
    out["kernel.transform_samples"] = sum(spans[i][WORK] or 0 for i in transforms)
    star = t.outermost(named("theta.theta_star_matrix"))
    out["theta.star_calls"] = len(star)
    out["theta.star_s"] = sum(t.duration[i] for i in star)

    continued = [i for i, s in enumerate(spans) if s[NAME] == "zeta.zeta_continued"]
    out["zeta.continued_self_s"] = sum(t.self_time[i] for i in continued)
    misses = sum(1 for i in continued if t.subtree_has(i, transform))
    out["zeta.continued_hits"] = len(continued) - misses
    out["zeta.continued_misses"] = misses
    out["zeta.at_zero_s"] = t.inclusive(named("zeta.zeta_at_zero"))

    out["kernel.space_integral_s"] = t.inclusive(named("kernel.Kernel.integral_over_space"))
    boxes = t.outermost(named("quadrature.box_integral"))
    out["quadrature.box_integral_s"] = sum(t.duration[i] for i in boxes)
    out["quadrature.box_points"] = sum(spans[i][WORK] or 0 for i in boxes)

    theta = named("theta.theta_phi")
    out["theta.phi_s"] = t.inclusive(theta)
    out["theta.phi_points"] = t.work_under(_is_eval, theta)
    count = named("volume.lattice_count")
    out["volume.count_s"] = t.inclusive(count)
    out["volume.count_points"] = t.work_under(_is_count, count)
    mc = t.outermost(named("volume.volume_monte_carlo"))
    out["volume.mc_s"] = sum(t.duration[i] for i in mc)
    out["volume.mc_samples"] = sum(spans[i][WORK] or 0 for i in mc)
    out["asymp.remainder_s"] = t.inclusive(named("asymp.remainder_check"))
    out["trace.spans"] = len(spans)
    return out


def split_shares(t: SpanTable, metrics: dict, calls, wall_s: float,
                 first_call_s: float) -> dict:
    """The three layer-split figures the benchmark is built to separate.

    `metrics` is `layer_metrics(t)`; `calls` are the run's call records, each
    with the [lo, hi) range of span indices it produced and whether it was a
    first call.
    """
    spans = t.spans
    is_direct = lambda n: n == "zeta.zeta_direct"  # noqa: E731
    direct_time = sum(st for st, s in zip(t.self_time, spans) if is_direct(s[NAME]))
    direct_time += sum(t.duration[i] for i in t.outermost(_is_eval)
                       if t.has_ancestor(i, is_direct))
    is_cold = lambda n: n in ("kernel.fourier_transform", "theta.theta_star_matrix")  # noqa: E731
    first_ranges = [c["spans"] for c in calls if c["first"]]
    cold = sum(t.duration[i] for i in t.outermost(is_cold)
               if any(lo <= i < hi for lo, hi in first_ranges))
    top = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
    return {
        "direct_share_of_wall": direct_time / wall_s,
        "transform_and_star_share_of_first_calls": cold / first_call_s,
        "largest_layer": top,
        "largest_layer_self_s": metrics[f"{top}.self_s"],
    }
