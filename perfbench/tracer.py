"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``stripes`` modules from the
outside: each wrapper is installed under the name its caller looks up (a
function imported by name into another module is wrapped there too), so
the library itself is never edited.  Spans (name, start, end, parent) stay
in memory and are written once, when the run ends.  Calls into
``numpy.fft``/``scipy.fft`` are counted, not spanned, and every span
records how many of them happened inside it.
"""
from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy.fft
import scipy.fft

# (module, attribute, span name): every lookup name a caller uses.  flow
# and decomposition import some functions by name, so those modules carry
# their own wrapper.
WRAPPED = [
    ("kernel", "periodized_kernel_grid", "kernel.grid"),
    ("kernel", "periodized_marginal", "kernel.marginal"),
    ("energy", "total_energy", "energy.total"),
    ("decomposition", "total_energy", "energy.total"),
    ("flow", "energy_gradient", "flow.gradient"),
    ("flow", "gradient_flow", "flow.descent"),
    ("flow", "stripe_metrics", "flow.metrics"),
    ("flow", "symmetry_breaking_experiment", "flow.symbreak"),
    ("flow", "make_stripes", "field.make_stripes"),
    ("field", "make_stripes", "field.make_stripes"),
    ("onedim", "minimize_profile", "onedim.minimize"),
    ("onedim", "optimal_period", "onedim.optimal_period"),
    ("onedim", "f1d", "onedim.f1d"),
    ("onedim", "el_residual", "onedim.el_residual"),
    ("onedim", "minimize_aux_penalized", "onedim.gamma_aux"),
    ("onedim", "gamma_limit_study", "onedim.gamma_study"),
    ("decomposition", "lower_bound_report", "decomposition.lower_bound"),
    ("decomposition", "cross_term", "decomposition.cross_term"),
]

FFT_MODULES = (numpy.fft, scipy.fft)
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _lru_misses(modules) -> int:
    """Total misses of every functools cache held by the given modules."""
    total = 0
    for mod in modules:
        for obj in vars(mod).values():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                total += info().misses
    return total


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    A span is a list ``[name, start, end, parent, ffts, attrs]``; ``parent``
    indexes the enclosing span (-1 for a root) and ``ffts`` counts FFT calls
    made while the span was open.
    """

    def __init__(self, package_modules: dict):
        self.modules = package_modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ffts = 0
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.ffts, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()
        span[4] = self.ffts - span[4]

    @contextmanager
    def span(self, name: str, **attrs):
        """A benchmark-level span (set-up or solve repetition)."""
        span = self._open(name)
        span[5] = attrs
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        attrs_of = _ATTRS.get(name)
        cache_modules = [self.modules["kernel"]] if name == "kernel.grid" \
            else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = _lru_misses(cache_modules) if cache_modules else 0
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if cache_modules:
                span[5] = {"miss": _lru_misses(cache_modules) > misses}
            elif attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result
        return wrapper

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.ffts += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        wrapped: dict = {}
        for mod_name, attr, name in WRAPPED:
            mod = self.modules[mod_name]
            orig = getattr(mod, attr)
            # one wrapper per original function, shared by every lookup name
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self._wrap(orig, name)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrapped[id(orig)])
        for mod in FFT_MODULES:
            for attr in FFT_FUNCTIONS:
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._count_fft(orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "ffts": s[4], "attrs": s[5]} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def _descent_attrs(args, kwargs, result):
    trace = result[1]
    return {"iterations": trace.iterations, "converged": trace.converged}


def _minimize_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


def _marginal_attrs(args, kwargs, result):
    L = kwargs["L"] if "L" in kwargs else args[0]
    n = kwargs["n"] if "n" in kwargs else args[1]
    return {"key": [float(L), int(n)]}


def _cross_attrs(args, kwargs, result):
    u = kwargs["u"] if "u" in kwargs else args[0]
    trunc = kwargs.get("trunc_radius")
    if trunc is None:
        return {"lags": int(u.n) ** int(u.dims)}
    m = int(trunc // u.h_grid)
    return {"lags": m * (2 * m + 1) ** (int(u.dims) - 1)}


_ATTRS = {
    "flow.descent": _descent_attrs,
    "onedim.minimize": _minimize_attrs,
    "kernel.marginal": _marginal_attrs,
    "decomposition.cross_term": _cross_attrs,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _phase_totals(spans: list[list], root: int) -> dict:
    """Additive per-layer quantities of the spans under one root span."""
    members = []
    under = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] == -1:
            break
        if spans[i][3] in under:
            under.add(i)
            members.append(i)
    child_time: dict[int, float] = {}
    for i in members:
        dur = spans[i][2] - spans[i][1]
        child_time[spans[i][3]] = child_time.get(spans[i][3], 0.0) + dur

    t = {k: 0.0 for k in TOTAL_KEYS}
    seen_marginals = set()
    for i in members:
        name, start, end, parent, ffts, attrs = spans[i]
        dur = end - start
        self_s = dur - child_time.get(i, 0.0)
        pname = spans[parent][0]
        if name == "kernel.grid":
            t["grid_calls"] += 1
            if attrs["miss"]:
                t["grid_build_s"] += dur
            else:
                t["grid_hits"] += 1
        elif name == "kernel.marginal":
            key = tuple(attrs["key"])
            t["marginal_calls"] += 1
            t["marginal_s"] += dur
            t["marginal_repeats"] += key in seen_marginals
            seen_marginals.add(key)
        elif name == "energy.total":
            t["energy_calls"] += 1
            t["energy_self_s"] += self_s
            t["energy_ffts"] += ffts
            t["flow_energy_evals"] += pname == "flow.descent"
        elif name == "flow.gradient":
            t["gradient_calls"] += 1
            t["gradient_self_s"] += self_s
        elif name == "flow.descent":
            t["flow_iterations"] += attrs["iterations"]
            t["descent_self_s"] += self_s
        elif name == "flow.metrics":
            t["metrics_s"] += dur
        elif name == "field.make_stripes":
            t["make_stripes_calls"] += 1
            t["make_stripes_s"] += dur
        elif name == "onedim.minimize":
            t["minimize_calls"] += 1
            t["minimize_iters"] += attrs["iterations"]
            t["minimize_self_s"] += self_s
            t["period_evals"] += pname == "onedim.optimal_period"
        elif name == "onedim.f1d":
            t["f1d_s"] += dur
        elif name == "onedim.el_residual":
            t["el_residual_s"] += dur
        elif name == "onedim.gamma_aux":
            t["gamma_update_s"] += self_s
        elif name == "decomposition.lower_bound":
            t["lower_bound_self_s"] += self_s
        elif name == "decomposition.cross_term":
            t["cross_term_s"] += dur
            t["cross_term_lags"] += attrs["lags"]
    return t


TOTAL_KEYS = (
    "grid_calls", "grid_hits", "grid_build_s", "marginal_calls",
    "marginal_s", "marginal_repeats", "energy_calls", "energy_self_s",
    "energy_ffts", "flow_energy_evals", "gradient_calls", "gradient_self_s",
    "flow_iterations", "descent_self_s", "metrics_s", "make_stripes_calls",
    "make_stripes_s", "minimize_calls", "minimize_iters", "minimize_self_s",
    "period_evals", "f1d_s", "el_residual_s", "gamma_update_s",
    "lower_bound_self_s", "cross_term_s", "cross_term_lags")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 for a layer the workload never calls."""
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one run: the median set-up repetition plus, for
    each unit of the workload, its median solve repetition, each quantity
    taken separately, with ratios formed after the sum."""
    phases: dict[tuple, list[dict]] = {}
    for i, span in enumerate(spans):
        if span[3] == -1 and span[0] in ("bench.setup", "bench.solve"):
            unit = (span[5] or {}).get("cls") if span[0] == "bench.solve" \
                else None
            phases.setdefault((span[0], unit), []).append(
                _phase_totals(spans, i))
    t = {k: sum(statistics.median_low([rep[k] for rep in reps])
                for reps in phases.values())
         for k in TOTAL_KEYS}
    return {
        "kernel.grid_build_s": t["grid_build_s"],
        "kernel.grid_calls": t["grid_calls"],
        "kernel.grid_hit_ratio": _ratio(t["grid_hits"], t["grid_calls"]),
        "kernel.marginal_s": t["marginal_s"],
        "kernel.marginal_calls": t["marginal_calls"],
        "kernel.marginal_repeat_ratio": _ratio(t["marginal_repeats"],
                                               t["marginal_calls"]),
        "energy.total_calls": t["energy_calls"],
        "energy.total_self_s": t["energy_self_s"],
        "energy.total_ms_per_call": 1e3 * _ratio(t["energy_self_s"],
                                                 t["energy_calls"]),
        "energy.ffts_per_call": _ratio(t["energy_ffts"], t["energy_calls"]),
        "flow.iterations": t["flow_iterations"],
        "flow.gradient_self_s": t["gradient_self_s"],
        "flow.gradient_ms_per_call": 1e3 * _ratio(t["gradient_self_s"],
                                                  t["gradient_calls"]),
        "flow.energy_evals_per_iter": _ratio(t["flow_energy_evals"],
                                             t["flow_iterations"]),
        "flow.descent_self_s": t["descent_self_s"],
        "flow.metrics_s": t["metrics_s"],
        "field.make_stripes_calls": t["make_stripes_calls"],
        "field.make_stripes_s": t["make_stripes_s"],
        "onedim.minimize_calls": t["minimize_calls"],
        "onedim.minimize_iters": t["minimize_iters"],
        "onedim.minimize_self_s": t["minimize_self_s"],
        "onedim.f1d_s": t["f1d_s"],
        "onedim.el_residual_s": t["el_residual_s"],
        "onedim.gamma_update_s": t["gamma_update_s"],
        "onedim.period_evals": t["period_evals"],
        "decomposition.lower_bound_self_s": t["lower_bound_self_s"],
        "decomposition.cross_term_s": t["cross_term_s"],
        "decomposition.cross_term_lags": t["cross_term_lags"],
    }
