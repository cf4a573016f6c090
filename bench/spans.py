"""Per-layer timing taken from outside the library.

``Tracer.install`` wraps the public functions of each module in every module
namespace that binds them, so a call is timed whichever module it is
reached through.  Spans are aggregated as they close: calls, inclusive
seconds (recursive re-entries count once) and self seconds (the span minus
the part its child spans cover).  Calls into the exponential-sum kernels
also count their lattice terms by the phase path their inputs select.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

from workloads import path_of

# module -> public functions whose calls are timed
LAYERS = {
    "cli": ("run_command",),
    "report": ("emit_report",),
    "complete": ("vinogradov_table", "moment_curve_counts", "moment_identity_gap",
                 "gauss_sum", "partial_gauss", "gauss_sum_sweep"),
    "expsum": ("weyl_sum", "double_sum", "double_sum_abs"),
    "newton": ("build_diagram", "sector_membership", "subsector", "cone_coordinates"),
    "circle": ("discrete_multiplier", "continuous_multiplier", "partial_approx_error",
               "major_approximant", "arc_classify"),
    "ergodic": ("character_average", "shift_average"),
    "osc": ("oscillation", "variation", "rademacher_menshov_sides"),
    "iw": ("verify_iw_properties", "build_sigma"),
    "arith": ("dirichlet_approx",),
}
SUITE_NAMES = ("approx", "counts", "equidistribution", "factorization", "gauss", "iw",
               "moment", "multiplier", "newton", "osc")
PATHS = ("table", "wide", "float")


def _kernel_terms(name: str, args, kwargs):
    """(path, terms) of an expsum kernel call, classified from its inputs."""
    if name == "expsum.weyl_sum":
        xi, N = args[0], args[1]
        K = args[2] if len(args) > 2 else kwargs.get("K", 0)
        return path_of(tuple(xi)), N - K
    Q, K1, M1, K2, M2 = args[:5]
    return path_of(tuple(Q.terms.values())), (M1 - K1) * (M2 - K2)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}     # name -> [calls, s, self_s]
        self.terms = Counter()
        self.term_s = Counter()
        self._stack: List[list] = []                # [name, start, child seconds]
        self._active = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self._active[name] += 1

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        dt = self.clock() - start
        self._active[name] -= 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        if not self._active[name]:
            st[1] += dt
        st[2] += dt - child
        if self._stack:
            self._stack[-1][2] += dt
        return dt

    def wrap(self, name: str, fn: Callable) -> Callable:
        kernel = name.startswith("expsum.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = kernel and not self._active[name]
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.exit()
                if outermost:
                    path, n = _kernel_terms(name, args, kwargs)
                    self.terms[path] += n
                    self.term_s[path] += dt

        return traced

    def install(self) -> None:
        """Replace every binding of each layer function in the loaded package."""
        layers = {short: importlib.import_module(f"newton_circle.{short}") for short in LAYERS}
        mods = [m for k, m in list(sys.modules.items())
                if k == "newton_circle" or k.startswith("newton_circle.")]
        for short, names in LAYERS.items():
            module = layers[short]
            for fname in names:
                orig = getattr(module, fname)
                wrapped = self.wrap(f"{short}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
        suites = importlib.import_module("newton_circle.suites")
        for key, fn in list(suites.SUITES.items()):
            wrapped = self.wrap(f"suites.{key}", fn)
            suites.SUITES[key] = wrapped
            setattr(suites, fn.__name__, wrapped)

    def metrics(self, scale: float = 1.0) -> Dict[str, float]:
        """Per-layer metrics, with durations multiplied by `scale`."""
        out: Dict[str, float] = {}
        names = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
        names += [f"suites.{s}" for s in SUITE_NAMES]
        for name in names:
            calls, s, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s * scale
            out[f"{name}.self_s"] = self_s * scale
        for path in PATHS:
            out[f"expsum.terms.{path}"] = self.terms[path]
            t = self.term_s[path] * scale
            out[f"expsum.terms_per_s.{path}"] = self.terms[path] / t if t > 0 else 0.0
        return out
