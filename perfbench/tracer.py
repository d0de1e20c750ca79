"""Per-module call counts and folded time, from a ``sys.setprofile`` hook.

Every Python frame is attributed to a ``vfdielectric`` module: its own module
when its code lives in the package, otherwise the module of the nearest
package frame below it on the stack.  Time spent in the standard library,
numpy or scipy is thereby charged to the package function that called it;
the ``fractions`` work behind ``Quantity`` arithmetic lands in ``quantity``.
Time outside any package frame is not counted.

Alongside the per-module counts the hook keeps exact counts of ``Fraction``
constructions, ``hermgauss`` calls, ODE right-hand-side evaluations and
fixed-point iterations.  This module imports nothing from ``vfdielectric``
at import time; it is handed the package directory.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

_UNRESOLVED = object()


class ModuleTracer:
    """Counts calls and folded nanoseconds per ``vfdielectric`` module."""

    def __init__(self, package_dir: str | Path) -> None:
        from numpy.polynomial import hermite
        self.prefix = str(Path(package_dir).resolve()) + "/"
        self.calls: Counter[str] = Counter()
        self.time_ns: Counter[str] = Counter()
        self.fraction_new = 0
        self.hermgauss_calls = 0
        self.rhs_evals = 0
        self.iterations = 0
        self._modules: dict = {}
        self._stack: list[str | None] = []
        self._last = 0
        self._fraction_code = Fraction.__new__.__code__
        self._hermgauss_code = hermite.hermgauss.__code__

    def _module_of(self, code) -> str | None:
        module = self._modules.get(code, _UNRESOLVED)
        if module is _UNRESOLVED:
            filename = code.co_filename
            module = None
            if filename.startswith(self.prefix) and filename.endswith(".py"):
                module = filename[len(self.prefix):-3].replace("/", ".")
            self._modules[code] = module
        return module

    def _hook(self, frame, event, arg) -> None:
        now = time.perf_counter_ns()
        stack = self._stack
        top = stack[-1] if stack else None
        if top is not None:
            self.time_ns[top] += now - self._last
        if event == "call":
            code = frame.f_code
            module = self._module_of(code)
            if module is None:
                stack.append(top)
                if code is self._fraction_code:
                    self.fraction_new += 1
                elif code is self._hermgauss_code:
                    self.hermgauss_calls += 1
            else:
                stack.append(module)
                self.calls[module] += 1
                if module == "perturbation" and code.co_name == "rhs":
                    self.rhs_evals += 1
        elif event == "return" and stack:
            stack.pop()
            code = frame.f_code
            if (code.co_name == "epsilon0_self_consistent" and arg is not None
                    and self._module_of(code) == "vacuum"):
                self.iterations += arg.iterations
        self._last = time.perf_counter_ns()

    def run(self, fn, *args):
        """Call ``fn(*args)`` with the hook installed; return its result."""
        self._stack.clear()
        self._last = time.perf_counter_ns()
        sys.setprofile(self._hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    def counts(self) -> dict[str, int]:
        """Exact counts, keyed by metric name."""
        out = {f"{module}.calls": n for module, n in self.calls.items()}
        out["quantity.fraction_new"] = self.fraction_new
        out["oscillator.hermgauss_calls"] = self.hermgauss_calls
        out["perturbation.rhs_evals"] = self.rhs_evals
        out["vacuum.iterations"] = self.iterations
        return out


LAYERS = ("constants", "quantity", "species", "vacuum", "perturbation",
          "oscillator", "verify", "cli")
# No assemble_warm request enters ``verify``, so its traced time would read
# exactly 0 on every run of that workload; the layer is timed by the
# ``verify.*_ms`` calls and counted by ``verify.calls`` instead.
TIMED_LAYERS = tuple(m for m in LAYERS if m != "verify")


def package_dir() -> Path:
    import vfdielectric
    return Path(vfdielectric.__file__).parent


class TraceTotals:
    """Sums over requests each run once untraced and once traced.

    A module's time per request is its share of the time the tracer charged
    to package modules, applied to the untraced request time, so the hook's
    own cost is not reported as program time.  Traced module times are
    drift-corrected with the factor of the traced request they belong to.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.module_s: Counter[str] = Counter()

    def add(self, untraced_s: float, traced_s: float, traced_wall_s: float,
            time_ns: dict[str, int]) -> None:
        self.requests += 1
        self.untraced_s += untraced_s
        self.traced_s += traced_s
        for module, ns in time_ns.items():
            self.module_s[module] += ns * 1e-9 * traced_s / traced_wall_s

    def as_dict(self) -> dict:
        return {"requests": self.requests, "untraced_s": self.untraced_s,
                "traced_s": self.traced_s, "module_s": dict(self.module_s)}


def time_metrics(totals: dict) -> dict[str, float]:
    """``<module>.time_ms`` per request and ``host.tracing_overhead``."""
    module_s = totals["module_s"]
    per_request_ms = totals["untraced_s"] / totals["requests"] * 1e3
    charged = sum(module_s.values())
    out = {f"{m}.time_ms": module_s.get(m, 0.0) / charged * per_request_ms
           for m in TIMED_LAYERS}
    out["host.tracing_overhead"] = totals["traced_s"] / totals["untraced_s"]
    return out
