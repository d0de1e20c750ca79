"""One long-lived interpreter serving the warm workloads in-process.

Run as ``python worker.py CONFIG.json`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  The config names the mode, the workload, the seed, the
run length, the checkout root, a scratch directory and the result path.
Modes:

* ``setup``: time ``import vfdielectric.cli`` plus the first request.
* ``measure``: ``setup``, then closed-loop requests for the run length.
* ``trace``: ``setup``, the timed public-function calls, exact counts over
  the workload's reference requests, then the seeded requests each run once
  untraced and once traced.
* ``layers``: only the timed public-function calls.

Every request calls ``vfdielectric.cli.main(argv)`` with stdout captured and
reads its own freshly generated constants file.  The result is a JSON file of
raw samples; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
from probe import Bracket


def execute(cli, argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI request in-process; return (exit code, stdout).

    The exit code is None when the request raised instead of returning.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=sys.__stderr__)
            code = None
    return code, out.getvalue()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    import vfdielectric
    return {
        "vfdielectric_file": str(Path(vfdielectric.__file__).resolve()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Session:
    def __init__(self, cfg: dict) -> None:
        self.root = Path(cfg["root"])
        self.workdir = Path(cfg["workdir"])
        self.seed = cfg["seed"]
        self.workload = cfg["workload"]
        self.records = inputs.bundled_records(self.root)
        self.requests = inputs.deck(self.workload, self.seed)
        self.bracket = Bracket()
        self.cli = None

    def run_request(self, request: inputs.Request, call=None) -> dict:
        """Run one seeded request, timed and checked."""
        argv, _, text = inputs.materialize(request, self.records, self.seed, self.workdir)
        call = call or execute
        try:
            (code, out), t, wall = self.bracket.time(call, self.cli, argv)
        finally:
            inputs.discard(request, self.workdir)
        return {"t": t, "wall": wall, "ok": checks.request_ok(request, code, out, text),
                "key": hash((request.argv, text))}

    def setup(self) -> dict:
        """Import the CLI and serve the first request, as one timed span."""
        first = next(self.requests)
        argv, _, text = inputs.materialize(first, self.records, self.seed, self.workdir)

        def start():
            import vfdielectric.cli
            self.cli = vfdielectric.cli
            return execute(self.cli, argv)

        (code, out), t, _ = self.bracket.time(start)
        inputs.discard(first, self.workdir)
        return {"setup_s": t, "setup_ok": checks.request_ok(first, code, out, text),
                **environment()}

    def measure(self, seconds: float) -> dict:
        latencies, walls, keys, failed = [], [], [], 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            r = self.run_request(next(self.requests))
            latencies.append(r["t"])
            walls.append(r["wall"])
            keys.append(r["key"])
            failed += not r["ok"]
        return {
            "latencies_s": latencies,
            "walls_s": walls,
            "failed": failed,
            "repeated_share": inputs.repeated_share(keys),
            "peak_rss_mb": peak_rss_mb(),
        }

    def reference_counts(self) -> tuple[dict[str, float], int]:
        """Exact per-request counts over the workload's reference requests."""
        from tracer import ModuleTracer, package_dir
        totals: dict[str, int] = {}
        failed = 0
        values = {r["key"]: float(r["value"]) for r in self.records}
        reference = inputs.REFERENCE[self.workload]
        for argv in reference:
            tracer = ModuleTracer(package_dir())
            code, out = tracer.run(execute, self.cli, list(argv))
            failed += not checks.output_ok(list(argv), code, out, values, True)
            for name, n in tracer.counts().items():
                totals[name] = totals.get(name, 0) + n
        return {k: v / len(reference) for k, v in totals.items()}, failed

    def traced_loop(self, seconds: float) -> dict:
        """Each seeded request once untraced and once traced."""
        from tracer import ModuleTracer, TraceTotals, package_dir
        totals = TraceTotals()
        walls, failed, attempted = [], 0, 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            request = next(self.requests)
            plain = self.run_request(request)
            tracer = ModuleTracer(package_dir())
            traced = self.run_request(
                request, lambda cli, argv: tracer.run(execute, cli, argv))
            totals.add(plain["t"], traced["t"], traced["wall"], tracer.time_ns)
            walls.append(plain["wall"])
            attempted += 2
            failed += (not plain["ok"]) + (not traced["ok"])
        return {"totals": totals.as_dict(), "walls_s": walls,
                "attempted": attempted, "failed": failed}


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    session = Session(cfg)
    mode = cfg["mode"]
    if mode == "layers":
        import layers
        result = {"layers": layers.measure(session.bracket), **environment()}
    else:
        result = session.setup()
        if mode == "measure":
            result.update(session.measure(cfg["seconds"]))
        elif mode == "trace":
            import layers
            result["layers"] = layers.measure(session.bracket)
            result["counts"], result["reference_failed"] = session.reference_counts()
            result.update(session.traced_loop(cfg["seconds"]))
    result["probes_s"] = session.bracket.probes
    Path(cfg["result"]).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
