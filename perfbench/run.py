"""Drift-corrected benchmark of the ``vfdielectric`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is measured from the
checkout's own ``src`` (``PYTHONPATH``), never from an installed copy.

Workloads (closed loop, one client, one child process at a time):

* ``cli_cold``: every request is a fresh ``python -m vfdielectric.cli``
  process, so import cost is part of every request.
* ``assemble_warm``: one interpreter serves ``predict``, ``species``,
  ``sensitivity`` and ``historical`` requests in-process; the assembly
  layers (``quantity``, ``species``, ``vacuum``, ``perturbation``) dominate.
* ``oracle_warm``: one interpreter serves ``verify`` requests; the oracle
  layers (``oscillator``, ``perturbation``, ``verify``) dominate.

Every request time is drift-corrected (see ``probe.py``) and every output is
checked (see ``checks.py``).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` a separate run reports the
per-layer metrics.  The line before it records the environment and sample
counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import importlayer
import inputs
from probe import SPAWN_P0, Bracket, percentile_with_tail, quartiles, spawn_probe
from tracer import LAYERS, TraceTotals, time_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "assemble_warm", "oracle_warm")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    pass


class Context:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = ROOT / ".perfbench_work"
        self.records = inputs.bundled_records(ROOT)
        self.env = dict(os.environ)
        self.env.pop("VACUUM_DATA_DIR", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self._results = itertools.count()

    def result_path(self) -> Path:
        return self.workdir / f"result_{next(self._results)}.json"

    def run_worker(self, mode: str) -> dict:
        result = self.result_path()
        config = result.with_suffix(".config")
        config.write_text(json.dumps({
            "mode": mode, "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "root": str(ROOT),
            "workdir": str(self.workdir), "result": str(result),
        }), "utf-8")
        completed = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config)],
            env=self.env, cwd=ROOT, timeout=self.seconds + CHILD_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise BenchmarkError(f"worker ({mode}) exited with {completed.returncode}")
        return checked_environment(json.loads(result.read_text("utf-8")))

    def spawn(self, command: list[str], extra_env: dict[str, str]) -> tuple[int, str, float]:
        """Run one child to completion; return (exit code, stdout, peak RSS MB)."""
        out_path = self.workdir / "child.out"
        with open(out_path, "w") as out:
            proc = subprocess.Popen(command, stdout=out, stderr=subprocess.DEVNULL,
                                    env={**self.env, **extra_env}, cwd=ROOT)
            code, rss_mb = _wait(proc)
        return code, out_path.read_text("utf-8"), rss_mb


def _wait(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap ``proc`` with its resource usage; kill it after the time limit."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"child {proc.args!r} timed out") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def checked_environment(result: dict) -> dict:
    """Refuse results measured on any copy of the package but the checkout's."""
    resolved = Path(result["vfdielectric_file"])
    if not resolved.is_relative_to((ROOT / "src").resolve()):
        raise BenchmarkError(f"measured {resolved}, not the checkout's src")
    return result


# --- end-to-end runs ---------------------------------------------------------


def warm_run(ctx: Context) -> tuple[dict, dict]:
    # Set-up is a whole worker process (start, import, first request), timed
    # from outside like a cold request.
    spawn = Bracket(spawn_probe, SPAWN_P0)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        setup, t, _ = spawn.time(ctx.run_worker, "setup")
        setup_s.append(t)
        if not setup["setup_ok"]:
            raise BenchmarkError("a set-up request failed its correctness check")
    result = ctx.run_worker("measure")
    return {**result, "setup_s": setup_s}, environment_info(result)


def cold_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "vfdielectric.cli", *argv]


def cold_run(ctx: Context) -> tuple[dict, dict]:
    bracket = Bracket(spawn_probe, SPAWN_P0)
    n_prepared = int(ctx.seconds * 2) + 8

    def set_up():
        prepared = []
        for request in itertools.islice(inputs.deck(ctx.workload, ctx.seed), n_prepared):
            argv, extra_env, text = inputs.materialize(request, ctx.records, ctx.seed,
                                                       ctx.workdir)
            prepared.append((request, argv, extra_env, text))
        request, argv, extra_env, text = prepared[0]
        code, out, _ = ctx.spawn(cold_command(argv), extra_env)
        if not checks.request_ok(request, code, out, text):
            raise BenchmarkError(f"warm-up request {request.argv} failed its check")
        return prepared

    setup_s = []
    for _ in range(SETUP_REPEATS):
        prepared, t, _ = bracket.time(set_up)
        setup_s.append(t)

    latencies, walls, rss, keys, failed = [], [], [], [], 0
    deadline = time.perf_counter() + ctx.seconds
    for request, argv, extra_env, text in prepared[1:]:
        if time.perf_counter() >= deadline:
            break
        (code, out, rss_mb), t, wall = bracket.time(ctx.spawn, cold_command(argv), extra_env)
        latencies.append(t)
        walls.append(wall)
        rss.append(rss_mb)
        failed += not checks.request_ok(request, code, out, text)
        keys.append((request.argv, text))
    samples = {
        "latencies_s": latencies,
        "walls_s": walls,
        "failed": failed,
        "peak_rss_mb": median(rss),
        "setup_s": setup_s,
        "probes_s": bracket.probes,
        "repeated_share": inputs.repeated_share(keys),
    }
    code, out, _ = ctx.spawn([sys.executable, "-c",
                              "import json, worker; print(json.dumps(worker.environment()))"],
                             {"PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{HERE}"})
    if code != 0:
        raise BenchmarkError("could not read the child's environment")
    return samples, environment_info(checked_environment(json.loads(out)))


def environment_info(result: dict) -> dict:
    keys = ("vfdielectric_file", "python", "numpy", "scipy")
    return {"nproc": os.cpu_count(), **{k: result[k] for k in keys}}


def end_to_end(samples: dict) -> tuple[dict[str, float], dict]:
    latencies = samples["latencies_s"]
    attempted = len(latencies)
    p90, quantile = percentile_with_tail(latencies)
    metrics = {
        "setup_s": median(samples["setup_s"]),
        "req_per_s": attempted / sum(latencies),
        "req_p50_ms": median(latencies) * 1e3,
        "req_p90_ms": p90 * 1e3,
        "peak_rss_mb": samples["peak_rss_mb"],
        "ok_frac": 1.0 - samples["failed"] / attempted,
    }
    probe_q = quartiles(samples["probes_s"])
    info = {
        "samples": attempted,
        "req_p90_ms_quantile": quantile,
        "failed_frac": samples["failed"] / attempted,
        "setup_s_samples": samples["setup_s"],
        "repeated_input_share": samples["repeated_share"],
        "raw_req_p50_ms": median(samples["walls_s"]) * 1e3,
        "probe_ms_quartiles": [q * 1e3 for q in probe_q],
    }
    return metrics, info


# --- traced runs -------------------------------------------------------------


def import_layer(ctx: Context) -> dict[str, float]:
    """Median of ``-X importtime`` children, drift-corrected by spawn probes."""
    def child():
        return subprocess.run(
            [sys.executable, "-X", "importtime", "-c", importlayer.CHILD_CODE],
            env=ctx.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )

    spawn = Bracket(spawn_probe, SPAWN_P0)
    runs = []
    for _ in range(IMPORT_REPEATS):
        completed, t, wall = spawn.time(child)
        if completed.returncode != 0:
            raise BenchmarkError("import-time child failed")
        runs.append({k: v * t / wall for k, v in importlayer.parse(completed.stderr).items()})
    out = {name: median([r[name] for r in runs]) for name in runs[0]}
    out["import.modules"], out["import.scipy_modules"] = json.loads(completed.stdout)
    return out


def _count_metrics(counts: dict[str, float]) -> dict[str, float]:
    names = [f"{m}.calls" for m in LAYERS] + [
        "quantity.fraction_new", "oscillator.hermgauss_calls",
        "perturbation.rhs_evals", "vacuum.iterations"]
    return {name: counts.get(name, 0) for name in names}


def _host_metrics(probes: list[float], walls: list[float]) -> dict[str, float]:
    q1, q2, q3 = quartiles(probes)
    return {"host.probe_ms": q2 * 1e3, "host.probe_q1_ms": q1 * 1e3,
            "host.probe_q3_ms": q3 * 1e3, "host.raw_req_p50_ms": median(walls) * 1e3}


def warm_trace(ctx: Context) -> tuple[dict, int, int, dict]:
    result = ctx.run_worker("trace")
    metrics = dict(result["layers"])
    metrics.update(_count_metrics(result["counts"]))
    metrics.update(time_metrics(result["totals"]))
    metrics.update(_host_metrics(result["probes_s"], result["walls_s"]))
    attempted = result["attempted"] + len(inputs.REFERENCE[ctx.workload]) + 1
    failed = result["failed"] + result["reference_failed"] + (not result["setup_ok"])
    return metrics, attempted, failed, environment_info(result)


def cold_trace(ctx: Context) -> tuple[dict, int, int, dict]:
    layer_result = ctx.run_worker("layers")
    metrics = dict(layer_result["layers"])
    values = {r["key"]: float(r["value"]) for r in ctx.records}

    def child(mode: str, argv: list[str], extra_env: dict[str, str]) -> dict:
        path = ctx.result_path()
        code, _, _ = ctx.spawn([sys.executable, str(HERE / "coldtrace.py"), str(path),
                                mode, *argv], extra_env)
        if code != 0:
            raise BenchmarkError(f"cold trace child exited with {code}")
        return json.loads(path.read_text("utf-8"))

    attempted = failed = 0
    totals: dict[str, float] = {}
    for argv in inputs.REFERENCE[ctx.workload]:
        r = child("traced", list(argv), {})
        attempted += 1
        failed += not checks.output_ok(list(argv), r["code"], r["out"], values, True)
        for name, n in r["counts"].items():
            totals[name] = totals.get(name, 0) + n
    reference = len(inputs.REFERENCE[ctx.workload])
    metrics.update(_count_metrics({k: v / reference for k, v in totals.items()}))

    bracket = Bracket(spawn_probe, SPAWN_P0)
    trace_totals = TraceTotals()
    walls = []
    deadline = time.perf_counter() + ctx.seconds
    for request in inputs.deck(ctx.workload, ctx.seed):
        if time.perf_counter() >= deadline:
            break
        argv, extra_env, text = inputs.materialize(request, ctx.records, ctx.seed, ctx.workdir)
        plain, _, wall = bracket.time(child, "plain", argv, extra_env)
        traced = child("traced", argv, extra_env)
        inputs.discard(request, ctx.workdir)
        trace_totals.add(plain["t"], traced["t"], traced["wall"], traced["time_ns"])
        walls.append(wall)
        attempted += 2
        failed += (not checks.request_ok(request, plain["code"], plain["out"], text)) \
            + (not checks.request_ok(request, traced["code"], traced["out"], text))
    metrics.update(time_metrics(trace_totals.as_dict()))
    metrics.update(_host_metrics(bracket.probes, walls))
    return metrics, attempted, failed, environment_info(layer_result)


# --- entry -------------------------------------------------------------------


def _declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _report(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vfdielectric" / "cli.py").is_file():
        print(f"error: no vfdielectric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared_metrics()

    ctx = Context(args.workload, args.seed, args.seconds)
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    ctx.workdir.mkdir()
    try:
        if args.trace:
            trace = cold_trace if args.workload == "cli_cold" else warm_trace
            values, attempted, failed, info = trace(ctx)
            values.update(import_layer(ctx))
            metrics = _report(values, declared["per_layer"])
        else:
            run = cold_run if args.workload == "cli_cold" else warm_run
            samples, info = run(ctx)
            values, extra = end_to_end(samples)
            info.update(extra)
            attempted, failed = len(samples["latencies_s"]), samples["failed"]
            metrics = _report(values, declared["end_to_end"])
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
