"""Tests of the benchmark itself: inputs, correctness checks, probe, parser.

Run from the checkout root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import ast
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import importlayer
import inputs
import probe
import run
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def records():
    return inputs.bundled_records(ROOT)


@pytest.fixture(scope="module")
def cli():
    import vfdielectric.cli
    return vfdielectric.cli


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_requests_and_file_bytes(workload, records, tmp_path):
    def generate(seed: int, directory: Path):
        directory.mkdir()
        out = []
        for request in itertools.islice(inputs.deck(workload, seed), 40):
            argv, env, text = inputs.materialize(request, records, seed, directory)
            out.append((request, env and Path(env["VACUUM_DATA_DIR"]).name, text))
        files = sorted((p.relative_to(directory), p.read_bytes())
                       for p in directory.rglob("*.json"))
        return out, files

    first = generate(7, tmp_path / "a")
    assert first == generate(7, tmp_path / "b")
    assert first[0] != generate(8, tmp_path / "c")[0]


def test_generated_constants_perturb_only_the_six_inputs(records):
    bundled = {r["key"]: r["value"] for r in records}
    for index in range(20):
        rows = json.loads(inputs.constants_text(records, 3, index))
        assert all(row.get("kind") != "species" for row in rows)
        for row in rows:
            ratio = row["value"] / bundled[row["key"]]
            if row["key"] in inputs.PERTURBED_KEYS:
                assert abs(ratio - 1.0) <= inputs.MAX_RELATIVE_PERTURBATION
            else:
                assert ratio == 1.0


def _request_output(cli, argv, records, tmp_path):
    request = inputs.Request(tuple(argv), inputs.PATH, 0)
    full_argv, _, text = inputs.materialize(request, records, 11, tmp_path)
    code, out = worker.execute(cli, full_argv)
    return request, code, out, inputs.constants_values(text)


def test_inv_alpha_off_by_1e_9_fails_the_check(cli, records, tmp_path):
    request, code, out, values = _request_output(
        cli, ["predict", "--format", "json"], records, tmp_path)
    assert checks.output_ok(list(request.argv), code, out, values, False)
    payload = json.loads(out)
    payload["model"]["inv_alpha"] *= 1.0 + 1e-9
    assert not checks.output_ok(list(request.argv), code, json.dumps(payload), values, False)


def test_one_fail_line_in_verify_fails_the_check(cli, records, tmp_path):
    request, code, out, values = _request_output(cli, ["verify"], records, tmp_path)
    assert checks.output_ok(list(request.argv), code, out, values, False)
    tampered = out.replace("PASS", "FAIL", 1)
    assert not checks.output_ok(list(request.argv), code, tampered, values, False)


def test_tampered_requests_are_counted_in_failed_frac(cli, tmp_path, monkeypatch):
    session = worker.Session({"root": str(ROOT), "workdir": str(tmp_path), "seed": 5,
                              "workload": "assemble_warm"})
    session.cli = cli
    calls = itertools.count()
    real = worker.execute

    def every_other_output_lost(cli_module, argv):
        code, out = real(cli_module, argv)
        return (code, "") if next(calls) % 2 else (code, out)

    monkeypatch.setattr(worker, "execute", every_other_output_lost)
    samples = session.measure(0.3)
    samples.update(setup_s=[1.0], probes_s=[1e-3])
    n = len(samples["latencies_s"])
    assert n >= 4
    assert samples["failed"] == n // 2
    metrics, info = run.end_to_end(samples)
    assert info["failed_frac"] == samples["failed"] / n
    assert metrics["ok_frac"] == 1.0 - info["failed_frac"]


def test_probes_import_nothing_from_the_program():
    tree = ast.parse((HERE / "probe.py").read_text("utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported - {"__future__"} <= set(sys.stdlib_module_names)
    code = "import sys, probe; probe.probe(); print(sorted(m for m in sys.modules if m.startswith('vfdielectric')))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
    assert "vfdielectric" not in probe.SPAWN_CODE


def test_importtime_parser_counts_outermost_entries_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        50 |         50 |       numpy.core",
        "import time:        30 |         80 |     numpy",
        "import time:        20 |         20 |         scipy._lib",
        "import time:        10 |         30 |       scipy.linalg",
        "import time:         5 |         35 |     scipy",
        "import time:         1 |        116 |   vfdielectric",
        "import time:         4 |        120 | vfdielectric.cli",
    ])
    assert importlayer.parse(stderr) == {
        "import.cli_ms": 0.120, "import.scipy_ms": 0.035, "import.numpy_ms": 0.080}


@pytest.mark.parametrize("n, quantile", [(200, 0.90), (100, 0.90), (40, 30 / 40), (12, 7 / 12)])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, quantile):
    value, used = probe.percentile_with_tail([float(i) for i in range(n)])
    assert used == pytest.approx(quantile)
    assert n - 1 - value >= min(10, n - 1 - n // 2)
