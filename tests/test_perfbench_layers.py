"""The benchmark's layer metrics still reach the package.

``perfbench/layers.py`` calls public functions of every module by name, and
no other test runs it, so a deleted name or a changed signature would
otherwise surface only in a traced benchmark run.
"""

import importlib
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_layer_metric_is_measured(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    probe = importlib.import_module("probe")
    layers = importlib.import_module("layers")
    # a constant probe: every time is its wall time, and no process is started
    metrics = layers.measure(probe.Bracket(measure=lambda: probe.P0))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert len(metrics) == 24
    assert set(metrics) <= declared
    assert all(math.isfinite(value) and value > 0 for value in metrics.values()), metrics
