"""Every benchmark request kind exits 0 with output its check accepts.

``perfbench`` counts a request as ok only when ``checks.request_ok`` accepts
its exit code and output, and the share of ok requests is one of its
end-to-end metrics.  This runs the first two rounds of each workload's deck,
for two fixed seeds, through in-process ``cli.main``, so a program change
that fails a request kind fails here, not only in a benchmark run.
"""

import importlib
import itertools
from pathlib import Path

import pytest

from vfdielectric import cli

ROOT = Path(__file__).resolve().parents[1]
ROUND_SIZE = {"cli_cold": 5, "assemble_warm": 5, "oracle_warm": 1}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(ROUND_SIZE))
def test_first_two_rounds_of_each_deck_pass_their_checks(
    workload, seed, tmp_path, monkeypatch, capsys
):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    inputs = importlib.import_module("inputs")
    checks = importlib.import_module("checks")
    records = inputs.bundled_records(ROOT)
    failed = []
    for request in itertools.islice(inputs.deck(workload, seed), 2 * ROUND_SIZE[workload]):
        argv, extra_env, text = inputs.materialize(request, records, seed, tmp_path)
        with monkeypatch.context() as env:
            env.delenv("VACUUM_DATA_DIR", raising=False)
            for name, value in extra_env.items():
                env.setenv(name, value)
            code = cli.main(argv)
        out, err = capsys.readouterr()
        if code != 0 or not checks.request_ok(request, code, out, text):
            failed.append((request, code, err))
    assert failed == []
