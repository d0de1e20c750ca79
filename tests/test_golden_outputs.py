"""Standard output and exit code of the CLI, pinned byte for byte.

Every case runs ``cli.main`` in-process on the bundled constants and must
reproduce the bytes stored in ``golden_outputs.json``.  A change that moves an
output byte has to regenerate that file, and the diff shows what moved.  From
the repository root, regenerate it with:

    env -u VACUUM_DATA_DIR PYTHONPATH=src:tests python -c "import json, test_golden_outputs as t; open('tests/golden_outputs.json', 'w').write(json.dumps([{'argv': a, **t.run(a)} for a in t.CASES], indent=1, ensure_ascii=False) + '\\n')"
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from vfdielectric.cli import main
from vfdielectric.constants import DATA_DIR_ENV_VAR

GOLDEN = Path(__file__).with_name("golden_outputs.json")

CASES = [
    [command, "--format", output_format]
    for command in ("predict", "species", "verify", "sensitivity", "historical")
    for output_format in ("table", "json", "csv")
] + [
    ["predict", "--include-quarks", "--format", output_format]
    for output_format in ("table", "json", "csv")
] + [
    ["species", "--include-quarks", "--width", "min", "--format", "json"],
    ["sensitivity", "--branch", "literal", "--format", "json"],
    ["predict", "--precision", "8"],
]


def run(argv):
    """Exit code and standard output of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text("utf-8"))}


@pytest.mark.parametrize("argv", CASES, ids=",".join)
def test_output_matches_golden_bytes(argv, golden, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV_VAR, raising=False)
    expected = golden[tuple(argv)]
    assert run(argv) == {"exit": expected["exit"], "stdout": expected["stdout"]}
