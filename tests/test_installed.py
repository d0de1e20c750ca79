"""The installed ``vfdielectric`` console script, run outside the checkout.

Every test runs the script that an install put in ``sysconfig.get_path("scripts")``,
each run in a fresh temporary directory with ``PYTHONPATH`` and
``VACUUM_DATA_DIR`` removed from its environment, so neither the checkout nor a
data directory can stand in for what the install shipped.  The module runs only
when ``import vfdielectric``, done the same way, resolves to a file outside the
checkout; with nothing installed, or with an editable install, it skips and
says why.  To run it against an installed copy, from the repository root:

    pip install . --no-build-isolation
    env -u PYTHONPATH python -m pytest -q -rs tests/test_installed.py

The golden argvs must print the bytes of ``golden_outputs.json``, which shows
that ``data/constants.json`` shipped.  ``_CASES`` holds one row per further
check: an argv, the files it reads, the exit code and what stdout must hold.
"""

import json
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

from test_cli_process import REFUSED, assert_unencodable

_CHECKOUT = Path(__file__).resolve().parents[1]
_SCRIPT = Path(sysconfig.get_path("scripts")) / "vfdielectric"
_TIMEOUT = 120
_GOLDEN = {" ".join(case["argv"]): case for case in
           json.loads(Path(__file__).with_name("golden_outputs.json").read_text("utf-8"))}
_BUNDLED = json.loads((_CHECKOUT / "src" / "vfdielectric" / "data" / "constants.json")
                      .read_text("utf-8"))
# neither the checkout nor a data directory may stand in for the install
_ENVIRON = {key: value for key, value in os.environ.items()
            if key not in ("PYTHONPATH", "VACUUM_DATA_DIR")}


def _run(argv, files=None, env=None, encoding="utf-8"):
    """(exit, stdout bytes, stderr text) of the script run on ``argv`` in a
    fresh directory holding ``files`` (relative path -> text or bytes)."""
    with tempfile.TemporaryDirectory() as cwd:
        for name, content in (files or {}).items():
            path = Path(cwd, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        done = subprocess.run([str(_SCRIPT), *argv], cwd=cwd, capture_output=True,
                              env={**_ENVIRON, "PYTHONIOENCODING": encoding, **(env or {})},
                              timeout=_TIMEOUT)
    return done.returncode, done.stdout, done.stderr.decode("utf-8", "replace")


@pytest.fixture(scope="module", autouse=True)
def _installed():
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", "import vfdielectric; print(vfdielectric.__file__)"],
                              cwd=cwd, env=_ENVIRON, capture_output=True, text=True,
                              timeout=_TIMEOUT)
    if done.returncode:
        pytest.skip(f"vfdielectric is not installed for {sys.executable}")
    module = Path(done.stdout.strip()).resolve()
    if module.is_relative_to(_CHECKOUT):
        pytest.skip(f"vfdielectric imports from the checkout ({module}), as an editable "
                    "install does; install a copy with `pip install .`")


def _records(species=(), **values):
    """The bundled records as file text, each named key's value replaced and
    ``species`` appended."""
    rows = [{**row, "value": values[row["key"]]} if row["key"] in values else row
            for row in _BUNDLED]
    return json.dumps(rows + list(species))


def _e_only(unit):
    return {"kind": "species", "name": "e_only", "type": "lepton-pair", "charge_fraction": "1",
            "constituent_mass": {"value": 9.1093837015e-31, "unit": unit}}


def _golden_stdout(argv):
    return lambda out: out == _GOLDEN[argv]["stdout"]


_FILE = ["--constants", "c.json"]

# id: (argv, files, env, exit, a test of the stdout text or None)
_CASES = {
    "unattainable tolerance": (["verify", "--tolerance", "1e-20"], {}, {}, 1, None),
    "species with quarks": (["species", "--include-quarks"], {}, {}, 0, None),
    "m_c zero": (["predict", *_FILE], {"c.json": _records(m_c=0.0)}, {}, 2, None),
    "species unit off the whitelist": (
        ["historical", *_FILE], {"c.json": _records([_e_only("nope")])}, {}, 2, None),
    # the lepton route underflows, and under sensitivity the dipole scale too
    "lepton underflow with quarks": (
        ["predict", "--include-quarks", *_FILE],
        {"c.json": _records(ref_epsilon0=1e-100, e=1e-30)}, {}, 2, None),
    "lepton underflow sensitivity": (
        ["sensitivity", *_FILE], {"c.json": _records(ref_epsilon0=1e-100, e=1e-30)}, {}, 2, None),
    # a dipole coupling outside the first-order band
    "tiny e sensitivity": (["sensitivity", *_FILE], {"c.json": _records(e=1e-50)}, {}, 2, None),
    "not UTF-8": (["predict", *_FILE], {"c.json": b"\xff\xfe[]"}, {}, 2, None),
    # the lepton route passed a subnormal on, once an AssemblyError traceback
    "ref_epsilon0 8.85e74": (
        ["predict", *_FILE], {"c.json": _records(ref_epsilon0=8.85e74)}, {}, 2, None),
    "nested 200000 deep": (["predict", *_FILE], {"c.json": "[" * 200000 + "]" * 200000}, {}, 2, None),
    "subnormal ref_c": (["predict", *_FILE], {"c.json": _records(ref_c=5e-324)}, {}, 2, None),
    # below twice m_b, where the built-in eta_b goes through the species builder
    "m_etab below 2 m_b": (
        ["predict", "--include-quarks", *_FILE], {"c.json": _records(m_etab=1.0)}, {}, 2, None),
    "precision 18": (["predict", "--precision", "18"], {}, {}, 2, None),
    "file species replace the built-ins": (
        ["predict", "--format", "json", *_FILE], {"c.json": _records([_e_only("kg")])}, {}, 0,
        lambda out: [row["species"] for row in json.loads(out)["contributions"]] == ["e_only"]),
    # the quark-inclusive solve still reaches its fixed point in two evaluations of F
    "widths times 1e50": (
        ["predict", "--include-quarks", "--format", "json", *_FILE],
        {"c.json": _records(**{row["key"]: row["value"] * 1e50 for row in _BUNDLED
                               if row["key"].startswith("gamma_")})}, {}, 0,
        lambda out: json.loads(out)["iterations"] == 2),
    "data dir as given": (
        ["predict", "--format", "json"], {"d/constants.json": _records()},
        {"VACUUM_DATA_DIR": "./d"}, 0,
        lambda out: json.loads(out)["constants_source"] == "./d/constants.json"),
    # an argv the canonical reader does not take goes to argparse
    "help": (["predict", "--help"], {}, {}, 0,
             lambda out: out.startswith("usage: vfdielectric predict")),
    "abbreviated option": (["predict", "--inc", "--format=json"], {}, {}, 0,
                           _golden_stdout("predict --include-quarks --format json")),
    "last --format wins": (["predict", "--format", "table", "--format", "json"], {}, {}, 0,
                           _golden_stdout("predict --format json")),
}


@pytest.mark.parametrize("argv", _GOLDEN)
def test_golden_argv_prints_its_golden_bytes(argv):
    expected = _GOLDEN[argv]
    code, out, err = _run(argv.split())
    assert (code, out.decode("utf-8")) == (expected["exit"], expected["stdout"]), err


@pytest.mark.parametrize("argv, files, env, exit_code, check", _CASES.values(), ids=_CASES)
def test_each_case_exits_and_prints_as_its_row_says(argv, files, env, exit_code, check):
    code, out, err = _run(argv, files, env)
    assert code == exit_code, err
    if exit_code == 2:  # an input error: one line on stderr, nothing on stdout
        assert out == b"" and err.startswith("error: ") and err.count("\n") == 1, err
    if check is not None:
        assert check(out.decode("utf-8"))


def test_an_ascii_stdout_takes_each_golden_output_whole_or_none():
    refused = []
    for argv, expected in _GOLDEN.items():
        result = _run(argv.split(), encoding="ascii")
        if expected["stdout"].isascii():
            assert result == (expected["exit"], expected["stdout"].encode("ascii"), ""), argv
        else:
            assert_unencodable(result)
            refused.append(argv)
    assert refused == REFUSED["ascii"]
