"""The CLI as a fresh process: what it imports, how it ends, and that
concurrent callers in one process get the serial results.

No subcommand, ``verify`` included, loads numpy or scipy: the package needs
only the standard library.  Each command loads only the package modules it
runs, and only ``--format csv`` loads ``csv``.  Importing the CLI loads
neither ``dataclasses`` nor ``statistics``, which would lengthen every cold
start; with ``site`` off, nor ``importlib.resources``, ``pathlib``, ``typing``
or ``threading``, and a canonical argv of each command loads neither
``argparse`` nor ``fractions``, nor what they import.  A zipped copy of the
package reads its bundled data file and prints the same bytes.
"""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import vfdielectric

_SRC = str(Path(vfdielectric.__file__).resolve().parent.parent)
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
_TIMEOUT = 120

# Prints the loaded numpy/scipy modules to stderr once the interpreter exits.
_REPORT_HEAVY = (
    "import atexit, json, sys; "
    "atexit.register(lambda: print(json.dumps(sorted("
    "m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy'))), "
    "file=sys.stderr)); "
)


def _python(*args):
    return subprocess.run([sys.executable, *args], env=_ENV, capture_output=True,
                          text=True, timeout=_TIMEOUT)


def test_import_cli_loads_no_numpy_or_scipy():
    done = _python("-c", _REPORT_HEAVY + "import vfdielectric.cli")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr) == []


def test_import_cli_loads_no_dataclasses_or_statistics():
    # each pulls in modules that every cold command would pay for
    done = _python("-c", "import sys, vfdielectric.cli; "
                         "print(sorted({'dataclasses', 'statistics'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_import_cli_without_site_loads_no_resources_pathlib_typing_or_threading():
    # site imports some of these itself, so the check runs with it off; any a
    # bare interpreter has already loaded are not the package's
    code = ("import sys; before = set(sys.modules); import vfdielectric.cli; "
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in "
            "('pathlib', 'typing', 'threading') or m.startswith('importlib.resources')))")
    done = _python("-S", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_zipped_package_prints_the_same_bytes(tmp_path):
    archive = tmp_path / "vfdielectric.zip"
    package = Path(vfdielectric.__file__).parent
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, path.relative_to(package.parent).as_posix())
    code = ("import runpy, sys, vfdielectric.constants as c; "
            "assert c.__spec__.loader.archive == sys.argv[1], c.__file__; "
            "sys.argv = ['vfdielectric', 'predict', '--format', 'json']; "
            "runpy.run_module('vfdielectric.cli', run_name='__main__')")
    argv = [sys.executable, "-c", code, str(archive)]
    zipped = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(archive)},
                            capture_output=True, timeout=_TIMEOUT)
    assert zipped.returncode == 0, zipped.stderr
    source = subprocess.run([sys.executable, "-m", "vfdielectric.cli", "predict", "--format",
                             "json"], env=_ENV, capture_output=True, timeout=_TIMEOUT)
    assert source.returncode == 0, source.stderr
    assert zipped.stdout == source.stdout
    assert b'"constants_source": "built-in default"' in zipped.stdout


def test_sensitivity_runs_without_numpy_or_scipy():
    code = (_REPORT_HEAVY + "import runpy; "
            "sys.argv = ['vfdielectric', 'sensitivity', '--format', 'json']; "
            "runpy.run_module('vfdielectric.cli', run_name='__main__')")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["coupling_scaling"]["fitted_exponent"] == pytest.approx(2.0, abs=0.05)
    assert json.loads(done.stderr) == []


@pytest.mark.parametrize("command", ["predict", "species", "verify", "historical"])
def test_command_loads_no_numpy_or_scipy(command):
    code = (_REPORT_HEAVY + "import runpy; "
            f"sys.argv = ['vfdielectric', {command!r}]; "
            "runpy.run_module('vfdielectric.cli', run_name='__main__')")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert json.loads(done.stderr) == []


# Prints the loaded vfdielectric modules, and whether csv is loaded, to stderr
# once the interpreter exits.
_REPORT_LOADED = (
    "import atexit, json, sys; "
    "atexit.register(lambda: print(json.dumps([sorted("
    "m for m in sys.modules if m.partition('.')[0] == 'vfdielectric'), 'csv' in sys.modules]), "
    "file=sys.stderr)); "
)
_BASE = ["vfdielectric", "vfdielectric.cli", "vfdielectric.constants", "vfdielectric.quantity"]
_ALL = _BASE + ["vfdielectric.oscillator", "vfdielectric.perturbation", "vfdielectric.species",
                "vfdielectric.vacuum", "vfdielectric.verify"]
_LOADED = {
    "historical": _BASE,
    "predict": _BASE + ["vfdielectric.species", "vfdielectric.vacuum"],
    "species": _BASE + ["vfdielectric.species"],
    "sensitivity": [m for m in _ALL if m != "vfdielectric.verify"],
    "verify": _ALL,
}


@pytest.mark.parametrize("output_format", ["table", "csv"])
@pytest.mark.parametrize("command", sorted(_LOADED))
def test_command_loads_only_the_modules_it_runs(command, output_format):
    # every module a cold process imports is compiled from source when no
    # bytecode is cached, so a command that skips the oracles starts faster
    code = (_REPORT_LOADED + "import vfdielectric.cli; "
            f"sys.argv = ['vfdielectric', {command!r}, '--format', {output_format!r}]; "
            "vfdielectric.cli.entry()")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert json.loads(done.stderr) == [sorted(_LOADED[command]), output_format == "csv"]


# Prints which of the parser's and the charge fraction's stdlib modules the
# program loaded, to stderr once the interpreter exits.  It runs with site off,
# since site may import some of them itself
_FRONT_END = ("argparse", "gettext", "locale", "shutil", "fractions", "decimal")
_REPORT_FRONT_END = (
    "import atexit, json, sys; before = set(sys.modules); "
    f"atexit.register(lambda: print(json.dumps(sorted(set(sys.modules) - before & set({_FRONT_END!r}))), "
    "file=sys.stderr)); "
)
_CANONICAL = {
    "predict": ["predict", "--include-quarks", "--width=min", "--format", "json", "--precision", "4"],
    "species": ["species", "--include-quarks", "--format=csv"],
    "verify": ["verify", "--tolerance", "1e-9", "--format", "json"],
    "sensitivity": ["sensitivity", "--branch", "literal", "--format", "json"],
    "historical": ["historical", "--precision=6"],
}


def _front_end_loaded(argv):
    code = (_REPORT_FRONT_END + "import vfdielectric.cli; "
            f"sys.argv = ['vfdielectric', *{argv!r}]; vfdielectric.cli.entry()")
    done = _python("-S", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    return json.loads(done.stderr)


@pytest.mark.parametrize("command", sorted(_CANONICAL))
def test_canonical_argv_loads_neither_argparse_nor_fractions(command):
    # argparse (with gettext, locale and, to size its help, shutil) and
    # fractions (with decimal) were the largest stdlib imports of a cold
    # command; the built-in charges are "2/3" and "1/3", read with int()
    assert _front_end_loaded(_CANONICAL[command]) == []


def test_an_abbreviated_option_still_goes_to_argparse():
    assert "argparse" in _front_end_loaded(["predict", "--inc", "--format=json"])


def test_help_still_comes_from_argparse():
    done = _python("-m", "vfdielectric.cli", "predict", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: vfdielectric predict")


def test_verify_passes_in_a_fresh_process():
    done = _python("-m", "vfdielectric.cli", "verify")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("command", ["sensitivity", "species"])
def test_closed_reader_exits_141_without_traceback(command):
    proc = subprocess.Popen(
        [sys.executable, "-m", "vfdielectric.cli", command, "--format", "json"],
        env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # the reader goes away before the first write
    _, err = proc.communicate(timeout=_TIMEOUT)
    assert proc.returncode == 141
    assert err == ""


def test_stdout_closed_at_start_exits_quietly():
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" -m vfdielectric.cli species --format json >&-', sys.executable],
        env=_ENV, capture_output=True, text=True, timeout=_TIMEOUT,
    )
    assert done.returncode == 0
    assert done.stderr == ""


# Eight threads start together in a fresh process, so they fill the dimension
# memos that q_mul and q_div read in their own frames, and the interpreter
# switches threads every microsecond.  Every memo must then hold only interned
# instances, and one serial run gives the reference results.
_CONCURRENT = """
import sys, threading
from vfdielectric import verify
from vfdielectric.constants import load_constants
from vfdielectric.species import builtin_species
from vfdielectric.vacuum import epsilon0_self_consistent

def work():
    constants = load_constants()
    species = builtin_species(constants, include_quarks=True)
    return species, epsilon0_self_consistent(species, constants), verify.run_all(constants)

results, errors = [None] * 8, []
barrier = threading.Barrier(8, timeout=60)

def run(i):
    try:
        barrier.wait()
        results[i] = work()
    except BaseException as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=100)
finally:
    sys.setswitchinterval(0.005)
assert not any(t.is_alive() for t in threads), "a thread did not finish"
assert errors == [], errors
# interning makes equality identity: every memoized result is the one instance
from vfdielectric.quantity import _INTERNED, Dimension
for d in list(_INTERNED.values()):
    for memoized in (*d._mul.values(), *d._div.values(), *d._pow.values(), d._root):
        assert memoized is None or memoized is Dimension(memoized.exponents), memoized
serial = work()
assert all(result == serial for result in results), "a threaded result differs"
print(len(results))
"""


def test_concurrent_callers_get_the_serial_results():
    done = _python("-c", _CONCURRENT)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "8\n"


# Runs each argv of argv[1] (a JSON list) through cli.main with fd 1 and fd 2
# pointed at a fresh file, so the process's own sys.stdout, set up from
# PYTHONIOENCODING, takes the one write; prints [exit, stdout, stderr] for
# each, the bytes as latin-1 text
_RUN_EACH = """
import json, os, sys, tempfile
from vfdielectric.cli import main

def run(argv):
    files = [tempfile.TemporaryFile() for _ in range(2)]
    saved = [os.dup(1), os.dup(2)]
    os.dup2(files[0].fileno(), 1)
    os.dup2(files[1].fileno(), 2)
    try:
        code = main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        for fd, copy in zip((1, 2), saved):
            os.dup2(copy, fd)
            os.close(copy)
    captured = []
    for f in files:
        f.seek(0)
        captured.append(f.read().decode("latin-1"))
        f.close()
    return [code, *captured]

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def _run_each(encoding, argvs, **environ):
    """(exit, stdout bytes, stderr text) of each argv in one process whose
    stdout encoding is ``encoding``, with ``environ`` added to its environment."""
    env = {key: value for key, value in _ENV.items() if key != "VACUUM_DATA_DIR"}
    done = subprocess.run([sys.executable, "-c", _RUN_EACH, json.dumps(argvs)],
                          env={**env, "PYTHONIOENCODING": encoding, **environ},
                          capture_output=True, text=True, timeout=_TIMEOUT)
    assert done.returncode == 0, done.stderr
    return [(code, out.encode("latin-1"), err) for code, out, err in json.loads(done.stdout)]


def _golden():
    path = Path(__file__).with_name("golden_outputs.json")
    return [(case["argv"], case["exit"], case["stdout"]) for case in json.loads(path.read_text("utf-8"))]


@pytest.mark.parametrize("seed", ["1", "4242"])
def test_golden_outputs_under_a_fixed_hash_seed(seed):
    # no dict or set order, which string hashing can change, may reach an output byte
    golden = _golden()
    results = _run_each("utf-8", [argv for argv, _, _ in golden], PYTHONHASHSEED=seed)
    for (argv, code, stdout), result in zip(golden, results):
        assert result == (code, stdout.encode("utf-8"), ""), argv


# the golden argvs whose table or CSV a stdout in each encoding cannot take
REFUSED = {
    "ascii": ["predict --format table", "verify --format table", "verify --format csv",
              "historical --format table", "predict --include-quarks --format table",
              "predict --precision 8"],
    "latin-1": ["predict --format table", "historical --format table",
                "predict --include-quarks --format table", "predict --precision 8"],
    "utf-8:strict": [],
}


def assert_unencodable(result):
    """(exit, stdout bytes, stderr text) of a run whose stdout could not take
    its output: exit 2, no stdout byte and one error line."""
    code, out, err = result
    assert (code, out) == (2, b"")
    assert err.startswith("error: standard output cannot encode this output: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-8:strict"])
def test_a_stdout_that_cannot_encode_the_output_exits_2_before_any_byte(encoding):
    # an output the encoding takes is written whole, byte for byte; any other
    # exits 2 with one error line, where it once ended in a traceback, exit 1,
    # after part of the output
    golden = _golden()
    codec = encoding.partition(":")[0]
    results = _run_each(encoding, [argv for argv, _, _ in golden])
    refused = []
    for (argv, code, stdout), result in zip(golden, results):
        try:
            expected = stdout.encode(codec)
        except UnicodeEncodeError:
            assert_unencodable(result)
            refused.append(" ".join(argv))
        else:
            assert result == (code, expected, ""), argv
    assert refused == REFUSED[encoding]


def test_a_lone_surrogate_in_a_species_name_exits_2_under_strict_utf8(tmp_path):
    # "\ud800" is valid JSON, and the JSON output escapes it; a table cannot
    # hold it, and the species table once printed its first rows before the
    # traceback
    from vfdielectric.constants import load_constants, serialize_constants

    rows = json.loads(serialize_constants(load_constants()))
    rows.append({"kind": "species", "name": "\ud800", "type": "lepton-pair",
                 "constituent_mass": {"value": 9.1093837015e-31, "unit": "kg"}})
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(rows), "utf-8")
    argvs = [[command, "--format", output_format, "--constants", str(path)]
             for command in ("predict", "species") for output_format in ("table", "csv", "json")]
    results = _run_each("utf-8:strict", argvs)
    for argv, result in zip(argvs, results):
        if "json" in argv:
            assert result[0] == 0 and b'"\\ud800"' in result[1], argv
        else:
            assert_unencodable(result)


def test_the_entry_point_exits_2_with_no_stdout_byte_under_ascii():
    done = subprocess.run([sys.executable, "-m", "vfdielectric.cli", "predict"],
                          env={**_ENV, "PYTHONIOENCODING": "ascii"},
                          capture_output=True, timeout=_TIMEOUT)
    assert_unencodable((done.returncode, done.stdout, done.stderr.decode("ascii")))
