"""The extreme-value sweep of the CLI, and its full run.

Each of 13 constants is set alone, in a copy of the bundled file, to its
bundled value times ``10.0**k`` for ``k`` in ``range(-320, 317, stride)``, and
to 1.7e308 and 5e-324; a value outside (0, inf) is skipped.  Six commands run
on each file through in-process ``cli.main`` calls, each with ``--format
json``.  Every run must:

- end without an exception escaping ``main``;
- exit 0 or 2, or 1 for a ``verify`` that fails a check;
- exit with the code ``extreme_sweep_codes.json`` gives it;
- print no ``Infinity`` or ``NaN``, on stdout or stderr;
- if it exits 0, print JSON in which every number is 0.0 or a normal float.

``tests/test_extreme_sweep.py`` runs the stride-49 slice (1122 runs) with the
other tests.  pytest's default pattern does not collect this file, so the full
stride-7 sweep (6996 runs) runs only when it is named::

    PYTHONPATH=src python -m pytest -q tests/extreme_sweep.py

``extreme_sweep_codes.json`` maps each key, then each value's ``repr``, to the
exit codes of the six argvs in order, one digit each.  A change that flips an
exit code regenerates it from the repository root with::

    env -u VACUUM_DATA_DIR PYTHONPATH=src:tests python -c "import json, pathlib, tempfile, extreme_sweep as s; d = tempfile.TemporaryDirectory(); codes = s.sweep(7, pathlib.Path(d.name))[1]; open('tests/extreme_sweep_codes.json', 'w').write(json.dumps(codes, indent=1) + '\\n')"
"""

import contextlib
import functools
import io
import json
import math
import sys
from pathlib import Path

from vfdielectric.cli import main
from vfdielectric.constants import load_constants, serialize_constants

KEYS = (
    "ref_epsilon0", "ref_c", "ref_inv_alpha", "m_u", "m_e", "e", "hbar", "mu0",
    "m_mu", "m_tau", "m_c", "m_etac", "gamma_etac_2gamma",
)
ARGVS = (
    ["predict"],
    ["predict", "--include-quarks"],
    ["species", "--include-quarks"],
    ["sensitivity"],
    ["historical"],
    ["verify"],
)
EXTREMES = (1.7e308, 5e-324)
CODES = Path(__file__).with_name("extreme_sweep_codes.json")


def sweep_values(bundled: float, stride: int) -> list[float]:
    """The values one key takes: ``bundled * 10.0**k``, then the extremes."""
    values = []
    for k in range(-320, 317, stride):
        try:
            values.append(bundled * 10.0**k)
        except OverflowError:  # 10.0**k itself is past the float range
            pass
    return [v for v in values + list(EXTREMES) if 0.0 < v < math.inf]


def _is_zero_or_normal(x: float) -> bool:
    return x == 0.0 or sys.float_info.min <= abs(x) <= sys.float_info.max


def _numbers(node):
    """Every number in a parsed JSON document; booleans are not numbers."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def run(argv: list[str]) -> tuple[int | str, str, str]:
    """Exit code, stdout and stderr of one ``main`` call; an exception that
    escapes it stands in for the code as its type and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback at the command line
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def faults(rows: list[dict], key: str, value: float, path: str) -> tuple[str, list[str]]:
    """Write ``rows`` with ``key`` set to ``value`` to ``path``, run every
    argv on it, and return the exit codes, one digit per argv, and a line for
    each broken rule."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([{**row, "value": value} if row.get("key") == key else row for row in rows], handle)
    expected = _expected_codes().get(key, {}).get(repr(value), "")
    codes, found = "", []
    for i, argv in enumerate(ARGVS):
        code, out, err = run(argv + ["--format", "json", "--constants", path])
        where = f"{key}={value!r} {' '.join(argv)}"
        allowed = (0, 1, 2) if argv[0] == "verify" else (0, 2)
        if code not in allowed:
            found.append(f"{where}: exit {code}")
            codes += "?"
            continue
        codes += str(code)
        if codes[i] != expected[i:i + 1]:
            found.append(f"{where}: exit {code}, {CODES.name} has {expected[i:i + 1] or 'none'}")
        if any(word in text for word in ("Infinity", "NaN") for text in (out, err)):
            found.append(f"{where}: Infinity or NaN in the output")
        if code == 0:
            bad = [x for x in _numbers(json.loads(out)) if not _is_zero_or_normal(float(x))]
            if bad:
                found.append(f"{where}: {bad[:3]} are neither 0.0 nor normal")
    return codes, found


@functools.cache
def _expected_codes() -> dict[str, dict[str, str]]:
    with open(CODES, encoding="utf-8") as handle:
        return json.load(handle)


def sweep(stride: int, directory) -> tuple[int, dict[str, dict[str, str]], list[str]]:
    """The number of runs of the sweep at ``stride``, their exit codes keyed
    as in ``extreme_sweep_codes.json``, and every fault found."""
    rows = json.loads(serialize_constants(load_constants()))
    bundled = {row["key"]: row["value"] for row in rows if "key" in row}
    runs, codes, found = 0, {}, []
    for key in KEYS:
        for value in sweep_values(bundled[key], stride):
            value_codes, value_found = faults(rows, key, value, str(directory / "constants.json"))
            codes.setdefault(key, {})[repr(value)] = value_codes
            found += value_found
            runs += len(ARGVS)
    return runs, codes, found


def test_full_sweep(tmp_path):
    runs, codes, found = sweep(7, tmp_path)
    assert runs == 6996
    assert found == []
    assert codes == _expected_codes()  # and the file holds no other run
