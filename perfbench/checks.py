"""Correctness checks applied to every timed request's exit code and output.

Each check recomputes what the output must say from the constants file the
request read, so a tampered or drifted output counts as a failed request.
"""

from __future__ import annotations

import csv
import json
import math

import inputs

INV_ALPHA_LEPTONS = 64.0 * math.sqrt(1.5 * math.pi)
WYLER = 16.0 * math.pi**3 / 9.0 * (math.factorial(5) / math.pi) ** 0.25
BUNDLED_DELTAS = {"epsilon0": -2.7, "c": 1.4, "inv_alpha": -1.4}
REL_TOL = 1e-12

PREDICT_HEADER = ["quantity", "closed-form", "self-consistent", "reference", "delta"]
CONTRIBUTION_HEADER = "species epsilon_term [F/m] in units of e^2/(hbar c)".split()
SPECIES_COLUMNS = [
    "species", "lifetime_s", "coherence_length_m", "number_density_per_m3",
    "omega0_rad_per_s", "decay_rate_per_s", "interacting_density_per_m3",
]
HISTORICAL_NAMES = ["bethe_absolute_zero", "allen_mass_ratio", "wyler"]
VERIFY_CHECKS = 5


def _close(value: float, expected: float, tol: float = REL_TOL) -> bool:
    return abs(value - expected) <= tol * abs(expected)


def _fmt(value: float, precision: int) -> str:
    text = f"{value:#.{precision}g}"
    return text[:-1] if text.endswith(".") else text


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _csv_sections(text: str) -> dict[str, list[list[str]]]:
    sections: dict[str, list[list[str]]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# section: "):
            current = sections.setdefault(line[len("# section: "):], [])
        else:
            current.extend(csv.reader([line]))
    return sections


def lepton_epsilon0(values: dict[str, float]) -> float:
    """``(6 mu0/pi)(8 e^2/hbar)^2`` from the file's raw values."""
    return 6.0 * values["mu0"] / math.pi * (8.0 * values["e"] ** 2 / values["hbar"]) ** 2


def _predict(argv, out, values, bundled) -> bool:
    quarks = "--include-quarks" in argv
    fmt = _flag(argv, "--format", "table")
    if fmt == "table":
        lines = out.splitlines()
        precision = int(_flag(argv, "--precision", "3"))
        inv_alpha_row = lines[5].split()
        species_rows = [line for line in lines[10:] if line.strip()]
        return (lines[0].startswith("vacuum-fluctuation dielectric model")
                and lines[2].split() == PREDICT_HEADER
                and inv_alpha_row[:2] == ["1/alpha", _fmt(INV_ALPHA_LEPTONS, precision)]
                and lines[9].split() == CONTRIBUTION_HEADER
                and len(species_rows) == (5 if quarks else 3))
    if fmt == "json":
        payload = json.loads(out)
        eps0 = payload["model"]["epsilon0"]
        inv_alpha = payload["model"]["inv_alpha"]
        deltas = payload["deltas_percent"]
        n_contributions = len(payload["contributions"])
    else:
        sections = _csv_sections(out)
        model = {row[1]: row for row in sections["predictions"][1:]
                 if row[0] == "self-consistent"}
        eps0 = float(model["epsilon0"][2])
        inv_alpha = float(model["inv_alpha"][2])
        deltas = {key: float(row[4]) for key, row in model.items()}
        n_contributions = len(sections["contributions"]) - 1
    if quarks:
        return n_contributions == 5 and eps0 > lepton_epsilon0(values)
    ok = (n_contributions == 3
          and _close(inv_alpha, INV_ALPHA_LEPTONS)
          and _close(eps0, lepton_epsilon0(values)))
    if bundled:
        ok = ok and all(round(deltas[k], 1) == v for k, v in BUNDLED_DELTAS.items())
    return ok


def _species(argv, out, values, bundled) -> bool:
    n_species = 5 if "--include-quarks" in argv else 3
    density = (4.0 * values["m_e"] * values["ref_c"] / values["hbar"]) ** 3
    fmt = _flag(argv, "--format", "table")
    if fmt == "table":
        lines = out.splitlines()
        rows = [line.split() for line in lines[3:] if line.strip()]
        precision = int(_flag(argv, "--precision", "3"))
        return (lines[2].split() == SPECIES_COLUMNS
                and len(rows) == n_species
                and rows[0][0] == "e_pair"
                and rows[0][3] == _fmt(density, precision))
    if fmt == "json":
        rows = json.loads(out)
        first = rows[0]
    else:
        table = _csv_sections(out)["species"]
        if table[0] != SPECIES_COLUMNS:
            return False
        rows = table[1:]
        first = dict(zip(SPECIES_COLUMNS, rows[0]))
    return (len(rows) == n_species and first["species"] == "e_pair"
            and _close(float(first["number_density_per_m3"]), density))


def _verify(argv, out, values, bundled) -> bool:
    fmt = _flag(argv, "--format", "table")
    if fmt == "table":
        lines = out.splitlines()
        passed = [line.startswith("PASS  ") for line in lines]
    elif fmt == "json":
        passed = [check["passed"] is True for check in json.loads(out)]
    else:
        rows = _csv_sections(out)["checks"]
        passed = [row[1] == "True" for row in rows[1:]]
    return len(passed) == VERIFY_CHECKS and all(passed)


def _sensitivity(argv, out, values, bundled) -> bool:
    fmt = _flag(argv, "--format", "table")
    if fmt == "table":
        prefix = "  fitted exponent: "
        (line,) = [line for line in out.splitlines() if line.startswith(prefix)]
        exponent = float(line[len(prefix):])
    elif fmt == "json":
        exponent = json.loads(out)["coupling_scaling"]["fitted_exponent"]
    else:
        exponent = float(_csv_sections(out)["coupling_scaling"][1][2])
    return abs(exponent - 2.0) <= 0.01


def _historical(argv, out, values, bundled) -> bool:
    fmt = _flag(argv, "--format", "table")
    if fmt == "table":
        lines = out.splitlines()
        rows = [line.split()[0] for line in lines[3:] if line.strip()]
        return lines[2].split() == ["name", "formula", "value", "compared", "against"] \
            and rows == HISTORICAL_NAMES
    if fmt == "json":
        rows = {r["name"]: r["value"] for r in json.loads(out)["rows"]}
    else:
        rows = {r[0]: float(r[2]) for r in _csv_sections(out)["historical"][1:]}
    bethe = -(2.0 * values["ref_inv_alpha"] - 1.0)
    return (list(rows) == HISTORICAL_NAMES and _close(rows["wyler"], WYLER)
            and _close(rows["bethe_absolute_zero"], bethe))


_CHECKS = {
    "predict": _predict,
    "species": _species,
    "verify": _verify,
    "sensitivity": _sensitivity,
    "historical": _historical,
}


def output_ok(argv: list[str], exit_code: int | None, out: str,
              values: dict[str, float], bundled: bool) -> bool:
    """True when a request exited 0 and its output is what it must be.

    ``argv`` is the request as generated (without ``--constants``); ``values``
    are the raw values of the constants file it read.
    """
    if exit_code != 0:
        return False
    try:
        return bool(_CHECKS[argv[0]](argv, out, values, bundled))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False


def request_ok(request: inputs.Request, exit_code: int | None, out: str, text: str) -> bool:
    """``output_ok`` for a generated request that read the constants ``text``."""
    return output_ok(list(request.argv), exit_code, out, inputs.constants_values(text),
                     request.source == inputs.BUNDLED)
