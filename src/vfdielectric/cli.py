"""Command-line surface: predictions, species tables, verification, sweeps.

Each option is declared once, in one table.  A canonical argv (a command,
then each of its options at most once, spelled in full) is parsed from that
table without importing argparse; any other argv goes to the argparse parser
built from the same table, so help, usage, abbreviations and every parse
error are argparse's own.

Each handler returns its exit code and its whole stdout; ``main`` writes it
once, so an error leaves stdout empty, and so does a stdout whose encoding
cannot take the output, which exits 2.  JSON goes through one indent-2 writer,
:func:`_json`, which gives the bytes of ``json.dumps(..., indent=2)``.

Exit codes: 0 success, 1 verification failure, 2 input/configuration error
(argparse itself exits with 2 on unknown flags), 141 when the reader of
standard output goes away.  Tables print values with 3 significant figures by
default (``--precision`` overrides); JSON output keeps full float precision
and round-trips exactly.  CSV sections are separated by
``# section: <name>`` comment lines; column orders are fixed and documented in
the README.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import sys
import types

from .constants import QUARKONIUM, ConstantsError, ConstantsSet, load_constants
from .quantity import ELECTRIC_FIELD, OutOfRangeError, Quantity, q_div

# Each command imports the other modules it runs in its first lines, so a cold
# predict, species or historical loads none of the oracle modules.

__all__ = ["main", "entry"]

_LAMBDA_GRID = (1e-4, 3e-4, 1e-3, 3e-3)
_TRAJECTORY_SAMPLES = 17
_MAX_PRECISION = 17  # the most significant digits repr needs to round-trip a double
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that went away


def _fmt(value: float, precision: int) -> str:
    """Fixed significant figures, keeping significant trailing zeros."""
    text = f"{value:#.{precision}g}"
    return text[:-1] if text.endswith(".") else text


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return "".join("  ".join(map(str.ljust, row, widths)).rstrip() + "\n"
                   for row in (headers, *rows))


def _csv(sections: list[tuple[str, list[str], list[list]]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for name, headers, rows in sections:
        buffer.write(f"# section: {name}\n")
        writer.writerow(headers)
        writer.writerows(rows)
    return buffer.getvalue()


_quote = json.encoder.encode_basestring_ascii  # json's own C string encoder


def _json(obj: object, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``: the same text, without the pure-Python
    encoder that an ``indent`` puts ``json`` on.  ``newline`` is the line
    break and indent of ``obj``'s level.  Tuples are lists; a dict key that is
    not a ``str`` raises ``TypeError``."""
    if isinstance(obj, float):  # the commonest value first
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        items = [_json(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(obj, dict):  # _quote raises the TypeError of a key that is not a str
        items = [_quote(key) + ": " + _json(value, inner) for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# --- predict ----------------------------------------------------------------


def cmd_predict(args: types.SimpleNamespace, constants: ConstantsSet) -> tuple[int, str]:
    from .species import load_species
    from .vacuum import closed_form_report, epsilon0_self_consistent, report_to_dict

    species = load_species(
        constants, include_quarks=args.include_quarks, width_choice=args.width
    )
    n_leptons = sum(1 for s in species if s.kind != QUARKONIUM)
    if n_leptons == 0:
        raise ConstantsError(
            f"the species in {constants.origin} include no lepton pair; predict needs one"
        )
    closed = closed_form_report(constants, n_species=n_leptons)
    model = epsilon0_self_consistent(species, constants)

    if args.output_format == "json":
        return 0, _json(report_to_dict(model, constants)) + "\n"

    quantities = [
        ("epsilon0 [F/m]", "epsilon0",
         closed.epsilon0_model.value, model.epsilon0_model.value,
         constants.get("ref_epsilon0").value),
        ("c [m/s]", "c",
         closed.c_model.value, model.c_model.value, constants.get("ref_c").value),
        ("1/alpha", "inv_alpha",
         closed.inv_alpha_model, model.inv_alpha_model,
         constants.get("ref_inv_alpha").value),
    ]
    if args.output_format == "csv":
        rows = []
        for label, key, closed_value, sc_value, reference in quantities:
            rows.append(["closed-form", key, repr(closed_value), repr(reference),
                         repr(closed.reference_deltas[key])])
            rows.append(["self-consistent", key, repr(sc_value), repr(reference),
                         repr(model.reference_deltas[key])])
        contribution_rows = [
            [c.species_name, repr(c.epsilon_term.value), repr(c.in_alpha_units)]
            for c in model.contributions
        ]
        return 0, _csv([
            ("predictions", ["method", "quantity", "model_value", "reference_value", "delta_percent"], rows),
            ("contributions", ["species", "epsilon_term_F_per_m", "in_alpha_units"], contribution_rows),
        ])

    p = args.precision
    return 0, "".join((
        f"vacuum-fluctuation dielectric model — constants: {constants.origin}\n\n",
        _table(
            ["quantity", "closed-form", "self-consistent", "reference", "delta"],
            [
                [label, _fmt(closed_value, p), _fmt(sc_value, p), _fmt(reference, p),
                 f"{model.reference_deltas[key]:+.2f}%"]
                for label, key, closed_value, sc_value, reference in quantities
            ],
        ),
        f"\nself-consistent method converged in {model.iterations} iterations; "
        f"delta = (reference - model)/model\n\n",
        _table(
            ["species", "epsilon_term [F/m]", "in units of e^2/(hbar c)"],
            [[c.species_name, _fmt(c.epsilon_term.value, p), _fmt(c.in_alpha_units, p)]
             for c in model.contributions],
        ),
    ))


# --- species ----------------------------------------------------------------


_SPECIES_COLUMNS = [
    "species", "lifetime_s", "coherence_length_m", "number_density_per_m3",
    "omega0_rad_per_s", "decay_rate_per_s", "interacting_density_per_m3",
]


def _species_rows(args: types.SimpleNamespace, constants: ConstantsSet) -> list[dict]:
    from .species import coupling, kinematics, load_species

    c = constants.get("ref_c")
    eps = constants.get("ref_epsilon0")
    alpha = 1.0 / constants.get("ref_inv_alpha").value
    species = load_species(constants, include_quarks=args.include_quarks, width_choice=args.width)
    shared, rows = coupling(species, constants, eps, alpha, c), []
    for s in species:
        k = kinematics(s, constants, shared)
        values = (s.name, k.lifetime.value, k.coherence_length.value, k.number_density.value,
                  k.oscillator.omega0.value, k.decay_rate.value, k.interacting_density.value)
        rows.append(dict(zip(_SPECIES_COLUMNS, values)))
    return rows


def cmd_species(args: types.SimpleNamespace, constants: ConstantsSet) -> tuple[int, str]:
    rows = _species_rows(args, constants)
    if args.output_format == "json":
        return 0, _json(rows) + "\n"
    if args.output_format == "csv":
        return 0, _csv([("species", _SPECIES_COLUMNS,
                         [[row["species"]] + [repr(row[k]) for k in _SPECIES_COLUMNS[1:]]
                          for row in rows])])
    return 0, (
        f"per-species vacuum-fluctuation table (reference constants; "
        f"source: {constants.origin})\n\n"
        + _table(
            _SPECIES_COLUMNS,
            [[row["species"]] + [_fmt(row[k], args.precision) for k in _SPECIES_COLUMNS[1:]]
             for row in rows],
        )
    )


# --- verify -----------------------------------------------------------------


def cmd_verify(args: types.SimpleNamespace, constants: ConstantsSet) -> tuple[int, str]:
    from .verify import run_all

    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConstantsError(f"--tolerance must be a positive finite number, got {args.tolerance!r}")
    results = run_all(constants, quadrature_tol=args.tolerance)
    code = 0 if all(r.passed for r in results) else 1
    if args.output_format == "json":
        return code, _json([result.__dict__ for result in results]) + "\n"
    if args.output_format == "csv":
        return code, _csv([("checks", ["check", "passed", "tolerance", "detail"],
                            [[r.name, r.passed, repr(r.tolerance), r.detail] for r in results])])
    return code, "".join(
        f"{'PASS' if r.passed else 'FAIL'}  {r.name} (tol {r.tolerance:g}): {r.detail}\n"
        for r in results)


# --- sensitivity ------------------------------------------------------------


def _sensitivity_payload(args: types.SimpleNamespace, constants: ConstantsSet) -> dict:
    from .perturbation import (
        LAMBDA_BAND,
        CouplingLambda,
        coupling_value,
        dipole_trajectory,
        scaling_exponent,
    )
    from .species import builtin_species, resonant_frequency
    from .vacuum import c_from_epsilon, epsilon0_closed_form, inverse_alpha

    count_rows = []
    for n in range(1, 7):
        eps = epsilon0_closed_form(constants, n_species=n)
        c = c_from_epsilon(eps, constants)
        count_rows.append({
            "n_species": n,
            "epsilon0_F_per_m": eps.value,
            "c_m_per_s": c.value,
            "inv_alpha": inverse_alpha(eps, c, constants),
        })

    tau = math.pi
    exponent = scaling_exponent(_LAMBDA_GRID, tau)

    # the built-in e pair on purpose: the demonstration is defined on it
    e_pair = builtin_species(constants)[0]
    osc = resonant_frequency(e_pair, constants,
                             constants.get("ref_epsilon0"), constants.get("ref_c"))
    e, field, hbar = constants.get("e"), Quantity(1.0, ELECTRIC_FIELD), constants.get("hbar")
    lam = coupling_value(osc, e, field, hbar)
    if abs(lam) >= LAMBDA_BAND:  # the first-order amplitudes would be out of their validity band
        raise ConstantsError(
            f"the constants in {constants.origin} give the {e_pair.name} dipole trajectory "
            f"a coupling lam={lam!r} outside the first-order band |lam| < {LAMBDA_BAND}"
        )
    taus = [2 * math.pi * i / (_TRAJECTORY_SAMPLES - 1) for i in range(_TRAJECTORY_SAMPLES)]
    trajectory = dipole_trajectory(osc, e, args.branch, taus, hbar, CouplingLambda(lam))
    return {
        "species_count_sweep": count_rows,
        "coupling_scaling": {
            "lambda_grid": list(_LAMBDA_GRID),
            "tau": tau,
            "fitted_exponent": exponent,
        },
        "dipole_trajectory": {
            "species": e_pair.name,
            "branch": args.branch,
            "field_V_per_m": 1.0,
            "samples": [{"tau": t, "dipole_Cm": p.value} for t, p in trajectory],
        },
    }


def cmd_sensitivity(args: types.SimpleNamespace, constants: ConstantsSet) -> tuple[int, str]:
    payload = _sensitivity_payload(args, constants)
    if args.output_format == "json":
        return 0, _json(payload) + "\n"

    count_headers = ["n_species", "epsilon0_F_per_m", "c_m_per_s", "inv_alpha"]
    scaling = payload["coupling_scaling"]
    trajectory = payload["dipole_trajectory"]
    if args.output_format == "csv":
        return 0, _csv([
            ("species_count_sweep", count_headers,
             [[row[k] if k == "n_species" else repr(row[k]) for k in count_headers]
              for row in payload["species_count_sweep"]]),
            ("coupling_scaling", ["tau", "lambda_grid", "fitted_exponent"],
             [[repr(scaling["tau"]),
               " ".join(repr(v) for v in scaling["lambda_grid"]),
               repr(scaling["fitted_exponent"])]]),
            ("dipole_trajectory", ["tau", "dipole_Cm"],
             [[repr(s["tau"]), repr(s["dipole_Cm"])] for s in trajectory["samples"]]),
        ])

    p = args.precision
    return 0, "".join((
        f"sensitivity sweeps (constants: {constants.origin})\n\n"
        "model outputs vs number of lepton species (closed form):\n",
        _table(count_headers,
               [[str(row["n_species"])] + [_fmt(row[k], p) for k in count_headers[1:]]
                for row in payload["species_count_sweep"]]),
        "\nfirst-order back-reaction scaling: |a0(tau)-1| ~ lambda^x at tau = pi\n"
        f"  lambda grid: {', '.join(_fmt(v, p) for v in scaling['lambda_grid'])}\n"
        f"  fitted exponent: {scaling['fitted_exponent']:.3f}\n\n"
        f"dipole trajectory ({trajectory['species']}, branch={trajectory['branch']}, "
        "E0 = 1 V/m):\n",
        _table(["tau", "dipole_Cm"],
               [[_fmt(s["tau"], p), _fmt(s["dipole_Cm"], p)]
                for s in trajectory["samples"]]),
    ))


# --- historical -------------------------------------------------------------


def _historical_rows(constants: ConstantsSet) -> list[dict]:
    ref_inv_alpha = constants.get("ref_inv_alpha").value
    alpha = 1.0 / ref_inv_alpha
    wyler = 16.0 * math.pi**3 / 9.0 * (math.factorial(5) / math.pi) ** 0.25
    rows = [
        {
            "name": "bethe_absolute_zero",
            "formula": "T0 = -(2/alpha - 1) degrees Celsius",
            "value": -(2.0 / alpha - 1.0),
            "comparison": -273.15,
            "comparison_label": "absolute zero (degC)",
        },
        {
            "name": "allen_mass_ratio",
            "formula": "m_e/u vs 10 alpha^2",
            "value": 10.0 * (Quantity(alpha) ** 2).value,  # an infinite or overflowing alpha exits 2
            "comparison": q_div(constants.get("m_e"), constants.get("m_u")).value,
            "comparison_label": "m_e/u",
        },
        {
            "name": "wyler",
            "formula": "1/alpha ~ (16 pi^3/9) (5!/pi)^(1/4)",
            "value": wyler,
            "comparison": ref_inv_alpha,
            "comparison_label": "reference 1/alpha",
        },
    ]
    return rows


def cmd_historical(args: types.SimpleNamespace, constants: ConstantsSet) -> tuple[int, str]:
    rows = _historical_rows(constants)
    if args.output_format == "json":
        return 0, _json({"note": "historical/numerological formulas, not physics",
                         "rows": rows}) + "\n"
    if args.output_format == "csv":
        return 0, _csv([("historical", ["name", "formula", "value", "comparison", "comparison_label"],
                         [[r["name"], r["formula"], repr(r["value"]), repr(r["comparison"]),
                           r["comparison_label"]] for r in rows])])
    p = max(args.precision, 8)  # the whole point of these is many matching digits
    return 0, (
        "historical/numerological formulas for 1/alpha — demonstrations, not physics:\n\n"
        + _table(
            ["name", "formula", "value", "compared against"],
            [[r["name"], r["formula"], _fmt(r["value"], p),
              f"{_fmt(r['comparison'], p)} ({r['comparison_label']})"] for r in rows],
        )
    )


# --- parsing and dispatch ---------------------------------------------------


# Each option, declared once: its flag and add_argument's keywords, dest and
# default always among them.  _build_parser hands them to argparse, and
# _parse_canonical reads them.  The tolerance default and the branch choices
# are oscillator.DEFAULT_QUAD_TOL and perturbation.BRANCHES / BRANCH_PAPER,
# written out so parsing imports neither module (a test pins them to those names)
_SHARED_OPTIONS = (
    ("--constants", {"dest": "constants", "metavar": "PATH", "default": None,
                     "help": "constants data file (overrides VACUUM_DATA_DIR and the built-in default)"}),
    ("--format", {"dest": "output_format", "choices": ("table", "json", "csv"),
                  "default": "table", "help": "output format"}),
    ("--precision", {"dest": "precision", "type": int, "default": 3, "metavar": "N",
                     "help": "significant figures in table output (default 3)"}),
)
_QUARK_OPTIONS = (
    ("--include-quarks", {"dest": "include_quarks", "action": "store_true", "default": False,
                          "help": "include eta_c and eta_b quarkonium terms (default: leptons only)"}),
    ("--width", {"dest": "width", "choices": ("min", "max"), "default": "max",
                 "help": "which tabulated two-photon width to use where a range exists (eta_b)"}),
)
# each command: its handler, its help line and the options it adds to the shared ones
_COMMANDS = {
    "predict": (cmd_predict, "model predictions for eps0, c and 1/alpha with reference deltas",
                _QUARK_OPTIONS),
    "species": (cmd_species, "per-species lifetimes, densities, frequencies and rates",
                _QUARK_OPTIONS),
    "verify": (cmd_verify, "run the oracle cross-check suites (exit 1 on any failure)", (
        ("--tolerance", {"dest": "tolerance", "type": float, "default": 1e-10, "metavar": "TOL",
                         "help": "quadrature-vs-analytic check tolerance (default %(default)g)"}),
    )),
    "sensitivity": (cmd_sensitivity,
                    "sweeps: outputs vs species count, coupling scaling, dipole trajectory", (
        ("--branch", {"dest": "branch", "choices": ("paper", "literal"), "default": "paper",
                      "help": "first-order amplitude branch for dipole trajectories"}),
    )),
    "historical": (cmd_historical,
                   "historical/numerological formulas for 1/alpha (demonstration only)", ()),
}


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    shared = argparse.ArgumentParser(add_help=False)
    for flag, spec in _SHARED_OPTIONS:
        shared.add_argument(flag, **spec)
    parser = argparse.ArgumentParser(
        prog="vfdielectric",
        description="Vacuum-fluctuation dielectric model: predict the vacuum "
                    "permittivity, the speed of light and the fine-structure constant.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[shared], help=help_text)
        for flag, spec in options:
            command.add_argument(flag, **spec)
        command.set_defaults(handler=handler)
    return parser


def _parse_canonical(argv: "list[str]") -> types.SimpleNamespace | None:
    """The namespace argparse gives a canonical ``argv``, or None for any other.

    Canonical: a command name, then each of its options at most once, spelled
    in full, a flag bare and any other option as ``--opt value`` or
    ``--opt=value``, the value nonempty and not starting with ``-``.  A value
    goes through the option's type and choices as argparse's would.  Help, an
    abbreviation, a repeat, ``--`` and every error are None, so argparse
    handles them and every help, usage and error byte is its own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    specs = dict(_SHARED_OPTIONS + options)
    values = {spec["dest"]: spec["default"] for spec in specs.values()}
    seen = set()
    args = iter(argv[1:])
    for arg in args:
        flag, equals, value = arg.partition("=")
        spec = specs.get(flag)
        if spec is None or flag in seen:
            return None
        seen.add(flag)
        if spec.get("action") == "store_true":
            if equals:
                return None
            value = True
        else:
            if not equals:
                value = next(args, "")
            if not value or value[0] == "-":
                return None
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        values[spec["dest"]] = value
    return types.SimpleNamespace(subcommand=argv[0], handler=handler, **values)


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # every handler gets a SimpleNamespace, argparse's copied into one
    args = _parse_canonical(argv) or types.SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    try:
        if args.precision < 1:
            raise ConstantsError("--precision must be a positive integer")
        if args.precision > _MAX_PRECISION:  # before any format spec can ask for a huge string
            raise ConstantsError(f"--precision must be at most {_MAX_PRECISION}, got {args.precision}")
        constants = load_constants(args.constants)  # a bad species record exits 2 whichever command runs
        # a command raises ConstantsError (a bad --tolerance, a missing optional
        # key) or OutOfRangeError before it returns its output, so none is written
        try:
            code, text = args.handler(args, constants)
        except OutOfRangeError as exc:  # the input values, not the program, are at fault
            raise ConstantsError(
                f"the constants in {constants.origin} take a result out of the float range: {exc}"
            ) from exc
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            try:  # the one write of standard output
                sys.stdout.write(text)
            except UnicodeEncodeError as exc:  # encoded whole before a byte is written
                raise ConstantsError(f"standard output cannot encode this output: {exc}") from exc
    except ConstantsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: point stdout at devnull so the flush at
        # interpreter exit cannot raise again, and exit as a shell would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = _EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
