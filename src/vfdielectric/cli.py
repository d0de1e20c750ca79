"""Command-line surface: predictions, species tables, verification, sweeps.

Exit codes: 0 success, 1 verification failure, 2 input/configuration error
(argparse itself exits with 2 on unknown flags), 141 when the reader of
standard output goes away.  Tables print values with 3 significant figures by
default (``--precision`` overrides); JSON output keeps full float precision
and round-trips exactly.  CSV sections are separated by
``# section: <name>`` comment lines; column orders are fixed and documented in
the README.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .constants import QUARKONIUM, ConstantsError, ConstantsSet, load_constants
from .oscillator import DEFAULT_QUAD_TOL
from .quantity import ELECTRIC_FIELD, OutOfRangeError, Quantity, q_div
from .species import builtin_species, kinematics, load_species, resonant_frequency
from .perturbation import BRANCH_PAPER, BRANCHES, dipole_trajectory, scaling_exponent
from .vacuum import (
    closed_form_report,
    epsilon0_closed_form,
    epsilon0_self_consistent,
    c_from_epsilon,
    inverse_alpha,
    report_to_dict,
)
from .verify import run_all

__all__ = ["main", "entry"]

_LAMBDA_GRID = (1e-4, 3e-4, 1e-3, 3e-3)
_TRAJECTORY_SAMPLES = 17
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that went away


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--constants", metavar="PATH", default=None,
                        help="constants data file (overrides VACUUM_DATA_DIR and the built-in default)")
    shared.add_argument("--format", dest="output_format", choices=("table", "json", "csv"),
                        default="table", help="output format")
    shared.add_argument("--precision", type=int, default=3, metavar="N",
                        help="significant figures in table output (default 3)")

    parser = argparse.ArgumentParser(
        prog="vfdielectric",
        description="Vacuum-fluctuation dielectric model: predict the vacuum "
                    "permittivity, the speed of light and the fine-structure constant.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    predict = sub.add_parser("predict", parents=[shared],
                             help="model predictions for eps0, c and 1/alpha with reference deltas")
    species = sub.add_parser("species", parents=[shared],
                             help="per-species lifetimes, densities, frequencies and rates")
    for command, handler in ((predict, cmd_predict), (species, cmd_species)):
        command.add_argument("--include-quarks", action="store_true",
                             help="include eta_c and eta_b quarkonium terms (default: leptons only)")
        command.add_argument("--width", choices=("min", "max"), default="max",
                             help="which tabulated two-photon width to use where a range exists (eta_b)")
        command.set_defaults(handler=handler)
    verify = sub.add_parser("verify", parents=[shared],
                            help="run the oracle cross-check suites (exit 1 on any failure)")
    verify.add_argument("--tolerance", type=float, default=DEFAULT_QUAD_TOL, metavar="TOL",
                        help="quadrature-vs-analytic check tolerance (default %(default)g)")
    verify.set_defaults(handler=cmd_verify)
    sensitivity = sub.add_parser("sensitivity", parents=[shared],
                                 help="sweeps: outputs vs species count, coupling scaling, dipole trajectory")
    sensitivity.add_argument("--branch", choices=BRANCHES, default=BRANCH_PAPER,
                             help="first-order amplitude branch for dipole trajectories")
    sensitivity.set_defaults(handler=cmd_sensitivity)
    historical = sub.add_parser("historical", parents=[shared],
                                help="historical/numerological formulas for 1/alpha (demonstration only)")
    historical.set_defaults(handler=cmd_historical)
    return parser


def _fmt(value: float, precision: int) -> str:
    """Fixed significant figures, keeping significant trailing zeros."""
    text = f"{value:#.{precision}g}"
    return text[:-1] if text.endswith(".") else text


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _print_csv(sections: list[tuple[str, list[str], list[list]]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for name, headers, rows in sections:
        buffer.write(f"# section: {name}\n")
        writer.writerow(headers)
        writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


# --- predict ----------------------------------------------------------------


def cmd_predict(args: argparse.Namespace, constants: ConstantsSet) -> int:
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
        print(json.dumps(report_to_dict(model, constants), indent=2))
        return 0

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
        _print_csv([
            ("predictions", ["method", "quantity", "model_value", "reference_value", "delta_percent"], rows),
            ("contributions", ["species", "epsilon_term_F_per_m", "in_alpha_units"], contribution_rows),
        ])
        return 0

    p = args.precision
    print(f"vacuum-fluctuation dielectric model — constants: {constants.origin}")
    print()
    _print_table(
        ["quantity", "closed-form", "self-consistent", "reference", "delta"],
        [
            [label, _fmt(closed_value, p), _fmt(sc_value, p), _fmt(reference, p),
             f"{model.reference_deltas[key]:+.2f}%"]
            for label, key, closed_value, sc_value, reference in quantities
        ],
    )
    print()
    print(f"self-consistent method converged in {model.iterations} iterations; "
          f"delta = (reference - model)/model")
    print()
    _print_table(
        ["species", "epsilon_term [F/m]", "in units of e^2/(hbar c)"],
        [[c.species_name, _fmt(c.epsilon_term.value, p), _fmt(c.in_alpha_units, p)]
         for c in model.contributions],
    )
    return 0


# --- species ----------------------------------------------------------------


_SPECIES_COLUMNS = [
    "species", "lifetime_s", "coherence_length_m", "number_density_per_m3",
    "omega0_rad_per_s", "decay_rate_per_s", "interacting_density_per_m3",
]


def _species_rows(args: argparse.Namespace, constants: ConstantsSet) -> list[dict]:
    c = constants.get("ref_c")
    eps = constants.get("ref_epsilon0")
    alpha = 1.0 / constants.get("ref_inv_alpha").value
    rows = []
    for s in load_species(constants, include_quarks=args.include_quarks,
                          width_choice=args.width):
        k = kinematics(s, constants, eps, alpha, c)
        values = (s.name, k.lifetime.value, k.coherence_length.value, k.number_density.value,
                  k.oscillator.omega0.value, k.decay_rate.value, k.interacting_density.value)
        rows.append(dict(zip(_SPECIES_COLUMNS, values)))
    return rows


def cmd_species(args: argparse.Namespace, constants: ConstantsSet) -> int:
    rows = _species_rows(args, constants)
    if args.output_format == "json":
        print(json.dumps(rows, indent=2))
        return 0
    if args.output_format == "csv":
        _print_csv([("species", _SPECIES_COLUMNS,
                     [[row["species"]] + [repr(row[k]) for k in _SPECIES_COLUMNS[1:]]
                      for row in rows])])
        return 0
    print(f"per-species vacuum-fluctuation table (reference constants; "
          f"source: {constants.origin})")
    print()
    _print_table(
        _SPECIES_COLUMNS,
        [[row["species"]] + [_fmt(row[k], args.precision) for k in _SPECIES_COLUMNS[1:]]
         for row in rows],
    )
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, constants: ConstantsSet) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConstantsError(f"--tolerance must be a positive finite number, got {args.tolerance!r}")
    results = run_all(constants, quadrature_tol=args.tolerance)
    if args.output_format == "json":
        print(json.dumps([result.__dict__ for result in results], indent=2))
    elif args.output_format == "csv":
        _print_csv([("checks", ["check", "passed", "tolerance", "detail"],
                     [[r.name, r.passed, repr(r.tolerance), r.detail] for r in results])])
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name} (tol {r.tolerance:g}): {r.detail}")
    return 0 if all(r.passed for r in results) else 1


# --- sensitivity ------------------------------------------------------------


def _sensitivity_payload(args: argparse.Namespace, constants: ConstantsSet) -> dict:
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
    taus = [2 * math.pi * i / (_TRAJECTORY_SAMPLES - 1) for i in range(_TRAJECTORY_SAMPLES)]
    trajectory = dipole_trajectory(
        osc, constants.get("e"), Quantity(1.0, ELECTRIC_FIELD),
        args.branch, taus, constants.get("hbar"),
    )
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


def cmd_sensitivity(args: argparse.Namespace, constants: ConstantsSet) -> int:
    payload = _sensitivity_payload(args, constants)
    if args.output_format == "json":
        print(json.dumps(payload, indent=2))
        return 0

    count_headers = ["n_species", "epsilon0_F_per_m", "c_m_per_s", "inv_alpha"]
    scaling = payload["coupling_scaling"]
    trajectory = payload["dipole_trajectory"]
    if args.output_format == "csv":
        _print_csv([
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
        return 0

    p = args.precision
    print(f"sensitivity sweeps (constants: {constants.origin})")
    print()
    print("model outputs vs number of lepton species (closed form):")
    _print_table(count_headers,
                 [[str(row["n_species"])] + [_fmt(row[k], p) for k in count_headers[1:]]
                  for row in payload["species_count_sweep"]])
    print()
    print(f"first-order back-reaction scaling: |a0(tau)-1| ~ lambda^x at tau = pi")
    print(f"  lambda grid: {', '.join(_fmt(v, p) for v in scaling['lambda_grid'])}")
    print(f"  fitted exponent: {scaling['fitted_exponent']:.3f}")
    print()
    print(f"dipole trajectory ({trajectory['species']}, branch={trajectory['branch']}, "
          f"E0 = 1 V/m):")
    _print_table(["tau", "dipole_Cm"],
                 [[_fmt(s["tau"], p), _fmt(s["dipole_Cm"], p)]
                  for s in trajectory["samples"]])
    return 0


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


def cmd_historical(args: argparse.Namespace, constants: ConstantsSet) -> int:
    rows = _historical_rows(constants)
    if args.output_format == "json":
        print(json.dumps({"note": "historical/numerological formulas, not physics",
                          "rows": rows}, indent=2))
        return 0
    if args.output_format == "csv":
        _print_csv([("historical", ["name", "formula", "value", "comparison", "comparison_label"],
                     [[r["name"], r["formula"], repr(r["value"]), repr(r["comparison"]),
                       r["comparison_label"]] for r in rows])])
        return 0
    p = max(args.precision, 8)  # the whole point of these is many matching digits
    print("historical/numerological formulas for 1/alpha — demonstrations, not physics:")
    print()
    _print_table(
        ["name", "formula", "value", "compared against"],
        [[r["name"], r["formula"], _fmt(r["value"], p),
          f"{_fmt(r['comparison'], p)} ({r['comparison_label']})"] for r in rows],
    )
    return 0


# --- dispatch ---------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.precision < 1:
            raise ConstantsError("--precision must be a positive integer")
        constants = load_constants(args.constants)  # a bad species record exits 2 whichever command runs
        # commands raise ConstantsError (a bad --tolerance, a missing optional
        # key) or OutOfRangeError before printing
        try:
            return args.handler(args, constants)
        except OutOfRangeError as exc:  # the input values, not the program, are at fault
            raise ConstantsError(
                f"the constants in {constants.origin} take a result out of the float range: {exc}"
            ) from exc
    except ConstantsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
