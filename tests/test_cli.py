import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden_outputs import CASES as GOLDEN_CASES
from test_refusals import E_ONLY, ETA_B_10_EV, row_tests
from vfdielectric import cli
from vfdielectric import constants as constants_module
from vfdielectric import species, verify
from vfdielectric.cli import _build_parser, _parse_canonical, main
from vfdielectric.constants import (
    CONSTANT_KEYS,
    DATA_DIR_ENV_VAR,
    ConstantsError,
    LEPTON_PAIR,
    QUARKONIUM,
    SPECIES_QUANTITIES,
    charge_ratio,
    load_constants,
    serialize_constants,
    species_from_record,
)
from vfdielectric.oscillator import DEFAULT_QUAD_TOL
from vfdielectric.perturbation import BRANCH_PAPER, BRANCHES, coupling_value
from vfdielectric.quantity import SPEED, Quantity
from vfdielectric.species import builtin_species
from vfdielectric.vacuum import (
    epsilon0_closed_form,
    epsilon0_self_consistent,
    quarkonium_contribution,
    report_from_dict,
    report_to_dict,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- predict -----------------------------------------------------------------


def test_predict_default_has_paper_epsilon_line(capsys):
    code, out, _ = _run(capsys, ["predict"])
    assert code == 0
    assert "9.10e-12" in out
    assert "2.96e+08" in out


def test_predict_json_schema_keys(capsys):
    code, out, _ = _run(capsys, ["predict", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {
        "model", "reference", "deltas_percent", "contributions", "method",
        "constants_source",
    }
    assert set(payload["model"]) == {"epsilon0", "c", "inv_alpha"}
    assert payload["method"] == "self-consistent"
    assert payload["constants_source"] == "built-in default"
    assert [row["species"] for row in payload["contributions"]] == [
        "e_pair", "mu_pair", "tau_pair",
    ]


def test_predict_json_round_trips_field_for_field(capsys):
    code, out, _ = _run(capsys, ["predict", "--format", "json"])
    assert code == 0
    constants = load_constants()
    direct = epsilon0_self_consistent(builtin_species(constants), constants)
    emitted = json.loads(out)
    assert report_to_dict(direct, constants) == emitted
    rebuilt = report_from_dict(emitted)
    assert rebuilt.epsilon0_model == direct.epsilon0_model
    assert rebuilt.c_model == direct.c_model
    assert rebuilt.contributions == direct.contributions


def test_predict_include_quarks_shifts_epsilon(capsys):
    _, out_lepton, _ = _run(capsys, ["predict", "--format", "json"])
    _, out_full, _ = _run(capsys, ["predict", "--format", "json", "--include-quarks"])
    eps_lepton = json.loads(out_lepton)["model"]["epsilon0"]
    eps_full = json.loads(out_full)["model"]["epsilon0"]
    shift = (eps_full - eps_lepton) / eps_lepton
    assert shift == pytest.approx(1.2e-4, rel=0.1)


def test_predict_csv_sections(capsys):
    code, out, _ = _run(capsys, ["predict", "--format", "csv"])
    assert code == 0
    assert "# section: predictions" in out
    assert "# section: contributions" in out
    header = out.splitlines()[1]
    assert header == "method,quantity,model_value,reference_value,delta_percent"


def test_predict_constants_override(capsys, tmp_path):
    rows = json.loads(serialize_constants(load_constants()))
    for row in rows:
        if row["key"] == "mu0":
            row["value"] = 2.5132741228718345e-06  # doubled permeability
            row["source"] = "override"
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    _, out_default, _ = _run(capsys, ["predict", "--format", "json"])
    _, out_override, _ = _run(capsys, ["predict", "--format", "json", "--constants", str(path)])
    eps_default = json.loads(out_default)["model"]["epsilon0"]
    eps_override = json.loads(out_override)["model"]["epsilon0"]
    assert eps_override == pytest.approx(2.0 * eps_default, rel=1e-12, abs=0)
    assert str(path) in json.loads(out_override)["constants_source"]


def test_env_var_data_dir(capsys, tmp_path, monkeypatch):
    rows = json.loads(serialize_constants(load_constants()))
    (tmp_path / "constants.json").write_text(json.dumps(rows), encoding="utf-8")
    monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
    code, out, _ = _run(capsys, ["predict", "--format", "json"])
    assert code == 0
    assert str(tmp_path) in json.loads(out)["constants_source"]


def _bundled_values():
    """Each bundled constant's raw file value, by key."""
    return {row["key"]: row["value"] for row in json.loads(serialize_constants(load_constants()))}


# the paper's invariants under inputs far from the bundled values: the
# lepton-only 1/alpha is the pure number 8^2 sqrt(3 pi / 2), and the reported
# contributions add up, left to right, to the reported epsilon0
_SCALED_KEYS = ("e", "hbar", "mu0", "m_e", "m_mu", "m_tau", "ref_epsilon0", "ref_c", "ref_inv_alpha")


@settings(max_examples=200)
@given(st.lists(st.floats(-3.0, 3.0), min_size=len(_SCALED_KEYS), max_size=len(_SCALED_KEYS)))
def test_predict_invariants_across_input_decades(tmp_path_factory, decades):
    bundled = _bundled_values()
    changes = {key: {"value": bundled[key] * 10.0**d} for key, d in zip(_SCALED_KEYS, decades)}
    path = _constants_file(tmp_path_factory.mktemp("decades"), changes=changes)
    for quarks in ([], ["--include-quarks"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["predict", "--format", "json", "--constants", path] + quarks) == 0
        payload = json.loads(out.getvalue())
        total = payload["contributions"][0]["epsilon_term"]
        for row in payload["contributions"][1:]:
            total += row["epsilon_term"]
        assert total == payload["model"]["epsilon0"]
        if not quarks:
            pure = 64.0 * math.sqrt(3.0 * math.pi / 2.0)
            assert abs(payload["model"]["inv_alpha"] / pure - 1.0) <= 1e-14


# an independent oracle for the quark-inclusive fixed point: F(eps) = L + A
# eps^(-1/2) with L and A computed in mpmath from the file's raw values, so with
# x = sqrt(eps) the fixed point is the one positive root of x^3 - L x - A = 0
_ORACLE_DECADES = ("e", "hbar", "mu0", "ref_epsilon0", "ref_c", "m_e", "m_mu", "m_tau")
_WIDTH_KEYS = ("gamma_etac_2gamma", "gamma_etab_2gamma_min", "gamma_etab_2gamma_max")


def _fixed_point_oracle(values, width):
    """The fixed point eps* at 40 digits from raw file values in the bundled
    units (eV-family energies, an eta_b width in keV)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        v = {key: mpmath.mpf(value) for key, value in values.items()}
        e, hbar, mu0 = v["e"], v["hbar"], v["mu0"]
        gev = e * 10**9  # joules per GeV
        lepton_sum = 3 * 512 / (4 * mpmath.pi) * mu0 * (e**2 / hbar) ** 2
        quark_sum = 0
        for quark, bound, rate, charge in (
            ("m_c", "m_etac", v["gamma_etac_2gamma"], mpmath.mpf(2) / 3),
            ("m_b", "m_etab", v[f"gamma_etab_2gamma_{width}"] * 1000 * e / hbar, mpmath.mpf(1) / 3),
        ):
            m_quark = v[quark] * gev / v["ref_c"] ** 2
            m_bound = v[bound] * gev / v["ref_c"] ** 2
            omega0 = (v[bound] - 2 * v[quark]) * gev / hbar
            polarizability = (e * charge) ** 2 / (m_quark / 2) / omega0**2
            quark_sum += 8 * (m_bound / hbar) ** 2 * rate * polarizability
        quark_sum /= mpmath.sqrt(mu0)
        # x = scale * y puts the root in (0, 1], where findroot's absolute
        # tolerance is a relative one
        scale = mpmath.sqrt(lepton_sum) + mpmath.cbrt(quark_sum)
        l, a = lepton_sum / scale**2, quark_sum / scale**3
        root = mpmath.findroot(lambda y: y**3 - l * y - a, max(mpmath.sqrt(l), mpmath.cbrt(a)))
        return (scale * root) ** 2


def _species_records(values, width):
    """The built-in species, quarks included, as the file's own species records."""
    def quantity(key, unit):
        return {"value": values[key], "unit": unit}

    leptons = [
        {"kind": "species", "name": name, "type": "lepton-pair", "charge_fraction": "1",
         "constituent_mass": quantity(key, "kg")}
        for name, key in (("e_pair", "m_e"), ("mu_pair", "m_mu"), ("tau_pair", "m_tau"))
    ]
    quarks = [
        {"kind": "species", "name": name, "type": "quarkonium", "charge_fraction": charge,
         "constituent_mass": quantity(quark, "GeV"), "bound_state_mass": quantity(bound, "GeV"),
         "two_photon_width": quantity(width_key, unit)}
        for name, quark, bound, width_key, unit, charge in (
            ("eta_c", "m_c", "m_etac", "gamma_etac_2gamma", "1/s", "2/3"),
            ("eta_b", "m_b", "m_etab", f"gamma_etab_2gamma_{width}", "keV", "1/3"),
        )
    ]
    return leptons + quarks


def _predict_quarks(path, width="max"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["predict", "--include-quarks", "--width", width, "--format", "json",
                     "--constants", path]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=100)
@given(decades=st.lists(st.floats(-3.0, 3.0), min_size=len(_ORACLE_DECADES) + 2,
                        max_size=len(_ORACLE_DECADES) + 2),
       width_scale=st.floats(-3.0, 6.0), width=st.sampled_from(["min", "max"]),
       as_records=st.booleans())
def test_quark_fixed_point_is_the_root_of_the_cubic(tmp_path_factory, decades, width_scale, width,
                                                     as_records):
    bundled = _bundled_values()
    values = dict(bundled)
    for key, d in zip(_ORACLE_DECADES, decades):
        values[key] = bundled[key] * 10.0**d
    # a quark and its bound state scale together, so the binding window stays open
    for keys, d in ((("m_c", "m_etac"), decades[-2]), (("m_b", "m_etab"), decades[-1])):
        for key in keys:
            values[key] = bundled[key] * 10.0**d
    for key in _WIDTH_KEYS:
        values[key] = bundled[key] * 10.0**width_scale
    changes = {key: {"value": value} for key, value in values.items() if value != bundled[key]}
    # the quark states come from the constant table or, with the lepton pairs
    # beside them, from the file's own species records
    records = _species_records(values, width) if as_records else ()
    path = _constants_file(tmp_path_factory.mktemp("oracle"), species=records, changes=changes)
    payload = _predict_quarks(path, width)
    if as_records:
        assert [row["species"] for row in payload["contributions"]] == [
            "e_pair", "mu_pair", "tau_pair", "eta_c", "eta_b"]
    eps_star = _fixed_point_oracle(values, width)
    # F at the seed, then F at the cubic's root: the rest is the float
    # rounding of the terms and of the root
    assert abs(payload["model"]["epsilon0"] / eps_star - 1) <= 1e-14
    assert payload["iterations"] == 2


# --- species -------------------------------------------------------------------


def test_species_json_paper_densities(capsys):
    code, out, _ = _run(capsys, ["species", "--format", "json"])
    assert code == 0
    rows = {row["species"]: row for row in json.loads(out)}
    assert rows["e_pair"]["number_density_per_m3"] == pytest.approx(1.12e39, rel=1e-2)
    assert rows["tau_pair"]["number_density_per_m3"] == pytest.approx(4.70e49, rel=1e-2)


def test_species_include_quarks_lifetime(capsys):
    code, out, _ = _run(capsys, ["species", "--format", "json", "--include-quarks"])
    rows = {row["species"]: row for row in json.loads(out)}
    assert rows["eta_c"]["lifetime_s"] == pytest.approx(1.1e-25, rel=1e-2, abs=0)
    assert set(rows) == {"e_pair", "mu_pair", "tau_pair", "eta_c", "eta_b"}


def test_species_table_lists_all_rows(capsys):
    code, out, _ = _run(capsys, ["species"])
    assert code == 0
    for name in ("e_pair", "mu_pair", "tau_pair"):
        assert name in out


def test_species_csv_column_order(capsys):
    code, out, _ = _run(capsys, ["species", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "# section: species"
    assert lines[1] == (
        "species,lifetime_s,coherence_length_m,number_density_per_m3,"
        "omega0_rad_per_s,decay_rate_per_s,interacting_density_per_m3"
    )


# --- verify ---------------------------------------------------------------------


def test_verify_default_passes(capsys):
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)
    assert all("tol" in line for line in lines)


def test_verify_unattainable_tolerance_fails(capsys):
    code, out, _ = _run(capsys, ["verify", "--tolerance", "1e-20"])
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_verify_unattainable_tolerance_fails_after_a_passing_run(capsys):
    # the quadrature check recomputes its integrals against each call's tolerance
    assert _run(capsys, ["verify"])[0] == 0
    code, out, _ = _run(capsys, ["verify", "--tolerance", "1e-20"])
    assert code == 1
    assert any(line.startswith("FAIL") and "quadrature-vs-analytic" in line
               for line in out.splitlines())


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_verify_invalid_tolerance_exit_2(capsys, tolerance):
    code, out, err = _run(capsys, ["verify", f"--tolerance={tolerance}"])
    assert code == 2
    assert out == ""
    assert "--tolerance" in err


def test_verify_program_error_is_not_a_check_failure(monkeypatch):
    # only a QuadratureError is an oracle failure; a bug must surface as itself
    def broken(*args, **kwargs):
        raise TypeError("not a convergence failure")

    monkeypatch.setattr(verify, "matrix_element_x_quadrature", broken)
    with pytest.raises(TypeError, match="not a convergence failure"):
        main(["verify"])


def test_verify_json_structure(capsys):
    code, out, _ = _run(capsys, ["verify", "--format", "json"])
    rows = json.loads(out)
    assert {row["name"] for row in rows} == {
        "quadrature-vs-analytic", "ode-vs-analytic", "fixed-point-vs-closed-form",
        "mass-cancellation", "dimension-audit",
    }
    assert all(row["passed"] for row in rows)


# --- sensitivity -----------------------------------------------------------------


def test_sensitivity_json_n3_reproduces_headline(capsys):
    code, out, _ = _run(capsys, ["sensitivity", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    by_n = {row["n_species"]: row for row in payload["species_count_sweep"]}
    assert by_n[3]["inv_alpha"] == pytest.approx(138.93, abs=0.01)
    # sqrt(n) law for 1/alpha
    assert by_n[1]["inv_alpha"] == pytest.approx(138.93 / math.sqrt(3.0), abs=0.01)
    for n in range(2, 7):
        expected = by_n[1]["inv_alpha"] * math.sqrt(n)
        assert by_n[n]["inv_alpha"] == pytest.approx(expected, rel=1e-12)


def test_sensitivity_scaling_exponent(capsys):
    _, out, _ = _run(capsys, ["sensitivity", "--format", "json"])
    payload = json.loads(out)
    assert payload["coupling_scaling"]["fitted_exponent"] == pytest.approx(2.0, abs=0.05)


def test_sensitivity_branch_controls_trajectory(capsys):
    _, out_paper, _ = _run(capsys, ["sensitivity", "--format", "json", "--branch", "paper"])
    _, out_literal, _ = _run(capsys, ["sensitivity", "--format", "json", "--branch", "literal"])
    paper = json.loads(out_paper)["dipole_trajectory"]["samples"]
    literal = json.loads(out_literal)["dipole_trajectory"]["samples"]
    assert paper[0]["dipole_Cm"] > 0.0  # paper branch: constant from tau = 0
    assert literal[0]["dipole_Cm"] == 0.0  # literal branch: no dipole before interaction
    mean_literal = sum(s["dipole_Cm"] for s in literal[:-1]) / (len(literal) - 1)
    assert mean_literal == pytest.approx(paper[0]["dipole_Cm"], rel=1e-10, abs=0)


def test_sensitivity_csv_sections(capsys):
    code, out, _ = _run(capsys, ["sensitivity", "--format", "csv"])
    assert code == 0
    for section in ("species_count_sweep", "coupling_scaling", "dipole_trajectory"):
        assert f"# section: {section}" in out


def test_sensitivity_computes_the_coupling_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return coupling_value(*args)

    monkeypatch.setattr("vfdielectric.perturbation.coupling_value", counted)
    code, _, _ = _run(capsys, ["sensitivity", "--format", "json"])
    assert code == 0 and len(calls) == 1


# --- historical -------------------------------------------------------------------


def test_historical_wyler_value(capsys):
    code, out, _ = _run(capsys, ["historical", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    rows = {row["name"]: row for row in payload["rows"]}
    assert rows["wyler"]["value"] == pytest.approx(137.03608, abs=1e-5)
    assert rows["bethe_absolute_zero"]["value"] == pytest.approx(-273.07, abs=0.01)
    assert rows["allen_mass_ratio"]["value"] == pytest.approx(5.325e-4, rel=1e-3)
    assert rows["allen_mass_ratio"]["comparison"] == pytest.approx(5.486e-4, rel=1e-3)
    assert "not physics" in payload["note"]


def test_historical_table_is_labeled_numerological(capsys):
    code, out, _ = _run(capsys, ["historical"])
    assert code == 0
    assert "numerological" in out
    assert "137.03608" in out


# --- shared CLI contract -------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--frobnicate"])
    assert excinfo.value.code == 2


SHARED_OPTIONS = {"--constants", "--format", "--precision"}
COMMAND_OPTIONS = {
    "predict": SHARED_OPTIONS | {"--include-quarks", "--width"},
    "species": SHARED_OPTIONS | {"--include-quarks", "--width"},
    "verify": SHARED_OPTIONS | {"--tolerance"},
    "sensitivity": SHARED_OPTIONS | {"--branch"},
    "historical": SHARED_OPTIONS,
}


def test_each_command_takes_only_the_options_it_reads():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {
        name: {option for action in parser._actions for option in action.option_strings
               if option not in ("-h", "--help")}
        for name, parser in subparsers.choices.items()
    }
    assert options == COMMAND_OPTIONS


@pytest.mark.parametrize("argv", [
    ["verify", "--include-quarks"],
    ["historical", "--branch", "paper"],
    ["predict", "--tolerance", "1e-9"],
    ["sensitivity", "--width", "min"],
], ids=",".join)
def test_option_of_another_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _perfbench_inputs(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # @dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_parser_literals_are_their_modules_values():
    # the parser writes these out so that building it imports neither module
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    tolerance, = (action for action in subparsers.choices["verify"]._actions
                  if "--tolerance" in action.option_strings)
    branch, = (action for action in subparsers.choices["sensitivity"]._actions
               if "--branch" in action.option_strings)
    assert tolerance.default == DEFAULT_QUAD_TOL
    assert tuple(branch.choices) == BRANCHES
    assert branch.default == BRANCH_PAPER


@pytest.mark.parametrize("workload", ["cli_cold", "assemble_warm", "oracle_warm"])
def test_every_benchmark_request_parses(workload, monkeypatch):
    # an option change must not silently turn benchmark requests into exit 2,
    # and each request must take the fast path to the namespace argparse gives
    inputs = _perfbench_inputs(monkeypatch)
    parser = _build_parser()
    for seed in range(1, 6):
        for request in itertools.islice(inputs.deck(workload, seed), 200):
            argv = list(request.argv)
            if request.source == inputs.PATH:
                argv += ["--constants", "constants.json"]
            fast = _parse_canonical(argv)
            assert fast is not None, argv
            assert vars(fast) == vars(parser.parse_args(argv))


# --- the fast paths: canonical argv and charge fractions ------------------------

_FLAGS = sorted(set().union(*COMMAND_OPTIONS.values()))
# values each option accepts in either form, odd int() and float() spellings included
_GOOD_VALUES = {
    "--constants": ["constants.json", "a=b", "predict", " -x"],
    "--format": ["table", "json", "csv"],
    "--precision": ["3", "17", "0", " 4", "1_0", "\u0663"],
    "--include-quarks": [],
    "--width": ["min", "max"],
    "--tolerance": ["1e-9", "nan", "inf", "3.5", " 1e-9 "],
    "--branch": ["paper", "literal"],
}
_BAD_VALUES = ["xml", "mid", "x", "1e-9x", "9" * 5000, "", "-1", "-1e-9", "-inf", "--format", "-"]
_JUNK = ["--", "-h", "--help", "-", "junk", "--bogus", "--include-quarks=1", "-x"]


@st.composite
def _argv(draw):
    """A command, then options: mostly its own with good values, in either
    form, and at times a bad value, a prefix, a foreign flag or junk."""
    if draw(st.integers(0, 9)) == 0:  # a list of tokens, in no order
        tokens = [*COMMAND_OPTIONS, *_FLAGS, *_BAD_VALUES, *_JUNK]
        return draw(st.lists(st.sampled_from(sorted(tokens)), max_size=5))
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["own"] * 12 + ["bad"] * 3 + ["foreign", "prefix", "junk"]))
        own = kind in ("own", "bad")
        flag = draw(st.sampled_from(sorted(COMMAND_OPTIONS[command] if own else _FLAGS)))
        good = _GOOD_VALUES[flag]
        if kind == "junk":
            argv.append(draw(st.sampled_from(_JUNK)))
        elif kind == "prefix":
            argv.append(flag[:draw(st.integers(3, len(flag) - 1))])
        elif not good and kind != "bad":
            argv.append(flag)
        else:
            value = draw(st.sampled_from(good if good and kind != "bad" else _BAD_VALUES))
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def _same_values(fast: dict, parsed: dict) -> bool:
    """Equal namespaces, a NaN equal to a NaN (``--tolerance nan``)."""
    return fast.keys() == parsed.keys() and all(
        value == parsed[key] or value != value and parsed[key] != parsed[key]
        for key, value in fast.items())


@settings(max_examples=1000)
@given(argv=_argv())
def test_fast_path_defers_or_matches_argparse(argv):
    fast = _parse_canonical(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(_build_parser().parse_args(argv))
        except SystemExit:  # help or an error, which argparse alone may handle
            parsed = None
    assert fast is None or parsed is not None and _same_values(vars(fast), parsed), argv


@pytest.mark.parametrize("argv", [
    ["predict", "--format", "table", "--format", "json"],  # a repeat: the last one wins
    ["predict", "--inc"],  # an abbreviation
    ["predict", "--precision=-4"],  # a value that starts with -
    ["predict", "--constants="],  # an empty value
    ["verify", "--", "--tolerance", "1e-9"],
    ["sensitivity", "-h"],
    ["historical", "--format", "xml"],
    ["species", "--width"],
    ["verify", "--tolerance", "1e-9x"],
    [],
], ids=repr)
def test_fast_path_defers_every_other_argv_to_argparse(argv):
    assert _parse_canonical(argv) is None


@pytest.mark.parametrize("argv", [
    ["predict"],
    ["predict", "--include-quarks", "--width=min", "--format", "json", "--precision", "5"],
    ["species", "--constants=x.json", "--include-quarks"],
    ["verify", "--tolerance", "nan", "--format", "csv"],
    ["sensitivity", "--branch", "literal", "--precision=8"],
    ["historical", "--constants", "predict"],
], ids=" ".join)
def test_fast_path_takes_each_command_and_form(argv):
    fast = _parse_canonical(argv)
    assert isinstance(fast, types.SimpleNamespace)
    assert _same_values(vars(fast), vars(_build_parser().parse_args(argv)))
    assert fast.handler.__name__ == f"cmd_{argv[0]}"


def _outcome(read, value):
    """``read(value)``, or the type of the exception it raises."""
    try:
        return read(value)
    except Exception as exc:  # the type is what is compared
        return type(exc)


_DIGITS = st.text("0123456789", min_size=1, max_size=6)


@settings(max_examples=800)
@given(value=st.one_of(
    _DIGITS,
    st.tuples(_DIGITS, _DIGITS).map("/".join),
    st.text("0123456789/ .-+_eE\u0663\u00b2", max_size=8),
    st.text(max_size=4),
    st.integers(-10, 10),
    st.fractions(max_denominator=9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(places=2, allow_nan=False),
    st.sampled_from([None, True, 1j, b"1", "1" * 5000, "1/" + "1" * 5000]),
))
def test_charge_ratio_agrees_with_fraction(value):
    assert _outcome(charge_ratio, value) == _outcome(
        lambda v: Fraction(v).as_integer_ratio(), value)


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_precision_flag_widens_table(capsys):
    _, out, _ = _run(capsys, ["predict", "--precision", "6"])
    assert "9.10082e-12" in out


def test_precision_flag_leaves_csv_unchanged(capsys):
    # CSV prints repr, full precision; --precision rounds table output only
    default = _run(capsys, ["predict", "--format", "csv"])
    assert default[0] == 0
    assert _run(capsys, ["predict", "--format", "csv", "--precision", "2"]) == default


def test_invalid_precision_exit_2(capsys):
    code, _, err = _run(capsys, ["predict", "--precision", "0"])
    assert code == 2


@pytest.mark.parametrize("command", ["predict", "species"])
@pytest.mark.parametrize("precision", ["18", "99999999999"])
def test_precision_above_17_exit_2_before_any_work(capsys, monkeypatch, command, precision):
    # 17 significant digits round-trip any double; a huge value once built
    # 100-MB table cells, or raised "precision too big" with a traceback
    def refused(*args):
        raise AssertionError("the constants were loaded before --precision was checked")

    monkeypatch.setattr("vfdielectric.cli.load_constants", refused)
    code, out, err = _run(capsys, [command, "--precision", precision])
    assert (code, out, err) == (2, "", f"error: --precision must be at most 17, got {precision}\n")


def test_precision_17_is_accepted(capsys):
    c = json.loads(_run(capsys, ["predict", "--format", "json"])[1])["model"]["c"]
    code, out, _ = _run(capsys, ["predict", "--precision", "17"])
    assert code == 0 and f"{c:#.17g}" in out


def test_table_and_json_share_one_report(capsys):
    # the table renders the same numbers the JSON carries (no recomputation drift)
    _, out_json, _ = _run(capsys, ["predict", "--format", "json"])
    payload = json.loads(out_json)
    _, out_table, _ = _run(capsys, ["predict", "--precision", "12"])
    assert f"{payload['model']['epsilon0']:#.12g}" in out_table
    assert f"{payload['model']['inv_alpha']:#.12g}" in out_table


# --- file species and data-file errors ---------------------------------------------

# each constants file that exits 2 is a row of test_refusals.REFUSALS; the rows
# that were cases of tests of this module are collected here under those names
globals().update(row_tests("test_cli"))


def _constants_file(tmp_path, species=(), drop=(), changes=None):
    """The bundled constants without ``drop``, with ``changes[key]`` merged into
    that key's row, and with ``species`` appended."""
    changes = changes or {}
    rows = [{**row, **changes.get(row["key"], {})}
            for row in json.loads(serialize_constants(load_constants()))
            if row["key"] not in drop]
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(rows + list(species)), encoding="utf-8")
    return str(path)


def _assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


_PUBLIC_COLUMNS = {
    "omega0_rad_per_s": lambda s, k, eps, alpha, c: species.resonant_frequency(s, k, eps, c).omega0,
    "interacting_density_per_m3":
        lambda s, k, eps, alpha, c: species.interacting_density(s, k, alpha, c),
}


def _closed_columns(s, hbar, alpha, c):
    """A species row's lifetime, coherence length, number density and decay
    rate in plain floats."""
    if s.kind == LEPTON_PAIR:
        rest_energy = s.constituent_mass.value * c**2
        lifetime, rate = hbar / (4.0 * rest_energy), alpha**5 * rest_energy / hbar
    else:
        lifetime = hbar / (2.0 * s.bound_state_mass.value * c**2)
        rate = 2.0 * s.two_photon_width.value
    return {"lifetime_s": lifetime, "coherence_length_m": c * lifetime,
            "number_density_per_m3": (c * lifetime) ** -3, "decay_rate_per_s": rate}


@pytest.mark.parametrize("quarks", [[], ["--include-quarks"]])
@pytest.mark.parametrize("file_species", [(), (E_ONLY, ETA_B_10_EV)])
def test_species_rows_equal_the_single_quantity_functions(capsys, tmp_path, quarks, file_species):
    # the one kinematics pass behind each row gives every public function's
    # value bit for bit, and the closed forms of the other columns
    path = _constants_file(tmp_path, species=file_species)
    code, out, _ = _run(capsys, ["species", "--format", "json", "--constants", path] + quarks)
    assert code == 0
    constants = load_constants(path)
    eps, c = constants.get("ref_epsilon0"), constants.get("ref_c")
    alpha = 1.0 / constants.get("ref_inv_alpha").value
    specs = species.load_species(constants, include_quarks=bool(quarks))
    rows = json.loads(out)
    assert [row["species"] for row in rows] == [s.name for s in specs]
    for row, s in zip(rows, specs):
        for column, public in _PUBLIC_COLUMNS.items():
            assert row[column].hex() == public(s, constants, eps, alpha, c).value.hex(), column
        closed = _closed_columns(s, constants.get("hbar").value, alpha, c.value)
        for column, value in closed.items():
            assert row[column] == pytest.approx(value, rel=1e-14, abs=0), column


def test_species_computes_one_lifetime_per_species(capsys, monkeypatch):
    # the command once computed each lifetime 4 times: directly and inside the
    # coherence length, the number density and the interacting density; one
    # run of the kinematics chain per species computes it once
    seen = []
    original = species._chain

    def counting(s, *args):
        seen.append(s.name)
        return original(s, *args)

    monkeypatch.setattr(species, "_chain", counting)
    code, _, _ = _run(capsys, ["species", "--include-quarks", "--format", "json"])
    assert code == 0
    assert seen == ["e_pair", "mu_pair", "tau_pair", "eta_c", "eta_b"]


_ETA_C_ONLY = {
    "kind": "species", "name": "eta_c", "type": "quarkonium", "charge_fraction": "2/3",
    "constituent_mass": {"value": 1.5, "unit": "GeV"},
    "bound_state_mass": {"value": 3.1, "unit": "GeV"},
    "two_photon_width": {"value": 5.0, "unit": "keV"},
}


def test_a_species_list_with_no_lepton_pair_computes_no_lepton_factors(capsys, tmp_path):
    # alpha^5 underflows at 1/alpha = 1e70, and the binding denominator
    # 2 (4 pi eps)^2 hbar^2 at eps = 8.85e-172; no quarkonium row reads either,
    # so a table of quarkonia prints, while the same file with a lepton pair
    # added is refused for the factor
    underflows = {"ref_inv_alpha": (1e70, "the power 1e-70 ** 5 underflows to 0.0 (dimension 1)"),
                  "ref_epsilon0": (8.8541878128e-172, "the power 1.1126500554478704e-170 ** 2 "
                                                      "underflows to 0.0 (dimension m^-6·kg^-2·s^8·A^4)")}
    for key, (value, line) in underflows.items():
        changes = {key: {"value": value}}
        path = _constants_file(tmp_path, species=[_ETA_C_ONLY], changes=changes)
        code, out, err = _run(capsys, ["species", "--format", "json", "--constants", path])
        assert (code, err) == (0, ""), key
        assert [row["species"] for row in json.loads(out)] == ["eta_c"]
        path = _constants_file(tmp_path, species=[_ETA_C_ONLY, E_ONLY], changes=changes)
        code, out, err = _run(capsys, ["species", "--format", "json", "--constants", path])
        assert (code, out) == (2, ""), key
        assert err == f"error: the constants in {path} take a result out of the float range: {line}\n"


def test_predict_file_species_replace_builtins(capsys, tmp_path):
    path = _constants_file(tmp_path, species=[E_ONLY])
    code, out, _ = _run(capsys, ["predict", "--format", "json", "--constants", path])
    assert code == 0
    payload = json.loads(out)
    assert [row["species"] for row in payload["contributions"]] == ["e_only"]
    closed = epsilon0_closed_form(load_constants(path), n_species=1).value
    assert payload["model"]["epsilon0"] == pytest.approx(closed, rel=1e-12, abs=0)


def test_species_lists_file_species_whatever_the_flags(capsys, tmp_path):
    path = _constants_file(tmp_path, species=[E_ONLY])
    code, out, _ = _run(capsys, ["species", "--format", "json", "--include-quarks",
                                 "--constants", path])
    assert code == 0
    assert [row["species"] for row in json.loads(out)] == ["e_only"]


def test_predict_file_eta_b_keeps_its_own_width(capsys, tmp_path):
    path = _constants_file(tmp_path, species=[E_ONLY, ETA_B_10_EV])
    code, out, _ = _run(capsys, ["predict", "--format", "json", "--constants", path])
    assert code == 0
    payload = json.loads(out)
    terms = {row["species"]: row["epsilon_term"] for row in payload["contributions"]}
    constants = load_constants(path)
    c_model = Quantity(payload["model"]["c"], SPEED)
    tabulated = builtin_species(constants, include_quarks=True, width_choice="max")[-1]
    at_450_ev = quarkonium_contribution(tabulated, constants, c_model).epsilon_term.value
    assert terms["eta_b"] / at_450_ev == pytest.approx(10.0 / 450.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["e pair", "e\xa0pair", "e\u2028pair"])
def test_a_species_name_may_hold_other_whitespace(capsys, tmp_path, name):
    # U+00A0 follows the last control character, U+009F; U+2028 is a line
    # separator, of category Zl, not Cc
    path = _constants_file(tmp_path, species=[{**E_ONLY, "name": name}])
    code, out, _ = _run(capsys, ["species", "--format", "json", "--constants", path])
    assert code == 0
    assert [row["species"] for row in json.loads(out)] == [name]


@pytest.mark.parametrize("n_records", [1, 3])
def test_file_species_are_built_once_per_run(capsys, tmp_path, monkeypatch, n_records):
    # cli.main once built every record to validate it and threw the result away,
    # then predict built them all again
    calls = []

    def counted(record, constants):
        calls.append(record["name"])
        return species_from_record(record, constants)

    monkeypatch.setattr("vfdielectric.constants.species_from_record", counted)
    records = [{**E_ONLY, "name": f"e_only_{i}"} for i in range(n_records)]
    code, _, _ = _run(capsys, ["predict", "--constants", _constants_file(tmp_path, species=records)])
    assert code == 0
    assert calls == [record["name"] for record in records]


def test_data_dir_without_constants_file_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
    code, out, err = _run(capsys, ["predict"])
    _assert_one_error_line(code, err)
    assert str(tmp_path / "constants.json") in err and DATA_DIR_ENV_VAR in err
    assert out == ""


@pytest.mark.parametrize("command", ["predict", "species", "verify", "sensitivity", "historical"])
def test_missing_bundled_constants_file_exit_2(capsys, monkeypatch, command):
    # an installed package built without its data files once exited 1 with a
    # FileNotFoundError traceback
    monkeypatch.delenv(DATA_DIR_ENV_VAR, raising=False)
    monkeypatch.setattr("vfdielectric.constants.DATA_FILENAME", "missing.json")
    code, out, err = _run(capsys, [command])
    _assert_one_error_line(code, err)
    assert "bundled constants file" in err and "missing.json" in err
    assert out == ""


# each file is named exactly as given: through pathlib, "./x.json" and a
# data dir "./d/" were once labelled "x.json" and "d/constants.json"
@pytest.mark.parametrize("argv, env_dir, origin", [
    (["--constants", "./x.json"], None, "./x.json"),
    (["--constants", "d/../x.json"], None, "d/../x.json"),
    ([], "./d/", "./d/constants.json"),
    ([], "./d", "./d/constants.json"),
], ids=["dot-file", "dot-dot-file", "dot-dir-slash", "dot-dir"])
def test_constants_origin_is_the_path_as_given(capsys, tmp_path, monkeypatch, argv, env_dir,
                                               origin):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    rows = serialize_constants(load_constants())
    for path in ("x.json", "d/constants.json"):
        (tmp_path / path).write_text(rows, encoding="utf-8")
    monkeypatch.delenv(DATA_DIR_ENV_VAR, raising=False)
    if env_dir:
        monkeypatch.setenv(DATA_DIR_ENV_VAR, env_dir)
    code, out, _ = _run(capsys, ["predict", "--format", "json", *argv])
    assert code == 0
    assert json.loads(out)["constants_source"] == origin


@pytest.mark.parametrize("argv, env_dir, message", [
    (["--constants", "nope.json"], None,
     "cannot read constants file nope.json: [Errno 2] No such file or directory: 'nope.json'"),
    (["--constants", "d"], None, "cannot read constants file d: [Errno 21] Is a directory: 'd'"),
    ([], "d", "cannot read constants file d/constants.json (from $VACUUM_DATA_DIR): "
              "[Errno 2] No such file or directory: 'd/constants.json'"),
], ids=["missing-file", "directory", "data-dir-without-file"])
def test_unreadable_constants_file_message(capsys, tmp_path, monkeypatch, argv, env_dir, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    monkeypatch.delenv(DATA_DIR_ENV_VAR, raising=False)
    if env_dir:
        monkeypatch.setenv(DATA_DIR_ENV_VAR, env_dir)
    code, out, err = _run(capsys, ["predict", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, env_dir, label", [
    (["--constants", "x.json"], None, "x.json"),
    ([], "d", "d/constants.json (from $VACUUM_DATA_DIR)"),
], ids=["constants-file", "data-dir"])
def test_constants_file_not_utf8_exit_2(capsys, tmp_path, monkeypatch, argv, env_dir, label):
    # a UnicodeDecodeError once escaped main as a traceback with exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for path in ("x.json", "d/constants.json"):
        (tmp_path / path).write_bytes(b"\xff\xfe[]")
    monkeypatch.delenv(DATA_DIR_ENV_VAR, raising=False)
    if env_dir:
        monkeypatch.setenv(DATA_DIR_ENV_VAR, env_dir)
    code, out, err = _run(capsys, ["predict", *argv])
    assert (code, out, err) == (2, "", f"error: cannot read constants file {label}: 'utf-8' codec "
                                       "can't decode byte 0xff in position 0: invalid start byte\n")


def test_missing_bundled_constants_file_message(capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV_VAR, raising=False)
    monkeypatch.setattr("vfdielectric.constants.DATA_FILENAME", "missing.json")
    path = os.path.join(os.path.dirname(constants_module.__file__), "data", "missing.json")
    code, out, err = _run(capsys, ["predict"])
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read the bundled constants file {path}: "
                   f"[Errno 2] No such file or directory: {path!r}\n")


def test_program_error_in_species_record_is_not_a_bad_record(tmp_path, monkeypatch):
    # load_species once caught TypeError as well, so a bug read as "bad species record"
    def broken(record, constants):
        raise TypeError("not a record defect")

    monkeypatch.setattr("vfdielectric.constants.species_from_record", broken)
    path = _constants_file(tmp_path, species=[E_ONLY])
    with pytest.raises(TypeError, match="not a record defect"):
        main(["predict", "--constants", path])


def _json_output(argv, path):
    """What ``argv`` prints for the constants at ``path``, the path itself
    replaced, so two files' outputs compare byte for byte."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--format", "json", "--constants", path]) == 0
    return out.getvalue().replace(json.dumps(path), '"<constants_source>"')


# the built-in species and the same species as the file's records go through
# one builder, so every output byte agrees; the file route once turned rest
# energies into masses and back into energies for e_min, rounding on the way
@settings(max_examples=40)
@given(quark_decades=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       bound_factors=st.lists(st.floats(0.95, 1.05), min_size=2, max_size=2),
       width_decades=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       width=st.sampled_from(["min", "max"]))
def test_builtin_and_file_species_give_the_same_bytes(tmp_path_factory, quark_decades,
                                                      bound_factors, width_decades, width):
    bundled = _bundled_values()
    values = dict(bundled)
    pairs = (("m_c", "m_etac"), ("m_b", "m_etab"))
    for (quark, bound), decade, factor in zip(pairs, quark_decades, bound_factors):
        values[quark] = bundled[quark] * 10.0**decade
        values[bound] = bundled[bound] * 10.0**decade * factor
    for key, decade in zip(_WIDTH_KEYS, width_decades):
        values[key] = bundled[key] * 10.0**decade
    changes = {key: {"value": value} for key, value in values.items() if value != bundled[key]}
    builtin = _constants_file(tmp_path_factory.mktemp("builtin"), changes=changes)
    records = _constants_file(tmp_path_factory.mktemp("records"), changes=changes,
                              species=_species_records(values, width))
    for command in ("predict", "species"):
        argv = [command, "--include-quarks", "--width", width]
        assert _json_output(argv, builtin) == _json_output(argv, records)


# a fixed point that Picard steps from the reference seed did not reach in 50
# updates once exited 2 with "give no fixed point", and before that escaped
# cli.main as a traceback with exit 1; the cubic's root is two evaluations of F
# away
@pytest.mark.parametrize("key, value", [
    ("m_c", 1e-50), ("m_b", 1e-50), ("gamma_etac_2gamma", 1e50), ("gamma_etac_2gamma", 1e100),
    ("gamma_etab_2gamma_max", 1e50),
])
def test_formerly_nonconvergent_constants_exit_0(tmp_path, key, value):
    values = dict(_bundled_values(), **{key: value})
    payload = _predict_quarks(_constants_file(tmp_path, changes={key: {"value": value}}))
    assert abs(payload["model"]["epsilon0"] / _fixed_point_oracle(values, "max") - 1) <= 1e-14
    assert payload["iterations"] == 2


def test_scaled_widths_solve_in_two_evaluations(tmp_path):
    # every decade of the three two-photon widths from x1 to x1e50; Picard
    # took 50 steps at x1e20 and none reached the root at x1e50 (eps ~ 4.68e19 F/m)
    bundled = _bundled_values()
    for decade in range(51):
        values = dict(bundled, **{key: bundled[key] * 10.0**decade for key in _WIDTH_KEYS})
        path = _constants_file(tmp_path, changes={key: {"value": values[key]} for key in _WIDTH_KEYS})
        payload = _predict_quarks(path)
        assert abs(payload["model"]["epsilon0"] / _fixed_point_oracle(values, "max") - 1) <= 1e-14, decade
        assert payload["iterations"] == 2, decade


# the exit-code contract under generated input: one key of the constant table,
# or a mass under a key of the file's own, set to an extreme or mistyped value,
# under any command with its own flags only
_ODD_VALUES = st.one_of(
    st.floats(1e200, 1e308),                       # huge
    st.floats(5e-324, 2e-308),                     # subnormal
    st.just(0.0),
    st.floats(-1e308, -5e-324),                    # negative
    st.just(math.nan),
    st.just(True),
    st.floats(1e-30, 1e30).map(repr),              # a number in a JSON string
)
_ARGVS = [
    ["predict"], ["predict", "--include-quarks"], ["predict", "--include-quarks", "--width", "min"],
    ["species"], ["species", "--include-quarks"], ["species", "--include-quarks", "--width", "min"],
    ["verify"], ["verify", "--tolerance", "1e-8"],
    ["sensitivity"], ["sensitivity", "--branch", "literal"],
    ["historical"],
]


@settings(max_examples=300)
@given(key=st.sampled_from([*CONSTANT_KEYS, "m_x"]), value=_ODD_VALUES,
       argv=st.sampled_from(_ARGVS), output_format=st.sampled_from(["table", "json", "csv"]))
def test_exit_code_contract_under_generated_values(tmp_path_factory, key, value, argv, output_format):
    if key in CONSTANT_KEYS:
        path = _constants_file(tmp_path_factory.mktemp("odd"), changes={key: {"value": value}})
    else:
        extra = {"key": key, "value": value, "unit": "kg", "source": ""}  # appended as is
        path = _constants_file(tmp_path_factory.mktemp("odd"), species=[extra])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", output_format, "--constants", path])
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2))
    if code == 2:
        _assert_one_error_line(code, err.getvalue())
        assert out.getvalue() == ""
    if code == 0 and output_format == "json":
        json.loads(out.getvalue())


# the exit-code contract under generated species records: a valid record with
# up to two of its fields replaced (a quantity field of SPECIES_QUANTITIES
# absent, valid or broken; a name unsupported, empty, not a string or shared),
# under any command with its own flags
_VALID_QUANTITIES = {
    "constituent_mass": [{"value": 9.1093837015e-31, "unit": "kg"}, {"value": 1.27, "unit": "GeV"}],
    "bound_state_mass": [{"value": 2.98, "unit": "GeV"}, {"value": 1.686e-26, "unit": "kg"}],
    "two_photon_width": [{"value": 5.0, "unit": "keV"}, {"value": 7.69e18, "unit": "1/s"}],
    "e_min": [{"value": 0.44, "unit": "GeV"}, {"value": 440.0, "unit": "MeV"}],
}
_ABSENT = object()


def _quantity_field(field):
    valid = st.sampled_from(_VALID_QUANTITIES[field])
    return st.one_of(
        st.just(_ABSENT),
        valid,
        st.sampled_from([1.0, "1 GeV", [1.0, "GeV"]]),                    # not an object
        valid.map(lambda obj: {**obj, "unit": "erg"}),                    # off the whitelist
        st.builds(lambda obj, value: {**obj, "value": value}, valid,
                  st.sampled_from([1e300, 0.0, -1.0, math.nan, True, "1.0"])),
    )


_FIELD_VARIANTS = {
    "name": st.sampled_from(["e_only", "x_pair", "eta_c", "eta_t", "pi0", "", 5, None]),
    "type": st.sampled_from([LEPTON_PAIR, QUARKONIUM, "meson"]),
    "charge_fraction": st.sampled_from(["1", "2/3", "1/3", "1/2", "1/0", 1, 0.5]),
    **{field: _quantity_field(field) for field in SPECIES_QUANTITIES},
}
_SPECIES_RECORD = st.builds(
    lambda record, changes: {k: v for k, v in {**record, **changes}.items() if v is not _ABSENT},
    st.sampled_from([E_ONLY, ETA_B_10_EV]),
    st.lists(st.sampled_from(sorted(_FIELD_VARIANTS)), max_size=2, unique=True).flatmap(
        lambda fields: st.fixed_dictionaries({f: _FIELD_VARIANTS[f] for f in fields})),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=300)
@given(records=st.lists(_SPECIES_RECORD, min_size=1, max_size=2), with_lepton=st.booleans(),
       argv=st.sampled_from(_ARGVS), output_format=st.sampled_from(["table", "json", "csv"]))
def test_exit_code_contract_under_generated_species_records(tmp_path_factory, records, with_lepton,
                                                            argv, output_format):
    species = [{**E_ONLY, "name": "e_lead"}, *records] if with_lepton else records
    path = _constants_file(tmp_path_factory.mktemp("species"), species=species)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", output_format, "--constants", path])
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2))
    if code == 2:
        _assert_one_error_line(code, err.getvalue())
        assert out.getvalue() == ""
    if code == 0 and output_format == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# the exit-code contract under generated constant records: the bundled records
# with one or two of them changed (a unit off the whitelist; a key dropped,
# duplicated or misspelt; the e row dropped while eV-family rows remain),
# under any command with its own flags
def _drop(row):
    return []


_KEYS = st.sampled_from(sorted(CONSTANT_KEYS))
_RECORD_CHANGE = st.one_of(  # each kind of change equally likely
    st.tuples(_KEYS, st.sampled_from(["erg", "ev", "eV/c^2", "g", "", 5, None, ["kg"]]).map(
        lambda unit: lambda row: [{**row, "unit": unit}])),
    st.tuples(_KEYS, st.just(_drop)),
    st.tuples(_KEYS, st.just(lambda row: [row, dict(row)])),
    st.tuples(_KEYS, st.sampled_from(
        [str.upper, lambda key: key + "_", lambda key: key[:-1], lambda key: "_" + key]).map(
        lambda spell: lambda row: [{**row, "key": spell(row["key"])}])),
    st.just(("e", _drop)),  # the bundled file keeps its eV-family rows
)


@settings(max_examples=300)
@given(changes=st.lists(_RECORD_CHANGE, min_size=1, max_size=2, unique_by=lambda c: c[0]),
       argv=st.sampled_from(_ARGVS), output_format=st.sampled_from(["table", "json", "csv"]))
def test_exit_code_contract_under_generated_constant_records(tmp_path_factory, changes, argv,
                                                             output_format):
    rows = json.loads(serialize_constants(load_constants()))
    for key, change in changes:
        rows = [new for row in rows for new in (change(row) if row["key"] == key else [row])]
    path = tmp_path_factory.mktemp("records") / "constants.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", output_format, "--constants", str(path)])
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2))
    if code == 2:
        _assert_one_error_line(code, err.getvalue())
        assert out.getvalue() == ""
    if code == 0 and output_format == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_warm_caches_change_no_output(capsys):
    verify = ["verify", "--format", "json"]
    predict = ["predict", "--include-quarks", "--format", "json"]
    runs = [_run(capsys, argv) for argv in (verify, predict, verify, predict)]
    assert runs[0] == runs[2]
    assert runs[1] == runs[3]
    assert [code for code, _, _ in runs] == [0, 0, 0, 0]


# --- one write, one JSON writer ------------------------------------------------


class _CountingStdout(io.StringIO):
    """A stdout that counts the writes it takes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", GOLDEN_CASES, ids=",".join)
def test_each_golden_argv_writes_stdout_once(argv, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV_VAR, raising=False)
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        main(argv)
    assert out.writes == 1
    assert out.getvalue().endswith("\n")


def test_an_error_after_part_of_the_output_leaves_stdout_empty(capsys, monkeypatch):
    # predict builds two tables; the second fails once the first is built
    built = []

    def first_table_only(headers, rows):
        if built:
            raise ConstantsError("the second table is refused")
        built.append(real_table(headers, rows))
        return built[0]

    real_table = cli._table
    monkeypatch.setattr(cli, "_table", first_table_only)
    assert _run(capsys, ["predict"]) == (2, "", "error: the second table is refused\n")
    assert built[0].startswith("quantity ")


_JSON_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from("\x00\x08\t\n\x1f\x7f\x80\"\\/é—·\u2028\ud800\udbff\udfff\U0001f600\U0010ffff"),
), max_size=6)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_TEXT,
    st.integers(-2**70, 2**70), st.sampled_from([2**64, -2**64, 10**40]),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
                     -sys.float_info.max, math.inf, -math.inf, math.nan]),
    st.sampled_from([[], (), {}]),
)
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_JSON_TEXT, children, max_size=4),
), max_leaves=24)


@settings(max_examples=400)
@given(_JSON_VALUES)
def test_json_writer_gives_the_bytes_of_json_dumps_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@settings(max_examples=100)
@given(value=_JSON_VALUES, key=st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                                         st.tuples(st.integers()), st.binary()),
       depth=st.integers(0, 3))
def test_json_writer_refuses_a_key_that_is_not_a_str(value, key, depth):
    obj = {"before": value, key: value}
    for _ in range(depth):
        obj = [value, {"inner": obj}]
    with pytest.raises(TypeError):
        cli._json(obj)
