import argparse
import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

from vfdielectric import verify
from vfdielectric.cli import _build_parser, main
from vfdielectric.constants import DATA_DIR_ENV_VAR, load_constants, serialize_constants
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


def _broken_constants(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json", encoding="utf-8")
    return str(path)


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


def test_predict_constants_load_failure_exit_2(capsys, tmp_path):
    code, _, err = _run(capsys, ["predict", "--constants", _broken_constants(tmp_path)])
    assert code == 2
    assert "error" in err.lower()


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
    assert eps_override == pytest.approx(2.0 * eps_default, rel=1e-12)
    assert str(path) in json.loads(out_override)["constants_source"]


def test_env_var_data_dir(capsys, tmp_path, monkeypatch):
    rows = json.loads(serialize_constants(load_constants()))
    (tmp_path / "constants.json").write_text(json.dumps(rows), encoding="utf-8")
    monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
    code, out, _ = _run(capsys, ["predict", "--format", "json"])
    assert code == 0
    assert str(tmp_path) in json.loads(out)["constants_source"]


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
    assert rows["eta_c"]["lifetime_s"] == pytest.approx(1.1e-25, rel=1e-2)
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


def test_verify_corrupted_constants_exit_2(capsys, tmp_path):
    code, _, err = _run(capsys, ["verify", "--constants", _broken_constants(tmp_path)])
    assert code == 2
    assert err


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
    assert mean_literal == pytest.approx(paper[0]["dipole_Cm"], rel=1e-10)


def test_sensitivity_csv_sections(capsys):
    code, out, _ = _run(capsys, ["sensitivity", "--format", "csv"])
    assert code == 0
    for section in ("species_count_sweep", "coupling_scaling", "dipole_trajectory"):
        assert f"# section: {section}" in out


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


@pytest.mark.parametrize("workload", ["cli_cold", "assemble_warm", "oracle_warm"])
def test_every_benchmark_request_parses(workload, monkeypatch):
    # an option change must not silently turn benchmark requests into exit 2
    inputs = _perfbench_inputs(monkeypatch)
    parser = _build_parser()
    for seed in range(1, 6):
        for request in itertools.islice(inputs.deck(workload, seed), 200):
            argv = list(request.argv)
            if request.source == inputs.PATH:
                argv += ["--constants", "constants.json"]
            parser.parse_args(argv)


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_precision_flag_widens_table(capsys):
    _, out, _ = _run(capsys, ["predict", "--precision", "6"])
    assert "9.10082e-12" in out


def test_invalid_precision_exit_2(capsys):
    code, _, err = _run(capsys, ["predict", "--precision", "0"])
    assert code == 2


def test_table_and_json_share_one_report(capsys):
    # the table renders the same numbers the JSON carries (no recomputation drift)
    _, out_json, _ = _run(capsys, ["predict", "--format", "json"])
    payload = json.loads(out_json)
    _, out_table, _ = _run(capsys, ["predict", "--precision", "12"])
    assert f"{payload['model']['epsilon0']:#.12g}" in out_table
    assert f"{payload['model']['inv_alpha']:#.12g}" in out_table


# --- file species and data-file errors ---------------------------------------------

E_ONLY = {
    "kind": "species", "name": "e_only", "type": "lepton-pair", "charge_fraction": "1",
    "constituent_mass": {"value": 9.1093837015e-31, "unit": "kg"},
}
ETA_B_10_EV = {
    "kind": "species", "name": "eta_b", "type": "quarkonium", "charge_fraction": "1/3",
    "constituent_mass": {"value": 4.3, "unit": "GeV"},
    "bound_state_mass": {"value": 9.4, "unit": "GeV"},
    "two_photon_width": {"value": 10.0, "unit": "eV"},
}


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


def test_predict_file_species_replace_builtins(capsys, tmp_path):
    path = _constants_file(tmp_path, species=[E_ONLY])
    code, out, _ = _run(capsys, ["predict", "--format", "json", "--constants", path])
    assert code == 0
    payload = json.loads(out)
    assert [row["species"] for row in payload["contributions"]] == ["e_only"]
    closed = epsilon0_closed_form(load_constants(path), n_species=1).value
    assert payload["model"]["epsilon0"] == pytest.approx(closed, rel=1e-12)


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
    assert terms["eta_b"] / at_450_ev == pytest.approx(10.0 / 450.0, rel=1e-12)


@pytest.mark.parametrize("record", [
    {"kind": "species", "name": "eta_t", "type": "quarkonium"},
    {"kind": "species", "name": "x_pair", "type": "lepton-pair"},
    {**E_ONLY, "constituent_mass": {"value": 1.0, "unit": "erg"}},
    {**E_ONLY, "constituent_mass": 9.1e-31},
    {**E_ONLY, "charge_fraction": "1/0"},
], ids=["unsupported", "no-mass", "bad-unit", "bare-number", "zero-denominator"])
def test_predict_bad_species_record_exit_2(capsys, tmp_path, record):
    code, out, err = _run(capsys, ["predict", "--constants",
                                   _constants_file(tmp_path, species=[record])])
    _assert_one_error_line(code, err)
    assert out == ""


@pytest.mark.parametrize("charge_fraction", ["2/3", "1/3"])
@pytest.mark.parametrize("command", ["predict", "species"])
def test_fractional_lepton_pair_exit_2(capsys, tmp_path, command, charge_fraction):
    # the closed lepton coefficient holds for unit charge only: predict used to
    # exit 1 with an AssemblyError traceback while species printed a table
    record = {**E_ONLY, "charge_fraction": charge_fraction}
    path = _constants_file(tmp_path, species=[record])
    code, out, err = _run(capsys, [command, "--constants", path])
    _assert_one_error_line(code, err)
    assert "e_only" in err and "charge_fraction" in err
    assert out == ""


def test_duplicate_species_name_exit_2(capsys, tmp_path):
    # two e_only records once counted twice: epsilon0 came out for n_species = 2
    path = _constants_file(tmp_path, species=[E_ONLY, E_ONLY])
    code, out, err = _run(capsys, ["predict", "--format", "csv", "--constants", path])
    _assert_one_error_line(code, err)
    assert f"duplicate species 'e_only' in {path}" in err
    assert out == ""


@pytest.mark.parametrize("text, message", [
    ('{"key": "e"}', "must be a JSON array"),
    ("[1, 2]", "non-object record"),
], ids=["not-an-array", "not-an-object"])
def test_malformed_constants_file_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "constants.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, ["predict", "--constants", str(path)])
    _assert_one_error_line(code, err)
    assert message in err
    assert out == ""


def test_data_dir_without_constants_file_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
    code, out, err = _run(capsys, ["predict"])
    _assert_one_error_line(code, err)
    assert str(tmp_path / "constants.json") in err and DATA_DIR_ENV_VAR in err
    assert out == ""


def test_ev_record_without_elementary_charge_exit_2(capsys, tmp_path):
    path = _constants_file(tmp_path, drop=("e",))
    code, out, err = _run(capsys, ["predict", "--constants", path])
    _assert_one_error_line(code, err)
    assert "elementary-charge record 'e'" in err
    assert out == ""


def test_boolean_constant_value_exit_2(capsys, tmp_path):
    # float(True) is 1.0: read as a number, e = 1 C gave epsilon0 ~ 1e64 and exit 0
    path = _constants_file(tmp_path, changes={"e": {"value": True}})
    code, out, err = _run(capsys, ["predict", "--constants", path])
    _assert_one_error_line(code, err)
    assert "'e'" in err and "boolean" in err
    assert out == ""


def test_boolean_species_field_exit_2(capsys, tmp_path):
    record = {**E_ONLY, "constituent_mass": {"value": True, "unit": "kg"}}
    path = _constants_file(tmp_path, species=[record])
    code, out, err = _run(capsys, ["predict", "--constants", path])
    _assert_one_error_line(code, err)
    assert "constituent_mass" in err and "boolean" in err
    assert out == ""


def test_string_constant_value_exit_2(capsys, tmp_path):
    # float("1.602176634e-19") parses: a quoted value once loaded and predict exited 0
    path = _constants_file(tmp_path, changes={"e": {"value": "1.602176634e-19"}})
    code, out, err = _run(capsys, ["predict", "--constants", path])
    _assert_one_error_line(code, err)
    assert "'e'" in err and "string" in err
    assert out == ""


def test_string_species_field_exit_2(capsys, tmp_path):
    record = {**E_ONLY, "constituent_mass": {"value": "9.1093837015e-31", "unit": "kg"}}
    path = _constants_file(tmp_path, species=[record])
    code, out, err = _run(capsys, ["predict", "--constants", path])
    _assert_one_error_line(code, err)
    assert "constituent_mass" in err and "string" in err
    assert out == ""


@pytest.mark.parametrize("name", [5, "", ["e_only"], None], ids=["number", "empty", "list", "null"])
@pytest.mark.parametrize("command", ["predict", "species"])
def test_species_name_not_a_string_exit_2(capsys, tmp_path, command, name):
    # a numeric name once passed through: exit 0 with "species": 5 in the output
    path = _constants_file(tmp_path, species=[{**E_ONLY, "name": name}])
    code, out, err = _run(capsys, [command, "--format", "json", "--constants", path])
    _assert_one_error_line(code, err)
    assert "name" in err
    assert out == ""


def test_predict_species_without_lepton_pair_exit_2(capsys, tmp_path):
    path = _constants_file(tmp_path, species=[ETA_B_10_EV])
    code, out, err = _run(capsys, ["predict", "--constants", path])
    _assert_one_error_line(code, err)
    assert "lepton" in err
    assert out == ""


def test_historical_without_m_u_exit_2(capsys, tmp_path):
    path = _constants_file(tmp_path, drop=("m_u",))
    code, out, err = _run(capsys, ["historical", "--constants", path])
    _assert_one_error_line(code, err)
    assert "m_u" in err
    assert out == ""


def test_predict_include_quarks_without_m_c_exit_2(capsys, tmp_path):
    path = _constants_file(tmp_path, drop=("m_c",))
    code, out, err = _run(capsys, ["predict", "--include-quarks", "--constants", path])
    _assert_one_error_line(code, err)
    assert "m_c" in err
    assert out == ""


@pytest.mark.parametrize("command", ["predict", "species"])
def test_etab_below_two_b_quarks_exit_2(capsys, tmp_path, command):
    path = _constants_file(tmp_path, changes={"m_etab": {"value": 1.0, "unit": "GeV"}})
    code, out, err = _run(capsys, [command, "--include-quarks", "--constants", path])
    _assert_one_error_line(code, err)
    assert "eta_b" in err and "m_etab" in err and path in err
    assert out == ""


def test_zero_elementary_charge_with_gev_records_exit_2(capsys, tmp_path):
    rows = json.loads(serialize_constants(load_constants()))
    for row in rows:
        if row["key"] == "e":
            row["value"] = 0.0
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    code, out, err = _run(capsys, ["predict", "--constants", str(path)])
    _assert_one_error_line(code, err)
    assert out == ""


COMMANDS = ("predict", "species", "verify", "sensitivity", "historical")


@pytest.mark.parametrize("command", COMMANDS)
def test_non_string_key_exit_2(capsys, tmp_path, command):
    path = _constants_file(tmp_path, changes={"m_u": {"key": ["m_u"]}})
    code, out, err = _run(capsys, [command, "--constants", path])
    _assert_one_error_line(code, err)
    assert "key must be a string" in err
    assert out == ""


@pytest.mark.parametrize("key, command", [
    ("ref_epsilon0", "predict"),
    ("ref_epsilon0", "verify"),
    ("ref_c", "species"),
    ("ref_c", "predict"),
    ("ref_inv_alpha", "species"),
])
def test_zero_reference_value_exit_2(capsys, tmp_path, key, command):
    path = _constants_file(tmp_path, changes={key: {"value": 0.0}})
    code, out, err = _run(capsys, [command, "--constants", path])
    _assert_one_error_line(code, err)
    assert key in err and "positive" in err
    assert out == ""


@pytest.mark.parametrize("key", ["m_c", "gamma_etac_2gamma", "gamma_etab_2gamma_max"])
def test_optional_key_in_kg_exit_2(capsys, tmp_path, key):
    path = _constants_file(tmp_path, changes={key: {"value": 1.0, "unit": "kg"}})
    code, out, err = _run(capsys, ["predict", "--include-quarks", "--constants", path])
    _assert_one_error_line(code, err)
    assert key in err and "dimension" in err
    assert out == ""


def test_warm_caches_change_no_output(capsys):
    verify = ["verify", "--format", "json"]
    predict = ["predict", "--include-quarks", "--format", "json"]
    runs = [_run(capsys, argv) for argv in (verify, predict, verify, predict)]
    assert runs[0] == runs[2]
    assert runs[1] == runs[3]
    assert [code for code, _, _ in runs] == [0, 0, 0, 0]
