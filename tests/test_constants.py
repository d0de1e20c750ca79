import json
import math
import re
from pathlib import Path

import pytest

from vfdielectric.constants import (
    CONSTANT_KEYS,
    SPECIES_FIELDS,
    ConstantsError,
    MissingConstantError,
    load_constants,
    serialize_constants,
    DATA_DIR_ENV_VAR,
)
from vfdielectric.quantity import ACTION, CHARGE, ENERGY, MASS, PERMEABILITY


def _write(tmp_path, rows, name="constants.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rows), encoding="utf-8")
    return path


def _default_rows():
    return json.loads(serialize_constants(load_constants()))


def test_default_elementary_charge(constants):
    assert constants.get("e").value == 1.602176634e-19
    assert constants.get("e").dim == CHARGE


def test_default_mu0_is_assigned_4pi_e7(constants):
    assert constants.get("mu0").value == 4e-7 * math.pi
    assert constants.get("mu0").dim == PERMEABILITY


def test_default_electron_mass(constants):
    assert constants.get("m_e").value == pytest.approx(9.1093837015e-31, rel=1e-12, abs=0)
    assert constants.get("m_e").dim == MASS


def test_dimension_audit_on_load(constants):
    assert constants.get("hbar").dim == ACTION
    for key in ("m_e", "m_mu", "m_tau"):
        assert constants.get(key).dim == MASS


def test_every_record_carries_a_source(constants):
    assert all(record.source for record in constants.records.values())


def test_quark_rest_energies_convert_to_joules(constants):
    # 1.27 GeV through the file's own elementary charge
    expected = 1.27 * 1e9 * constants.get("e").value
    m_c = constants.get("m_c")
    assert m_c.dim == ENERGY
    assert m_c.value == pytest.approx(expected, rel=1e-15, abs=0)


def test_unknown_key_raises(constants):
    with pytest.raises(KeyError):
        constants.get("nosuchkey")


def test_missing_optional_key_is_a_constants_error_and_a_key_error(tmp_path):
    rows = [r for r in _default_rows() if r["key"] != "m_etab"]
    loaded = load_constants(_write(tmp_path, rows))
    with pytest.raises(MissingConstantError, match="m_etab") as info:
        loaded.get("m_etab")
    assert isinstance(info.value, ConstantsError)
    assert isinstance(info.value, KeyError)
    assert str(info.value).startswith("constant 'm_etab'")


def test_mev_record_loads_as_joules(tmp_path):
    rows = _default_rows()
    rows.append({"key": "m_mu_energy", "value": 105.6583755, "unit": "MeV", "source": "test"})
    loaded = load_constants(_write(tmp_path, rows))
    assert loaded.get("m_mu_energy").dim == ENERGY
    assert loaded.get("m_mu_energy").value == 105.6583755 * 1e6 * loaded.get("e").value


def test_zero_elementary_charge_with_gev_records_rejected(tmp_path):
    rows = _default_rows()
    for row in rows:
        if row["key"] == "e":
            row["value"] = 0.0
    with pytest.raises(ConstantsError):
        load_constants(_write(tmp_path, rows))


def test_missing_required_key(tmp_path):
    rows = [r for r in _default_rows() if r["key"] != "hbar"]
    with pytest.raises(ConstantsError, match="hbar"):
        load_constants(_write(tmp_path, rows))


def test_mu0_override_passes_through(tmp_path):
    rows = _default_rows()
    for row in rows:
        if row["key"] == "mu0":
            row["value"] = 1.0
            row["source"] = "override"
    loaded = load_constants(_write(tmp_path, rows))
    assert loaded.get("mu0").value == 1.0
    assert loaded.records["mu0"].source == "override"


@pytest.mark.parametrize("source", [5, None, ["CODATA"]], ids=["number", "null", "list"])
def test_non_string_source_rejected(tmp_path, source):
    # serialize_constants once wrote a source of 5 back as "5"
    rows = _default_rows()
    rows[0]["source"] = source
    with pytest.raises(ConstantsError, match="source must be a string"):
        load_constants(_write(tmp_path, rows))


def test_serialize_round_trip(tmp_path, constants):
    path = _write(tmp_path, json.loads(serialize_constants(constants)))
    again = load_constants(path)
    assert constants.same_values(again)


def test_parse_failure(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ConstantsError, match="JSON"):
        load_constants(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConstantsError):
        load_constants(tmp_path / "nope.json")


class _BytesPath:
    def __fspath__(self):
        return b"constants.json"


@pytest.mark.parametrize("path", [b"constants.json", _BytesPath(), 3],
                         ids=["bytes", "bytes-pathlike", "int"])
def test_path_that_is_not_a_string_raises_type_error(path):
    # as Path() did; open(3) would read file descriptor 3
    with pytest.raises(TypeError):
        load_constants(path)


def test_duplicate_key_rejected(tmp_path):
    rows = _default_rows()
    rows.append(dict(rows[0]))
    with pytest.raises(ConstantsError, match="duplicate"):
        load_constants(_write(tmp_path, rows))


def test_env_var_selects_data_dir(tmp_path, monkeypatch):
    rows = _default_rows()
    for row in rows:
        if row["key"] == "ref_inv_alpha":
            row["value"] = 140.0
    _write(tmp_path, rows)
    monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
    loaded = load_constants()
    assert loaded.get("ref_inv_alpha").value == 140.0
    assert str(tmp_path) in loaded.origin


def test_explicit_path_beats_env_var(tmp_path, monkeypatch):
    explicit = _write(tmp_path, _default_rows(), name="mine.json")
    monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path / "missing"))
    loaded = load_constants(explicit)
    assert loaded.get("ref_inv_alpha").value == 137.035999084


def test_species_records_pass_through(tmp_path):
    rows = _default_rows()
    rows.append({
        "kind": "species", "name": "e_pair", "type": "lepton-pair",
        "charge_fraction": "1",
        "constituent_mass": {"value": 9.1093837015e-31, "unit": "kg"},
    })
    loaded = load_constants(_write(tmp_path, rows))
    assert len(loaded.species_records) == 1
    assert loaded.species_records[0]["name"] == "e_pair"


def test_unbuildable_species_record_fails_the_load(tmp_path):
    # a species record was once built only after loading, so the load passed
    rows = _default_rows()
    rows.append({
        "kind": "species", "name": "e_pair", "type": "lepton-pair",
        "constituent_mass": {"value": 1.0, "unit": "nope"},
    })
    path = _write(tmp_path, rows)
    with pytest.raises(ConstantsError, match=f"bad species record in {re.escape(str(path))}"):
        load_constants(path)


def test_readme_data_file_section_names_exactly_the_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Constants data file\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)`", section))
    assert set(CONSTANT_KEYS) | SPECIES_FIELDS <= named
    assert {name for name in named if re.match(r"(m|gamma|ref)_", name)} <= set(CONSTANT_KEYS)


def _with_value(key, **fields):
    def mutate(rows):
        for row in rows:
            if row["key"] == key:
                row.update(fields)
        return rows
    return mutate


def _appended(record):
    return lambda rows: rows + [record]


_UNITS = "['1/s', 'C', 'F/m', 'GeV', 'H/m', 'J·s', 'MeV', 'dimensionless', 'eV', 'keV', 'kg', 'm/s']"

# one bad record per refusal of a constant record, and the whole error line
# it gives; {path} is the file as named on the command line
_REFUSALS = {
    "missing field": (
        _appended({"key": "x", "unit": "kg", "source": "t"}),
        "malformed record in {path}: {{'key': 'x', 'unit': 'kg', 'source': 't'}} ('value')"),
    "int past the float range": (
        _appended({"key": "x", "value": 10**400, "unit": "kg"}),
        "malformed record in {path}: {{'key': 'x', 'value': " + str(10**400)
        + ", 'unit': 'kg'}} (int too large to convert to float)"),
    "unreadable string": (
        _appended({"key": "x", "value": "abc", "unit": "kg"}),
        "malformed record in {path}: {{'key': 'x', 'value': 'abc', 'unit': 'kg'}} "
        "(could not convert string to float: 'abc')"),
    "e not a number": (
        _with_value("e", value="one"),
        "malformed record in {path}: {{'key': 'e', 'value': 'one', 'unit': 'C', "
        "'source': 'CODATA 2018 (exact)'}} (could not convert string to float: 'one')"),
    "key not a string": (
        _appended({"key": 5, "value": 1.0, "unit": "kg"}),
        "malformed record in {path}: {{'key': 5, 'value': 1.0, 'unit': 'kg'}} (key must be a string)"),
    "unknown field": (
        _appended({"key": "x", "value": 1.0, "unit": "kg", "note": "n"}),
        "constant 'x' in {path} has unknown field 'note'; allowed: key, source, unit, value"),
    "source not a string": (
        _appended({"key": "x", "value": 1.0, "unit": "kg", "source": 5}),
        "malformed record in {path}: {{'key': 'x', 'value': 1.0, 'unit': 'kg', 'source': 5}} "
        "(source must be a string)"),
    # serialize_constants once wrote a source of 5 back as "5"
    "source null": (
        _with_value("e", source=None),
        "malformed record in {path}: {{'key': 'e', 'value': 1.602176634e-19, 'unit': 'C', "
        "'source': None}} (source must be a string)"),
    "source a list": (
        _with_value("e", source=["CODATA"]),
        "malformed record in {path}: {{'key': 'e', 'value': 1.602176634e-19, 'unit': 'C', "
        "'source': ['CODATA']}} (source must be a string)"),
    "unit off the whitelist": (
        _appended({"key": "x", "value": 1.0, "unit": "lb"}),
        "constant 'x' in {path}: unit 'lb' is not allowed; allowed: " + _UNITS),
    "unit erg": (
        _appended({"key": "x", "value": 1.0, "unit": "erg", "source": "test"}),
        "constant 'x' in {path}: unit 'erg' is not allowed; allowed: " + _UNITS),
    "unit not a string": (
        _appended({"key": "x", "value": 1.0, "unit": ["kg"]}),
        "constant 'x' in {path}: unit ['kg'] is not allowed; allowed: " + _UNITS),
    "eV unit without e": (
        lambda rows: [row for row in rows if row["key"] != "e"],
        "constant 'm_c' in {path}: unit GeV needs an elementary-charge record 'e' (unit C) to scale by"),
    "bool value": (
        _appended({"key": "x", "value": True, "unit": "kg"}),
        "constant 'x' in {path}: value true is a boolean, not a number"),
    "str value": (
        _appended({"key": "x", "value": "2", "unit": "kg"}),
        'constant \'x\' in {path}: value "2" is a string, not a number'),
    "Infinity": (
        _appended({"key": "x", "value": math.inf, "unit": "kg"}),
        "constant 'x' in {path}: cannot convert inf kg to SI: Quantity value must be finite, got inf"),
    "NaN": (
        _appended({"key": "x", "value": math.nan, "unit": "kg"}),
        "constant 'x' in {path}: cannot convert nan kg to SI: Quantity value must be finite, got nan"),
    "eV value out of range in joules": (
        _appended({"key": "x", "value": 1e300, "unit": "GeV"}),
        "constant 'x' in {path}: 1e+300 GeV in joules is out of the float range: "
        "the product 1e+300 * 1000000000.0 is inf (dimension m^2·kg·s^-2)"),
    "wrong dimension": (
        _with_value("hbar", unit="kg"),
        "constant 'hbar' in {path} must have dimension m^2·kg·s^-1, got kg"),
    "m_tau in C": (
        _with_value("m_tau", unit="C"),
        "constant 'm_tau' in {path} must have dimension kg, got s·A"),
    "wrong dimension in eV": (
        _with_value("m_e", unit="GeV"),
        "constant 'm_e' in {path} must have dimension kg, got m^2·kg·s^-2"),
    "wrong dimension of a width": (
        _with_value("gamma_etac_2gamma", unit="kg"),
        "constant 'gamma_etac_2gamma' in {path} must have dimension s^-1 or m^2·kg·s^-2, got kg"),
    "zero": (
        _with_value("m_e", value=0.0),
        "constant 'm_e' in {path} must be strictly positive, got 0.0"),
    "m_mu -1.0": (
        _with_value("m_mu", value=-1.0),
        "constant 'm_mu' in {path} must be strictly positive, got -1.0"),
    "negative mass under its own key": (
        _appended({"key": "m_x", "value": -1.0, "unit": "kg"}),
        "constant 'm_x' in {path} must be strictly positive, got -1.0"),
    "negative energy": (
        _with_value("m_c", value=-1.27),
        "constant 'm_c' in {path} must be strictly positive, got -2.0347643251799998e-10"),
    "subnormal": (
        _with_value("m_e", value=5e-324),
        "constant 'm_e' in {path} is out of the float range: 5e-324 is subnormal"),
}


@pytest.mark.parametrize("mutate, line", _REFUSALS.values(), ids=_REFUSALS)
def test_each_refused_constant_record_prints_its_whole_error_line(tmp_path, capsys, mutate, line):
    from vfdielectric.cli import main

    path = _write(tmp_path, mutate(_default_rows()))
    assert main(["historical", "--constants", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: " + line.format(path=path) + "\n"


_E_ONLY = {"kind": "species", "name": "e_only", "type": "lepton-pair",
           "constituent_mass": {"value": 9.1093837015e-31, "unit": "kg"}}


# a member written twice in a constant record (e = 2e-19 once loaded
# last-wins, and predict printed an epsilon0 59.9% low), in a species record
# and in a {value, unit} object, where both copies agree
@pytest.mark.parametrize("once, twice, member", [
    ('"value": 1.602176634e-19', '"value": 1.602176634e-19, "value": 2e-19', "value"),
    ('"name": "e_only"', '"name": "e_only", "name": "mu_only"', "name"),
    ('"unit": "kg"}}', '"unit": "kg", "unit": "kg"}}', "unit"),
], ids=["constant record", "species record", "value-unit object"])
def test_a_member_repeated_in_one_object_exits_2(tmp_path, capsys, once, twice, member):
    from vfdielectric.cli import main

    text = json.dumps(_default_rows() + [_E_ONLY])
    assert text.count(once) == 1
    path = tmp_path / "constants.json"
    path.write_text(text.replace(once, twice), encoding="utf-8")
    assert main(["predict", "--format", "json", "--constants", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: constants file {path} repeats the member {member!r} in one object\n"
