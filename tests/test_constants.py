import json
import math
import re
from pathlib import Path

import pytest

from test_refusals import row_tests
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


def test_mu0_override_passes_through(tmp_path):
    rows = _default_rows()
    for row in rows:
        if row["key"] == "mu0":
            row["value"] = 1.0
            row["source"] = "override"
    loaded = load_constants(_write(tmp_path, rows))
    assert loaded.get("mu0").value == 1.0
    assert loaded.records["mu0"].source == "override"


def test_serialize_round_trip(tmp_path, constants):
    path = _write(tmp_path, json.loads(serialize_constants(constants)))
    again = load_constants(path)
    assert constants.same_values(again)


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


def test_readme_data_file_section_names_exactly_the_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Constants data file\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)`", section))
    assert set(CONSTANT_KEYS) | SPECIES_FIELDS <= named
    assert {name for name in named if re.match(r"(m|gamma|ref)_", name)} <= set(CONSTANT_KEYS)


# each constants file that exits 2 is a row of test_refusals.REFUSALS; the rows
# that were cases of tests of this module are collected here under those names
globals().update(row_tests("test_constants"))
