"""Every constants file the CLI refuses, one row each, and the whole line it prints.

A row of ``REFUSALS`` is ``id: (edit, argv, line)``:

- ``edit`` maps the bundled records, fresh for each row, to the file's
  records, or to its raw text or bytes;
- ``argv`` is the command line without ``--constants``;
- ``line`` is the whole message after ``error: ``, with ``{path}`` standing
  for the file.

One runner writes the file, runs ``cli.main([*argv, "--constants", path])``
and requires exit 2, no stdout byte and ``error: <line>`` as all of stderr
(an exception that escapes ``main`` shows as the exit code).  A new refusal
is one new row, with a plain id, collected as ``test_refusal[id]``.  The
comment above a row or a family says what such a file once did instead.

A row that was a case of an older test is keyed by the name that case was
collected under, ``module::function[case]`` (``module::function`` for a test
with one case), and is still collected under that name, so test runs
compared by id across the move to this table find every old case:
``row_tests(module)`` builds those functions with the same runner, and
``module`` binds them.  Each such row is a file and argv of its own.
"""

import json
import time

import pytest

from extreme_sweep import run
from vfdielectric.constants import CONSTANT_KEYS, load_constants, serialize_constants

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

_BUNDLED = serialize_constants(load_constants())
_UNIT = {row["key"]: row["unit"] for row in json.loads(_BUNDLED)}
_VALUE = {row["key"]: row["value"] for row in json.loads(_BUNDLED)}
_COMMANDS = ("predict", "species", "verify", "sensitivity", "historical")
_FORMATS = ("table", "json", "csv")
_UNITS = "['1/s', 'C', 'F/m', 'GeV', 'H/m', 'J·s', 'MeV', 'dimensionless', 'eV', 'keV', 'kg', 'm/s']"
_SPECIES_FIELDS = ("bound_state_mass, charge_fraction, constituent_mass, e_min, kind, name, "
                   "two_photon_width, type")
# a lone surrogate (valid JSON) and a NUL, in the string fields of a record
_ODD = {"surrogate": "\ud800", "NUL": "\x00"}
_X = {"key": "x", "value": 1.0, "unit": "kg", "source": "t"}
_MARK = "\ufeff".encode()  # a UTF-8 byte-order mark


def _change(changes):
    """The records with ``changes[key]`` merged into the row of each key."""
    return lambda rows: [{**row, **changes.get(row["key"], {})} for row in rows]


def _value(key, value):
    return _change({key: {"value": value}})


def _drop(key):
    return lambda rows: [row for row in rows if row["key"] != key]


def _append(*records):
    return lambda rows: rows + list(records)


def _text(text):
    return lambda rows: text


def _repeated(once, twice):
    """The text of the records and ``E_ONLY``, ``once`` (found once) written as ``twice``."""
    def edit(rows):
        text = json.dumps(rows + [E_ONLY])
        assert text.count(once) == 1
        return text.replace(once, twice)
    return edit


def _json_error(text):
    """The line for ``text`` that json.loads refuses, with json's own words:
    the interpreter words its digit and nesting limits, and the words differ
    between versions.  A text that json.loads accepts gets a line no run
    prints, so its row fails and says why."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"constants file {{path}} is not valid JSON: {exc}"
    return "(json.loads accepts this text)"


def _shown(record):
    """``record`` as an error line shows it, braces doubled for ``format``."""
    return repr(record).replace("{", "{{").replace("}", "}}")


def _species(message):
    return "bad species record in {path}: " + message


def _subnormal(key, value):
    return f"constant {key!r} in {{path}} is out of the float range: {value!r} is subnormal"


def _range(message):
    return "the constants in {path} take a result out of the float range: " + message


_RECORD = "test_constants::test_each_refused_constant_record_prints_its_whole_error_line"

_NOT_JSON = ("constants file {path} is not valid JSON: "
             "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)")
_DIGITS = '[{"key": "e", "value": 1' + "0" * 5000 + ', "unit": "C"}]'
_DEEP_ARRAY = "[" * 200000 + "]" * 200000
# past every interpreter's nesting limit: from 3.12 on json's C scanner checks
# the C recursion limit (thousands), not sys.getrecursionlimit()
_DEEP_VALUE = json.dumps(_value("e", "nested")(json.loads(_BUNDLED))).replace(
    '"nested"', "[" * 200000 + "1.0" + "]" * 200000)

# a coupling outside the first-order band once gave exit 0 with lam ~ 1e145 and,
# as its only signal, a CouplingStrengthWarning source line on stderr
_COUPLINGS = [("e", 1e-50, "1.6424509954007115e+145"), ("ref_epsilon0", 1e50, "2.241270435303907e+172")]

# a dipole scale 2 q <x>_10 lam of 6.1e-107 C·m * 2.4e-222 once underflowed:
# every dipole_Cm printed as 0.0 with exit 0; the first nonzero sample's
# response is lam itself on the paper branch, lam (1 - cos tau) on the literal one
_UNDERFLOWED_RESPONSE = {"paper": "2.3661715652028984e-222", "literal": "1.8011408570174495e-223"}

# "e\npair" once split a species table row, and the command exited 0
_CONTROLS = {"LF": "\n", "TAB": "\t", "NUL": "\x00", "DEL": "\x7f", "NEL": "\x85"}

# -1 in an eV-family unit is refused in joules
_MINUS_ONE_IN_SI = {"GeV": "-1.6021766339999998e-10", "keV": "-1.602176634e-16"}

# the message each case pinned before quantity's float-range rule named the
# operation that left the range: a division by an underflowed zero once escaped
# cli.main as a ZeroDivisionError traceback, which the rule now refuses itself
_UNDERFLOWED_DIVISORS = [  # command, hbar, the message before the rule, the line now
    ("species", 1e-300, "division by zero quantity",
     _range("the product 1e-300 * 1e-300 underflows to 0.0 (dimension m^4·kg^2·s^-2)")),
    ("verify", 1e-320, "division by zero quantity", _subnormal("hbar", 1e-320)),  # refused at load
    # the solve computes hbar^2 in its first step, after the coupling's eps * hbar
    ("verify", 1e-300, "Quantity value must be finite, got inf",
     _range("the product 8.8541878128e-12 * 1e-300 is subnormal: 8.8541878128e-312 "
            "(dimension m^-1·s^3·A^2)")),
]

# a float ** past the float range once escaped cli.main as an OverflowError
# traceback, and a domain check that an under- or overflowed value reaches as a
# ValueError traceback
_FLOAT_POWERS = [  # key, value, argv, the message before the rule, the line now
    ("ref_inv_alpha", 1e-200, ["species", "--include-quarks"], "power 5 of alpha",
     _range("the power 1e+200 ** 5 is inf (dimension 1)")),
    ("mu0", 1e200, ["verify"], "power 5 of alpha",
     _range("the power 6.509691353675772e+100 ** 5 is inf (dimension 1)")),
    ("ref_inv_alpha", 1e-200, ["historical"], "power 2 of 1e+200",
     _range("the power 1e+200 ** 2 is inf (dimension 1)")),
    ("e", 1e-200, ["predict"], "epsilon must be positive",
     _range("the product 1e-200 * 1e-200 underflows to 0.0 (dimension s^2·A^2)")),
    ("ref_inv_alpha", 5e-324, ["species", "--include-quarks"], "alpha must be positive and finite",
     _subnormal("ref_inv_alpha", 5e-324)),  # a subnormal file value, refused at load
    ("e", 1e-200, ["species", "--include-quarks"], "omega0 must be positive",
     _range("the power 1e-200 ** 4 underflows to 0.0 (dimension s^4·A^4)")),
    ("m_e", 5e-324, ["predict"], "reduced_mass must be positive",
     _subnormal("m_e", 5e-324)),  # a subnormal file value, refused at load
    # 1e-300 GeV is a subnormal in J, refused at load by the scaling's own product
    ("m_b", 1e-300, ["predict", "--include-quarks"], "eta_b: constituent_mass must be positive",
     "constant 'm_b' in {path}: 1e-300 GeV in joules is out of the float range: the product "
     "1e-291 * 1.602176634e-19 is subnormal: 1.602176634e-310 (dimension m^2·kg·s^-2)"),
    ("gamma_etac_2gamma", 1e-300, ["predict", "--include-quarks"], "eta_c: epsilon_term must be positive",
     _range("the product 6.085956898870474e-276 * 2.2553904510055694e-59 underflows to 0.0 "
            "(dimension m^-3·kg^-1·s^4·A^2)")),
    ("mu0", 1e-200, ["predict"], "fractional power 1/2 of a non-positive value 0.0",
     _range("the product 1e-200 * 7.242201515984832e-206 underflows to 0.0 (dimension m^-2·s^2)")),
    # m_e/m_u once printed "comparison": Infinity, which is not strict JSON, with exit 0
    ("m_e", 1e300, ["historical", "--format", "json"], "Quantity value must be finite, got inf",
     _range("the quotient 1e+300 / 1.6605390666e-27 is inf (dimension 1)")),
    # a subnormal or zero alpha^5 once broke the composed lepton route, which then
    # disagreed with the closed one: an AssemblyError traceback and exit 1
    *[("e", 1e-50, argv, "underflows a float",
       _range("the power 2.8427884497657345e-65 ** 5 is subnormal: 2e-323 (dimension 1)"))
      for argv in (["predict"], ["predict", "--include-quarks"], ["verify"])],
    ("mu0", 1e-100, ["predict", "--include-quarks"], "underflows a float",
     _range("the power 2.7253166239912392e-64 ** 5 is subnormal: 1.503437e-318 (dimension 1)")),
    # and the species table printed a decay rate built on it, with exit 0
    ("ref_inv_alpha", 1e100, ["species", "--include-quarks"], "underflows a float",
     _range("the power 1e-100 ** 5 underflows to 0.0 (dimension 1)")),
]

# the composed lepton route underflowing to 0.0 at the seed once escaped cli.main
# as an AssemblyError traceback ("composed term 0.0 disagrees with closed
# coefficient C") with exit 1; the rule now refuses the intermediate that underflowed
_LEPTON_UNDERFLOWS = [  # changes, argvs, C, the line now
    ({"ref_epsilon0": 1e-100, "e": 1e-30}, ["predict", "predict --include-quarks", "verify"],
     "4.6038126229937343e-57", _range("the quotient 2.195538211515527e-30 / 1.5120341069425576e+298 "
                                      "underflows to 0.0 (dimension kg^-1·s^4·A^2)")),
    ({"ref_epsilon0": 1e-30, "hbar": 1e30}, ["predict", "predict --include-quarks"],
     "3.3737394222569586e-140", _range("the product 3.43425203940468e-125 * 1.5740527627871253e-284 "
                                       "underflows to 0.0 (dimension m^-3)")),
]

# the faults of a sweep that set each of 13 keys to its bundled value times
# 10^k, k = -320, -313, ..., 316: an AssemblyError or ZeroDivisionError
# traceback with exit 1, or "-Infinity" in exit-0 JSON.  Each passed a subnormal
# or underflowed intermediate on, which the float-range rule now refuses.
_SWEEP_FAULTS = [  # key, exponent (None: the value 1.7e308), argvs, the line now
    ("ref_epsilon0", 86, ["predict", "predict --include-quarks", "verify"],
     "the product 1.1114260905651917e-90 * 5.173288008319845e-227 is subnormal: 5.7497275e-317 "
     "(dimension m^-3)"),
    ("mu0", 86, ["predict", "predict --include-quarks", "verify"],
     "the product 9.782760711791651e-157 * 9.782760711791651e-157 is subnormal: 9.5702407144e-313 "
     "(dimension s^-2)"),
    ("m_mu", -117, ["predict", "verify"],
     "the product 9.824995307933413e-306 * 5.173288008319844e-12 is subnormal: 5.082753e-317 "
     "(dimension m^-3)"),
    ("m_tau", -117, ["predict", "verify"],
     "the product 4.672829386208143e-302 * 5.173288008319844e-12 is subnormal: 2.41738922287e-313 "
     "(dimension m^-3)"),
    ("e", -75, ["predict", "predict --include-quarks"],
     "the product 1.2566370614359173e-06 * 5.925012260009065e-308 is subnormal: 7.4455899955e-314 "
     "(dimension m^-3·kg^-1·s^4·A^2)"),
    ("ref_inv_alpha", None, ["historical --format json"],
     "the power 5.88235294117647e-309 ** 2 underflows to 0.0 (dimension 1)"),
]

REFUSALS = {
    # --- the file as JSON -------------------------------------------------------
    "test_cli::test_predict_constants_load_failure_exit_2": (_text("{ not json"), ["predict"], _NOT_JSON),
    "test_cli::test_verify_corrupted_constants_exit_2": (_text("{ not json"), ["verify"], _NOT_JSON),
    "test_constants::test_parse_failure": (_text("{ not json"), ["historical"], _NOT_JSON),
    "test_cli::test_malformed_constants_file_exit_2[not-an-array]": (
        _text('{"key": "e"}'), ["predict"], "constants file {path} must be a JSON array of records"),
    "test_cli::test_malformed_constants_file_exit_2[not-an-object]": (
        _text("[1, 2]"), ["predict"], "non-object record in {path}: 1"),
    # json.loads raises a plain ValueError past the int-to-str digit limit, and
    # RecursionError past the interpreter's nesting limit: once a traceback with exit 1
    "test_cli::test_integer_past_the_digit_limit_exit_2": (_text(_DIGITS), ["predict"], _json_error(_DIGITS)),
    "test_cli::test_deeply_nested_json_exit_2[array]": (
        _text(_DEEP_ARRAY), ["predict"], _json_error(_DEEP_ARRAY)),
    "test_cli::test_deeply_nested_json_exit_2[value]": (
        _text(_DEEP_VALUE), ["predict"], _json_error(_DEEP_VALUE)),
    # a member written twice in a constant record (e = 2e-19 once loaded
    # last-wins, and predict printed an epsilon0 59.9% low), in a species record
    # and in a {value, unit} object, where both copies agree
    **{f"test_constants::test_a_member_repeated_in_one_object_exits_2[{where}]": (
        _repeated(once, twice), ["predict", "--format", "json"],
        f"constants file {{path}} repeats the member {member!r} in one object")
       for where, once, twice, member in [
           ("constant record", '"value": 1.602176634e-19', '"value": 1.602176634e-19, "value": 2e-19',
            "value"),
           ("species record", '"name": "e_only"', '"name": "e_only", "name": "mu_only"', "name"),
           ("value-unit object", '"unit": "kg"}}', '"unit": "kg", "unit": "kg"}}', "unit"),
       ]},

    # --- the file as bytes: a byte-order mark and line ends ------------------------
    # a file opened as utf-8-sig once reported this byte at position 50, its
    # offset in the text after the mark, not in the file
    "bytes: 0xff at offset 53 after a byte-order mark": (
        lambda rows: _MARK + b" " * 50 + b"\xff" + json.dumps(rows).encode(), ["predict"],
        "cannot read constants file {path}: 'utf-8' codec can't decode byte 0xff in position 53: "
        "invalid start byte"),
    # one mark is skipped; a second is a character JSON cannot start with
    "bytes: two byte-order marks": (
        lambda rows: _MARK * 2 + json.dumps(rows).encode(), ["predict"],
        "constants file {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    # CRLF line ends are read as text mode reads them, each one character
    "bytes: a missing comma after CRLF line ends": (
        lambda rows: json.dumps(rows[:3], indent=1).replace("\n", "\r\n").replace(
            "},\r\n {", "}\r\n {", 1).encode(), ["predict"],
        _json_error(json.dumps(json.loads(_BUNDLED)[:3], indent=1).replace("},\n {", "}\n {", 1))),

    # --- constant records -------------------------------------------------------
    # a missing field was once named by KeyError's text alone: "('value')"
    f"{_RECORD}[missing field]": (
        _append({"key": "x", "unit": "kg", "source": "t"}), ["historical"],
        "malformed record in {path}: {{'key': 'x', 'unit': 'kg', 'source': 't'}} (missing field 'value')"),
    "constant: missing key": (
        _append({"value": 1.0, "unit": "kg", "source": "t"}), ["historical"],
        "malformed record in {path}: {{'value': 1.0, 'unit': 'kg', 'source': 't'}} (missing field 'key')"),
    "constant: missing unit": (
        _append({"key": "x", "value": 1.0, "source": "t"}), ["historical"],
        "malformed record in {path}: {{'key': 'x', 'value': 1.0, 'source': 't'}} (missing field 'unit')"),
    # a kind other than "species" was once read as a constant record, refused for its missing key
    "record: kind specie": (
        _append({**E_ONLY, "kind": "specie"}), ["predict"],
        "unknown record kind 'specie' in {path}; the one kind is 'species'"),
    f"{_RECORD}[int past the float range]": (
        _append({"key": "x", "value": 10**400, "unit": "kg"}), ["historical"],
        "malformed record in {path}: {{'key': 'x', 'value': " + str(10**400)
        + ", 'unit': 'kg'}} (int too large to convert to float)"),
    # float(10**400) raises OverflowError, which once escaped as a traceback
    "test_cli::test_integer_too_large_for_a_float_exit_2": (
        _value("m_e", 10**400), ["predict"],
        "malformed record in {path}: {{'key': 'm_e', 'value': " + str(10**400)
        + ", 'unit': 'kg', 'source': 'CODATA 2018'}} (int too large to convert to float)"),
    f"{_RECORD}[unreadable string]": (
        _append({"key": "x", "value": "abc", "unit": "kg"}), ["historical"],
        "malformed record in {path}: {{'key': 'x', 'value': 'abc', 'unit': 'kg'}} "
        "(could not convert string to float: 'abc')"),
    f"{_RECORD}[e not a number]": (
        _change({"e": {"value": "one"}}), ["historical"],
        "malformed record in {path}: {{'key': 'e', 'value': 'one', 'unit': 'C', "
        "'source': 'CODATA 2018 (exact)'}} (could not convert string to float: 'one')"),
    f"{_RECORD}[key not a string]": (
        _append({"key": 5, "value": 1.0, "unit": "kg"}), ["historical"],
        "malformed record in {path}: {{'key': 5, 'value': 1.0, 'unit': 'kg'}} (key must be a string)"),
    f"{_RECORD}[unknown field]": (
        _append({"key": "x", "value": 1.0, "unit": "kg", "note": "n"}), ["historical"],
        "constant 'x' in {path} has unknown field 'note'; allowed: key, source, unit, value"),
    # serialize_constants once wrote a source of 5 back as "5"; a source in another
    # record, and in e, read first
    **{f"{_RECORD}[{case}]": (
        _append({**_X, "source": source}), ["historical"],
        "malformed record in {path}: " + _shown({**_X, "source": source}) + " (source must be a string)")
       for case, source in [("source not a string", 5), ("source null", None), ("source a list", ["CODATA"])]},
    **{f"test_constants::test_non_string_source_rejected[{case}]": (
        _change({"e": {"source": source}}), ["historical"],
        "malformed record in {path}: {{'key': 'e', 'value': 1.602176634e-19, 'unit': 'C', "
        f"'source': {_shown(source)}}}}} (source must be a string)")
       for case, source in [("number", 5), ("null", None), ("list", ["CODATA"])]},
    f"{_RECORD}[unit off the whitelist]": (
        _append({"key": "x", "value": 1.0, "unit": "lb"}), ["historical"],
        "constant 'x' in {path}: unit 'lb' is not allowed; allowed: " + _UNITS),
    f"{_RECORD}[unit erg]": (
        _append({"key": "x", "value": 1.0, "unit": "erg", "source": "test"}), ["historical"],
        "constant 'x' in {path}: unit 'erg' is not allowed; allowed: " + _UNITS),
    f"{_RECORD}[unit not a string]": (
        _append({"key": "x", "value": 1.0, "unit": ["kg"]}), ["historical"],
        "constant 'x' in {path}: unit ['kg'] is not allowed; allowed: " + _UNITS),
    **{key: (
        _drop("e"), [command],
        "constant 'm_c' in {path}: unit GeV needs an elementary-charge record 'e' (unit C) to scale by")
       for key, command in [("test_cli::test_ev_record_without_elementary_charge_exit_2", "predict"),
                            (f"{_RECORD}[eV unit without e]", "historical")]},
    # float(True) is 1.0: read as a number, e = 1 C gave epsilon0 ~ 1e64 and exit 0
    f"{_RECORD}[bool value]": (
        _append({"key": "x", "value": True, "unit": "kg"}), ["historical"],
        "constant 'x' in {path}: value true is a boolean, not a number"),
    "test_cli::test_boolean_constant_value_exit_2": (
        _value("e", True), ["predict"], "constant 'e' in {path}: value true is a boolean, not a number"),
    # float("1.602176634e-19") parses: a quoted value once loaded and predict exited 0
    f"{_RECORD}[str value]": (
        _append({"key": "x", "value": "2", "unit": "kg"}), ["historical"],
        'constant \'x\' in {path}: value "2" is a string, not a number'),
    "test_cli::test_string_constant_value_exit_2": (
        _value("e", "1.602176634e-19"), ["predict"],
        'constant \'e\' in {path}: value "1.602176634e-19" is a string, not a number'),
    f"{_RECORD}[Infinity]": (
        _append({"key": "x", "value": float("inf"), "unit": "kg"}), ["historical"],
        "constant 'x' in {path}: cannot convert inf kg to SI: Quantity value must be finite, got inf"),
    f"{_RECORD}[NaN]": (
        _append({"key": "x", "value": float("nan"), "unit": "kg"}), ["historical"],
        "constant 'x' in {path}: cannot convert nan kg to SI: Quantity value must be finite, got nan"),
    f"{_RECORD}[eV value out of range in joules]": (
        _append({"key": "x", "value": 1e300, "unit": "GeV"}), ["historical"],
        "constant 'x' in {path}: 1e+300 GeV in joules is out of the float range: "
        "the product 1e+300 * 1000000000.0 is inf (dimension m^2·kg·s^-2)"),
    "test_constants::test_missing_required_key": (
        _drop("hbar"), ["historical"], "constants file {path} is missing required keys: ['hbar']"),
    "test_constants::test_duplicate_key_rejected": (
        lambda rows: rows + [dict(rows[0])], ["historical"], "duplicate key 'e' in {path}"),
    **{f"test_cli::test_non_string_key_exit_2[{command}]": (
        _change({"m_u": {"key": ["m_u"]}}), [command],
        "malformed record in {path}: {{'key': ['m_u'], 'value': 1.6605390666e-27, 'unit': 'kg', "
        "'source': 'CODATA 2018 (atomic mass constant)'}} (key must be a string)")
       for command in _COMMANDS},
    # str() once read a source of 5 as "5", and the file no longer round-tripped
    **{f"test_cli::test_non_string_source_exit_2[{command}]": (
        _change({"hbar": {"source": 5}}), [command],
        "malformed record in {path}: {{'key': 'hbar', 'value': 1.054571817e-34, 'unit': 'J·s', "
        "'source': 5}} (source must be a string)")
       for command in _COMMANDS},
    # unknown fields were once dropped without a word
    **{f"test_cli::test_constant_record_unknown_field_exit_2[{command}]": (
        _change({"hbar": {"sorce": "CODATA 2018"}}), [command],
        "constant 'hbar' in {path} has unknown field 'sorce'; allowed: key, source, unit, value")
       for command in _COMMANDS},

    # --- named keys: dimension, sign, range ---------------------------------------
    f"{_RECORD}[wrong dimension]": (
        _change({"hbar": {"unit": "kg"}}), ["historical"],
        "constant 'hbar' in {path} must have dimension m^2·kg·s^-1, got kg"),
    f"{_RECORD}[m_tau in C]": (
        _change({"m_tau": {"unit": "C"}}), ["historical"],
        "constant 'm_tau' in {path} must have dimension kg, got s·A"),
    f"{_RECORD}[wrong dimension in eV]": (
        _change({"m_e": {"unit": "GeV"}}), ["historical"],
        "constant 'm_e' in {path} must have dimension kg, got m^2·kg·s^-2"),
    f"{_RECORD}[wrong dimension of a width]": (
        _change({"gamma_etac_2gamma": {"unit": "kg"}}), ["historical"],
        "constant 'gamma_etac_2gamma' in {path} must have dimension s^-1 or m^2·kg·s^-2, got kg"),
    **{f"test_cli::test_optional_key_in_kg_exit_2[{key}]": (
        _change({key: {"value": 1.0, "unit": "kg"}}), ["predict", "--include-quarks"],
        f"constant {key!r} in {{path}} must have dimension {dimension}, got kg")
       for key, dimension in [("m_c", "m^2·kg·s^-2"), ("gamma_etac_2gamma", "s^-1 or m^2·kg·s^-2"),
                              ("gamma_etab_2gamma_max", "s^-1 or m^2·kg·s^-2")]},
    f"{_RECORD}[zero]": (
        _value("m_e", 0.0), ["historical"], "constant 'm_e' in {path} must be strictly positive, got 0.0"),
    **{name: (_value("e", 0.0), [command], "constant 'e' in {path} must be strictly positive, got 0.0")
       for name, command in [("test_cli::test_zero_elementary_charge_with_gev_records_exit_2", "predict"),
                             ("test_constants::test_zero_elementary_charge_with_gev_records_rejected",
                              "historical")]},
    # the quark keys once loaded at 0: a traceback under --include-quarks, exit 0 elsewhere
    **{f"test_cli::test_zero_reference_value_exit_2[{key}-{command}]": (
        _value(key, 0.0), [command], f"constant {key!r} in {{path}} must be strictly positive, got 0.0")
       for key, command in [
           ("ref_epsilon0", "predict"), ("ref_epsilon0", "verify"), ("ref_c", "species"),
           ("ref_c", "predict"), ("ref_inv_alpha", "species"), ("m_c", "predict"), ("m_b", "species"),
           ("m_etac", "historical"), ("m_etab", "verify"), ("gamma_etac_2gamma", "sensitivity"),
           ("gamma_etab_2gamma_min", "predict"), ("gamma_etab_2gamma_max", "species")]},
    f"{_RECORD}[m_mu -1.0]": (
        _value("m_mu", -1.0), ["historical"], "constant 'm_mu' in {path} must be strictly positive, got -1.0"),
    f"{_RECORD}[negative mass under its own key]": (
        _append({"key": "m_x", "value": -1.0, "unit": "kg"}), ["historical"],
        "constant 'm_x' in {path} must be strictly positive, got -1.0"),
    f"{_RECORD}[negative energy]": (
        _value("m_c", -1.27), ["historical"],
        "constant 'm_c' in {path} must be strictly positive, got -2.0347643251799998e-10"),
    # a negative quark key once loaded: species --include-quarks printed a negative
    # decay rate and density with exit 0, predict --include-quarks raised a traceback
    **{f"test_cli::test_negative_named_key_exit_2[argv{i}-{key}]": (
        _value(key, -1.0), [command, "--include-quarks"],
        f"constant {key!r} in {{path}} must be strictly positive, got "
        + _MINUS_ONE_IN_SI.get(_UNIT[key], "-1.0"))
       for i, command in enumerate(("predict", "species")) for key in sorted(CONSTANT_KEYS)},
    f"{_RECORD}[subnormal]": (_value("m_e", 5e-324), ["historical"], _subnormal("m_e", 5e-324)),
    # a subnormal file value once loaded and reached the output with exit 0:
    # predict --format json printed it under "reference", and historical an m_e/u
    # built on an m_u with about five significant digits left
    **{f"test_cli::test_subnormal_constant_exit_2[{key}-{value}-argv{i}]": (
        _value(key, value), argv, _subnormal(key, value))
       for i, (key, value, argv) in enumerate([
           *[("ref_c", value, ["predict", "--format", "json"]) for value in (3.0e-312, 5e-324)],
           *[("ref_inv_alpha", value, argv) for value in (1.37e-318, 1.37e-311, 5e-324)
             for argv in (["predict", "--format", "json"],
                          ["predict", "--include-quarks", "--format", "json"])],
           ("m_u", 1.66055e-319, ["historical"])])},
    # an eV-family value was scaled to joules in plain floats, so an underflow read
    # as a sign fault of a positive input: m_c = 1e-320 GeV exited 2 with "must be
    # strictly positive, got 0.0".  The scaling is Quantity products now
    **{f"test_cli::test_ev_scaling_out_of_the_float_range_exit_2[{value}-{unit}-{product}]": (
        _change({"m_c": {"value": value, "unit": unit}}), ["historical"],
        f"constant 'm_c' in {{path}}: {value!r} {unit} in joules is out of the float range: "
        f"{product} (dimension m^2·kg·s^-2)")
       for value, unit, product in [
           (1e-320, "GeV", "the product 1e-320 * 1000000000.0 is subnormal: 9.999888671827e-312"),
           (1e-300, "GeV", "the product 1e-291 * 1.602176634e-19 is subnormal: 1.602176634e-310"),
           (1e-306, "eV", "the product 1e-306 * 1.602176634e-19 underflows to 0.0"),
           (1e300, "GeV", "the product 1e+300 * 1000000000.0 is inf")]},
    # historical and predict --include-quarks read these optional keys; a KeyError
    # traceback once ended each with exit 1
    "test_cli::test_historical_without_m_u_exit_2": (
        _drop("m_u"), ["historical"], "constant 'm_u' is not defined in {path}"),
    "test_cli::test_predict_include_quarks_without_m_c_exit_2": (
        _drop("m_c"), ["predict", "--include-quarks"], "constant 'm_c' is not defined in {path}"),
    **{f"test_cli::test_etab_below_two_b_quarks_exit_2[{command}]": (
        _change({"m_etab": {"value": 1.0, "unit": "GeV"}}), [command, "--include-quarks"],
        "built-in species from m_b, m_etab, gamma_etab_2gamma_max in {path}: species 'eta_b': "
        "bound_state_mass must exceed 2 * constituent_mass "
        "(binding window e_min = -1.2176542418399999e-09 J)")
       for command in ("predict", "species")},

    # --- species records --------------------------------------------------------
    "test_cli::test_predict_bad_species_record_exit_2[unsupported]": (
        _append({"kind": "species", "name": "eta_t", "type": "quarkonium"}), ["predict"],
        _species("species 'eta_t' is not modeled: no experimental two-photon data exists for a "
                 "t-tbar bound state")),
    "test_cli::test_predict_bad_species_record_exit_2[no-mass]": (
        _append({"kind": "species", "name": "x_pair", "type": "lepton-pair"}), ["predict"],
        _species("species 'x_pair' is missing field 'constituent_mass'")),
    "test_cli::test_predict_bad_species_record_exit_2[bad-unit]": (
        _append({**E_ONLY, "constituent_mass": {"value": 1.0, "unit": "erg"}}), ["predict"],
        _species("species 'e_only': constituent_mass: unit 'erg' is not allowed; allowed: " + _UNITS)),
    # only predict and species once built the file's species; the other three
    # ignored a record with an unknown unit and exited 0
    **{f"test_cli::test_bad_species_record_exit_2_whichever_command_runs[{command}]": (
        _append({**E_ONLY, "constituent_mass": {"value": 1.0, "unit": "nope"}}), [command],
        _species("species 'e_only': constituent_mass: unit 'nope' is not allowed; allowed: " + _UNITS))
       for command in ("verify", "sensitivity", "historical")},
    # a species record was once built only after loading, so the load passed
    "test_constants::test_unbuildable_species_record_fails_the_load": (
        _append({"kind": "species", "name": "e_pair", "type": "lepton-pair",
                 "constituent_mass": {"value": 1.0, "unit": "nope"}}), ["historical"],
        _species("species 'e_pair': constituent_mass: unit 'nope' is not allowed; allowed: " + _UNITS)),
    "test_cli::test_predict_bad_species_record_exit_2[bare-number]": (
        _append({**E_ONLY, "constituent_mass": 9.1e-31}), ["predict"],
        _species("species 'e_only': constituent_mass must be a {{value, unit}} object")),
    # any other member of a {value, unit} object was once dropped without a word
    "species: quantity object with an unknown member": (
        _append({**E_ONLY, "constituent_mass": {"value": 9.1093837015e-31, "unit": "kg", "junk": 5}}),
        ["predict"],
        _species("species 'e_only': constituent_mass has unknown field 'junk'; allowed: unit, value")),
    "test_cli::test_boolean_species_field_exit_2": (
        _append({**E_ONLY, "constituent_mass": {"value": True, "unit": "kg"}}), ["predict"],
        _species("species 'e_only': constituent_mass: value true is a boolean, not a number")),
    "test_cli::test_string_species_field_exit_2": (
        _append({**E_ONLY, "constituent_mass": {"value": "9.1093837015e-31", "unit": "kg"}}), ["predict"],
        _species('species \'e_only\': constituent_mass: value "9.1093837015e-31" is a string, not a number')),
    # the species half of test_integer_too_large_for_a_float_exit_2, whose m_e half is above
    "species: mass 10**400": (
        _append({**E_ONLY, "constituent_mass": {"value": 10**400, "unit": "kg"}}), ["predict"],
        _species(f"species 'e_only': constituent_mass: cannot convert {10**400} kg to SI: "
                 "int too large to convert to float")),
    # a charge fraction is one of the texts 1, 2/3 and 1/3, each other text
    # shown by its repr.  "1/0" was once worded with Fraction's text alone,
    # naming neither species nor field
    "test_cli::test_predict_bad_species_record_exit_2[zero-denominator]": (
        _append({**E_ONLY, "charge_fraction": "1/0"}), ["predict"],
        _species("e_only: charge_fraction must be one of 1, 2/3, 1/3; got '1/0'")),
    # Fraction() once computed the power of ten in full first, 1.5 s for this
    # text, and a longer exponent stalled the load
    "species: charge_fraction 1e-3000000": (
        _append({**E_ONLY, "charge_fraction": "1e-3000000"}), ["predict"],
        _species("e_only: charge_fraction must be one of 1, 2/3, 1/3; got '1e-3000000'")),
    # Fraction() once read each of these as 1 or 2/3, and a JSON 1.0 is read as
    # its text; "1/2\n" and a lepton pair's "2/3\n" once printed the newline
    # inside the line, and a quarkonium's "2/3\n" loaded as 2/3
    **{f"species: charge_fraction {str(fraction)!r} of {record['name']}": (
        _append(E_ONLY, {**record, "charge_fraction": fraction}), ["predict"],
        _species(f"{record['name']}: charge_fraction must be one of 1, 2/3, 1/3; got {str(fraction)!r}"))
       for record, fraction in [
           (ETA_B_10_EV, "4/6"), ({**E_ONLY, "name": "e_one"}, 1.0), (ETA_B_10_EV, " 2/3"),
           (ETA_B_10_EV, "1/2\n"), (ETA_B_10_EV, "2/3\n"), ({**E_ONLY, "name": "e_one"}, "2/3\n")]},
    # the closed lepton coefficient holds for unit charge only: predict once
    # exited 1 with an AssemblyError traceback while species printed a table
    **{f"test_cli::test_fractional_lepton_pair_exit_2[{command}-{charge}]": (
        _append({**E_ONLY, "charge_fraction": charge}), [command],
        _species(f"e_only: a lepton pair has charge_fraction 1, got {charge}"))
       for charge in ("2/3", "1/3") for command in ("predict", "species")},
    # the lepton branch once returned before reading these fields, so even a
    # junk value loaded and both commands exited 0
    **{f"test_cli::test_lepton_pair_with_quarkonium_field_exit_2[{command}-{field}]": (
        _append({**E_ONLY, field: {"value": "junk", "unit": "nope"}}), [command],
        _species(f"species 'e_only': a lepton pair carries no {field}"))
       for field in ("bound_state_mass", "two_photon_width", "e_min") for command in ("predict", "species")},
    # a numeric name once passed through: exit 0 with "species": 5 in the output
    **{f"test_cli::test_species_name_not_a_string_exit_2[{command}-{case}]": (
        _append({**E_ONLY, "name": name}), [command, "--format", "json"],
        _species("species record without a non-empty string name: " + _shown({**E_ONLY, "name": name})))
       for case, name in [("number", 5), ("empty", ""), ("list", ["e_only"]), ("null", None)]
       for command in ("predict", "species")},
    **{f"test_cli::test_a_control_character_in_a_species_name_exits_2[{control}-{command}-{output_format}]": (
        _append({**E_ONLY, "name": f"e{char}pair"}), [command, "--format", output_format],
        _species(f"species name {f'e{char}pair'!r} holds a control character"))
       for control, char in _CONTROLS.items() for command in ("predict", "species")
       for output_format in _FORMATS},
    # two e_only records once counted twice: epsilon0 came out for n_species = 2
    "test_cli::test_duplicate_species_name_exit_2": (
        _append(E_ONLY, E_ONLY), ["predict", "--format", "csv"], "duplicate species 'e_only' in {path}"),
    # a misspelt charge fraction once loaded as charge 1, a misspelt e_min fell
    # back to the mass-derived default
    **{f"test_cli::test_species_record_unknown_field_exit_2[{command}-{case}-{field}]": (
        _append(*records), [command, "--format", "json"],
        _species(f"species {name!r} has unknown field {field!r}; allowed: {_SPECIES_FIELDS}"))
       for case, field, name, records in [
           ("lepton", "chrge_fraction", "e_only", [{**E_ONLY, "chrge_fraction": "2/3"}]),
           ("quarkonium", "e_mn", "eta_b", [E_ONLY, {**ETA_B_10_EV, "e_mn": {"value": 1.0, "unit": "GeV"}}])]
       for command in ("predict", "species")},
    "test_cli::test_predict_species_without_lepton_pair_exit_2": (
        _append(ETA_B_10_EV), ["predict"], "the species in {path} include no lepton pair; predict needs one"),
    # a width of -10 eV once gave a negative decay rate and density with exit 0
    **{f"test_cli::test_species_record_width_not_positive_exit_2[{command}-{value}]": (
        _append(E_ONLY, {**ETA_B_10_EV, "two_photon_width": {"value": value, "unit": "eV"}}), [command],
        _species(f"species 'eta_b': two_photon_width must be strictly positive, got {si}"))
       for value, si in [(0.0, "0.0"), (-10.0, "-1.602176634e-18")] for command in ("predict", "species")},
    # an SI value is refused as a loaded quantity; an eV-family one by the product
    # that scales it to joules, which names its operands
    **{f"test_cli::test_subnormal_species_field_exit_2[{field}-quantity{i}-{si}]": (
        _append(E_ONLY, {**ETA_B_10_EV, field: quantity}), ["predict"],
        _species(f"species 'eta_b': {field}" + refusal))
       for i, (field, quantity, si, refusal) in enumerate([
           ("constituent_mass", {"value": 1e-310, "unit": "kg"}, 1e-310,
            " is out of the float range: 1e-310 is subnormal"),
           ("bound_state_mass", {"value": 1e-300, "unit": "GeV"}, 1.602176634e-310,
            ": 1e-300 GeV in joules is out of the float range: the product 1e-291 * 1.602176634e-19 "
            "is subnormal: 1.602176634e-310 (dimension m^2·kg·s^-2)"),
           ("two_photon_width", {"value": 5e-324, "unit": "1/s"}, 5e-324,
            " is out of the float range: 5e-324 is subnormal"),
           ("e_min", {"value": 1e-300, "unit": "eV"}, 1.60216e-319,  # five digits left
            ": 1e-300 eV in joules is out of the float range: the product 1e-300 * 1.602176634e-19 "
            "is subnormal: 1.60216e-319 (dimension m^2·kg·s^-2)")])},

    # --- two faults in one species record: the line that wins ----------------------
    # a field's conversion, then each quantity's checks and e_min, then the
    # fraction, one of three texts and 1 for a lepton pair, then the charge
    "species order: negative mass before charge 1/2": (
        _append({**E_ONLY, "charge_fraction": "1/2", "constituent_mass": {"value": -1.0, "unit": "kg"}}),
        ["predict"], _species("species 'e_only': constituent_mass must be strictly positive, got -1.0")),
    "species order: refused unit before unreadable charge": (
        _append({**E_ONLY, "charge_fraction": "two thirds", "constituent_mass": {"value": 1.0, "unit": "erg"}}),
        ["predict"], _species("species 'e_only': constituent_mass: unit 'erg' is not allowed; allowed: " + _UNITS)),
    # "1/0" was once refused first, as a text Fraction() could not read
    "species order: negative mass before charge 1/0": (
        _append({**E_ONLY, "charge_fraction": "1/0", "constituent_mass": {"value": -1.0, "unit": "kg"}}),
        ["predict"], _species("species 'e_only': constituent_mass must be strictly positive, got -1.0")),
    "species order: negative mass before charge 1e-3000000": (
        _append({**E_ONLY, "charge_fraction": "1e-3000000", "constituent_mass": {"value": -1.0, "unit": "kg"}}),
        ["predict"], _species("species 'e_only': constituent_mass must be strictly positive, got -1.0")),
    "species order: subnormal mass before lepton charge 2/3": (
        _append({**E_ONLY, "charge_fraction": "2/3", "constituent_mass": {"value": 1e-310, "unit": "kg"}}),
        ["predict"], _species("species 'e_only': constituent_mass is out of the float range: 1e-310 is subnormal")),

    # --- a species' SI charge or reduced mass out of the float range ----------------
    # m_e 3e-308 once loaded, and each command refused its half, computed
    # later, as a result out of the float range
    **{f"species: reduced mass of m_e 3e-308 under {command}": (
        _value("m_e", 3e-308), [command],
        "built-in species from m_e in {path}: species 'e_pair': constituent_mass: "
        "the product 3e-308 * 0.5 is subnormal: 1.5000000000000004e-308 (dimension kg)")
       for command in ("predict", "species", "verify", "sensitivity")},
    # e 5e-308 once gave a charge 1/3 species a subnormal charge, and historical,
    # which reads no species, exited 0; its masses are in kg, which e does not scale
    "species: charge of 1/3 with e 5e-308": (
        lambda rows: _value("e", 5e-308)(rows) + [{
            "kind": "species", "name": "eta_x", "type": "quarkonium", "charge_fraction": "1/3",
            "constituent_mass": {"value": 2e-27, "unit": "kg"},
            "bound_state_mass": {"value": 5e-27, "unit": "kg"},
            "two_photon_width": {"value": 1e18, "unit": "1/s"}}],
        ["historical"],
        _species("species 'eta_x': charge_fraction: the product 5e-308 * 0.3333333333333333 is "
                 "subnormal: 1.666666666666666e-308 (dimension s·A)")),

    # --- results out of the float range -------------------------------------------
    **{f"test_cli::test_sensitivity_coupling_outside_the_band_exit_2[{output_format}-{key}-{value}-{lam}]": (
        _value(key, value), ["sensitivity", "--format", output_format],
        f"the constants in {{path}} give the e_pair dipole trajectory a coupling lam={lam} "
        "outside the first-order band |lam| < 0.1")
       for key, value, lam in _COUPLINGS for output_format in _FORMATS},
    **{f"test_cli::test_sensitivity_underflowed_dipole_exit_2[{output_format}-{branch}]": (
        _change({"ref_epsilon0": {"value": 1e-100}, "e": {"value": 1e-30}}),
        ["sensitivity", "--branch", branch, "--format", output_format],
        _range(f"the product 6.136675816804472e-107 * {response} underflows to 0.0 (dimension m·s·A)"))
       for branch, response in _UNDERFLOWED_RESPONSE.items() for output_format in _FORMATS},
    # a result past the float range once escaped cli.main as a ValueError traceback;
    # with m_e 1e300 the quotient q^2/mu now underflows first
    **{f"test_cli::test_result_out_of_float_range_exit_2[{key}-{value}-{command}]": (
        _value(key, value), [command], _range(message))
       for key, value, message, commands in [
           ("hbar", 1e-300, "the product 2.5669699665355692e+262 * 2.5669699665355692e+262 is inf "
                            "(dimension m^-4·kg^-2·s^6·A^4)", ("predict", "sensitivity")),
           ("m_e", 1e300, "the quotient 2.5669699665355694e-38 / 5e+299 underflows to 0.0 "
                          "(dimension kg^-1·s^2·A^2)", ("predict", "verify"))]
       for command in commands},
    **{f"test_cli::test_division_by_zero_exit_2[{command}-{hbar}-{before}]": (
        _value("hbar", hbar), [command], line)
       for command, hbar, before, line in _UNDERFLOWED_DIVISORS},
    **{f"test_cli::test_float_power_overflow_exit_2[{key}-{value}-argv{i}-{before}]": (
        _value(key, value), argv, line)
       for i, (key, value, argv, before, line) in enumerate(_FLOAT_POWERS)},
    **{f"test_cli::test_lepton_route_underflow_exit_2[changes{i}-argv{i}-{closed}]": (
        _change({key: {"value": value} for key, value in changes.items()}), argv, line)
       for i, (changes, argv, closed, line) in enumerate(
           (changes, argv.split(), closed, line)
           for changes, argvs, closed, line in _LEPTON_UNDERFLOWS for argv in argvs)},
    **{f"test_cli::test_sweep_faults_exit_2[{key}-{exponent}-argv{i}]": (
        _value(key, 1.7e308 if exponent is None else _VALUE[key] * 10.0**exponent), argv, _range(message))
       for i, (key, exponent, argv, message) in enumerate(
           (key, exponent, argv.split(), message)
           for key, exponent, argvs, message in _SWEEP_FAULTS for argv in argvs)},
    # a reference delta once divided plain floats: with mu0 times 1e20 and ref_c
    # 1e300 predict --format json printed "c": Infinity with exit 0
    "test_cli::test_non_finite_reference_delta_exit_2": (
        _change({"mu0": {"value": _VALUE["mu0"] * 1e20}, "ref_c": {"value": 1e300}}),
        ["predict", "--format", "json"],
        _range("the quotient 1e+300 / 2.957023891662655e-12 is inf (dimension 1)")),

    # --- a lone surrogate or a NUL in a string field ------------------------------
    # (a NUL in a species name is a test_a_control_character_in_a_species_name_exits_2 row above)
    **{f"string: {name} in {field}": (_append(record), ["predict", "--format", "json"], line)
       for name, odd in _ODD.items()
       for field, record, line in [
           ("constant unit", {**_X, "unit": odd},
            f"constant 'x' in {{path}}: unit {odd!r} is not allowed; allowed: " + _UNITS),
           ("species type", {**E_ONLY, "type": odd},
            _species("species 'e_only': type must be 'lepton-pair' or 'quarkonium'")),
           ("species charge_fraction", {**E_ONLY, "charge_fraction": odd},
            _species(f"e_only: charge_fraction must be one of 1, 2/3, 1/3; got {odd!r}")),
           # once read as a constant record, refused for its missing key: "('key')"
           ("species kind", {**E_ONLY, "kind": odd},
            f"unknown record kind {odd!r} in {{path}}; the one kind is 'species'"),
           ("value-unit unit", {**E_ONLY, "constituent_mass": {"value": 9.1093837015e-31, "unit": odd}},
            _species(f"species 'e_only': constituent_mass: unit {odd!r} is not allowed; allowed: "
                     + _UNITS)),
       ]},
}


def _refuses(tmp_path, edit, argv, line):
    data = edit(json.loads(_BUNDLED))
    path = tmp_path / "constants.json"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
    assert run([*argv, "--constants", str(path)]) == (2, "", "error: " + line.format(path=path) + "\n")


def _test_of(rows):
    """One test function over ``rows``, case id -> row; the id None is a test with one case."""
    if None in rows:
        return lambda tmp_path: _refuses(tmp_path, *rows[None])

    @pytest.mark.parametrize("edit, argv, line", rows.values(), ids=list(rows))
    def test(tmp_path, edit, argv, line):
        _refuses(tmp_path, edit, argv, line)
    return test


def row_tests(module):
    """The test functions, by name, of the rows keyed ``module::function[case]``."""
    functions = {}
    for key, row in REFUSALS.items():
        owner, _, name = key.partition("::")
        if owner == module:
            name, _, case = name.partition("[")
            functions.setdefault(name, {})[case[:-1] or None] = row
    return {name: _test_of(rows) for name, rows in functions.items()}


test_refusal = _test_of({key: row for key, row in REFUSALS.items() if "::" not in key})


def test_a_far_decimal_charge_fraction_is_refused_at_once(tmp_path):
    # the text is looked up, never read as a number with its power of ten
    start = time.perf_counter()
    _refuses(tmp_path, *REFUSALS["species: charge_fraction 1e-3000000"])
    assert time.perf_counter() - start < 0.1


# the strings of the last rows where a record may hold them
_LOADED = {f"{name} in constant {field}": {**_X, field: odd}
           for name, odd in _ODD.items() for field in ("key", "source")}
_LOADED["surrogate in species name"] = {**E_ONLY, "name": "\ud800"}


@pytest.mark.parametrize("record", _LOADED.values(), ids=_LOADED)
def test_a_string_field_that_loads(tmp_path, record):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(json.loads(_BUNDLED) + [record]), encoding="utf-8")
    code, out, err = run(["predict", "--format", "json", "--constants", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["constants_source"] == str(path)


# open() raises ValueError for a path holding a NUL or a lone surrogate, which
# once escaped cli.main as a traceback; no shell passes either, a caller in
# the same process can
@pytest.mark.parametrize("path, reason", [
    ("a\x00b", "embedded null byte"),
    ("\ud800.json", "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
], ids=["NUL", "lone surrogate"])
def test_a_path_open_cannot_take_exits_2(path, reason):
    line = f"error: cannot read constants file {path}: {reason}\n"
    assert run(["predict", "--constants", path]) == (2, "", line)
