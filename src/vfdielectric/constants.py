"""Physical-constant registry: load, validate, serve and serialize.

The registry is populated from a JSON data file: a list of records, each
``{"key", "value", "unit", "source"}`` with the unit drawn from a fixed
whitelist.  :data:`CONSTANT_KEYS` is the one table of named keys: whether a
file must define each, and the dimensions it may have.  Records with
``"kind": "species"`` define species inline, whose quantity fields
:data:`SPECIES_QUANTITIES` tabulates; :func:`build_species`, the builder of
the built-in species too and the one place a species is checked, builds each
once, at load time, and a bad one raises :class:`ConstantsError` naming the
file; :class:`SpeciesSpec` is a plain record of what it built.  Both record
kinds share one conversion to SI base units at ingestion (eV-family energies
via the elementary charge from the same file) and two checks: no field a
record may not carry, and no named key, mass or species quantity of a wrong
dimension or a value that is not strictly positive and a normal float.  The original file
value/unit and the raw species records are kept so a set serializes back to
an equivalent file.

Resolution order for the data file, each user path labelled exactly as given:
explicit path argument, then ``VACUUM_DATA_DIR`` (``constants.json`` joined to
it), then the bundled default, which the package's loader reads.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections.abc import Callable

from .quantity import (
    ACTION,
    CHARGE,
    DIMENSIONLESS,
    ENERGY,
    FREQUENCY,
    MASS,
    PERMEABILITY,
    PERMITTIVITY,
    SPEED,
    EV_SCALE,
    Dimension,
    OutOfRangeError,
    Quantity,
    Record,
    q_div,
    q_mul,
)

__all__ = [
    "ConstantsError",
    "MissingConstantError",
    "ConstantRecord",
    "ConstantsSet",
    "load_constants",
    "serialize_constants",
    "DATA_DIR_ENV_VAR",
    "CONSTANT_KEYS",
    "LEPTON_PAIR",
    "QUARKONIUM",
    "SPECIES_QUANTITIES",
    "SPECIES_FIELDS",
    "SpeciesSpec",
    "UnsupportedSpeciesError",
    "build_species",
    "charge_ratio",
    "species_from_record",
]

DATA_DIR_ENV_VAR = "VACUUM_DATA_DIR"
DATA_FILENAME = "constants.json"

# unit whitelist for the data file -> SI dimension of the stored quantity;
# the eV-family units are exactly those of quantity.EV_SCALE
UNIT_DIMENSIONS: dict[str, Dimension] = {
    "C": CHARGE,
    "J·s": ACTION,
    "H/m": PERMEABILITY,
    "kg": MASS,
    "m/s": SPEED,
    "F/m": PERMITTIVITY,
    "dimensionless": DIMENSIONLESS,
    "1/s": FREQUENCY,
    **dict.fromkeys(EV_SCALE, ENERGY),
}
# the whitelisted units a value needs no scaling in
_SI_UNITS = {unit: d for unit, d in UNIT_DIMENSIONS.items() if unit not in EV_SCALE}

# every named key: whether each file must define it, and the dimensions its
# quantity may have (a two-photon width is a rate, or an energy over hbar).
# Each is strictly positive, and so is a mass under a key of the file's own;
# a key only some commands read is checked whenever a file defines it
CONSTANT_KEYS: dict[str, tuple[bool, tuple[Dimension, ...]]] = {
    "e": (True, (CHARGE,)),
    "hbar": (True, (ACTION,)),
    "mu0": (True, (PERMEABILITY,)),
    "m_e": (True, (MASS,)),
    "m_mu": (True, (MASS,)),
    "m_tau": (True, (MASS,)),
    "ref_epsilon0": (True, (PERMITTIVITY,)),
    "ref_c": (True, (SPEED,)),
    "ref_inv_alpha": (True, (DIMENSIONLESS,)),
    "m_u": (False, (MASS,)),
    "m_c": (False, (ENERGY,)),
    "m_b": (False, (ENERGY,)),
    "m_etac": (False, (ENERGY,)),
    "m_etab": (False, (ENERGY,)),
    "gamma_etac_2gamma": (False, (FREQUENCY, ENERGY)),
    "gamma_etab_2gamma_min": (False, (FREQUENCY, ENERGY)),
    "gamma_etab_2gamma_max": (False, (FREQUENCY, ENERGY)),
}

# the only fields a constant record may carry; any other is a typo or a stray
_CONSTANT_FIELDS = frozenset({"key", "value", "unit", "source"})

LEPTON_PAIR = "lepton-pair"
QUARKONIUM = "quarkonium"

# each quantity field of a species record: the dimensions its {value, unit}
# object may have, and whether a quarkonium must carry it.  A lepton pair
# carries constituent_mass alone.  Every quantity is strictly positive
SPECIES_QUANTITIES: dict[str, tuple[tuple[Dimension, ...], bool]] = {
    "constituent_mass": ((MASS, ENERGY), True),
    "bound_state_mass": ((MASS, ENERGY), True),
    "two_photon_width": ((FREQUENCY, ENERGY), True),
    "e_min": ((ENERGY,), False),
}
# the only fields a species record may carry; any other is a typo or a stray
SPECIES_FIELDS = frozenset(("kind", "name", "type", "charge_fraction", *SPECIES_QUANTITIES))

# the control characters (Unicode category Cc) a species name may not hold: a
# newline or tab would split a table row
_CONTROL_CHARACTERS = frozenset(map(chr, (*range(0x20), *range(0x7F, 0xA0))))

# the allowed charge fractions 1, 2/3 and 1/3 as (numerator, denominator) in
# lowest terms: a test of int pairs, where a Fraction's hash runs Python code
_ALLOWED_CHARGE_RATIOS = frozenset({(1, 1), (2, 3), (1, 3)})

# Species that are deliberately not modeled, with the reason surfaced to users.
_UNSUPPORTED: dict[str, str] = {
    "eta_t": "no experimental two-photon data exists for a t-tbar bound state",
    "pi0": "light-quark bound states are relativistic; no oscillator description applies",
    "eta": "light-quark bound states are relativistic; no oscillator description applies",
    "eta_prime": "light-quark bound states are relativistic; no oscillator description applies",
}


class ConstantsError(ValueError):
    """Raised for unparsable, incomplete or invalid constants data."""


class MissingConstantError(ConstantsError, KeyError):
    """A key the loaded file does not define; a KeyError for mapping-style callers."""

    __str__ = ConstantsError.__str__  # KeyError's own would quote the message


class ConstantRecord(Record):
    key: str
    quantity: Quantity          # SI base units
    source: str
    file_value: float           # value/unit exactly as read, for round-tripping
    file_unit: str


class UnsupportedSpeciesError(ConstantsError):
    """A species name that the model deliberately excludes."""


def charge_ratio(charge_fraction: object) -> tuple[int, int]:
    """``Fraction(charge_fraction)`` in lowest terms, as ``(numerator, denominator)``.

    An int, Fraction, float or Decimal gives its own ratio, and a string of
    ASCII digits, or two such joined by ``/`` with a nonzero denominator, is
    read with ``int()``.  Any other value goes to ``Fraction()``, imported
    only then, so the values accepted and the errors raised are its own.
    """
    try:
        return charge_fraction.as_integer_ratio()
    except AttributeError:
        pass
    if isinstance(charge_fraction, str) and charge_fraction.isascii():
        numerator, slash, denominator = charge_fraction.partition("/")
        if numerator.isdigit() and (denominator.isdigit() or not slash):
            try:  # int() refuses a string past its digit limit, as Fraction() does
                n, d = int(numerator), int(denominator or "1")
            except ValueError:
                pass
            else:
                if d:
                    g = math.gcd(n, d)
                    return n // g, d // g
    from fractions import Fraction

    return Fraction(charge_fraction).as_integer_ratio()


# the exponent that ends a decimal text, as Fraction() reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _far_decimal(charge_fraction: object) -> bool:
    """Whether ``charge_fraction`` is a decimal text that ``Fraction()`` reads
    with an exponent larger in magnitude than the text is long.

    Such a decimal is not 1, and no decimal is 2/3 or 1/3.  ``Fraction()``
    would compute its power of ten in full, so the text is read with the
    exponent's digits zeroed, which ``Fraction()`` reads or refuses alike.
    """
    match = _EXPONENT.search(charge_fraction) if isinstance(charge_fraction, str) else None
    try:  # ValueError for an exponent past int()'s digit limit, or a text Fraction() refuses
        if not match or abs(int(match[1])) <= len(charge_fraction):
            return False
        charge_ratio(charge_fraction[:match.start(1)] + re.sub(r"\d", "0", match[1])
                     + charge_fraction[match.end(1):])
    except ValueError:
        return False  # charge_ratio raises the same, before any power
    return True


class SpeciesSpec(Record):
    """One polarizable vacuum-fluctuation species, as :func:`build_species` built it.

    ``constituent_mass`` is the single-particle mass (kg), and ``charge_ratio``
    the charge fraction as ``(numerator, denominator)`` in lowest terms.  The
    quarkonium fields hold the bound-state mass M (kg), the two-photon decay
    rate (1/s) and the minimum excitation energy ``e_min = (M - 2 m_Q) c^2``
    (J); they are present exactly when ``kind == QUARKONIUM``.
    """

    name: str
    kind: str
    constituent_mass: Quantity
    charge_ratio: tuple[int, int]
    bound_state_mass: Quantity | None = None
    two_photon_width: Quantity | None = None
    e_min: Quantity | None = None


class ConstantsSet(Record):
    """The file's constant records by key, its origin, its raw species
    records and the species built from them, in file order."""

    records: dict[str, ConstantRecord]
    origin: str
    species_records: tuple[dict, ...] = ()
    species: tuple[SpeciesSpec, ...] = ()

    def get(self, key: str) -> Quantity:
        """The stored SI quantity for ``key``."""
        try:
            return self.records[key].quantity
        except KeyError:
            raise MissingConstantError(
                f"constant {key!r} is not defined in {self.origin}"
            ) from None

    def same_values(self, other: "ConstantsSet") -> bool:
        """Key-by-key equality of quantities, dimensions and sources."""
        if self.records.keys() != other.records.keys():
            return False
        for key, rec in self.records.items():
            o = other.records[key]
            if rec.quantity != o.quantity or rec.source != o.source:
                return False
        return self.species_records == other.species_records


def _file_quantity(value: object, unit: object, joules_per_ev: float | None) -> Quantity:
    """A data-file ``{value, unit}`` pair as an SI :class:`Quantity`.

    ``unit`` must be on the whitelist.  eV-family energies become joules through
    :data:`~vfdielectric.quantity.EV_SCALE` and ``joules_per_ev``, the file's
    own elementary charge in coulombs, already checked positive (None if the
    file has none).
    Raises :class:`ConstantsError` for anything it cannot convert.
    """
    if not isinstance(unit, str) or unit not in UNIT_DIMENSIONS:
        raise ConstantsError(
            f"unit {unit!r} is not allowed; allowed: {sorted(UNIT_DIMENSIONS)}"
        )
    if unit in EV_SCALE and joules_per_ev is None:
        raise ConstantsError(
            f"unit {unit} needs an elementary-charge record 'e' (unit C) to scale by"
        )
    if isinstance(value, (bool, str)):  # float() would read true as 1.0, "2" as 2.0
        kind = "a boolean" if isinstance(value, bool) else "a string"
        raise ConstantsError(f"value {json.dumps(value)} is {kind}, not a number")
    try:
        quantity = Quantity(value, UNIT_DIMENSIONS[unit])
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past 1.8e308
        raise ConstantsError(f"cannot convert {value!r} {unit} to SI: {exc}") from exc
    if unit not in EV_SCALE:
        return quantity
    try:  # products, so the float-range rule words an under- or overflow
        return quantity * EV_SCALE[unit] * joules_per_ev
    except OutOfRangeError as exc:
        raise ConstantsError(f"{value!r} {unit} in joules is out of the float range: {exc}") from exc


def _reject_unknown_fields(row: dict, allowed: frozenset[str], label: str) -> None:
    """Raise :class:`ConstantsError` naming ``label`` (the record and its file)
    and the field, if ``row`` has a field outside ``allowed``."""
    if not row.keys() <= allowed:
        unknown = next(field for field in row if field not in allowed)
        raise ConstantsError(
            f"{label} has unknown field {unknown!r}; allowed: {', '.join(sorted(allowed))}"
        )


def _refusal(quantity: Quantity, allowed: tuple[Dimension, ...]) -> str | None:
    """Why a loaded quantity is refused, or None: its dimension, sign or float range."""
    if quantity.dim not in allowed:
        expected = " or ".join(str(d) for d in allowed)
        return f"must have dimension {expected}, got {quantity.dim}"
    if quantity.value <= 0:
        return f"must be strictly positive, got {quantity.value!r}"
    if not quantity.is_normal():
        return f"is out of the float range: {quantity.value!r} is subnormal"
    return None


_MIN_NORMAL = sys.float_info.min


def _constant_record(row: dict, joules_per_ev: float | None, origin: str) -> ConstantRecord:
    """One constant record, checked against its key's row of :data:`CONSTANT_KEYS`.

    A finite float in a unit that needs no scaling is the common record: it
    passes every check of :func:`_file_quantity`, so its quantity is built
    here, by the public constructor alone.  Every other value goes through
    :func:`_file_quantity`.  The record's label is worded only for an error.
    """
    try:
        key, value, unit = row["key"], row["value"], row["unit"]
        file_value = float(value)
    except KeyError as exc:
        raise ConstantsError(
            f"malformed record in {origin}: {row!r} (missing field {exc.args[0]!r})") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConstantsError(f"malformed record in {origin}: {row!r} ({exc})") from exc
    if not isinstance(key, str):
        raise ConstantsError(f"malformed record in {origin}: {row!r} (key must be a string)")
    if not row.keys() <= _CONSTANT_FIELDS:
        _reject_unknown_fields(row, _CONSTANT_FIELDS, f"constant {key!r} in {origin}")
    source = row.get("source", "")
    if not isinstance(source, str):  # str() would serialize 5 back as "5"
        raise ConstantsError(f"malformed record in {origin}: {row!r} (source must be a string)")
    if type(value) is float and type(unit) is str and unit in _SI_UNITS and math.isfinite(value):
        quantity = Quantity(value, _SI_UNITS[unit])
    else:
        try:
            quantity = _file_quantity(value, unit, joules_per_ev)
        except ConstantsError as exc:
            raise ConstantsError(f"constant {key!r} in {origin}: {exc}") from exc
    if key in CONSTANT_KEYS or quantity.dim is MASS:  # a mass may come under a key of its own
        allowed = CONSTANT_KEYS[key][1] if key in CONSTANT_KEYS else (MASS,)
        if quantity.dim not in allowed or not quantity.value >= _MIN_NORMAL:
            raise ConstantsError(f"constant {key!r} in {origin} {_refusal(quantity, allowed)}")
    return ConstantRecord(key, quantity, source, file_value, unit)


def build_species(name: str, kind: str, charge_fraction: object, given: dict[str, Quantity],
                  constants: ConstantsSet, label: Callable[[], str]) -> SpeciesSpec:
    """The one builder and checker of a species, built-in or from a file's record.

    ``charge_fraction`` is read once, with :func:`charge_ratio`, and must be
    1, 2/3 or 1/3, and 1 for a lepton pair; a decimal text with an exponent
    larger in magnitude than the text is long is refused unread.  ``given`` maps each field of
    :data:`SPECIES_QUANTITIES` the species carries to its quantity as given,
    checked as a loaded quantity is.  A rest energy becomes a mass through
    ``ref_c`` squared, read only then, and an energy width a rate through
    hbar.  A quarkonium state without ``e_min`` gets ``E(bound) - 2
    E(constituent)``, E being the rest energy as given or ``m c^2``.
    ``label()`` names where the species was given; it is called only to word
    a :class:`ConstantsError`.
    """
    try:  # ZeroDivisionError for "1/0", OverflowError for inf, TypeError for None
        ratio = None if _far_decimal(charge_fraction) else charge_ratio(charge_fraction)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConstantsError(f"{label()}: species {name!r}: charge_fraction {charge_fraction!r} "
                             f"is not a fraction: {exc}") from exc
    built, energies, c2 = {}, {}, None
    try:
        for field, quantity in given.items():
            allowed = SPECIES_QUANTITIES[field][0]
            if refusal := _refusal(quantity, allowed):
                raise ConstantsError(f"{label()}: species {name!r}: {field} {refusal}")
            if quantity.dim is ENERGY and MASS in allowed:  # a mass given as a rest energy
                c2 = c2 or q_mul(constants.get("ref_c"), constants.get("ref_c"))
                energies[field] = quantity
                quantity = q_div(quantity, c2)
            elif quantity.dim is ENERGY and field == "two_photon_width":
                quantity = q_div(quantity, constants.get("hbar"))
            built[field] = quantity
        if kind == QUARKONIUM and "e_min" not in built:
            field = "e_min"
            c2 = c2 or q_mul(constants.get("ref_c"), constants.get("ref_c"))
            bound = energies.get("bound_state_mass") or q_mul(built["bound_state_mass"], c2)
            constituent = energies.get("constituent_mass") or q_mul(built["constituent_mass"], c2)
            built["e_min"] = e_min = bound - constituent * 2
            if not e_min.value > 0:
                raise ConstantsError(
                    f"{label()}: species {name!r}: bound_state_mass must exceed 2 * "
                    f"constituent_mass (binding window e_min = {e_min.value!r} J)")
    except OutOfRangeError as exc:
        raise ConstantsError(f"{label()}: species {name!r}: {field}: {exc}") from exc
    if ratio not in _ALLOWED_CHARGE_RATIOS:
        raise ConstantsError(
            f"{label()}: {name}: charge_fraction must be one of 1, 2/3, 1/3; got {charge_fraction}")
    if kind == LEPTON_PAIR and ratio != (1, 1):
        # the closed lepton coefficient 8^3 alpha e^2/(hbar c) holds for unit charge only
        raise ConstantsError(
            f"{label()}: {name}: a lepton pair has charge_fraction 1, got {charge_fraction}")
    return SpeciesSpec(name, kind, built["constituent_mass"], ratio, built.get("bound_state_mass"),
                       built.get("two_photon_width"), built.get("e_min"))


def species_from_record(record: dict, constants: ConstantsSet) -> SpeciesSpec:
    """Build a species from a data-file record (``"kind": "species"``).

    Quantities are inline ``{"value": ..., "unit": ...}`` objects, converted
    to SI as constant records are; :func:`build_species` builds the species
    from them.  A bad record raises :class:`ConstantsError` naming the file.
    """
    where = f"bad species record in {constants.origin}"
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise ConstantsError(f"{where}: species record without a non-empty string name: {record!r}")
    if not _CONTROL_CHARACTERS.isdisjoint(name):
        raise ConstantsError(f"{where}: species name {name!r} holds a control character")
    label = f"{where}: species {name!r}"
    _reject_unknown_fields(record, SPECIES_FIELDS, label)
    if name in _UNSUPPORTED:
        raise UnsupportedSpeciesError(f"{label} is not modeled: {_UNSUPPORTED[name]}")
    stype = record.get("type")
    if stype not in (LEPTON_PAIR, QUARKONIUM):
        raise ConstantsError(f"{label}: type must be {LEPTON_PAIR!r} or {QUARKONIUM!r}")

    given: dict[str, Quantity] = {}
    for field, (_, quarkonium_needs) in SPECIES_QUANTITIES.items():
        if stype == LEPTON_PAIR and field != "constituent_mass":
            if field in record:
                raise ConstantsError(f"{label}: a lepton pair carries no {field}")
            continue
        obj = record.get(field)
        if obj is None:
            if quarkonium_needs:  # constituent_mass is the one field a lepton pair needs too
                raise ConstantsError(f"{label} is missing field {field!r}")
            continue
        if not isinstance(obj, dict):
            raise ConstantsError(f"{label}: {field} must be a {{value, unit}} object")
        try:
            given[field] = _file_quantity(obj.get("value"), obj.get("unit"), constants.get("e").value)
        except ConstantsError as exc:
            raise ConstantsError(f"{label}: {field}: {exc}") from exc
    charge_fraction = str(record.get("charge_fraction", "1"))
    return build_species(name, stype, charge_fraction, given, constants, lambda: where)


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing one that repeats a member name, which
    ``json`` would otherwise read last-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        repeated = next(name for name, _ in pairs if name in seen or seen.add(name))
        raise ConstantsError(f"repeats the member {repeated!r} in one object")
    return obj


# one decoder for every load: json.loads would build a new one per call to
# carry the hook
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def _resolve_source(path: str | os.PathLike | None) -> tuple[str, str]:
    """Return (json text, origin label) honoring path arg and env var."""
    env_dir = os.environ.get(DATA_DIR_ENV_VAR)
    if path is not None:
        p = os.fspath(path)  # before open(), which would read an int as a file descriptor
        if not isinstance(p, str):
            raise TypeError(f"a constants path must be a str, not {type(p).__name__}")
        what = f"constants file {p}"
    elif env_dir:
        p = os.path.join(env_dir, DATA_FILENAME)
        what = f"constants file {p} (from ${DATA_DIR_ENV_VAR})"
    else:  # the package's loader serves a zip import too; a build may lack the file
        p = os.path.join(os.path.dirname(__file__), "data", DATA_FILENAME)
        try:
            return __spec__.loader.get_data(p).decode("utf-8"), "built-in default"
        except (OSError, UnicodeDecodeError) as exc:
            raise ConstantsError(f"cannot read the bundled constants file {p}: {exc}") from exc
    try:
        with open(p, encoding="utf-8") as f:
            return f.read(), p
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL or lone surrogate in p
        raise ConstantsError(f"cannot read {what}: {exc}") from exc


def load_constants(path: str | os.PathLike | None = None) -> ConstantsSet:
    """Load and validate a constants registry, and build its file's species.

    Raises :class:`ConstantsError` on parse failure, a member name repeated in
    one object, an unknown record field, a missing required key, a named key
    of a dimension its row of :data:`CONSTANT_KEYS` does not allow, a named
    key or mass that is not strictly positive, a species record that cannot
    be built (its name holding a control character among the reasons), or two
    species records of one name.
    """
    text, origin = _resolve_source(path)
    try:
        raw = _DECODER.decode(text)
    except ConstantsError as exc:  # valid JSON, but ambiguous
        raise ConstantsError(f"constants file {origin} {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge integer, or deep nesting
        raise ConstantsError(f"constants file {origin} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ConstantsError(f"constants file {origin} must be a JSON array of records")

    constant_rows, species_rows = [], []
    for row in raw:
        if not isinstance(row, dict):
            raise ConstantsError(f"non-object record in {origin}: {row!r}")
        if "kind" not in row:
            constant_rows.append(row)
        elif row["kind"] == "species":
            species_rows.append(row)
        else:
            raise ConstantsError(
                f"unknown record kind {row['kind']!r} in {origin}; the one kind is 'species'")

    # The elementary charge scales eV-family units to joules, so its row is read first.
    e_row = next((row for row in constant_rows
                  if row.get("key") == "e" and row.get("unit") == "C"), None)
    e_record = None if e_row is None else _constant_record(e_row, None, origin)
    joules_per_ev = None if e_record is None else e_record.quantity.value

    records: dict[str, ConstantRecord] = {}
    for row in constant_rows:
        record = e_record if row is e_row else _constant_record(row, joules_per_ev, origin)
        if record.key in records:
            raise ConstantsError(f"duplicate key {record.key!r} in {origin}")
        records[record.key] = record

    missing = sorted(key for key, (required, _) in CONSTANT_KEYS.items()
                     if required and key not in records)
    if missing:
        raise ConstantsError(f"constants file {origin} is missing required keys: {missing}")

    constants = ConstantsSet(records, origin, tuple(species_rows))
    if not species_rows:
        return constants
    species: list[SpeciesSpec] = []
    for row in species_rows:
        spec = species_from_record(row, constants)
        if any(s.name == spec.name for s in species):
            raise ConstantsError(f"duplicate species {spec.name!r} in {origin}")
        species.append(spec)
    return ConstantsSet(records, origin, constants.species_records, tuple(species))


def serialize_constants(constants: ConstantsSet) -> str:
    """Serialize back to the data-file format (original values and units)."""
    rows: list[dict] = [
        {
            "key": rec.key,
            "value": rec.file_value,
            "unit": rec.file_unit,
            "source": rec.source,
        }
        for rec in constants.records.values()
    ]
    rows.extend(dict(row) for row in constants.species_records)
    return json.dumps(rows, ensure_ascii=False, indent=2)
