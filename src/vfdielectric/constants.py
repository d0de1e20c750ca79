"""Physical-constant registry: load, validate, serve and serialize.

The registry is populated from a JSON data file: a list of records, each
``{"key", "value", "unit", "source"}`` with the unit drawn from a fixed
whitelist.  Records with ``"kind": "species"`` are passed through untouched
for the species module to interpret.  Values are converted to SI base units
at ingestion by :func:`file_quantity`, the one conversion both record kinds
use (eV-family energies via the elementary charge from the same file); the
original file value/unit are kept so a set serializes back to an equivalent
file.

Resolution order for the data file: explicit path argument, then the
``VACUUM_DATA_DIR`` environment variable (``constants.json`` inside it), then
the bundled default.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources
from pathlib import Path

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
    Quantity,
    Record,
)

__all__ = [
    "ConstantsError",
    "MissingConstantError",
    "ConstantRecord",
    "ConstantsSet",
    "load_constants",
    "file_quantity",
    "serialize_constants",
    "DATA_DIR_ENV_VAR",
    "REQUIRED_KEYS",
    "OPTIONAL_KEYS",
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

REQUIRED_KEYS: dict[str, Dimension] = {
    "e": CHARGE,
    "hbar": ACTION,
    "mu0": PERMEABILITY,
    "m_e": MASS,
    "m_mu": MASS,
    "m_tau": MASS,
    "ref_epsilon0": PERMITTIVITY,
    "ref_c": SPEED,
    "ref_inv_alpha": DIMENSIONLESS,
}

# keys only some commands read, with the dimensions each may have; checked
# at load time whenever the file defines them
OPTIONAL_KEYS: dict[str, tuple[Dimension, ...]] = {
    "m_u": (MASS,),
    "m_c": (ENERGY,),
    "m_b": (ENERGY,),
    "m_etac": (ENERGY,),
    "m_etab": (ENERGY,),
    "gamma_etac_2gamma": (FREQUENCY, ENERGY),
    "gamma_etab_2gamma_min": (FREQUENCY, ENERGY),
    "gamma_etab_2gamma_max": (FREQUENCY, ENERGY),
}

# strictly positive by contract: the elementary charge, the action quantum,
# the permeability, the reference values the model is compared with (and
# divided by), and every mass
_POSITIVE_KEYS = {"e", "hbar", "mu0", "ref_epsilon0", "ref_c", "ref_inv_alpha"}


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


class ConstantsSet(Record):
    records: dict[str, ConstantRecord]
    origin: str
    species_records: tuple[dict, ...] = ()

    def get(self, key: str) -> Quantity:
        """The stored SI quantity for ``key``."""
        return self.record(key).quantity

    def record(self, key: str) -> ConstantRecord:
        try:
            return self.records[key]
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


def file_quantity(value: object, unit: object, joules_per_ev: float | None) -> Quantity:
    """A data-file ``{value, unit}`` pair as an SI :class:`Quantity`.

    ``unit`` must be on the whitelist.  eV-family energies become joules through
    :data:`~vfdielectric.quantity.EV_SCALE` and ``joules_per_ev``, the file's
    own elementary charge in coulombs (None if the file has none).
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
        si_value = float(value)
        if unit in EV_SCALE:
            if joules_per_ev <= 0 or not math.isfinite(joules_per_ev):
                raise ValueError("joules_per_ev must be finite and positive")
            si_value = si_value * EV_SCALE[unit] * joules_per_ev
        return Quantity(si_value, UNIT_DIMENSIONS[unit])
    except (TypeError, ValueError) as exc:
        raise ConstantsError(f"cannot convert {value!r} {unit} to SI: {exc}") from exc


def _bundled_text() -> str:
    return resources.files(__package__).joinpath(f"data/{DATA_FILENAME}").read_text("utf-8")


def _resolve_source(path: str | Path | None) -> tuple[str, str]:
    """Return (json text, origin label) honoring path arg and env var."""
    if path is not None:
        p = Path(path)
        try:
            return p.read_text("utf-8"), str(p)
        except OSError as exc:
            raise ConstantsError(f"cannot read constants file {p}: {exc}") from exc
    env_dir = os.environ.get(DATA_DIR_ENV_VAR)
    if env_dir:
        p = Path(env_dir) / DATA_FILENAME
        try:
            return p.read_text("utf-8"), str(p)
        except OSError as exc:
            raise ConstantsError(
                f"cannot read constants file {p} (from ${DATA_DIR_ENV_VAR}): {exc}"
            ) from exc
    return _bundled_text(), "built-in default"


def load_constants(path: str | Path | None = None) -> ConstantsSet:
    """Load and validate a constants registry.

    Raises :class:`ConstantsError` on parse failure, missing required keys,
    wrong dimensions for required or optional keys, or non-positive values
    where positivity is required.
    """
    text, origin = _resolve_source(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConstantsError(f"constants file {origin} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ConstantsError(f"constants file {origin} must be a JSON array of records")

    constant_rows = []
    species_rows = []
    for row in raw:
        if not isinstance(row, dict):
            raise ConstantsError(f"non-object record in {origin}: {row!r}")
        if row.get("kind") == "species":
            species_rows.append(row)
        else:
            constant_rows.append(row)

    def parse(row: dict, joules_per_ev: float | None) -> ConstantRecord:
        try:
            key, value, unit = row["key"], row["value"], row["unit"]
            file_value = float(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstantsError(f"malformed record in {origin}: {row!r} ({exc})") from exc
        if not isinstance(key, str):
            raise ConstantsError(f"malformed record in {origin}: {row!r} (key must be a string)")
        try:
            quantity = file_quantity(value, unit, joules_per_ev)
        except ConstantsError as exc:
            raise ConstantsError(f"record {key!r} in {origin}: {exc}") from exc
        return ConstantRecord(key, quantity, str(row.get("source", "")), file_value, unit)

    # The elementary charge anchors eV -> J scaling, so read it first.
    joules_per_ev = None
    for row in constant_rows:
        if row.get("key") == "e" and row.get("unit") == "C":
            joules_per_ev = parse(row, None).quantity.value

    records: dict[str, ConstantRecord] = {}
    for row in constant_rows:
        record = parse(row, joules_per_ev)
        if record.key in records:
            raise ConstantsError(f"duplicate key {record.key!r} in {origin}")
        records[record.key] = record

    missing = sorted(set(REQUIRED_KEYS) - set(records))
    if missing:
        raise ConstantsError(f"constants file {origin} is missing required keys: {missing}")

    allowed_dims = {key: (expected,) for key, expected in REQUIRED_KEYS.items()} | OPTIONAL_KEYS
    for key, allowed in allowed_dims.items():
        if key not in records:
            continue
        got = records[key].quantity.dim
        if got not in allowed:
            expected = " or ".join(str(d) for d in allowed)
            raise ConstantsError(
                f"constant {key!r} in {origin} must have dimension {expected}, got {got}"
            )

    for key, rec in records.items():
        must_be_positive = key in _POSITIVE_KEYS or rec.quantity.dim == MASS
        if must_be_positive and rec.quantity.value <= 0:
            raise ConstantsError(
                f"constant {key!r} in {origin} must be strictly positive, "
                f"got {rec.quantity.value!r}"
            )

    return ConstantsSet(records=records, origin=origin, species_records=tuple(species_rows))


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
