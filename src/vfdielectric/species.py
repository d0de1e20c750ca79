"""Vacuum-fluctuation species and their kinematics.

A transient particle-antiparticle atom borrows an energy ``dE`` from the
vacuum for a time ``dt = hbar/(2 dE)``; light crosses it over a coherence
length ``L = c dt``, and one such atom occupies each volume ``L^3``.  For a
lepton pair the borrowed energy is the pair rest energy ``2 m c^2``; for a
heavy quarkonium state it is the bound-state rest energy ``M c^2``.  The
fraction of those atoms a photon actually polarizes is set by the
photon-excited decay rate and the lifetime, ``1 - exp(-Gamma dt) ~ Gamma dt``.

The speed of light, the fine-structure constant and the permittivity enter
every formula as explicit parameters rather than registry lookups: the
self-consistent solver needs to evaluate them at trial values.  Callers that
just want tabulated physics pass the ``ref_*`` registry entries.

Species come from the built-in list or from a data file's species records,
whose quantity fields :data:`SPECIES_QUANTITIES` tabulates; a bad record
raises ``ConstantsError`` naming the file.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .constants import ConstantsError, ConstantsSet, check_quantity, file_quantity, reject_unknown_fields
from .quantity import (
    ENERGY,
    FREQUENCY,
    MASS,
    PERMITTIVITY,
    SPEED,
    Dimension,
    OutOfRangeError,
    Quantity,
    Record,
    q_div,
    q_mul,
    q_pow,
)

__all__ = [
    "LEPTON_PAIR",
    "QUARKONIUM",
    "SPECIES_QUANTITIES",
    "SPECIES_FIELDS",
    "SpeciesSpec",
    "OscillatorSpec",
    "UnsupportedSpeciesError",
    "builtin_species",
    "species_from_record",
    "load_species",
    "vf_lifetime",
    "coherence_length",
    "number_density",
    "binding_energy",
    "resonant_frequency",
    "decay_rate",
    "interacting_density",
]

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

_ALLOWED_CHARGE_FRACTIONS = {Fraction(1), Fraction(2, 3), Fraction(1, 3)}

# Species that are deliberately not modeled, with the reason surfaced to users.
_UNSUPPORTED: dict[str, str] = {
    "eta_t": "no experimental two-photon data exists for a t-tbar bound state",
    "pi0": "light-quark bound states are relativistic; no oscillator description applies",
    "eta": "light-quark bound states are relativistic; no oscillator description applies",
    "eta_prime": "light-quark bound states are relativistic; no oscillator description applies",
}


class UnsupportedSpeciesError(ConstantsError):
    """A species name that the model deliberately excludes."""


class SpeciesSpec(Record):
    """One polarizable vacuum-fluctuation species.

    ``constituent_mass`` is the single-particle mass (kg).  The quarkonium
    fields hold the bound-state mass M (kg), the two-photon decay rate (1/s)
    and the minimum excitation energy ``e_min = (M - 2 m_Q) c^2`` (J); they
    are present exactly when ``kind == QUARKONIUM``.
    """

    name: str
    kind: str
    constituent_mass: Quantity
    charge_fraction: Fraction
    bound_state_mass: Quantity | None = None
    two_photon_width: Quantity | None = None
    e_min: Quantity | None = None

    def __post_init__(self) -> None:
        if self.kind not in (LEPTON_PAIR, QUARKONIUM):
            raise ValueError(f"unknown species kind {self.kind!r}")
        self.constituent_mass.require(MASS, f"{self.name} constituent_mass")
        if self.constituent_mass.value <= 0:
            raise OutOfRangeError(f"{self.name}: constituent_mass must be positive")
        if Fraction(self.charge_fraction) not in _ALLOWED_CHARGE_FRACTIONS:
            raise ValueError(
                f"{self.name}: charge_fraction must be one of 1, 2/3, 1/3; "
                f"got {self.charge_fraction}"
            )
        quark_fields = (self.bound_state_mass, self.two_photon_width, self.e_min)
        if self.kind == QUARKONIUM:
            if any(f is None for f in quark_fields):
                raise ValueError(
                    f"{self.name}: quarkonium needs bound_state_mass, "
                    "two_photon_width and e_min"
                )
            self.bound_state_mass.require(MASS, f"{self.name} bound_state_mass")
            self.two_photon_width.require(FREQUENCY, f"{self.name} two_photon_width")
            self.e_min.require(ENERGY, f"{self.name} e_min")
            if self.bound_state_mass.value <= 0:
                raise ValueError(f"{self.name}: bound_state_mass must be positive")
            if self.e_min.value <= 0:
                raise ValueError(f"{self.name}: e_min must be positive")
        elif any(f is not None for f in quark_fields):
            raise ValueError(f"{self.name}: lepton pairs carry no quarkonium fields")
        elif Fraction(self.charge_fraction) != 1:
            # the closed lepton coefficient 8^3 alpha e^2/(hbar c) holds for unit charge only
            raise ValueError(
                f"{self.name}: a lepton pair has charge_fraction 1, got {self.charge_fraction}"
            )


class OscillatorSpec(Record):
    """Effective 1-D harmonic oscillator of a species.

    ``reduced_mass`` is half the constituent mass (equal-mass two-body
    problem); ``omega0`` is the resonant angular frequency.
    """

    reduced_mass: Quantity
    omega0: Quantity

    def __post_init__(self) -> None:
        self.reduced_mass.require(MASS, "reduced_mass")
        self.omega0.require(FREQUENCY, "omega0")
        if self.reduced_mass.value <= 0:
            raise OutOfRangeError("reduced_mass must be positive")
        if self.omega0.value <= 0:
            raise OutOfRangeError("omega0 must be positive")


# --- species construction -------------------------------------------------


def _lepton(name: str, mass_key: str, constants: ConstantsSet) -> SpeciesSpec:
    return SpeciesSpec(
        name=name,
        kind=LEPTON_PAIR,
        constituent_mass=constants.get(mass_key),
        charge_fraction=Fraction(1),
    )


def _width_rate(width: Quantity, constants: ConstantsSet) -> Quantity:
    """Normalize a two-photon width to a rate: energy widths divide by hbar."""
    return width if width.dim == FREQUENCY else q_div(width, constants.get("hbar"))


def _quarkonium(
    name: str,
    quark_energy_key: str,
    bound_energy_key: str,
    width_key: str,
    charge_fraction: Fraction,
    constants: ConstantsSet,
) -> SpeciesSpec:
    # Tabulated rest energies (GeV at ingestion, J here) become masses via the
    # reference c: they are experimental data, fixed before any model c exists.
    ref_c = constants.get("ref_c")
    c2 = q_mul(ref_c, ref_c)
    quark_energy = constants.get(quark_energy_key).require(ENERGY, quark_energy_key)
    bound_energy = constants.get(bound_energy_key).require(ENERGY, bound_energy_key)
    e_min = bound_energy - quark_energy * 2
    if not e_min.value > 0.0:
        raise ConstantsError(
            f"{name}: {bound_energy_key} must exceed 2 * {quark_energy_key} in "
            f"{constants.origin} (binding window e_min = {e_min.value!r} J)"
        )
    width = _width_rate(constants.get(width_key), constants)
    return SpeciesSpec(
        name=name,
        kind=QUARKONIUM,
        constituent_mass=q_div(quark_energy, c2),
        charge_fraction=charge_fraction,
        bound_state_mass=q_div(bound_energy, c2),
        two_photon_width=width,
        e_min=e_min,
    )


def builtin_species(
    constants: ConstantsSet,
    include_quarks: bool = False,
    width_choice: str = "max",
) -> tuple[SpeciesSpec, ...]:
    """The default species list: e, mu, tau pairs, plus eta_c/eta_b on request.

    ``width_choice`` picks the lower or upper tabulated two-photon width where
    a range is tabulated (eta_b); the default follows the maximum-contribution
    convention used for the quarkonium bounds.  This is the one place a width
    is chosen: a species' ``two_photon_width`` is final.
    """
    if width_choice not in ("min", "max"):
        raise ValueError(f"width_choice must be 'min' or 'max', got {width_choice!r}")
    leptons = (
        _lepton("e_pair", "m_e", constants),
        _lepton("mu_pair", "m_mu", constants),
        _lepton("tau_pair", "m_tau", constants),
    )
    if not include_quarks:
        return leptons
    quarks = (
        _quarkonium(
            "eta_c", "m_c", "m_etac", "gamma_etac_2gamma", Fraction(2, 3), constants,
        ),
        _quarkonium(
            "eta_b", "m_b", "m_etab", f"gamma_etab_2gamma_{width_choice}",
            Fraction(1, 3), constants,
        ),
    )
    return leptons + quarks


def species_from_record(record: dict, constants: ConstantsSet) -> SpeciesSpec:
    """Build a species from a data-file record (``"kind": "species"``).

    Quantities are inline ``{"value": ..., "unit": ...}`` objects, converted
    as constant records are and checked against :data:`SPECIES_QUANTITIES`;
    masses given as rest energies are converted with the reference c.
    ``e_min`` defaults to ``bound_state_mass - 2 * constituent_mass`` in energy
    terms.  A bad record raises :class:`~vfdielectric.constants.ConstantsError`
    naming the file.
    """
    where = f"bad species record in {constants.origin}"
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise ConstantsError(f"{where}: species record without a non-empty string name: {record!r}")
    label = f"{where}: species {name!r}"
    reject_unknown_fields(record, SPECIES_FIELDS, label)
    if name in _UNSUPPORTED:
        raise UnsupportedSpeciesError(f"{label} is not modeled: {_UNSUPPORTED[name]}")
    stype = record.get("type")
    if stype not in (LEPTON_PAIR, QUARKONIUM):
        raise ConstantsError(f"{label}: type must be {LEPTON_PAIR!r} or {QUARKONIUM!r}")

    ref_c = constants.get("ref_c")
    quantities: dict[str, Quantity] = {}
    for field, (allowed, quarkonium_needs) in SPECIES_QUANTITIES.items():
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
            quantity = file_quantity(obj.get("value"), obj.get("unit"), constants.get("e").value)
        except ConstantsError as exc:
            raise ConstantsError(f"{label}: {field}: {exc}") from exc
        check_quantity(quantity, allowed, f"{label}: {field}")
        if MASS in allowed and quantity.dim == ENERGY:  # a mass given as a rest energy
            quantity = q_div(quantity, q_mul(ref_c, ref_c))
        elif field == "two_photon_width":
            quantity = _width_rate(quantity, constants)
        quantities[field] = quantity

    constituent, bound, width, e_min = (quantities.get(field) for field in SPECIES_QUANTITIES)
    if stype == QUARKONIUM and e_min is None:
        c2 = q_mul(ref_c, ref_c)
        e_min = q_mul(bound, c2) - q_mul(constituent, c2) * 2
    charge_fraction = str(record.get("charge_fraction", "1"))
    try:  # Fraction() raises ValueError, or ZeroDivisionError for "1/0"
        return SpeciesSpec(name, stype, constituent, Fraction(charge_fraction), bound, width, e_min)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConstantsError(f"{where}: {exc}") from exc


def load_species(
    constants: ConstantsSet,
    include_quarks: bool = False,
    width_choice: str = "max",
) -> tuple[SpeciesSpec, ...]:
    """Species from the loaded data file if it defines any, else the built-ins.

    File records replace the built-in list whole; ``include_quarks`` and
    ``width_choice`` shape only the built-ins.  A record that cannot be built
    raises :class:`~vfdielectric.constants.ConstantsError` naming the file.
    """
    if not constants.species_records:
        return builtin_species(constants, include_quarks, width_choice)
    species = []
    for row in constants.species_records:
        spec = species_from_record(row, constants)
        if any(s.name == spec.name for s in species):
            raise ConstantsError(f"duplicate species {spec.name!r} in {constants.origin}")
        species.append(spec)
    return tuple(species)


# --- kinematics -----------------------------------------------------------


def _check_speed(c: Quantity) -> Quantity:
    return c.require(SPEED, "c")


def vf_lifetime(species: SpeciesSpec, constants: ConstantsSet, c: Quantity) -> Quantity:
    """Uncertainty-window lifetime.

    Lepton pair: ``hbar / (4 m c^2)`` (energy borrowed: pair rest energy).
    Quarkonium: ``hbar / (2 M c^2)`` with the bound-state mass M.
    """
    _check_speed(c)
    hbar = constants.get("hbar")
    c2 = q_mul(c, c)
    if species.kind == LEPTON_PAIR:
        return q_div(hbar, q_mul(species.constituent_mass, c2) * 4)
    return q_div(hbar, q_mul(species.bound_state_mass, c2) * 2)


def _lifetime_and_length(
    species: SpeciesSpec, constants: ConstantsSet, c: Quantity
) -> tuple[Quantity, Quantity]:
    lifetime = vf_lifetime(species, constants, c)
    return lifetime, q_mul(c, lifetime)


def _per_volume(length: Quantity) -> Quantity:
    return q_div(Quantity(1.0), q_pow(length, 3))


def coherence_length(species: SpeciesSpec, constants: ConstantsSet, c: Quantity) -> Quantity:
    """Distance light travels during the lifetime: ``L = c dt``."""
    return _lifetime_and_length(species, constants, c)[1]


def number_density(species: SpeciesSpec, constants: ConstantsSet, c: Quantity) -> Quantity:
    """One transient atom per coherence volume: ``1 / L^3``."""
    return _per_volume(coherence_length(species, constants, c))


def binding_energy(
    species: SpeciesSpec,
    constants: ConstantsSet,
    epsilon: Quantity,
    c: Quantity,
) -> Quantity:
    """Ground-state Coulomb binding energy of a lepton pair (negative, J).

    ``E = -(mu q^4) / (2 (4 pi eps)^2 hbar^2)`` with reduced mass mu = m/2;
    equals ``-m alpha^2 c^2 / 4`` when alpha and c are consistent with eps.
    """
    if species.kind != LEPTON_PAIR:
        raise UnsupportedSpeciesError(
            f"binding_energy applies to lepton pairs only, not {species.name!r}"
        )
    epsilon.require(PERMITTIVITY, "epsilon")
    _check_speed(c)
    hbar = constants.get("hbar")
    q = constants.get("e") * float(species.charge_fraction)
    mu = species.constituent_mass * 0.5
    four_pi_eps = epsilon * (4.0 * math.pi)
    numerator = q_mul(mu, q_pow(q, 4))
    denominator = q_mul(q_pow(four_pi_eps, 2), q_mul(hbar, hbar)) * 2
    return -q_div(numerator, denominator)


def resonant_frequency(
    species: SpeciesSpec,
    constants: ConstantsSet,
    epsilon: Quantity,
    c: Quantity,
) -> OscillatorSpec:
    """Oscillator parameters: ``omega0 = |E|/hbar`` over the reduced mass m/2.

    The level spacing is the binding energy for lepton pairs and the minimum
    excitation energy for quarkonia.
    """
    hbar = constants.get("hbar")
    if species.kind == LEPTON_PAIR:
        energy = binding_energy(species, constants, epsilon, c)
        omega0 = q_div(Quantity(abs(energy.value), energy.dim), hbar)
    else:
        omega0 = q_div(species.e_min, hbar)
    return OscillatorSpec(reduced_mass=species.constituent_mass * 0.5, omega0=omega0)


def decay_rate(
    species: SpeciesSpec,
    constants: ConstantsSet,
    alpha: float,
    c: Quantity,
) -> Quantity:
    """Decay rate of the photon-excited atom (1/s).

    Lepton pair: ``alpha^5 m c^2 / hbar`` (twice the two-photon rate of the
    ordinary atom).  Quarkonium: twice the tabulated two-photon rate.
    """
    _check_speed(c)
    if species.kind == QUARKONIUM:
        return species.two_photon_width * 2
    if not (alpha > 0 and math.isfinite(alpha)):
        raise OutOfRangeError(f"alpha must be positive and finite, got {alpha!r}")
    hbar = constants.get("hbar")
    rest_energy = q_mul(species.constituent_mass, q_mul(c, c))
    rate = q_div(rest_energy, hbar)
    try:
        return rate * alpha**5
    except OverflowError:
        raise OutOfRangeError(f"power 5 of alpha = {alpha!r} overflows a float") from None


def interacting_density(
    species: SpeciesSpec,
    constants: ConstantsSet,
    alpha: float,
    c: Quantity,
    mode: str = "linearized",
) -> Quantity:
    """Density of fluctuations that actually absorb a photon (1/m^3).

    ``exact`` uses the full absorption probability ``1 - exp(-Gamma dt)``;
    ``linearized`` keeps the leading term ``Gamma dt``, which for a lepton
    pair collapses to ``(alpha^5/4) (4 m c / hbar)^3``.  The lifetime ``dt``
    is computed once and gives both the coherence volume and ``Gamma dt``.
    """
    if mode not in ("exact", "linearized"):
        raise ValueError(f"mode must be 'exact' or 'linearized', got {mode!r}")
    lifetime, length = _lifetime_and_length(species, constants, c)
    n = _per_volume(length)
    gamma_dt = q_mul(decay_rate(species, constants, alpha, c), lifetime).as_dimensionless()
    if mode == "linearized":
        return n * gamma_dt
    return n * -math.expm1(-gamma_dt)
