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
which :mod:`~vfdielectric.constants` builds when it loads the file.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .constants import (LEPTON_PAIR, QUARKONIUM, ConstantsError, ConstantsSet, SpeciesSpec,
                        UnsupportedSpeciesError, width_rate)
from .quantity import (
    ENERGY,
    FREQUENCY,
    MASS,
    PERMITTIVITY,
    SPEED,
    OutOfRangeError,
    Quantity,
    Record,
    q_div,
    q_mul,
    q_pow,
)

__all__ = [
    "OscillatorSpec",
    "builtin_species",
    "load_species",
    "vf_lifetime",
    "coherence_length",
    "number_density",
    "binding_energy",
    "resonant_frequency",
    "decay_rate",
    "interacting_density",
]


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
    width = width_rate(constants.get(width_key), constants)
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


def load_species(
    constants: ConstantsSet,
    include_quarks: bool = False,
    width_choice: str = "max",
) -> tuple[SpeciesSpec, ...]:
    """Species from the loaded data file if it defines any, else the built-ins.

    File species, built when the file was loaded, replace the built-in list
    whole; ``include_quarks`` and ``width_choice`` shape only the built-ins.
    """
    return constants.species or builtin_species(constants, include_quarks, width_choice)


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
