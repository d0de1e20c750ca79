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

The kinematics are computed at two rates.  :func:`species_factors` builds
the factors free of eps, alpha and c (``q``, ``mu = m/2`` checked positive,
``mu q^4``, ``hbar^2``) once per species.  :func:`kinematics` is one pass per
species at one ``(eps, alpha, c)``: it computes ``c^2`` and the rest energy
once, so the lifetime once, and returns the lifetime, coherence length,
number density, oscillator, decay rate and interacting density together.
:func:`number_density`, :func:`resonant_frequency` and
:func:`interacting_density` compute one quantity per call.  All go through
the same private helpers, one per formula, so they agree bit for bit.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .constants import LEPTON_PAIR, QUARKONIUM, ConstantsError, ConstantsSet, SpeciesSpec, width_rate
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
    "Kinematics",
    "SpeciesFactors",
    "builtin_species",
    "load_species",
    "species_factors",
    "kinematics",
    "alpha_fifth",
    "number_density",
    "resonant_frequency",
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
        _require_reduced_mass(self.reduced_mass)
        self.omega0.require(FREQUENCY, "omega0")
        if self.omega0.value <= 0:
            raise OutOfRangeError("omega0 must be positive")


# --- species construction -------------------------------------------------


# The built-in species in order: name, registry keys, charge fraction.  The
# keys are a lepton's mass; a quarkonium state's quark and bound-state rest
# energies and two-photon width, whose {} takes the width choice.
_LEPTONS = (
    ("e_pair", ("m_e",), Fraction(1)),
    ("mu_pair", ("m_mu",), Fraction(1)),
    ("tau_pair", ("m_tau",), Fraction(1)),
)
_QUARKONIA = (
    ("eta_c", ("m_c", "m_etac", "gamma_etac_2gamma"), Fraction(2, 3)),
    ("eta_b", ("m_b", "m_etab", "gamma_etab_2gamma_{}"), Fraction(1, 3)),
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
    species = tuple(
        SpeciesSpec(name, LEPTON_PAIR, constants.get(mass_key), charge_fraction)
        for name, (mass_key,), charge_fraction in _LEPTONS
    )
    if not include_quarks:
        return species
    return species + tuple(
        _quarkonium(name, quark_key, bound_key, width_key.format(width_choice),
                    charge_fraction, constants)
        for name, (quark_key, bound_key, width_key), charge_fraction in _QUARKONIA
    )


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

_ONE = Quantity(1.0)
_FOUR_PI = 4.0 * math.pi


def _check_speed(c: Quantity) -> Quantity:
    return c.require(SPEED, "c")


def _require_reduced_mass(reduced_mass: Quantity) -> Quantity:
    reduced_mass.require(MASS, "reduced_mass")
    if reduced_mass.value <= 0:
        raise OutOfRangeError("reduced_mass must be positive")
    return reduced_mass


def alpha_fifth(alpha: float) -> float:
    """``alpha^5``, the coupling power in a lepton pair's decay rate.

    Raises :class:`OutOfRangeError` unless alpha is positive and finite, or
    when the power overflows a float or falls below its normal range.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise OutOfRangeError(f"alpha must be positive and finite, got {alpha!r}")
    try:
        alpha5 = alpha**5
    except OverflowError:
        raise OutOfRangeError(f"power 5 of alpha = {alpha!r} overflows a float") from None
    if alpha5 < sys.float_info.min:
        raise OutOfRangeError(f"power 5 of alpha = {alpha!r} underflows a float")
    return alpha5


def _rest_energy(species: SpeciesSpec, c2: Quantity) -> Quantity:
    """``m c^2`` of a lepton pair's constituent, ``M c^2`` of a quarkonium state."""
    if species.kind == LEPTON_PAIR:
        return q_mul(species.constituent_mass, c2)
    return q_mul(species.bound_state_mass, c2)


def _lifetime(species: SpeciesSpec, hbar: Quantity, rest_energy: Quantity) -> Quantity:
    """``hbar / (4 m c^2)`` for a lepton pair, ``hbar / (2 M c^2)`` for quarkonium."""
    return q_div(hbar, rest_energy * (4 if species.kind == LEPTON_PAIR else 2))


def _per_volume(length: Quantity) -> Quantity:
    return q_div(_ONE, q_pow(length, 3))


def _decay_rate(
    species: SpeciesSpec, hbar: Quantity, rest_energy: Quantity, alpha5: float | None
) -> Quantity:
    """``alpha^5 m c^2 / hbar`` for a lepton pair; a quarkonium state's rate
    is twice the tabulated two-photon rate, whatever the other arguments."""
    if species.kind == QUARKONIUM:
        return species.two_photon_width * 2
    return q_div(rest_energy, hbar) * alpha5


def _interacting(n: Quantity, rate: Quantity, lifetime: Quantity, mode: str) -> Quantity:
    gamma_dt = q_mul(rate, lifetime).as_dimensionless()
    if mode == "linearized":
        return n * gamma_dt
    return n * -math.expm1(-gamma_dt)


class Kinematics(Record):
    """One species' kinematics at one ``(eps, alpha, c)``; see :func:`kinematics`."""

    lifetime: Quantity
    coherence_length: Quantity
    number_density: Quantity
    oscillator: OscillatorSpec
    decay_rate: Quantity
    interacting_density: Quantity


class SpeciesFactors(Record):
    """The factors of a species' kinematics that are free of eps, alpha and c.

    :func:`species_factors` builds them, so a caller that evaluates one
    species at many ``(eps, alpha, c)`` computes them once: ``charge`` is
    ``q = e * charge_fraction`` and ``reduced_mass`` is ``mu = m/2``, checked
    positive.  ``binding_numerator`` (``mu q^4``) and ``hbar2`` serve the
    Coulomb binding energy of a lepton pair and are ``None`` for quarkonium.
    """

    species: SpeciesSpec
    hbar: Quantity
    charge: Quantity
    reduced_mass: Quantity
    binding_numerator: Quantity | None
    hbar2: Quantity | None

    def oscillator(self, epsilon: Quantity) -> OscillatorSpec:
        """The oscillator at permittivity ``epsilon``: ``omega0 = |E|/hbar`` for
        a lepton pair, ``e_min/hbar`` for quarkonium (which ignores ``epsilon``).

        A lepton pair's ``|E| = (mu q^4) / (2 (4 pi eps)^2 hbar^2)`` is its
        ground-state Coulomb binding energy with the reduced mass ``mu = m/2``;
        it equals ``m alpha^2 c^2 / 4`` when alpha and c are consistent with eps.
        """
        if self.species.kind == LEPTON_PAIR:
            epsilon.require(PERMITTIVITY, "epsilon")
            denominator = q_mul(q_pow(epsilon * _FOUR_PI, 2), self.hbar2) * 2
            omega0 = q_div(q_div(self.binding_numerator, denominator), self.hbar)
        else:
            omega0 = q_div(self.species.e_min, self.hbar)
        return OscillatorSpec(self.reduced_mass, omega0)

    def kinematics(
        self, epsilon: Quantity, c: Quantity, c2: Quantity, alpha5: float | None
    ) -> Kinematics:
        """The one kinematics pass at ``(epsilon, c)``.

        ``c2`` is ``c`` squared and ``alpha5`` is :func:`alpha_fifth` of the
        coupling (``None`` will do for quarkonium), so a caller evaluating many
        species at one point computes each once.  The rest energy, and so the
        lifetime, is computed once and serves the coherence length, the
        density, the decay probability and the interacting density, which is
        the linearized one.
        """
        _check_speed(c)
        species, hbar = self.species, self.hbar
        oscillator = self.oscillator(epsilon)
        rest_energy = _rest_energy(species, c2)
        lifetime = _lifetime(species, hbar, rest_energy)
        length = q_mul(c, lifetime)
        n = _per_volume(length)
        rate = _decay_rate(species, hbar, rest_energy, alpha5)
        return Kinematics(
            lifetime, length, n, oscillator, rate, _interacting(n, rate, lifetime, "linearized")
        )


def species_factors(species: SpeciesSpec, constants: ConstantsSet) -> SpeciesFactors:
    """The eps-, alpha- and c-free factors of ``species``; see :class:`SpeciesFactors`."""
    hbar = constants.get("hbar")
    q = constants.get("e") * float(species.charge_fraction)
    mu = _require_reduced_mass(species.constituent_mass * 0.5)
    if species.kind != LEPTON_PAIR:
        return SpeciesFactors(species, hbar, q, mu, None, None)
    return SpeciesFactors(species, hbar, q, mu, q_mul(mu, q_pow(q, 4)), q_mul(hbar, hbar))


def kinematics(
    species: SpeciesSpec,
    constants: ConstantsSet,
    epsilon: Quantity,
    alpha: float,
    c: Quantity,
) -> Kinematics:
    """Lifetime, coherence length, number density, oscillator, decay rate and
    (linearized) interacting density of ``species`` in one pass.

    The lifetime is ``hbar/(4 m c^2)`` for a lepton pair and ``hbar/(2 M c^2)``
    for quarkonium; the coherence length is ``L = c dt``, the number density
    ``1/L^3``.  The decay rate of the photon-excited atom is ``alpha^5 m c^2 /
    hbar`` for a lepton pair (twice the two-photon rate of the ordinary atom)
    and twice the tabulated two-photon rate for quarkonium.
    """
    _check_speed(c)
    alpha5 = alpha_fifth(alpha) if species.kind == LEPTON_PAIR else None
    return species_factors(species, constants).kinematics(epsilon, c, q_mul(c, c), alpha5)


def number_density(species: SpeciesSpec, constants: ConstantsSet, c: Quantity) -> Quantity:
    """One transient atom per coherence volume: ``1 / L^3`` with ``L = c dt``."""
    _check_speed(c)
    lifetime = _lifetime(species, constants.get("hbar"), _rest_energy(species, q_mul(c, c)))
    return _per_volume(q_mul(c, lifetime))


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
    if species.kind == LEPTON_PAIR:
        epsilon.require(PERMITTIVITY, "epsilon")
        _check_speed(c)
    return species_factors(species, constants).oscillator(epsilon)


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
    pair collapses to ``(alpha^5/4) (4 m c / hbar)^3``.  The rest energy, and
    so the lifetime ``dt``, is computed once and gives both the coherence
    volume and ``Gamma dt``.
    """
    if mode not in ("exact", "linearized"):
        raise ValueError(f"mode must be 'exact' or 'linearized', got {mode!r}")
    _check_speed(c)
    alpha5 = alpha_fifth(alpha) if species.kind == LEPTON_PAIR else None
    hbar = constants.get("hbar")
    rest_energy = _rest_energy(species, q_mul(c, c))
    lifetime = _lifetime(species, hbar, rest_energy)
    n = _per_volume(q_mul(c, lifetime))
    return _interacting(n, _decay_rate(species, hbar, rest_energy, alpha5), lifetime, mode)
