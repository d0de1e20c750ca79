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
which :func:`~vfdielectric.constants.build_species` builds alike.

:func:`kinematics` is the one pass per species at one ``(eps, alpha, c)``:
the ``species`` table and the self-consistent solver both call it.  It
computes the rest energy once, so the lifetime once, and returns the lifetime,
coherence length, number density, oscillator, decay rate and interacting
density together.  What every species of a list shares, ``c``, ``c^2`` and, for a
list that holds a lepton pair, ``alpha^5`` and the binding denominator ``2 (4 pi
eps)^2 hbar^2``, it reads from the list's :func:`coupling`.  Its oscillator is
:func:`resonant_frequency`'s, the one place the binding energy is written, and
the charge ``q`` in it is :func:`charge`'s.  It and :func:`interacting_density`
run one private chain, from the rest energy through the lifetime, coherence
length and number density to the decay rate and ``Gamma dt``, so they agree
bit for bit.
"""

from __future__ import annotations

import math

from .constants import (
    LEPTON_PAIR,
    QUARKONIUM,
    ConstantsSet,
    SpeciesSpec,
    build_species,
)
from .quantity import (
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
    "builtin_species",
    "load_species",
    "Coupling",
    "charge",
    "coupling",
    "kinematics",
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
        self.reduced_mass.require(MASS, "reduced_mass")
        if self.reduced_mass.value <= 0:
            raise OutOfRangeError("reduced_mass must be positive")
        self.omega0.require(FREQUENCY, "omega0")
        if self.omega0.value <= 0:
            raise OutOfRangeError("omega0 must be positive")


# --- species construction -------------------------------------------------


# The built-in species in order: name, kind, charge fraction, and the registry
# key of each quantity: a lepton's mass; a quarkonium state's quark and
# bound-state rest energies and two-photon width, whose {} takes the width choice
_LEPTONS = (
    ("e_pair", LEPTON_PAIR, 1, {"constituent_mass": "m_e"}),
    ("mu_pair", LEPTON_PAIR, 1, {"constituent_mass": "m_mu"}),
    ("tau_pair", LEPTON_PAIR, 1, {"constituent_mass": "m_tau"}),
)
_WITH_QUARKS = _LEPTONS + (
    ("eta_c", QUARKONIUM, "2/3", {"constituent_mass": "m_c", "bound_state_mass": "m_etac",
                                  "two_photon_width": "gamma_etac_2gamma"}),
    ("eta_b", QUARKONIUM, "1/3", {"constituent_mass": "m_b", "bound_state_mass": "m_etab",
                                  "two_photon_width": "gamma_etab_2gamma_{}"}),
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
    species = []
    for name, kind, charge_fraction, keys in _WITH_QUARKS if include_quarks else _LEPTONS:
        given = {field: constants.get(key.format(width_choice)) for field, key in keys.items()}
        species.append(build_species(
            name, kind, charge_fraction, given, constants,
            lambda: f"built-in species from {', '.join(keys.values()).format(width_choice)} "
                    f"in {constants.origin}",
        ))
    return tuple(species)


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


def _alpha_fifth(alpha: float) -> float:
    """``alpha^5``, the coupling power in a lepton pair's decay rate; raises
    :class:`OutOfRangeError` unless alpha is positive and it and its power normal."""
    if not alpha > 0:
        raise OutOfRangeError(f"alpha must be positive, got {alpha!r}")
    return q_pow(_ONE * alpha, 5).value


def _binding_denominator(epsilon: Quantity, hbar: Quantity) -> Quantity:
    """``2 (4 pi eps)^2 hbar^2``, the denominator of a lepton pair's binding energy."""
    epsilon.require(PERMITTIVITY, "epsilon")
    hbar2 = q_mul(hbar, hbar)
    return q_mul(q_pow(epsilon * _FOUR_PI, 2), hbar2) * 2


class Coupling(Record):
    """What the kinematics of one species list share at one ``(eps, alpha, c)``;
    see :func:`coupling`."""

    c: Quantity
    c2: Quantity
    alpha5: float | None  # None for a list with no lepton pair
    denominator: Quantity | None  # 2 (4 pi eps)^2 hbar^2, likewise


def coupling(
    species: tuple[SpeciesSpec, ...],
    constants: ConstantsSet,
    epsilon: Quantity,
    alpha: float,
    c: Quantity,
) -> Coupling:
    """The factors :func:`kinematics` shares across ``species`` at ``(epsilon, alpha, c)``.

    ``c`` is checked first.  Only a list that holds a lepton pair gets
    ``alpha^5`` and then the binding denominator ``2 (4 pi eps)^2 hbar^2``,
    so a list of quarkonia is never refused for them; every list gets ``c^2``.
    """
    c.require(SPEED, "c")
    alpha5 = denominator = None
    if any(s.kind == LEPTON_PAIR for s in species):
        alpha5 = _alpha_fifth(alpha)
        denominator = _binding_denominator(epsilon, constants.get("hbar"))
    return Coupling(c, q_mul(c, c), alpha5, denominator)


def _oscillator(species: SpeciesSpec, constants: ConstantsSet, mu: Quantity,
                denominator: Quantity | None) -> OscillatorSpec:
    """:func:`resonant_frequency`'s oscillator over ``mu = m/2``, the one place
    the binding energy is written; a quarkonium state ignores ``denominator``."""
    if species.kind == LEPTON_PAIR:
        level = q_div(q_mul(mu, q_pow(charge(species, constants), 4)), denominator)
    else:
        level = species.e_min
    return OscillatorSpec(mu, q_div(level, constants.get("hbar")))


def _chain(
    species: SpeciesSpec, hbar: Quantity, c: Quantity, c2: Quantity, alpha5: float | None,
    mode: str,
) -> tuple[Quantity, Quantity, Quantity, Quantity, Quantity]:
    """Lifetime, coherence length, number density, decay rate and interacting
    density of ``species`` (see :func:`kinematics`), from one rest energy; a
    quarkonium state ignores ``alpha5``, and ``mode`` is as in :func:`interacting_density`."""
    lepton = species.kind == LEPTON_PAIR
    rest_energy = q_mul(species.constituent_mass if lepton else species.bound_state_mass, c2)
    lifetime = q_div(hbar, rest_energy * (4 if lepton else 2))
    length = q_mul(c, lifetime)
    n = q_div(_ONE, q_pow(length, 3))
    rate = q_div(rest_energy, hbar) * alpha5 if lepton else species.two_photon_width * 2
    gamma_dt = q_mul(rate, lifetime).as_dimensionless()
    absorbed = gamma_dt if mode == "linearized" else -math.expm1(-gamma_dt)
    return lifetime, length, n, rate, n * absorbed


class Kinematics(Record):
    """One species' kinematics at one ``(eps, alpha, c)``; see :func:`kinematics`."""

    lifetime: Quantity
    coherence_length: Quantity
    number_density: Quantity
    oscillator: OscillatorSpec
    decay_rate: Quantity
    interacting_density: Quantity


def charge(species: SpeciesSpec, constants: ConstantsSet) -> Quantity:
    """``q = e * charge_fraction``, from the charge ratio ``species`` keeps."""
    numerator, denominator = species.charge_ratio
    return constants.get("e") * (numerator / denominator)  # the bits of float(Fraction)


def kinematics(species: SpeciesSpec, constants: ConstantsSet, coupling: Coupling) -> Kinematics:
    """Lifetime, coherence length, number density, oscillator, decay rate and
    (linearized) interacting density of ``species`` in one pass, at the
    :func:`coupling` of a list that holds it.

    The lifetime is ``hbar/(4 m c^2)`` for a lepton pair and ``hbar/(2 M c^2)``
    for quarkonium; the coherence length is ``L = c dt``, the number density
    ``1/L^3``.  The decay rate of the photon-excited atom is ``alpha^5 m c^2 /
    hbar`` for a lepton pair (twice the two-photon rate of the ordinary atom)
    and twice the tabulated two-photon rate for quarkonium.  The oscillator is
    :func:`resonant_frequency`'s at the coupling's ``(eps, c)``.
    """
    oscillator = _oscillator(species, constants, species.constituent_mass * 0.5, coupling.denominator)
    lifetime, length, n, rate, interacting = _chain(
        species, constants.get("hbar"), coupling.c, coupling.c2, coupling.alpha5, "linearized")
    return Kinematics(lifetime, length, n, oscillator, rate, interacting)


def resonant_frequency(
    species: SpeciesSpec,
    constants: ConstantsSet,
    epsilon: Quantity,
    c: Quantity,
) -> OscillatorSpec:
    """Oscillator parameters: ``omega0 = |E|/hbar`` over the reduced mass ``mu = m/2``.

    The level spacing ``|E|`` is the minimum excitation energy ``e_min`` for
    quarkonium, which ignores ``epsilon`` and ``c``.  For a lepton pair it is
    the ground-state Coulomb binding energy ``(mu q^4) / (2 (4 pi eps)^2
    hbar^2)``, which equals ``m alpha^2 c^2 / 4`` when alpha and c are
    consistent with eps.
    """
    mu, denominator = species.constituent_mass * 0.5, None
    if species.kind == LEPTON_PAIR:
        c.require(SPEED, "c")
        denominator = _binding_denominator(epsilon, constants.get("hbar"))
    return _oscillator(species, constants, mu, denominator)


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
    pair collapses to ``(alpha^5/4) (4 m c / hbar)^3``.  It runs the chain of
    :func:`kinematics`, so the ``linearized`` value is its bit for bit.
    """
    if mode not in ("exact", "linearized"):
        raise ValueError(f"mode must be 'exact' or 'linearized', got {mode!r}")
    c.require(SPEED, "c")
    alpha5 = _alpha_fifth(alpha) if species.kind == LEPTON_PAIR else None
    return _chain(species, constants.get("hbar"), c, q_mul(c, c), alpha5, mode)[-1]
