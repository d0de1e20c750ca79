"""Assemble per-species polarizabilities into the vacuum permittivity.

Each species contributes ``N_vf (q^2/mu) / omega0^2`` to eps0.  For a lepton
pair everything mass-dependent cancels and the term collapses to the closed
coefficient ``8^3 alpha e^2 / (hbar c)``; both routes are computed and must
agree, which is the package's standing mass-cancellation check.

With alpha and c themselves expressed through the trial permittivity
(``alpha = e^2/(4 pi eps hbar c)``, ``c = 1/sqrt(mu0 eps)``), the assembly
becomes a fixed-point problem ``eps = F(eps)``.  For lepton-only input F is
constant in eps — the product ``alpha e^2 / c`` is eps-free — and the fixed
point equals the closed form

    eps0 = (n 8^3 / 4 pi) mu0 (e^2/hbar)^2      (n = number of lepton species)

which for n = 3 is ``(6 mu0/pi) (8 e^2/hbar)^2``.  Quarkonium terms reinstate
an eps dependence through c: ``F(eps) = L + A eps^(-1/2)``.  With ``u =
sqrt(eps/eps_seed)``, for a seed permittivity ``eps_seed``, the fixed point is
the one positive root of the cubic ``u^3 - l u - a = 0``, where ``l =
L/eps_seed`` and ``a = A/eps_seed^(3/2)`` are F's lepton and quarkonium sums
at the seed, each over ``eps_seed``.  The unknown is dimensionless, so a
change of units that scales eps by a power of two leaves ``l``, ``a`` and
``u`` bit-identical; ``sqrt(eps)`` itself would round.  The solve evaluates F
at the seed, solves the cubic in floats, and evaluates F once more at the
root, whatever the quark weight.

Each evaluation of F computes, once for all its species, ``c``, alpha, ``hbar
c``, the permittivity consistent with them, ``e^2/(hbar c)``, the closed
lepton coefficient and the species' :func:`~vfdielectric.species.coupling` at
them.  Then each species' term is computed whole from its ``q`` and ``m/2``: a
lepton pair's from :func:`~vfdielectric.species.kinematics`, the pass that also
prints the ``species`` table, with the composed-vs-closed route check; a
quarkonium state's from ``e_min/hbar`` and ``8 c (M/hbar)^2 Gamma``.
:func:`lepton_contribution` and :func:`quarkonium_contribution` compute one
term the same way, so the solver and they give the same bits.
"""

from __future__ import annotations

import math

from .constants import LEPTON_PAIR, QUARKONIUM, ConstantsSet, SpeciesSpec
from .quantity import (
    PERMITTIVITY,
    SPEED,
    OutOfRangeError,
    Quantity,
    Record,
    q_div,
    q_mul,
    q_pow,
    q_sqrt,
)
from .species import Coupling, charge, coupling, kinematics

__all__ = [
    "AssemblyError",
    "SpeciesContribution",
    "PredictionReport",
    "METHOD_CLOSED_FORM",
    "METHOD_SELF_CONSISTENT",
    "c_from_epsilon",
    "lepton_contribution",
    "quarkonium_contribution",
    "epsilon0_closed_form",
    "epsilon0_self_consistent",
    "closed_form_report",
    "inverse_alpha",
    "report_to_dict",
    "report_from_dict",
]

METHOD_CLOSED_FORM = "closed-form"
METHOD_SELF_CONSISTENT = "self-consistent"

_ONE = Quantity(1.0)
_FOUR_PI = 4.0 * math.pi

# Composed and closed lepton routes are algebraically identical; float
# round-off across the ~15 operations stays orders of magnitude below this.
_ROUTE_AGREEMENT_TOL = 1e-12

# The solve's stopping rule: F at the last iterate lands this close to it.
_TOL = 1e-13


class AssemblyError(RuntimeError):
    """Internal cross-check between equivalent routes failed."""


class SpeciesContribution(Record):
    """One species' permittivity term and its size in units of e^2/(hbar c)."""

    species_name: str
    epsilon_term: Quantity
    in_alpha_units: float

    def __post_init__(self) -> None:
        self.epsilon_term.require(PERMITTIVITY, f"{self.species_name} epsilon_term")
        if self.epsilon_term.value <= 0:
            raise OutOfRangeError(f"{self.species_name}: epsilon_term must be positive")


class PredictionReport(Record):
    """Model outputs with per-species breakdown and reference comparison."""

    epsilon0_model: Quantity
    c_model: Quantity
    inv_alpha_model: float
    contributions: tuple[SpeciesContribution, ...]
    method: str
    reference_deltas: dict[str, float]
    constants_source: str
    iterations: int | None = None

    def __post_init__(self) -> None:
        self.epsilon0_model.require(PERMITTIVITY, "epsilon0_model")
        self.c_model.require(SPEED, "c_model")


def c_from_epsilon(epsilon: Quantity, constants: ConstantsSet) -> Quantity:
    """``c = 1/sqrt(mu0 eps)``; with the n=3 closed form this equals
    ``sqrt(pi/6) hbar/(8 e^2 mu0)`` identically."""
    epsilon.require(PERMITTIVITY, "epsilon")
    if epsilon.value <= 0:
        raise OutOfRangeError("epsilon must be positive")
    return q_div(_ONE, q_sqrt(q_mul(constants.get("mu0"), epsilon)))


def _e_squared(constants: ConstantsSet) -> Quantity:
    e = constants.get("e")
    return q_mul(e, e)


def _alpha(e2: Quantity, hbar: Quantity, epsilon: Quantity, c: Quantity) -> float:
    """``alpha = e^2 / (4 pi eps hbar c)``."""
    denominator = q_mul(q_mul(epsilon, hbar), c) * _FOUR_PI
    return q_div(e2, denominator).as_dimensionless()


class _Step(Record):
    """The factors of one evaluation at ``(alpha, c)`` that its species share.

    A quarkonium term reads only ``c`` and ``e2_over_hbar_c``, so
    :func:`quarkonium_contribution`, given no alpha, leaves the rest unset.
    """

    c: Quantity
    e2_over_hbar_c: Quantity
    closed: Quantity | None = None  # the closed lepton coefficient 8^3 alpha e^2/(hbar c)
    coupling: Coupling | None = None  # the species', at the consistent permittivity


def _step_factors(species: tuple[SpeciesSpec, ...], constants: ConstantsSet, e2: Quantity,
                  alpha: float, c: Quantity) -> _Step:
    hbar_c = q_mul(constants.get("hbar"), c)
    eps_consistent = q_div(e2, hbar_c * (_FOUR_PI * alpha)).require(PERMITTIVITY, "epsilon")
    e2_over_hbar_c = q_div(e2, hbar_c)
    closed = e2_over_hbar_c * (512.0 * alpha)
    return _Step(c, e2_over_hbar_c, closed, coupling(species, constants, eps_consistent, alpha, c))


def _contribution(species: SpeciesSpec, constants: ConstantsSet, step: _Step) -> SpeciesContribution:
    """One species' permittivity term ``N_vf (q^2/mu) / omega0^2`` at ``step``.

    A lepton pair's ``omega0`` and ``N_vf`` come from its :func:`kinematics`
    at the step's coupling, and its term must agree with the closed
    coefficient.  A quarkonium state's ``omega0`` is ``e_min/hbar`` and its
    ``N_vf`` is ``8 c (M/hbar)^2 Gamma``.
    """
    lepton = species.kind == LEPTON_PAIR
    hbar, q = constants.get("hbar"), charge(species, constants)
    q2, mu = q_mul(q, q), species.constituent_mass * 0.5
    q2_over_mu = q_div(q2, mu)
    if lepton:
        k = kinematics(species, constants, step.coupling)
        omega0, n_vf = k.oscillator.omega0, k.interacting_density
    else:
        omega0 = q_div(species.e_min, hbar)
        m_over_hbar = q_div(species.bound_state_mass, hbar)
        n_vf = q_mul(q_pow(m_over_hbar, 2), q_mul(step.c, species.two_photon_width)) * 8.0
    term = q_mul(n_vf, q_div(q2_over_mu, q_mul(omega0, omega0))).require(
        PERMITTIVITY, "lepton term" if lepton else "quarkonium term"
    )
    closed = step.closed
    if lepton and abs(term.value - closed.value) > _ROUTE_AGREEMENT_TOL * closed.value:
        raise AssemblyError(
            f"{species.name}: composed term {term.value!r} disagrees with "
            f"closed coefficient {closed.value!r}"
        )
    in_alpha_units = q_div(term, step.e2_over_hbar_c).as_dimensionless()
    return SpeciesContribution(species.name, term, in_alpha_units)


def lepton_contribution(
    species: SpeciesSpec,
    constants: ConstantsSet,
    alpha: float,
    c: Quantity,
) -> SpeciesContribution:
    """Lepton-pair permittivity term at coupling ``alpha`` and light speed ``c``.

    Computed by composing the species operations (interacting density times
    polarizability) and independently as the closed coefficient
    ``8^3 alpha e^2/(hbar c)``; the two must agree — the constituent mass has
    cancelled — or an :class:`AssemblyError` is raised.
    """
    if species.kind != LEPTON_PAIR:
        raise ValueError(f"{species.name!r} is not a lepton pair")
    c.require(SPEED, "c")
    step = _step_factors((species,), constants, _e_squared(constants), alpha, c)
    return _contribution(species, constants, step)


def quarkonium_contribution(
    species: SpeciesSpec,
    constants: ConstantsSet,
    c: Quantity,
) -> SpeciesContribution:
    """Quarkonium permittivity term ``8c (M/hbar)^2 Gamma (q^2/(m_Q/2)) / omega0^2``.

    ``omega0 = e_min/hbar``, ``q = charge_fraction * e`` and ``Gamma`` is the
    species' own ``two_photon_width``, fixed when the species was built.
    """
    if species.kind != QUARKONIUM:
        raise ValueError(f"{species.name!r} is not a quarkonium state")
    c.require(SPEED, "c")
    step = _Step(c, q_div(_e_squared(constants), q_mul(constants.get("hbar"), c)))
    return _contribution(species, constants, step)


def epsilon0_closed_form(constants: ConstantsSet, n_species: int = 3) -> Quantity:
    """Closed-form permittivity ``(n 8^3 / 4 pi) mu0 (e^2/hbar)^2``.

    n is the number of (identical-contribution) lepton species; n = 3
    reproduces ``(6 mu0/pi) (8 e^2/hbar)^2`` exactly.
    """
    if n_species < 1:
        raise ValueError(f"n_species must be >= 1, got {n_species}")
    e = constants.get("e")
    ratio = q_div(q_mul(e, e), constants.get("hbar"))
    coefficient = n_species * 512.0 / (4.0 * math.pi)
    return (q_mul(constants.get("mu0"), q_mul(ratio, ratio)) * coefficient).require(
        PERMITTIVITY, "epsilon0"
    )


def inverse_alpha(epsilon0: Quantity, c: Quantity, constants: ConstantsSet) -> float:
    """``1/alpha = 4 pi eps0 hbar c / e^2`` (dimensionless)."""
    e = constants.get("e")
    numerator = q_mul(q_mul(epsilon0, constants.get("hbar")), c) * (4.0 * math.pi)
    return q_div(numerator, q_mul(e, e)).as_dimensionless()


def _reference_deltas(
    epsilon0: Quantity, c: Quantity, inv_alpha: float, constants: ConstantsSet
) -> dict[str, float]:
    # Sign convention: (reference - model)/model, so "reference is X% less
    # than calculated" reads as a negative delta.
    pairs = {
        "epsilon0": (constants.get("ref_epsilon0"), epsilon0),
        "c": (constants.get("ref_c"), c),
        "inv_alpha": (constants.get("ref_inv_alpha"), Quantity(inv_alpha)),
    }
    return {key: (q_div(reference - model, model) * 100.0).value
            for key, (reference, model) in pairs.items()}


def _build_report(
    epsilon0: Quantity,
    contributions: tuple[SpeciesContribution, ...],
    method: str,
    constants: ConstantsSet,
    iterations: int | None = None,
) -> PredictionReport:
    c = c_from_epsilon(epsilon0, constants)
    inv_alpha = inverse_alpha(epsilon0, c, constants)
    return PredictionReport(
        epsilon0_model=epsilon0,
        c_model=c,
        inv_alpha_model=inv_alpha,
        contributions=contributions,
        method=method,
        reference_deltas=_reference_deltas(epsilon0, c, inv_alpha, constants),
        constants_source=constants.origin,
        iterations=iterations,
    )


def _cubic_root(l: float, a: float) -> float:
    """The positive root of ``u^3 - l u - a`` for ``l > 0``, ``a >= 0``.

    Newton's method from ``s = sqrt(l) + a^(1/3)``, an upper bound on the
    root: with ``t = a^(1/3)``, ``f(s) = 2 l t + 3 sqrt(l) t^2 >= 0``.  f is
    convex and increasing above ``sqrt(l)``, so the iterates fall
    monotonically, and the first step that does not lower them ends the
    search; it needs no tolerance or step cap.  The steps run on ``v = u/s``
    in ``(0, 1]``, where Newton's iterates are those on u scaled by ``1/s``,
    so no power of the unknown leaves the float range.
    """
    s = math.sqrt(l) + a ** (1.0 / 3.0)
    l, a = l / s / s, a / s / s / s
    v = 1.0
    while True:
        lower = v - (v * v * v - l * v - a) / (3.0 * v * v - l)
        if not lower < v:
            return s * v
        v = lower


def _sum(contributions: "list[SpeciesContribution] | tuple[SpeciesContribution, ...]") -> Quantity:
    """The contributions' permittivity terms, added left to right."""
    total = contributions[0].epsilon_term
    for contribution in contributions[1:]:
        total = total + contribution.epsilon_term
    return total


def _evaluate(
    species: tuple[SpeciesSpec, ...], constants: ConstantsSet, eps: Quantity
) -> tuple[SpeciesContribution, ...]:
    """F's terms at ``eps``: each species' contribution at one shared step."""
    e2, hbar = _e_squared(constants), constants.get("hbar")
    c = c_from_epsilon(eps, constants)
    step = _step_factors(species, constants, e2, _alpha(e2, hbar, eps, c), c)
    return tuple(_contribution(s, constants, step) for s in species)


def epsilon0_self_consistent(
    species: "list[SpeciesSpec] | tuple[SpeciesSpec, ...]",
    constants: ConstantsSet,
) -> PredictionReport:
    """Solve ``eps = F(eps)`` as the root of its cubic and report the predictions.

    F sums lepton terms at ``alpha(eps), c(eps)`` and quarkonium terms at
    ``c(eps)``, so ``F(eps) = L + A eps^(-1/2)``: L > 0 from the eps-free
    lepton terms, A >= 0 from the quarkonia.  The solve evaluates F at most
    twice; ``iterations`` counts the evaluations.

    1. F at the seed, the reference permittivity ``eps_seed``.  If it lands
       within ``|delta eps| / eps <= 1e-13`` (:data:`_TOL`) of the seed, the
       solve stops there.
    2. The next iterate.  Lepton-only input (``A = 0``) steps to F's value,
       since F is constant in eps.  Otherwise the step's lepton and
       quarkonium sums, each over ``eps_seed``, give ``l`` and ``a``, and the
       iterate is ``eps_seed u^2`` with u the positive root of ``u^3 - l u - a
       = 0`` (:func:`_cubic_root`).  A root past the float range raises
       :class:`OutOfRangeError`.
    3. F at that iterate.  It must land within the same ``1e-13`` of it;
       a miss is a fault of the program, not of the input, and raises
       :class:`AssemblyError`.

    The report's ``epsilon0_model`` is ``F`` at the last iterate, and its
    ``contributions`` are that evaluation's own terms, so they sum left to
    right exactly to it; they were evaluated at an ``eps`` within ``1e-13``
    of it.
    """
    species = tuple(species)
    if not any(s.kind == LEPTON_PAIR for s in species):
        raise ValueError("self-consistent assembly needs at least one lepton species")

    seed = constants.get("ref_epsilon0")
    contributions = _evaluate(species, constants, seed)
    total = _sum(contributions)
    if abs(total.value - seed.value) <= _TOL * abs(total.value):
        return _build_report(total, contributions, METHOD_SELF_CONSISTENT, constants, iterations=1)

    if all(s.kind == LEPTON_PAIR for s in species):
        eps = total
    else:
        pairs = tuple(zip(species, contributions))
        lepton = _sum([c for s, c in pairs if s.kind == LEPTON_PAIR])
        quark = _sum([c for s, c in pairs if s.kind == QUARKONIUM])
        u = _cubic_root(q_div(lepton, seed).as_dimensionless(), q_div(quark, seed).as_dimensionless())
        eps = seed * (u * u)
    contributions = _evaluate(species, constants, eps)
    total = _sum(contributions)
    if abs(total.value - eps.value) > _TOL * abs(total.value):
        raise AssemblyError(
            f"F at the solved fixed point {eps.value!r} is {total.value!r}, "
            f"not within {_TOL!r} of it"
        )
    return _build_report(total, contributions, METHOD_SELF_CONSISTENT, constants, iterations=2)


def closed_form_report(
    constants: ConstantsSet, n_species: int = 3
) -> PredictionReport:
    """Closed-form prediction: ``epsilon0``, ``c``, ``1/alpha`` and the
    reference deltas.  It holds no per-species contributions."""
    eps = epsilon0_closed_form(constants, n_species)
    return _build_report(eps, (), METHOD_CLOSED_FORM, constants)


# --- report serialization (stable JSON schema) ------------------------------


def report_to_dict(report: PredictionReport, constants: ConstantsSet) -> dict:
    """Stable machine-readable form of a report."""
    return {
        "model": {
            "epsilon0": report.epsilon0_model.value,
            "c": report.c_model.value,
            "inv_alpha": report.inv_alpha_model,
        },
        "reference": {
            "epsilon0": constants.get("ref_epsilon0").value,
            "c": constants.get("ref_c").value,
            "inv_alpha": constants.get("ref_inv_alpha").value,
        },
        "deltas_percent": dict(report.reference_deltas),
        "contributions": [
            {
                "species": contribution.species_name,
                "epsilon_term": contribution.epsilon_term.value,
                "in_alpha_units": contribution.in_alpha_units,
            }
            for contribution in report.contributions
        ],
        "method": report.method,
        "constants_source": report.constants_source,
        "iterations": report.iterations,
    }


def report_from_dict(payload: dict) -> PredictionReport:
    """Rebuild a report from its serialized form."""
    contributions = tuple(
        SpeciesContribution(
            row["species"],
            Quantity(row["epsilon_term"], PERMITTIVITY),
            row["in_alpha_units"],
        )
        for row in payload["contributions"]
    )
    return PredictionReport(
        epsilon0_model=Quantity(payload["model"]["epsilon0"], PERMITTIVITY),
        c_model=Quantity(payload["model"]["c"], SPEED),
        inv_alpha_model=payload["model"]["inv_alpha"],
        contributions=contributions,
        method=payload["method"],
        reference_deltas=dict(payload["deltas_percent"]),
        constants_source=payload["constants_source"],
        iterations=payload.get("iterations"),
    )
