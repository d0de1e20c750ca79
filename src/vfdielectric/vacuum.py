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
a weak eps dependence through c; plain Picard iteration converges in a few
steps either way.

The solver computes each factor once, where it can first be known.  Once per
solve: ``e^2`` and, per species, its eps-free factors
(:func:`~vfdielectric.species.species_factors`: ``q``, ``mu = m/2`` with its
checks, and for a lepton pair ``mu q^4`` and ``hbar^2``), ``q^2/mu``, and for
a quarkonium state ``(M/hbar)^2`` and its whole polarizability
``(q^2/mu)/(e_min/hbar)^2``.  Once per step: ``c``, alpha, ``c^2``,
``alpha^5``, ``hbar c``, the permittivity consistent with them, ``e^2/(hbar c)``
and the closed lepton coefficient.  Once per species and step: a lepton
pair's kinematics pass and polarizability, a quarkonium state's ``8 c Gamma``
product, and the composed-vs-closed route check.  The float operations and
their order are those of the single-species functions, so both routes give
the same bits.
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
from .species import SpeciesFactors, alpha_fifth, species_factors

__all__ = [
    "AssemblyError",
    "ConvergenceError",
    "SpeciesContribution",
    "PredictionReport",
    "METHOD_CLOSED_FORM",
    "METHOD_SELF_CONSISTENT",
    "alpha_from_epsilon",
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


class AssemblyError(RuntimeError):
    """Internal cross-check between equivalent routes failed."""


class ConvergenceError(RuntimeError):
    """The self-consistent iteration did not reach tolerance."""


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


def alpha_from_epsilon(epsilon: Quantity, c: Quantity, constants: ConstantsSet) -> float:
    """``alpha = e^2 / (4 pi eps hbar c)``."""
    return _alpha(_e_squared(constants), constants.get("hbar"), epsilon, c)


def _e_squared(constants: ConstantsSet) -> Quantity:
    e = constants.get("e")
    return q_mul(e, e)


def _alpha(e2: Quantity, hbar: Quantity, epsilon: Quantity, c: Quantity) -> float:
    denominator = q_mul(q_mul(epsilon, hbar), c) * _FOUR_PI
    return q_div(e2, denominator).as_dimensionless()


class _Step(Record):
    """The species-independent factors of one step at ``(alpha, c)``."""

    c: Quantity
    c2: Quantity
    alpha5: float
    eps_consistent: Quantity  # the permittivity consistent with (alpha, c)
    e2_over_hbar_c: Quantity
    closed: Quantity  # the closed lepton coefficient 8^3 alpha e^2/(hbar c)


def _step_factors(e2: Quantity, hbar: Quantity, alpha: float, c: Quantity) -> _Step:
    hbar_c = q_mul(hbar, c)
    eps_consistent = q_div(e2, hbar_c * (_FOUR_PI * alpha)).require(PERMITTIVITY, "epsilon")
    e2_over_hbar_c = q_div(e2, hbar_c)
    closed = e2_over_hbar_c * (512.0 * alpha)
    return _Step(c, q_mul(c, c), alpha_fifth(alpha), eps_consistent, e2_over_hbar_c, closed)


def _q2_over_mu(factors: SpeciesFactors) -> Quantity:
    """``q^2/mu``: a species' polarizability times ``omega0^2``."""
    q = factors.charge
    return q_div(q_mul(q, q), factors.reduced_mass)


def _quarkonium_factors(factors: SpeciesFactors) -> tuple[SpeciesSpec, Quantity, Quantity]:
    """The eps-free factors of a quarkonium term: ``(M/hbar)^2`` and the whole
    polarizability ``(q^2/mu) / (e_min/hbar)^2``."""
    species, hbar = factors.species, factors.hbar
    omega0 = q_div(species.e_min, hbar)
    m_over_hbar_2 = q_pow(q_div(species.bound_state_mass, hbar), 2)
    return species, m_over_hbar_2, q_div(_q2_over_mu(factors), q_mul(omega0, omega0))


def _term_factors(species: SpeciesSpec, constants: ConstantsSet) -> tuple:
    """A species' eps-free factors: the arguments of its term before the step's."""
    factors = species_factors(species, constants)
    if species.kind == LEPTON_PAIR:
        return factors, _q2_over_mu(factors)
    return _quarkonium_factors(factors)


def _lepton_term(factors: SpeciesFactors, q2_over_mu: Quantity, step: _Step) -> SpeciesContribution:
    kinematics = factors.kinematics(step.eps_consistent, step.c, step.c2, step.alpha5)
    omega0 = kinematics.oscillator.omega0
    polarizability = q_div(q2_over_mu, q_mul(omega0, omega0))
    composed = q_mul(kinematics.interacting_density, polarizability).require(
        PERMITTIVITY, "lepton term"
    )
    closed = step.closed
    if abs(composed.value - closed.value) > _ROUTE_AGREEMENT_TOL * closed.value:
        raise AssemblyError(
            f"{factors.species.name}: composed term {composed.value!r} disagrees with "
            f"closed coefficient {closed.value!r}"
        )
    in_alpha_units = q_div(composed, step.e2_over_hbar_c).as_dimensionless()
    return SpeciesContribution(factors.species.name, composed, in_alpha_units)


def _quarkonium_term(
    species: SpeciesSpec,
    m_over_hbar_2: Quantity,
    polarizability: Quantity,
    c: Quantity,
    e2_over_hbar_c: Quantity,
) -> SpeciesContribution:
    n_vf = q_mul(m_over_hbar_2, q_mul(c, species.two_photon_width)) * 8.0
    term = q_mul(n_vf, polarizability).require(PERMITTIVITY, "quarkonium term")
    in_alpha_units = q_div(term, e2_over_hbar_c).as_dimensionless()
    return SpeciesContribution(species.name, term, in_alpha_units)


def _contributions_at(
    species: tuple[SpeciesSpec, ...], solve_factors: tuple[tuple, ...], step: _Step
) -> tuple[SpeciesContribution, ...]:
    return tuple(
        _lepton_term(*factors, step) if s.kind == LEPTON_PAIR
        else _quarkonium_term(*factors, step.c, step.e2_over_hbar_c)
        for s, factors in zip(species, solve_factors)
    )


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
    step = _step_factors(_e_squared(constants), constants.get("hbar"), alpha, c)
    return _lepton_term(*_term_factors(species, constants), step)


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
    e2_over_hbar_c = q_div(_e_squared(constants), q_mul(constants.get("hbar"), c))
    return _quarkonium_term(*_term_factors(species, constants), c, e2_over_hbar_c)


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
    def delta(reference: float, model: float) -> float:
        return (reference - model) / model * 100.0

    return {
        "epsilon0": delta(constants.get("ref_epsilon0").value, epsilon0.value),
        "c": delta(constants.get("ref_c").value, c.value),
        "inv_alpha": delta(constants.get("ref_inv_alpha").value, inv_alpha),
    }


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


def epsilon0_self_consistent(
    species: "list[SpeciesSpec] | tuple[SpeciesSpec, ...]",
    constants: ConstantsSet,
    tol: float = 1e-13,
    max_iter: int = 50,
) -> PredictionReport:
    """Solve ``eps = F(eps)`` by Picard iteration and report the predictions.

    F sums lepton terms at ``alpha(eps), c(eps)`` and quarkonium terms at
    ``c(eps)``, so ``F(eps) = L + A eps^(-1/2)``: L > 0 from the eps-free
    lepton terms, A >= 0 from the quarkonia.  F decreases and has no 2-cycle:
    ``t = F(s)`` and ``s = F(t)`` give ``(sqrt t - sqrt s)(sqrt(s t) + L) = 0``.
    So each step lands between the previous two iterates and shrinks
    ``|delta eps|``; no damping is needed.  The seed is the reference
    permittivity; convergence is ``|delta eps| / eps <= tol``.  Raises
    :class:`ConvergenceError` after ``max_iter`` updates without convergence.

    The report's ``epsilon0_model`` is ``F`` at the last iterate, and its
    ``contributions`` are that step's own terms, so they sum left to right
    exactly to it; they were evaluated at an ``eps`` within ``tol`` of it.
    F is evaluated ``iterations`` times.
    """
    species = tuple(species)
    if not any(s.kind == LEPTON_PAIR for s in species):
        raise ValueError("self-consistent assembly needs at least one lepton species")
    if not (1e-15 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-15, 1e-6], got {tol!r}")

    e2, hbar = _e_squared(constants), constants.get("hbar")
    solve_factors = tuple(_term_factors(s, constants) for s in species)
    eps = constants.get("ref_epsilon0")
    for iteration in range(1, max_iter + 1):
        c = c_from_epsilon(eps, constants)
        step = _step_factors(e2, hbar, _alpha(e2, hbar, eps, c), c)
        contributions = _contributions_at(species, solve_factors, step)
        total = contributions[0].epsilon_term
        for contribution in contributions[1:]:
            total = total + contribution.epsilon_term
        if abs(total.value - eps.value) <= tol * abs(total.value):
            return _build_report(
                total, contributions, METHOD_SELF_CONSISTENT, constants, iterations=iteration
            )
        eps = total
    raise ConvergenceError(
        f"fixed point not reached after {max_iter} iterations (tol {tol!r})"
    )


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
