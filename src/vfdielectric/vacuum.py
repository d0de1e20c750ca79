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
from .species import interacting_density, resonant_frequency

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
    return q_div(Quantity(1.0), q_sqrt(q_mul(constants.get("mu0"), epsilon)))


def alpha_from_epsilon(epsilon: Quantity, c: Quantity, constants: ConstantsSet) -> float:
    """``alpha = e^2 / (4 pi eps hbar c)``."""
    e = constants.get("e")
    denominator = q_mul(q_mul(epsilon, constants.get("hbar")), c) * (4.0 * math.pi)
    return q_div(q_mul(e, e), denominator).as_dimensionless()


def _epsilon_from_alpha(alpha: float, c: Quantity, constants: ConstantsSet) -> Quantity:
    e = constants.get("e")
    denominator = q_mul(constants.get("hbar"), c) * (4.0 * math.pi * alpha)
    return q_div(q_mul(e, e), denominator).require(PERMITTIVITY, "epsilon")


def _e2_over_hbar_c(constants: ConstantsSet, c: Quantity) -> Quantity:
    e = constants.get("e")
    return q_div(q_mul(e, e), q_mul(constants.get("hbar"), c))


def _polarizability(
    species: SpeciesSpec, constants: ConstantsSet, reduced_mass: Quantity, omega0: Quantity
) -> Quantity:
    """``(q^2/mu)/omega0^2`` with ``q = e * charge_fraction``."""
    q = constants.get("e") * float(species.charge_fraction)
    return q_div(q_div(q_mul(q, q), reduced_mass), q_mul(omega0, omega0))


def _step_factors(
    alpha: float, c: Quantity, constants: ConstantsSet
) -> tuple[Quantity, Quantity, Quantity]:
    """The species-independent factors of the terms at ``(alpha, c)``: the
    permittivity consistent with them, ``e^2/(hbar c)`` and the closed lepton
    coefficient ``8^3 alpha e^2/(hbar c)``."""
    eps_consistent = _epsilon_from_alpha(alpha, c, constants)
    e2_over_hbar_c = _e2_over_hbar_c(constants, c)
    return eps_consistent, e2_over_hbar_c, e2_over_hbar_c * (512.0 * alpha)


def _lepton_term(
    species: SpeciesSpec,
    constants: ConstantsSet,
    alpha: float,
    c: Quantity,
    factors: tuple[Quantity, Quantity, Quantity],
) -> SpeciesContribution:
    eps_consistent, e2_over_hbar_c, closed = factors
    osc = resonant_frequency(species, constants, eps_consistent, c)
    n_vf = interacting_density(species, constants, alpha, c, mode="linearized")
    polarizability = _polarizability(species, constants, osc.reduced_mass, osc.omega0)
    composed = q_mul(n_vf, polarizability).require(PERMITTIVITY, "lepton term")
    if abs(composed.value - closed.value) > _ROUTE_AGREEMENT_TOL * closed.value:
        raise AssemblyError(
            f"{species.name}: composed term {composed.value!r} disagrees with "
            f"closed coefficient {closed.value!r}"
        )
    in_alpha_units = q_div(composed, e2_over_hbar_c).as_dimensionless()
    return SpeciesContribution(species.name, composed, in_alpha_units)


def _quarkonium_term(
    species: SpeciesSpec, constants: ConstantsSet, c: Quantity, e2_over_hbar_c: Quantity
) -> SpeciesContribution:
    hbar = constants.get("hbar")
    width = species.two_photon_width
    n_vf = (
        q_mul(q_pow(q_div(species.bound_state_mass, hbar), 2), q_mul(c, width)) * 8.0
    )
    polarizability = _polarizability(
        species, constants, species.constituent_mass * 0.5, q_div(species.e_min, hbar)
    )
    term = q_mul(n_vf, polarizability).require(PERMITTIVITY, "quarkonium term")
    in_alpha_units = q_div(term, e2_over_hbar_c).as_dimensionless()
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
    return _lepton_term(species, constants, alpha, c, _step_factors(alpha, c, constants))


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
    return _quarkonium_term(species, constants, c, _e2_over_hbar_c(constants, c))


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


def _contributions_at(
    species: tuple[SpeciesSpec, ...],
    epsilon: Quantity,
    constants: ConstantsSet,
) -> tuple[SpeciesContribution, ...]:
    c = c_from_epsilon(epsilon, constants)
    alpha = alpha_from_epsilon(epsilon, c, constants)
    factors = _step_factors(alpha, c, constants)
    out = []
    for s in species:
        if s.kind == LEPTON_PAIR:
            out.append(_lepton_term(s, constants, alpha, c, factors))
        else:
            out.append(_quarkonium_term(s, constants, c, factors[1]))
    return tuple(out)


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

    eps = constants.get("ref_epsilon0")
    for iteration in range(1, max_iter + 1):
        contributions = _contributions_at(species, eps, constants)
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
    """Closed-form prediction with per-species breakdown evaluated at the model point."""
    eps = epsilon0_closed_form(constants, n_species)
    c = c_from_epsilon(eps, constants)
    alpha = alpha_from_epsilon(eps, c, constants)
    term = _e2_over_hbar_c(constants, c) * (512.0 * alpha)
    contributions = tuple(
        SpeciesContribution(f"lepton_{i+1}", term, 512.0 * alpha)
        for i in range(n_species)
    )
    return _build_report(eps, contributions, METHOD_CLOSED_FORM, constants)


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
