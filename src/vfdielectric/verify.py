"""Cross-validation suites: every analytic result against an independent route.

Each check returns a :class:`CheckResult` with its tolerance and a one-line
detail, so the CLI can print an auditable pass/fail report.  The same checks
back the package's acceptance tests.

The quadrature and ODE checks work in natural units and read nothing from
the constants file, so their lines are the same in every unit system.  The
dimension audit's 200 operand pairs are seeded and built once per process.
"""

from __future__ import annotations

import functools
import math
import random

from .constants import ConstantsSet
from .quantity import (
    ACTION,
    FREQUENCY,
    MASS,
    PERMITTIVITY,
    SPEED,
    DimensionError,
    Dimension,
    Quantity,
    Record,
    q_add,
)
from .species import OscillatorSpec, builtin_species
from .oscillator import (
    DEFAULT_QUAD_TOL,
    QuadratureError,
    matrix_element_x_analytic,
    matrix_element_x_quadrature,
)
from .perturbation import (
    BRANCH_LITERAL,
    CouplingLambda,
    amplitudes_analytic,
    amplitudes_exact,
    amplitudes_ode_path,
)
from .vacuum import (
    c_from_epsilon,
    epsilon0_closed_form,
    epsilon0_self_consistent,
    inverse_alpha,
    lepton_contribution,
)

__all__ = [
    "CheckResult",
    "check_quadrature_vs_analytic",
    "check_ode_vs_analytic",
    "check_fixed_point_vs_closed_form",
    "check_mass_cancellation",
    "check_dimension_audit",
    "run_all",
]

_SEED = 20218
_N_MISMATCHED_ADDITIONS = 200


class CheckResult(Record):
    name: str
    passed: bool
    tolerance: float
    detail: str


@functools.cache
def _mismatched_pairs() -> tuple[tuple[Quantity, Quantity], ...]:
    """Seeded unit operands whose dimensions differ in one exponent, built once per process."""
    rng = random.Random(_SEED + 1)
    pairs = []
    for _ in range(_N_MISMATCHED_ADDITIONS):
        exps_a = [rng.randint(-3, 3) for _ in range(7)]
        exps_b = list(exps_a)
        index = rng.randrange(7)
        exps_b[index] += rng.choice([-2, -1, 1, 2])
        pairs.append((Quantity(1.0, Dimension(tuple(exps_a))), Quantity(1.0, Dimension(tuple(exps_b)))))
    return tuple(pairs)


def check_quadrature_vs_analytic(
    constants: ConstantsSet, tol: float = DEFAULT_QUAD_TOL
) -> CheckResult:
    """<x>_{1,0} by quadrature vs the closed form, plus parity-forbidden elements.

    In natural units the integral is the same for every oscillator, so the
    check takes one: unit reduced mass and frequency, with hbar 1 J s, whose
    natural length is exactly 1 m.  It reads nothing from ``constants``.
    """
    unit = OscillatorSpec(Quantity(1.0, MASS), Quantity(1.0, FREQUENCY))
    hbar = Quantity(1.0, ACTION)
    try:
        analytic = matrix_element_x_analytic(unit, hbar).value
        quadrature = matrix_element_x_quadrature(1, 0, unit, hbar, tol=tol).value
        rel = abs(quadrature - analytic) / analytic
        # parity selection: same-parity pairs vanish
        worst_forbidden = max(
            abs(matrix_element_x_quadrature(n_prime, n, unit, hbar, tol=tol).value)
            for n_prime, n in ((0, 0), (2, 0), (1, 3), (4, 2), (3, 1))
        )
    except QuadratureError as exc:  # convergence failure counts as check failure
        return CheckResult("quadrature-vs-analytic", False, tol, f"error: {exc}")
    passed = rel <= tol and worst_forbidden <= tol
    detail = f"rel err {rel:.2e}; max parity-forbidden {worst_forbidden:.2e} (natural units)"
    return CheckResult("quadrature-vs-analytic", passed, tol, detail)


def check_ode_vs_analytic(constants: ConstantsSet) -> CheckResult:
    """Integrated amplitudes vs the literal closed form and the exact propagator.

    The integrator must also stay unitary; its gap to the exact propagator
    and its unitarity leak share the check's tolerance.
    """
    bound_factor = 50.0
    tol = 1e-9
    worst_ratio = 0.0
    worst_leak = 0.0
    worst_gap = 0.0
    taus = (math.pi, 2 * math.pi, 4 * math.pi)
    for lam_value in (1e-4, 1e-3):
        lam = CouplingLambda(lam_value)
        for tau, ode in zip(taus, amplitudes_ode_path(taus, lam, tolerance=1e-12)):
            literal = amplitudes_analytic(tau, lam, BRANCH_LITERAL)
            exact = amplitudes_exact(tau, lam)
            diff = abs(ode.a1 - literal.a1)
            worst_ratio = max(worst_ratio, diff / (bound_factor * lam_value**2))
            worst_leak = max(worst_leak, abs(ode.norm_sq - 1.0))
            worst_gap = max(worst_gap, abs(ode.a0 - exact.a0), abs(ode.a1 - exact.a1))
    passed = worst_ratio <= 1.0 and worst_leak <= tol and worst_gap <= tol
    detail = (
        f"worst |a1_ode - a1_literal| at {worst_ratio:.2e} of the 50*lam^2 bound; "
        f"worst unitarity leak {worst_leak:.2e} (tol {tol:.0e}); "
        f"worst |ode - exact| {worst_gap:.2e}"
    )
    return CheckResult("ode-vs-analytic", passed, tol, detail)


def check_fixed_point_vs_closed_form(constants: ConstantsSet) -> CheckResult:
    """Lepton-only fixed point must equal the closed form, quickly."""
    tol = 1e-12
    leptons = builtin_species(constants, include_quarks=False)
    report = epsilon0_self_consistent(leptons, constants)
    closed = epsilon0_closed_form(constants, n_species=len(leptons))
    rel = abs(report.epsilon0_model.value - closed.value) / closed.value
    passed = rel <= tol and report.iterations <= 2
    detail = f"rel diff {rel:.2e}; converged in {report.iterations} iterations"
    return CheckResult("fixed-point-vs-closed-form", passed, tol, detail)


def check_mass_cancellation(constants: ConstantsSet) -> CheckResult:
    """e, mu and tau pairs must contribute identically."""
    tol = 1e-12
    c = constants.get("ref_c")
    alpha = 1.0 / constants.get("ref_inv_alpha").value
    terms = [
        lepton_contribution(s, constants, alpha, c).epsilon_term.value
        for s in builtin_species(constants)
    ]
    spread = (max(terms) - min(terms)) / terms[0]
    passed = spread <= tol
    detail = f"relative spread across lepton species {spread:.2e}"
    return CheckResult("mass-cancellation", passed, tol, detail)


def check_dimension_audit(constants: ConstantsSet) -> CheckResult:
    """Output dimensions, and rejection of randomized mismatched additions."""
    eps = epsilon0_closed_form(constants)
    c = c_from_epsilon(eps, constants)
    inv_alpha = inverse_alpha(eps, c, constants)  # as_dimensionless() inside
    dims_ok = eps.dim == PERMITTIVITY and c.dim == SPEED and isinstance(inv_alpha, float)

    rejected = 0
    for a, b in _mismatched_pairs():
        try:
            q_add(a, b)
        except DimensionError:
            rejected += 1
    passed = dims_ok and rejected == _N_MISMATCHED_ADDITIONS
    detail = (
        f"eps0 dim {eps.dim}; c dim {c.dim}; 1/alpha dimensionless; "
        f"{rejected}/{_N_MISMATCHED_ADDITIONS} mismatched additions rejected"
    )
    return CheckResult("dimension-audit", passed, 0.0, detail)


def run_all(constants: ConstantsSet, quadrature_tol: float = DEFAULT_QUAD_TOL) -> list[CheckResult]:
    """All suites in a fixed order; ``quadrature_tol`` plumbs the CLI override."""
    return [
        check_quadrature_vs_analytic(constants, tol=quadrature_tol),
        check_ode_vs_analytic(constants),
        check_fixed_point_vs_closed_form(constants),
        check_mass_cancellation(constants),
        check_dimension_audit(constants),
    ]
