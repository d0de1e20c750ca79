"""One-dimensional quantum-harmonic-oscillator numerics.

All integrals are evaluated in dimensionless natural units (lengths in
``sqrt(hbar/(mu omega0))``) and scaled by that length at the boundary; at SI
scales the Gaussian weight ``exp(-mu omega0 x^2 / (2 hbar))`` underflows long
before any quadrature node is reached, so natural units are a correctness
requirement, not a nicety.  The integral is therefore the same for every
oscillator.

The position matrix element has two independent routes: the closed form
``<x>_{1,0} = sqrt(hbar/(2 mu omega0))`` and Gauss-Hermite quadrature of the
defining integral.  Their agreement is one of the package's standing
cross-checks, made by ``verify`` on one oscillator of unit natural length.
"""

from __future__ import annotations

import functools
import math

from .quantity import (
    CHARGE,
    DIPOLE_MOMENT,
    ELECTRIC_FIELD,
    LENGTH,
    Quantity,
    q_div,
    q_mul,
    q_sqrt,
)
from .species import OscillatorSpec

__all__ = [
    "N_MAX",
    "DEFAULT_QUAD_TOL",
    "QuadratureError",
    "matrix_element_x_quadrature",
    "matrix_element_x_analytic",
    "dipole_expectation_static",
]

# The model only ever populates n = 0, 1; higher levels exist for the
# parity-selection checks.
N_MAX = 10

_NODES = 64
DEFAULT_QUAD_TOL = 1e-10

_PI_M4 = math.pi ** -0.25
_NEWTON_EPS = 1e-14
_NEWTON_MAXIT = 10


class QuadratureError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance."""


def _hermite_values(n: int, x: float) -> list[float]:
    """``[h_0(x), ..., h_n(x)]`` by the orthonormal Hermite recurrence from ``h_0 = pi^(-1/4)``.

    The values are the Hermite functions psi_n(x) with the Gaussian
    ``exp(-x^2/2)`` factored out, which is exactly the form Gauss-Hermite
    quadrature wants.  Phases keep every function real with a positive
    leading coefficient.
    """
    values = [_PI_M4]
    prev, cur = 0.0, _PI_M4
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
        values.append(cur)
    return values


def _check_level(n: int) -> None:
    if not (0 <= n <= N_MAX):
        raise ValueError(f"level n must be in [0, {N_MAX}], got {n}")


@functools.cache
def _gauss_hermite_rule(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Hermite nodes (ascending) and weights, built once per node count.

    Newton's method on the orthonormal recurrence finds the non-negative
    roots of h_nodes from the standard initial guesses (Press et al.,
    *Numerical Recipes*, 3rd ed., section 4.6, ``gauher``); the weight at a
    root z is ``2 / h'(z)^2`` with ``h' = sqrt(2 nodes) h_{nodes-1}``.  The
    negative half mirrors the positive one, so the rule is symmetric by
    construction and an odd integrand sums to exactly zero.
    """
    if nodes < 1:
        raise ValueError(f"node count must be positive, got {nodes}")
    roots: list[float] = []  # descending, the largest first
    weights: list[float] = []
    for i in range((nodes + 1) // 2):
        if nodes % 2 and i == nodes // 2:
            z = 0.0  # the middle root of an odd rule is exact
        elif i == 0:
            z = math.sqrt(2 * nodes + 1) - 1.85575 * (2 * nodes + 1) ** (-1 / 6)
        elif i == 1:
            z -= 1.14 * nodes**0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * roots[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * roots[1]
        else:
            z = 2.0 * z - roots[i - 2]
        for _ in range(_NEWTON_MAXIT):
            below, value = _hermite_values(nodes, z)[-2:]
            slope = math.sqrt(2 * nodes) * below
            step = value / slope
            z -= step
            if abs(step) <= _NEWTON_EPS:
                break
        else:
            raise QuadratureError(f"Newton iteration for {nodes}-node root {i} did not converge")
        roots.append(z)
        weights.append(2.0 / (slope * slope))
    middle = nodes // 2  # roots shared by both halves: one for an odd rule
    return (
        tuple(-z for z in roots[:middle]) + tuple(reversed(roots)),
        tuple(weights[:middle]) + tuple(reversed(weights)),
    )


@functools.cache
def _hermite_table(nodes: int) -> tuple[tuple[float, ...], ...]:
    """``h_0 .. h_N_MAX`` at every node of the ``nodes``-point rule, built once per node count.

    Row ``k`` holds ``h_k`` at each node, in the rule's order.  The recurrence
    prefix does not depend on how far it runs, so each value is the one
    ``_hermite_values(k, x)`` gives, bit for bit.
    """
    columns = [_hermite_values(N_MAX, x) for x in _gauss_hermite_rule(nodes)[0]]
    return tuple(zip(*columns))


def _gauss_hermite_integral(n_prime: int, n: int, nodes: int) -> float:
    _check_level(n_prime)
    _check_level(n)
    x, w = _gauss_hermite_rule(nodes)
    table = _hermite_table(nodes)
    # fsum is correctly rounded, so the mirrored terms of an odd integrand cancel exactly
    return math.fsum(
        wi * hp * hn * xi for xi, wi, hp, hn in zip(x, w, table[n_prime], table[n])
    )


def _converged_integral(n_prime: int, n: int, tol: float) -> float:
    """Integral with an error estimate from a coarser node count."""
    coarse = _gauss_hermite_integral(n_prime, n, max(_NODES // 2, N_MAX + 2))
    fine = _gauss_hermite_integral(n_prime, n, _NODES)
    if abs(fine - coarse) > tol * max(1.0, abs(fine)):
        raise QuadratureError(
            f"Gauss-Hermite integral for (n'={n_prime}, n={n}) did not converge: "
            f"|{fine!r} - {coarse!r}| exceeds tolerance {tol!r}"
        )
    return fine


def matrix_element_x_quadrature(
    n_prime: int,
    n: int,
    oscillator: OscillatorSpec,
    hbar: Quantity,
    tol: float = DEFAULT_QUAD_TOL,
) -> Quantity:
    """Position matrix element ``<n'|x|n>`` by Gauss-Hermite quadrature (m).

    The integrand is a polynomial times ``exp(-x^2)``, so the 64-node rule is
    exact for all allowed levels; convergence is still verified against a
    half-size rule and a :class:`QuadratureError` raised if the two disagree
    beyond ``tol``.  The integral, in natural units, is then scaled by the
    oscillator's length ``sqrt(hbar/(mu omega0))``.
    """
    integral = _converged_integral(n_prime, n, tol)
    return q_sqrt(q_div(hbar, q_mul(oscillator.reduced_mass, oscillator.omega0))) * integral


def matrix_element_x_analytic(oscillator: OscillatorSpec, hbar: Quantity) -> Quantity:
    """Closed form for the ground-to-first matrix element: sqrt(hbar/(2 mu omega0))."""
    return q_sqrt(
        q_div(hbar, q_mul(oscillator.reduced_mass, oscillator.omega0) * 2)
    ).require(LENGTH, "<x>_{1,0}")


def dipole_expectation_static(
    oscillator: OscillatorSpec,
    e_charge: Quantity,
    field_e0: Quantity,
) -> Quantity:
    """Static dipole expectation of the polarized ground state (C·m).

    ``<p> = (q^2/mu) E0 / omega0^2``, identically equal to
    ``2 q^2 E0 <x>_{1,0}^2 / (hbar omega0)``; linear in the frozen field E0.
    """
    e_charge.require(CHARGE, "e_charge")
    field_e0.require(ELECTRIC_FIELD, "field_e0")
    q2_over_mu = q_div(q_mul(e_charge, e_charge), oscillator.reduced_mass)
    omega_sq = q_mul(oscillator.omega0, oscillator.omega0)
    return q_div(q_mul(q2_over_mu, field_e0), omega_sq).require(DIPOLE_MOMENT, "<p>")
