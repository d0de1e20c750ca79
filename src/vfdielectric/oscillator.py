"""One-dimensional quantum-harmonic-oscillator numerics.

All integrals are evaluated in dimensionless natural units (lengths in
``sqrt(hbar/(mu omega0))``) and rescaled to SI at the boundary; at SI scales
the Gaussian weight ``exp(-mu omega0 x^2 / (2 hbar))`` underflows long before
any quadrature node is reached, so natural units are a correctness
requirement, not a nicety.

The position matrix element has two independent routes: the closed form
``<x>_{1,0} = sqrt(hbar/(2 mu omega0))`` and Gauss-Hermite quadrature of the
defining integral.  Their agreement is one of the package's standing
cross-checks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that use it, so that importing the
# package (and the CLI paths that never reach them) stays cheap.

__all__ = [
    "N_MAX",
    "QuadratureError",
    "eigenfunction",
    "natural_length",
    "matrix_element_x_quadrature",
    "matrix_element_x_analytic",
    "overlap_quadrature",
    "dipole_expectation_static",
]

# The model only ever populates n = 0, 1; higher levels exist for the
# parity/orthogonality property checks.
N_MAX = 10

_DEFAULT_NODES = 64
_DEFAULT_QUAD_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance."""


def _hermite_series(n: int, x: np.ndarray, gaussian: bool) -> np.ndarray:
    """Orthonormal Hermite functions by upward recurrence.

    With ``gaussian`` the values are the eigenfunctions psi_n(x); without it
    the Gaussian ``exp(-x^2/2)`` is factored out, which is exactly the form
    Gauss-Hermite quadrature wants.  Phases keep every psi_n real with a
    positive leading coefficient.
    """
    import numpy as np

    if not (0 <= n <= N_MAX):
        raise ValueError(f"level n must be in [0, {N_MAX}], got {n}")
    p0 = np.full_like(x, math.pi ** -0.25, dtype=float)
    if gaussian:
        p0 = p0 * np.exp(-0.5 * x * x)
    if n == 0:
        return p0
    p1 = math.sqrt(2.0) * x * p0
    if n == 1:
        return p1
    prev, cur = p0, p1
    for k in range(1, n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
    return cur


def eigenfunction(n: int, x: float | np.ndarray, oscillator: OscillatorSpec | None = None) -> float | np.ndarray:
    """Normalized eigenfunction psi_n at dimensionless x (natural units).

    The oscillator argument is accepted for interface symmetry; in natural
    units the eigenfunctions are universal and do not depend on it.
    """
    import numpy as np

    arr = np.asarray(x, dtype=float)
    out = _hermite_series(n, arr, gaussian=True)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def natural_length(oscillator: OscillatorSpec, hbar: Quantity) -> Quantity:
    """The oscillator length scale ``sqrt(hbar/(mu omega0))`` in meters."""
    return q_sqrt(q_div(hbar, q_mul(oscillator.reduced_mass, oscillator.omega0)))


def _gauss_hermite_integral(n_prime: int, n: int, with_x: bool, nodes: int) -> float:
    import numpy as np
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(nodes)
    values = _hermite_series(n_prime, x, gaussian=False) * _hermite_series(n, x, gaussian=False)
    if with_x:
        values = values * x
    return float(np.sum(w * values))


def _converged_integral(n_prime: int, n: int, with_x: bool, nodes: int, tol: float) -> float:
    """Integral with an error estimate from a coarser node count."""
    coarse = _gauss_hermite_integral(n_prime, n, with_x, max(nodes // 2, N_MAX + 2))
    fine = _gauss_hermite_integral(n_prime, n, with_x, nodes)
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
    nodes: int = _DEFAULT_NODES,
    tol: float = _DEFAULT_QUAD_TOL,
) -> Quantity:
    """Position matrix element ``<n'|x|n>`` by Gauss-Hermite quadrature (m).

    The integrand is a polynomial times ``exp(-x^2)``, so the default 64-node
    rule is exact for all allowed levels; convergence is still verified
    against a half-size rule and a :class:`QuadratureError` raised if the two
    disagree beyond ``tol``.
    """
    integral = _converged_integral(n_prime, n, with_x=True, nodes=nodes, tol=tol)
    return natural_length(oscillator, hbar) * integral


def matrix_element_x_analytic(oscillator: OscillatorSpec, hbar: Quantity) -> Quantity:
    """Closed form for the ground-to-first matrix element: sqrt(hbar/(2 mu omega0))."""
    return q_sqrt(
        q_div(hbar, q_mul(oscillator.reduced_mass, oscillator.omega0) * 2)
    ).require(LENGTH, "<x>_{1,0}")


def overlap_quadrature(
    n_prime: int,
    n: int,
    nodes: int = _DEFAULT_NODES,
    tol: float = _DEFAULT_QUAD_TOL,
) -> float:
    """Overlap ``<n'|n>`` by quadrature; delta_{n',n} up to quadrature error."""
    return _converged_integral(n_prime, n, with_x=False, nodes=nodes, tol=tol)


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
