"""First-order time-dependent perturbation of the two-level truncation.

A transient atom in its ground state absorbs one photon; the frozen field
value at that instant couples the ground and first excited oscillator levels
with dimensionless strength ``lam = q E0 <x>_{1,0} / (hbar omega0)``.  In the
dimensionless time ``tau = omega0 t`` the exact two-level system is

    da0/dtau = i lam a1 exp(-i tau)
    da1/dtau = i lam a0 exp(+i tau),        a0(0) = 1, a1(0) = 0.

Two first-order closed forms are carried side by side: the ``paper`` branch
``a1 = lam exp(i tau)`` (the steady particular solution, whose dipole is the
constant that feeds the permittivity) and the ``literal`` branch
``a1 = lam (exp(i tau) - 1)`` (the antiderivative that honors a1(0) = 0
exactly).  Their time-averaged dipoles agree over a period; neither is
"fixed" in favor of the other.

The untruncated system also has an exact solution: substituting
``b1 = a1 exp(-i tau)`` leaves constant coefficients, and with
``W = sqrt(1 + 4 lam^2)/2`` the generalized Rabi propagator gives

    a0 = exp(-i tau/2) (cos W tau + (i/2W) sin W tau)
    a1 = exp(+i tau/2) (i lam/W) sin W tau.

It keeps the back-reaction on a0 that the first-order forms drop and powers
the scaling fit.  The adaptive Gragg-Bulirsch-Stoer integration of the
system is the independent oracle for all three.  One integration serves all
the end times on one side of 0 (:func:`amplitudes_ode_path`): a solve's
steps depend on its end only through the clamp of its last step and its
failure test, so each nearer end forks off the shared path at the first step
that a solve to it alone would clamp, and gets that solve's bits.

E0 is a frozen scalar (the field at the absorption instant), so nothing here
depends on the photon frequency: the model vacuum is dispersion-free by
construction.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Sequence

from .quantity import CHARGE, ELECTRIC_FIELD, Quantity, Record, q_div, q_mul
from .species import OscillatorSpec
from .oscillator import matrix_element_x_analytic

__all__ = [
    "BRANCH_PAPER",
    "BRANCH_LITERAL",
    "BRANCHES",
    "LAMBDA_BAND",
    "CouplingStrengthWarning",
    "OdeIntegrationError",
    "CouplingLambda",
    "AmplitudePair",
    "coupling_value",
    "amplitudes_analytic",
    "amplitudes_exact",
    "amplitudes_ode",
    "amplitudes_ode_path",
    "scaling_exponent",
    "dipole_trajectory",
]

BRANCH_PAPER = "paper"
BRANCH_LITERAL = "literal"
BRANCHES = (BRANCH_PAPER, BRANCH_LITERAL)

# |lam| at or above this makes dropped second-order terms exceed ~1% of the kept ones.
LAMBDA_BAND = 0.1

_ODE_TOL_DEFAULT = 1e-10
_ODE_TOL_RANGE = (1e-12, 1e-6)

_Pair = tuple[complex, complex]  # the amplitudes (a0, a1)


class CouplingStrengthWarning(UserWarning):
    """First-order formulas are being used outside their comfort zone."""


class OdeIntegrationError(RuntimeError):
    """The adaptive integrator failed (step-size collapse or similar)."""


class CouplingLambda(Record):
    """Dimensionless coupling ``lam = q E0 <x>_{1,0} / (hbar omega0)``."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"coupling must be finite, got {self.value!r}")
        object.__setattr__(self, "value", v)
        if abs(v) >= LAMBDA_BAND:
            warnings.warn(
                f"coupling lam={v!r} is outside the first-order validity band "
                f"(|lam| < {LAMBDA_BAND})",
                CouplingStrengthWarning,
                stacklevel=3,  # past the record's __init__, to the code that built the coupling
            )


class AmplitudePair(Record):
    """State amplitudes at dimensionless time tau.

    First-order truncation is not exactly unitary: |a0|^2 + |a1|^2 may exceed
    1 by O(lam^2).  The exact solution (closed form or ODE) is unitary, which
    is what the integrator is validated against.
    """

    a0: complex
    a1: complex
    tau: float

    @property
    def norm_sq(self) -> float:
        return abs(self.a0) ** 2 + abs(self.a1) ** 2


def coupling_value(
    oscillator: OscillatorSpec,
    q: Quantity,
    field_e0: Quantity,
    hbar: Quantity,
) -> float:
    """The coupling from oscillator, charge and frozen field value, as a float.

    It is not yet held against :data:`LAMBDA_BAND`: a caller that refuses a
    coupling outside the band tests it here, before :class:`CouplingLambda`
    would warn.
    """
    q.require(CHARGE, "q")
    field_e0.require(ELECTRIC_FIELD, "field_e0")
    x10 = matrix_element_x_analytic(oscillator, hbar)
    numerator = q_mul(q_mul(q, field_e0), x10)
    denominator = q_mul(hbar, oscillator.omega0)
    return q_div(numerator, denominator).as_dimensionless()


def _check_branch(branch: str) -> None:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")


def amplitudes_analytic(tau: float, lam: CouplingLambda, branch: str) -> AmplitudePair:
    """First-order closed-form amplitudes; a0 stays 1 (corrections are O(lam^2))."""
    _check_branch(branch)
    phase = cmath.exp(1j * tau)
    if branch == BRANCH_PAPER:
        a1 = lam.value * phase
    else:
        a1 = lam.value * (phase - 1.0)
    return AmplitudePair(a0=1.0 + 0.0j, a1=a1, tau=float(tau))


def amplitudes_exact(tau: float, lam: CouplingLambda) -> AmplitudePair:
    """Exact two-level amplitudes from (1, 0) at tau = 0: the Rabi propagator.

    Unitary to rounding and free of the first-order truncation; it carries the
    O(lam^2) back-reaction on a0 that :func:`amplitudes_analytic` drops.
    """
    t = float(tau)
    if not math.isfinite(t):
        raise ValueError(f"tau must be finite, got {tau!r}")
    k = lam.value
    w = math.sqrt(1.0 + 4.0 * k * k) / 2.0
    cos_wt = math.cos(w * t)
    sin_wt = math.sin(w * t)
    half = cmath.exp(0.5j * t)
    a0 = half.conjugate() * (cos_wt + 1j * sin_wt / (2.0 * w))
    a1 = half * (1j * k * sin_wt / w)
    return AmplitudePair(a0=a0, a1=a1, tau=t)


def amplitudes_ode(
    tau_end: float,
    lam: CouplingLambda,
    tolerance: float = _ODE_TOL_DEFAULT,
) -> AmplitudePair:
    """Integrate the exact two-level system from (1, 0) at tau = 0 to tau_end.

    Gragg-Bulirsch-Stoer extrapolation (see :func:`_gbs_integrate`) with
    rtol = atol = ``tolerance``; this is the oracle the analytic branches and
    the exact propagator are checked against, and it retains the O(lam^2)
    back-reaction on a0.  A negative ``tau_end`` integrates backwards.  It is
    the one-end case of :func:`amplitudes_ode_path`.
    """
    return amplitudes_ode_path((tau_end,), lam, tolerance)[0]


def amplitudes_ode_path(
    tau_ends: Sequence[float],
    lam: CouplingLambda,
    tolerance: float = _ODE_TOL_DEFAULT,
) -> tuple[AmplitudePair, ...]:
    """:func:`amplitudes_ode` at each of ``tau_ends``, from one integration per side of 0.

    It returns ``tuple(amplitudes_ode(t, lam, tolerance) for t in tau_ends)``,
    bit for bit, and raises the exception that the first failing of those
    calls raises.  The ends on one side of 0 share one path to the farthest of
    them; each nearer end forks off it (see :func:`_gbs_integrate`) and takes
    the steps a solve to that end alone takes.  Zero and repeated ends cost no
    integration.
    """
    ends = tuple(tau_ends)
    lo, hi = _ODE_TOL_RANGE
    if ends and not (lo <= tolerance <= hi):
        raise ValueError(f"tolerance must lie in [{lo}, {hi}], got {tolerance!r}")
    finite: list[float] = []
    for tau_end in ends:  # those before the first non-finite end, which raises after them
        if not math.isfinite(tau_end):
            break
        finite.append(float(tau_end))
    reached: dict[float, _Pair | OdeIntegrationError] = {0.0: (1.0 + 0.0j, 0.0 + 0.0j)}
    for side in ({t for t in finite if t > 0.0}, {t for t in finite if t < 0.0}):
        if side:
            path = sorted(side, key=abs)
            far = path[-1]
            # the phases of the right-hand side turn at about one radian per unit tau, so
            # half a period at a high row is a first step that is usually accepted
            h = math.copysign(min(abs(far), 3.0), far)
            outcomes = _gbs_integrate(1j * lam.value, path, tolerance, 0.0,
                                      (1.0 + 0.0j, 0.0 + 0.0j), h, 5, _GBS_MAX_STEPS, False)
            reached.update(zip(path, outcomes))
    pairs = []
    for t in finite:
        outcome = reached[t]
        if isinstance(outcome, OdeIntegrationError):
            raise outcome
        pairs.append(AmplitudePair(a0=outcome[0], a1=outcome[1], tau=t or 0.0))  # -0.0 ends at 0.0
    if len(finite) < len(ends):
        raise ValueError(f"tau_end must be finite, got {ends[len(finite)]!r}")
    return tuple(pairs)


# Gragg-Bulirsch-Stoer: row j of the extrapolation table starts from a
# modified-midpoint step with _GBS_STEPS[j] substeps; _GBS_WORK[j] counts the
# right-hand-side evaluations that rows 0..j of one step cost.
_GBS_STEPS = (2, 4, 6, 8, 10, 12, 14, 16)
_GBS_WORK = tuple(1 + sum(_GBS_STEPS[: j + 1]) for j in range(len(_GBS_STEPS)))
# Aitken-Neville denominators in h^2: (n_j / n_(j-i))^2 - 1
_GBS_RATIO = tuple(
    tuple((n / _GBS_STEPS[j - i]) ** 2 - 1.0 for i in range(j + 1))
    for j, n in enumerate(_GBS_STEPS)
)
_GBS_MIN_STEP = 1e-14  # the smallest step, as a fraction of the interval
_GBS_MAX_STEPS = 10_000  # attempted steps; a solve to tau = 37 takes about a dozen


def _modified_midpoint(k: complex, t: float, y: _Pair, f0: _Pair, big_step: float, n: int) -> _Pair:
    """Gragg's modified midpoint rule: n substeps of the two-level system with coupling ``k``.

    The right-hand side is that of :func:`_gbs_integrate`, written out.
    Returns the increment over the step, not the end value: carried apart
    from y, the small increments keep their own relative precision.
    """
    h = big_step / n
    h2 = 2.0 * h
    exp = cmath.exp
    (y0, y1), (d0, d1) = y, f0
    p0 = p1 = 0.0
    c0, c1 = h * d0, h * d1
    for m in range(1, n):
        phase = exp(1j * (t + m * h))
        d0, d1 = k * (y1 + c1) * phase.conjugate(), k * (y0 + c0) * phase
        p0, p1, c0, c1 = c0, c1, p0 + h2 * d0, p1 + h2 * d1
    return c0, c1


def _step_factor(y: _Pair, row: list[_Pair], j: int, tol: float) -> tuple[float, float]:
    """Scaled error of row j's last column, and the step factor it asks for.

    The error is the change from the previous column in units of
    ``tol * (1 + |y|)``, the larger over both components; it is O(h^(2j+1)).
    """
    (c0, c1), (p0, p1) = row[j], row[j - 1]
    try:
        err = max(abs(c0 - p0) / (tol * (1.0 + abs(y[0]))), abs(c1 - p1) / (tol * (1.0 + abs(y[1]))))
    except OverflowError:
        err = math.inf
    if err == 0.0:
        return err, 4.0
    if not math.isfinite(err):
        return err, 0.02
    return err, min(4.0, max(0.02, 0.94 * (0.65 / err) ** (1.0 / (2 * j + 1))))


def _gbs_integrate(
    k: complex,
    ends: Sequence[float],
    tol: float,
    t: float,
    y: _Pair,
    h: float,
    target: int,
    attempts: int,
    rejected: bool,
) -> list[_Pair | OdeIntegrationError]:
    """Integrate the two-level system from ``(t, y)`` to each of ``ends``.

    The system is ``y0' = k y1 exp(-i t)``, ``y1' = k y0 exp(+i t)``; the
    amplitudes take ``k = i lam``.

    Gragg-Bulirsch-Stoer extrapolation (Hairer, Norsett & Wanner, *Solving
    Ordinary Differential Equations I*, section II.9): modified-midpoint
    steps with the step-number sequence 2, 4, 6, ..., Aitken-Neville
    extrapolation in h^2, and ODEX's order and step-size control in
    simplified form.  A step is accepted at the first row, from one below
    the target row on, whose scaled error (:func:`_step_factor`) is at most
    1; the next target is the row with the least work per unit step.  The
    step fails when a rejection shrinks it below ``_GBS_MIN_STEP`` of the
    end, or when ``attempts`` steps do not reach the end.

    ``h``, ``target``, ``attempts`` and ``rejected`` are the step to try
    next, its target row, the attempts left and whether the last attempt was
    rejected.  The ends lie on the side of ``t`` that ``h`` points to, nearest
    first.  The path runs to the last of them; only the clamp of its final
    step and its failure test depend on where it ends.  So at the start of
    an attempt that a solve to the nearest pending end would clamp, or that
    the path fails, that end forks off: this loop runs again for it alone,
    from the same state and with the attempts left.  Up to there the fork
    and the path took the same steps, so each end gets the bits a solve to
    it alone gets.  Returns one outcome per end, in order: the amplitudes,
    or the :class:`OdeIntegrationError` that such a solve raises.
    """
    t_end = ends[-1]
    out: list[_Pair | OdeIntegrationError] = []
    for spent in range(attempts + 1):  # the pass with no attempt left stops
        stop = spent == attempts or (rejected and abs(h) < _GBS_MIN_STEP * abs(t_end))
        while len(out) < len(ends) - 1 and (stop or abs(h) >= abs(ends[len(out)] - t)):
            fork = (ends[len(out)],)
            out += _gbs_integrate(k, fork, tol, t, y, h, target, attempts - spent, rejected)
        if stop:
            out.append(OdeIntegrationError(
                f"amplitude integration to tau={t_end!r} failed at tau={t!r}: the step shrank to {h!r}"
            ))
            return out
        last = abs(h) >= abs(t_end - t)
        if last:
            h = t_end - t
        phase = cmath.exp(1j * t)
        f0 = k * y[1] * phase.conjugate(), k * y[0] * phase
        table: list[list[_Pair]] = []
        fac = [0.0] * len(_GBS_STEPS)
        for j in range(min(target + 2, len(_GBS_STEPS))):
            row = [_modified_midpoint(k, t, y, f0, h, _GBS_STEPS[j])]
            for i in range(1, j + 1):
                (c0, c1), (p0, p1) = row[i - 1], table[j - 1][i - 1]
                ratio = _GBS_RATIO[j][i]
                row.append((c0 + (c0 - p0) / ratio, c1 + (c1 - p1) / ratio))
            table.append(row)
            if j == 0:
                continue
            err, fac[j] = _step_factor(y, row, j, tol)
            if j >= target - 1 and err <= 1.0:
                break
        else:  # rejected: retry with the step the target row asks for
            h *= fac[target]
            rejected = True
            continue
        rejected = False
        y = (y[0] + table[j][j][0], y[1] + table[j][j][1])
        if last:
            out.append(y)
            return out
        t += h
        target = j
        if j >= 2 and _GBS_WORK[j - 1] / fac[j - 1] < 0.8 * _GBS_WORK[j] / fac[j]:
            target = j - 1
        elif j + 2 < len(_GBS_STEPS) and (
            j == 1 or _GBS_WORK[j] / fac[j] < 0.9 * _GBS_WORK[j - 1] / fac[j - 1]
        ):
            target = j + 1
        h *= fac[min(target, j)] * _GBS_WORK[target] / _GBS_WORK[min(target, j)]


def _a0_correction(tau: float, lam: float) -> float:
    """``|a0(tau) - 1|`` of the exact propagator, free of cancellation.

    With ``delta = W - 1/2 = 2 lam^2 / (sqrt(1 + 4 lam^2) + 1)``,
    sum-to-product identities give ``a0 - 1 = exp(-i tau/2) (x + i y)`` with
    ``x = -2 sin((1 + delta) tau/2) sin(delta tau/2)`` and
    ``y = (cos((1 + delta) tau/2) sin(delta tau/2) - delta sin(tau/2)) / W``.
    Subtracting 1 from a computed a0 instead loses ~8 digits at lam = 1e-4.
    """
    delta = 2.0 * lam * lam / (math.sqrt(1.0 + 4.0 * lam * lam) + 1.0)
    half_sum = (1.0 + delta) * tau / 2.0
    sin_half_delta = math.sin(delta * tau / 2.0)
    x = -2.0 * math.sin(half_sum) * sin_half_delta
    y = (math.cos(half_sum) * sin_half_delta - delta * math.sin(tau / 2.0)) / (0.5 + delta)
    return math.hypot(x, y)


def scaling_exponent(lam_grid: Sequence[float], tau: float) -> float:
    """Log-log slope of the exact a0 correction |a0(tau) - 1| against lam.

    The correction is that of :func:`amplitudes_exact`, evaluated without
    cancellation, and the slope comes from an ordinary least-squares fit.  The
    dropped back-reaction is second order in the coupling, so the fitted
    exponent should sit at 2.  Requires at least four distinct lam values in
    [1e-4, 1e-2].
    """
    t = float(tau)
    if not math.isfinite(t):
        raise ValueError(f"tau must be finite, got {tau!r}")
    values = [float(v) for v in lam_grid]
    if len(values) < 4:
        raise ValueError(f"need at least 4 grid points, got {len(values)}")
    for v in values:
        if not (1e-4 <= v <= 1e-2):
            raise ValueError(f"grid value {v!r} outside [1e-4, 1e-2]")
    if len(set(values)) < 2:
        raise ValueError("degenerate grid: all lam values identical")

    logs_x = []
    logs_y = []
    for v in values:
        correction = _a0_correction(t, v)
        if correction == 0.0:
            raise ValueError(f"a0 correction vanished at lam={v!r}; cannot take log")
        logs_x.append(math.log(v))
        logs_y.append(math.log(correction))
    # an explicit fsum fit gives the same bits on every supported Python
    xbar, ybar = math.fsum(logs_x) / len(values), math.fsum(logs_y) / len(values)
    dx = [x - xbar for x in logs_x]
    return math.fsum(d * (y - ybar) for d, y in zip(dx, logs_y)) / math.fsum(d * d for d in dx)


def dipole_trajectory(
    oscillator: OscillatorSpec,
    q: Quantity,
    branch: str,
    tau_samples: Sequence[float],
    hbar: Quantity,
    lam: CouplingLambda,
) -> list[tuple[float, Quantity]]:
    """Dipole expectation ``<p>(tau) = 2 q <x>_{1,0} Re[a1(tau) exp(-i tau)]``.

    The frozen field reaches the dipole only through ``lam``, the coupling of
    ``oscillator``, ``q`` and the field (:func:`coupling_value`).  The paper
    branch gives the constant ``(q^2/mu) E0 / omega0^2``; the literal branch
    gives that constant times ``(1 - cos tau)``, which averages to the same
    value over a period.
    """
    _check_branch(branch)
    x10 = matrix_element_x_analytic(oscillator, hbar)
    prefactor = q_mul(q, x10) * 2.0
    out: list[tuple[float, Quantity]] = []
    for tau in tau_samples:
        t = float(tau)
        if not math.isfinite(t):
            raise ValueError(f"tau sample must be finite, got {tau!r}")
        pair = amplitudes_analytic(t, lam, branch)
        response = (pair.a1 * cmath.exp(-1j * t)).real
        out.append((t, prefactor * response))
    return out
