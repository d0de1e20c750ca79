import cmath
import math
import random
import re
import warnings

import pytest
from scipy.integrate import solve_ivp

from vfdielectric import perturbation
from vfdielectric.quantity import (
    ACTION,
    CHARGE,
    ELECTRIC_FIELD,
    FREQUENCY,
    MASS,
    OutOfRangeError,
    Quantity,
)
from vfdielectric.species import OscillatorSpec
from vfdielectric.perturbation import (
    BRANCH_LITERAL,
    BRANCH_PAPER,
    AmplitudePair,
    CouplingLambda,
    CouplingStrengthWarning,
    OdeIntegrationError,
    amplitudes_analytic,
    amplitudes_exact,
    amplitudes_ode,
    amplitudes_ode_path,
    coupling_value,
    dipole_trajectory,
    scaling_exponent,
)

NATURAL = OscillatorSpec(Quantity(1.0, MASS), Quantity(1.0, FREQUENCY))
HBAR_ONE = Quantity(1.0, ACTION)


# --- analytic branches --------------------------------------------------------


def test_paper_branch_at_zero_keeps_transient():
    # the steady particular solution does not vanish at tau = 0
    pair = amplitudes_analytic(0.0, CouplingLambda(0.01), BRANCH_PAPER)
    assert pair.a0 == 1.0 + 0.0j
    assert pair.a1 == pytest.approx(0.01)


def test_literal_branch_honors_initial_condition():
    pair = amplitudes_analytic(0.0, CouplingLambda(0.01), BRANCH_LITERAL)
    assert pair.a1 == 0.0


def test_literal_branch_at_pi():
    pair = amplitudes_analytic(math.pi, CouplingLambda(0.01), BRANCH_LITERAL)
    assert pair.a1.real == pytest.approx(-0.02, rel=1e-12, abs=0)
    assert pair.a1.imag == pytest.approx(0.0, abs=1e-15)


def test_branches_differ_by_constant_offset():
    lam = CouplingLambda(0.003)
    for tau in (0.3, 1.7, 5.2):
        paper = amplitudes_analytic(tau, lam, BRANCH_PAPER).a1
        literal = amplitudes_analytic(tau, lam, BRANCH_LITERAL).a1
        assert paper - literal == pytest.approx(lam.value, rel=1e-12, abs=0)


def test_unknown_branch_rejected():
    with pytest.raises(ValueError):
        amplitudes_analytic(0.0, CouplingLambda(0.01), "midpoint")


def test_coupling_warns_when_large():
    with pytest.warns(CouplingStrengthWarning):
        CouplingLambda(0.5)


def test_coupling_warning_names_the_line_that_built_the_coupling():
    # each warning once named Record.__init__ in quantity.py, one location for
    # all, so the default filter showed only the first of a process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        CouplingLambda(0.5)
        CouplingLambda(0.5)
    assert [w.category for w in caught] == [CouplingStrengthWarning] * 2
    assert [w.filename for w in caught] == [__file__] * 2
    assert caught[0].lineno + 1 == caught[1].lineno


def test_coupling_rejects_nonfinite():
    with pytest.raises(ValueError):
        CouplingLambda(float("nan"))


def test_coupling_lambda_formula():
    # lam = q E0 <x>_{1,0} / (hbar omega0) in natural units is q E0 / sqrt(2)
    lam = CouplingLambda(coupling_value(
        NATURAL, Quantity(0.01, CHARGE), Quantity(1.0, ELECTRIC_FIELD), HBAR_ONE
    ))
    assert lam.value == pytest.approx(0.01 / math.sqrt(2.0), rel=1e-12, abs=0)


def test_coupling_value_is_the_coupling_before_the_band_check():
    args = (NATURAL, Quantity(1.0, CHARGE), Quantity(1.0, ELECTRIC_FIELD), HBAR_ONE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = perturbation.coupling_value(*args)  # outside the band, yet no warning
    assert value >= perturbation.LAMBDA_BAND
    with pytest.warns(CouplingStrengthWarning):
        assert CouplingLambda(value).value == value


# --- ODE oracle -----------------------------------------------------------------


def test_ode_zero_coupling_is_static():
    for tau in (0.5, math.pi, 8.0):
        pair = amplitudes_ode(tau, CouplingLambda(0.0))
        assert pair.a0 == pytest.approx(1.0 + 0.0j)
        assert pair.a1 == 0.0


def test_ode_at_tau_zero():
    pair = amplitudes_ode(0.0, CouplingLambda(0.01))
    assert (pair.a0, pair.a1) == (1.0 + 0.0j, 0.0 + 0.0j)


def test_ode_matches_literal_to_second_order():
    pair = amplitudes_ode(math.pi, CouplingLambda(0.01), tolerance=1e-12)
    assert abs(pair.a1 - (-0.02)) <= 1e-4


def test_ode_back_reaction_is_second_order():
    lam = 0.01
    pair = amplitudes_ode(2.0 * math.pi, CouplingLambda(lam), tolerance=1e-12)
    correction = abs(pair.a0 - 1.0)
    assert correction <= 10.0 * lam**2
    assert correction >= 0.1 * lam**2  # nonzero: the back-reaction is real


def test_ode_oracle_agreement_bound():
    # |a1_ode - a1_literal| <= 50 lam^2 for lam <= 1e-3, tau <= 4 pi
    for lam_value in (1e-4, 3e-4, 1e-3):
        lam = CouplingLambda(lam_value)
        for tau in (0.3, math.pi, 2.0 * math.pi, 4.0 * math.pi):
            ode = amplitudes_ode(tau, lam, tolerance=1e-12)
            literal = amplitudes_analytic(tau, lam, BRANCH_LITERAL)
            assert abs(ode.a1 - literal.a1) <= 50.0 * lam_value**2


def test_ode_unitarity():
    for lam_value in (1e-4, 1e-3, 1e-2):
        pair = amplitudes_ode(4.0 * math.pi, CouplingLambda(lam_value), tolerance=1e-12)
        assert abs(pair.norm_sq - 1.0) <= 1e-9


def test_ode_tolerance_range_enforced():
    with pytest.raises(ValueError):
        amplitudes_ode(1.0, CouplingLambda(0.01), tolerance=1e-13)
    with pytest.raises(ValueError):
        amplitudes_ode(1.0, CouplingLambda(0.01), tolerance=1e-3)


# --- exact propagator ------------------------------------------------------------

ORACLE_LAMBDAS = (0.0, 1e-4, 1e-3, 1e-2, 0.05)
ORACLE_TAUS = (0.3, 1.0, math.pi, 2.0 * math.pi, 4.0 * math.pi, 20.0, 37.0)


def test_exact_at_tau_zero():
    pair = amplitudes_exact(0.0, CouplingLambda(0.01))
    assert (pair.a0, pair.a1) == (1.0 + 0.0j, 0.0 + 0.0j)


def test_exact_rejects_nonfinite_tau():
    with pytest.raises(ValueError):
        amplitudes_exact(float("nan"), CouplingLambda(0.01))


@pytest.mark.parametrize("lam_value", ORACLE_LAMBDAS)
def test_gbs_matches_dop853_and_exact(lam_value):
    # scipy's DOP853 referees the Gragg-Bulirsch-Stoer oracle, backwards too
    lam = CouplingLambda(lam_value)
    k = lam.value

    def rhs(tau, y):
        return [1j * k * y[1] * cmath.exp(-1j * tau), 1j * k * y[0] * cmath.exp(1j * tau)]

    for tau in ORACLE_TAUS + tuple(-t for t in ORACLE_TAUS):
        gbs = amplitudes_ode(tau, lam, tolerance=1e-12)
        dop = solve_ivp(rhs, (0.0, tau), [1.0 + 0.0j, 0.0 + 0.0j],
                        method="DOP853", rtol=1e-12, atol=1e-12)
        assert dop.success
        exact = amplitudes_exact(tau, lam)
        assert gbs.tau == tau
        assert abs(gbs.a0 - dop.y[0, -1]) <= 1e-11 and abs(gbs.a1 - dop.y[1, -1]) <= 1e-11
        assert abs(gbs.a0 - exact.a0) <= 1e-11 and abs(gbs.a1 - exact.a1) <= 1e-11


def test_ode_collapsing_step_raises():
    with pytest.warns(CouplingStrengthWarning):
        lam = CouplingLambda(1e300)
    with pytest.raises(OdeIntegrationError, match="step"):
        amplitudes_ode(1.0, lam)


def test_ode_step_budget_raises(monkeypatch):
    monkeypatch.setattr(perturbation, "_GBS_MAX_STEPS", 2)
    with pytest.raises(OdeIntegrationError):
        amplitudes_ode(37.0, CouplingLambda(1e-3))


def _outcome(solve):
    """float.hex of every part of each pair ``solve()`` returns, or the type
    and text of what it raises."""
    try:
        pairs = solve()
    except (ValueError, OdeIntegrationError) as exc:
        return type(exc), str(exc)
    return [tuple(x.hex() for x in (p.a0.real, p.a0.imag, p.a1.real, p.a1.imag, p.tau))
            for p in pairs]


def _separately(tau_ends, lam, tolerance):
    return _outcome(lambda: [amplitudes_ode(tau, lam, tolerance) for tau in tau_ends])


def _on_one_path(tau_ends, lam, tolerance):
    return _outcome(lambda: amplitudes_ode_path(tau_ends, lam, tolerance))


def _random_end(rng, drawn):
    kind = rng.random()
    if kind < 0.1:
        return rng.choice((0.0, -0.0))
    if kind < 0.2 and drawn:
        return rng.choice(drawn)  # a duplicate
    sign = rng.choice((-1.0, 1.0))
    if kind < 0.4:
        return sign * rng.uniform(0.01, 3.0)  # inside the first step
    return sign * math.exp(rng.uniform(math.log(0.01), math.log(40.0)))


def test_ode_path_matches_separate_solves_bit_for_bit():
    # each end forks off the shared path where a solve to it alone would
    # clamp its step, so it must get that solve's bits, signed zeros included
    rng = random.Random(20261020)
    for _ in range(800):
        tau_ends = []
        for _ in range(rng.randint(1, 5)):
            tau_ends.append(_random_end(rng, tau_ends))
        lam = CouplingLambda(rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-6), math.log(0.05))))
        tolerance = math.exp(rng.uniform(math.log(1e-12), math.log(1e-6)))
        expected = _separately(tau_ends, lam, tolerance)
        assert _on_one_path(tau_ends, lam, tolerance) == expected, (tau_ends, lam, tolerance)
        assert _on_one_path(iter(tau_ends), lam, tolerance) == expected
    assert type(amplitudes_ode_path([1.0], CouplingLambda(1e-3))) is tuple
    assert amplitudes_ode_path((), CouplingLambda(1e-3), 1e-13) == ()


@pytest.mark.parametrize("tau_ends, tolerance", [
    ((1.0, math.nan, 2.0), 1e-12),
    ((math.inf,), 1e-12),
    ((2.0, -1.0, -math.inf), 1e-10),
    ((1.0, 2.0), 1e-13),
    ((1.0, math.nan), 1e-3),
])
def test_ode_path_refuses_what_a_separate_solve_refuses(tau_ends, tolerance):
    lam = CouplingLambda(1e-3)
    expected = _separately(tau_ends, lam, tolerance)
    assert expected[0] is ValueError
    assert _on_one_path(tau_ends, lam, tolerance) == expected


@pytest.mark.parametrize("lam_value, tau_ends", [
    (1e300, (1.0,)),
    (1e300, (0.5, 1.0, 5.0)),
    (1e300, (-2.0, 1.0, 7.0)),
    (1e300, (0.0, -3.0, 3.0)),
    (1e300, (4.0, math.nan)),
    # beyond the first step, 4 forks off where the path fails: at that step
    # below its own floor too, and past the path's, above its own
    (1e300, (4.0, 5.0)),
    (1e300, (4.0, 40.0)),
    # the steps to 1 and 2 collapse at tau = 0; the nearer ends go on from
    # there, under their own smaller floors, and arrive
    (1e17, (1e-14, 1.0)),
    (1e17, (3e-14, 1e-15, 2.0)),
])
def test_ode_path_step_collapse_raises_as_the_first_failing_solve(lam_value, tau_ends):
    with pytest.warns(CouplingStrengthWarning):
        lam = CouplingLambda(lam_value)
    expected = _separately(tau_ends, lam, 1e-10)
    assert expected[0] is OdeIntegrationError and "step" in expected[1]
    assert _on_one_path(tau_ends, lam, 1e-10) == expected
    if lam_value == 1e17:
        assert isinstance(_separately(tau_ends[:-1], lam, 1e-10), list)


@pytest.mark.parametrize("budget, tau_ends", [
    # two attempts reach 0.5, 3 and 5 but not 9 or 37
    (2, (0.5, 3.0, 5.0)),
    (2, (0.5, 3.0, 5.0, 37.0)),
    (2, (5.0, 9.0)),
    (2, (9.0, 37.0)),  # 9 forks off where the path runs out, with no attempt left
    (2, (-9.0, 1.0, 6.5)),
    (1, (3.0, 37.0)),  # the first step ends at 3: 3 forks off before it
])
def test_ode_path_step_budget_counts_for_each_end(monkeypatch, budget, tau_ends):
    monkeypatch.setattr(perturbation, "_GBS_MAX_STEPS", budget)
    lam = CouplingLambda(1e-3)
    assert _on_one_path(tau_ends, lam, 1e-12) == _separately(tau_ends, lam, 1e-12)


@pytest.mark.parametrize("lam_value", ORACLE_LAMBDAS)
def test_exact_matches_ode_oracle(lam_value):
    lam = CouplingLambda(lam_value)
    for tau in ORACLE_TAUS:
        exact = amplitudes_exact(tau, lam)
        ode = amplitudes_ode(tau, lam, tolerance=1e-12)
        assert abs(exact.a0 - ode.a0) <= 1e-11
        assert abs(exact.a1 - ode.a1) <= 1e-11
        assert abs(exact.norm_sq - 1.0) <= 1e-14


def test_exact_scaling_exponent_matches_ode_fit():
    np = pytest.importorskip("numpy")
    grid = [1e-4, 3e-4, 1e-3, 3e-3]
    corrections = [
        abs(amplitudes_ode(math.pi, CouplingLambda(v), tolerance=1e-12).a0 - 1.0)
        for v in grid
    ]
    ode_fit = np.polyfit([math.log(v) for v in grid], [math.log(c) for c in corrections], 1)[0]
    assert abs(scaling_exponent(grid, math.pi) - ode_fit) <= 1e-8


# --- scaling exponent -------------------------------------------------------------


def test_scaling_exponent_is_two():
    exponent = scaling_exponent([1e-4, 3e-4, 1e-3, 3e-3], math.pi)
    assert exponent == pytest.approx(2.0, abs=0.05)


def test_scaling_exponent_scale_invariance():
    grid = [1e-4, 2e-4, 4e-4, 8e-4]
    base = scaling_exponent(grid, math.pi)
    scaled = scaling_exponent([3.0 * v for v in grid], math.pi)
    assert scaled == pytest.approx(base, abs=0.02)


def test_scaling_exponent_degenerate_grid():
    with pytest.raises(ValueError):
        scaling_exponent([1e-3, 1e-3, 1e-3, 1e-3], math.pi)


def test_scaling_exponent_needs_four_points():
    with pytest.raises(ValueError):
        scaling_exponent([1e-4, 1e-3, 1e-2], math.pi)


def test_scaling_exponent_range_check():
    with pytest.raises(ValueError):
        scaling_exponent([1e-5, 1e-4, 1e-3, 1e-2], math.pi)


# --- dipole trajectories ------------------------------------------------------------


def _dipole_constant(q, field, spec):
    return q**2 * field / (spec.reduced_mass.value * spec.omega0.value**2)


def _trajectory(q, field, branch, taus):
    """The trajectory of ``NATURAL`` under charge ``q`` and frozen field ``field``."""
    lam = CouplingLambda(coupling_value(NATURAL, q, field, HBAR_ONE))
    return dipole_trajectory(NATURAL, q, branch, taus, HBAR_ONE, lam)


def test_paper_branch_dipole_is_constant():
    q = Quantity(0.002, CHARGE)
    field = Quantity(1.0, ELECTRIC_FIELD)
    taus = [0.0, 0.7, math.pi, 5.0]
    expected = _dipole_constant(q.value, field.value, NATURAL)
    for tau, dipole in _trajectory(q, field, BRANCH_PAPER, taus):
        assert dipole.value == pytest.approx(expected, rel=1e-12, abs=0)


def test_literal_branch_starts_at_zero():
    q = Quantity(0.002, CHARGE)
    field = Quantity(1.0, ELECTRIC_FIELD)
    samples = _trajectory(q, field, BRANCH_LITERAL, [0.0])
    assert samples[0][1].value == 0.0


def test_literal_branch_one_minus_cosine_shape():
    q = Quantity(0.002, CHARGE)
    field = Quantity(1.0, ELECTRIC_FIELD)
    constant = _dipole_constant(q.value, field.value, NATURAL)
    taus = [0.4, 1.1, 2.9]
    for tau, dipole in _trajectory(q, field, BRANCH_LITERAL, taus):
        assert dipole.value == pytest.approx(constant * (1.0 - math.cos(tau)), rel=1e-12, abs=0)


def test_literal_period_average_equals_paper_constant():
    q = Quantity(0.002, CHARGE)
    field = Quantity(1.0, ELECTRIC_FIELD)
    n = 128
    taus = [2.0 * math.pi * i / n for i in range(n)]
    literal = _trajectory(q, field, BRANCH_LITERAL, taus)
    mean = sum(p.value for _, p in literal) / n
    paper = _trajectory(q, field, BRANCH_PAPER, [0.0])[0][1]
    assert mean == pytest.approx(paper.value, rel=1e-10, abs=0)


def test_dipole_exactly_linear_in_field():
    q = Quantity(0.002, CHARGE)
    taus = [0.0, 1.0, 2.0]
    for branch in (BRANCH_PAPER, BRANCH_LITERAL):
        ones = _trajectory(q, Quantity(1.0, ELECTRIC_FIELD), branch, taus)
        threes = _trajectory(q, Quantity(3.0, ELECTRIC_FIELD), branch, taus)
        for (_, a), (_, b) in zip(ones, threes):
            assert b.value == pytest.approx(3.0 * a.value, rel=1e-15, abs=0)


def test_dipole_outside_the_band_still_warns():
    # the CLI refuses such a coupling; a library caller gets the warning when
    # it builds the coupling it hands the trajectory
    with pytest.warns(CouplingStrengthWarning):
        _trajectory(Quantity(1.0, CHARGE), Quantity(1.0, ELECTRIC_FIELD), BRANCH_PAPER, [0.0])


def test_dipole_scale_below_the_float_range_raises():
    # 2 q <x>_10 lam ~ 1e-400: every nonzero sample would underflow to 0.0; the
    # literal branch's response at tau = 0 is exactly 0.0, which is no underflow
    q, field = Quantity(1e-200, CHARGE), Quantity(1.0, ELECTRIC_FIELD)
    for branch, response in ((BRANCH_PAPER, "7.071067811865475e-201"),
                             (BRANCH_LITERAL, "3.2505535681645775e-201")):
        with pytest.raises(OutOfRangeError, match=re.escape(
                f"the product 1.414213562373095e-200 * {response} underflows to 0.0 (dimension m·s·A)")):
            _trajectory(q, field, branch, [0.0, 1.0])


def test_dipole_rejects_nonfinite_sample():
    q = Quantity(0.002, CHARGE)
    field = Quantity(1.0, ELECTRIC_FIELD)
    with pytest.raises(ValueError):
        _trajectory(q, field, BRANCH_PAPER, [float("inf")])


def test_amplitude_norm_property():
    pair = AmplitudePair(a0=1.0 + 0.0j, a1=0.1j, tau=0.0)
    assert pair.norm_sq == pytest.approx(1.01)


def test_scaling_exponent_matches_mpmath_fit():
    mpmath = pytest.importorskip("mpmath")
    grid = [1e-4, 3e-4, 1e-3, 3e-3]
    with mpmath.workdps(50):
        tau = mpmath.mpf(math.pi)
        xs, ys = [], []
        for v in grid:
            lam = mpmath.mpf(v)
            w = mpmath.sqrt(1 + 4 * lam**2) / 2
            a0 = mpmath.exp(mpmath.mpc(0, -1) * tau / 2) * (
                mpmath.cos(w * tau) + mpmath.mpc(0, 1) * mpmath.sin(w * tau) / (2 * w)
            )
            xs.append(mpmath.log(lam))
            ys.append(mpmath.log(abs(a0 - 1)))
        mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
    assert abs(scaling_exponent(grid, math.pi) - float(slope)) <= 1e-13


def test_scaling_exponent_rejects_nonfinite_tau():
    with pytest.raises(ValueError):
        scaling_exponent([1e-4, 3e-4, 1e-3, 3e-3], math.nan)
