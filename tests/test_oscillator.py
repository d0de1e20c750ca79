import math
import random
from collections import Counter

import pytest
from numpy.polynomial import hermite

from vfdielectric.quantity import (
    ACTION,
    CHARGE,
    DIPOLE_MOMENT,
    ELECTRIC_FIELD,
    FREQUENCY,
    LENGTH,
    MASS,
    DimensionError,
    Quantity,
)
from vfdielectric import oscillator
from vfdielectric.species import OscillatorSpec
from vfdielectric.oscillator import (
    N_MAX,
    QuadratureError,
    _gauss_hermite_rule,
    _hermite_table,
    _hermite_values,
    dipole_expectation_static,
    matrix_element_x_analytic,
    matrix_element_x_quadrature,
)
from vfdielectric.verify import check_quadrature_vs_analytic

NATURAL = OscillatorSpec(Quantity(1.0, MASS), Quantity(1.0, FREQUENCY))
HBAR_ONE = Quantity(1.0, ACTION)


def _random_specs(n, seed=4242):
    rng = random.Random(seed)
    return [
        OscillatorSpec(
            Quantity(10.0 ** rng.uniform(-31, -25), MASS),
            Quantity(10.0 ** rng.uniform(10, 24), FREQUENCY),
        )
        for _ in range(n)
    ]


# --- eigenfunctions ----------------------------------------------------------


def _psi(n, x):
    """psi_n(x): the recurrence's Hermite function times the Gaussian it factors out."""
    return oscillator._hermite_values(n, x)[n] * math.exp(-0.5 * x * x)


def test_eigenfunction_level_bound():
    with pytest.raises(ValueError):
        matrix_element_x_quadrature(N_MAX + 1, 0, NATURAL, HBAR_ONE)
    with pytest.raises(ValueError):
        matrix_element_x_quadrature(0, N_MAX + 1, NATURAL, HBAR_ONE)


def test_eigenfunction_parity():
    for n in range(6):
        left = _psi(n, -1.3)
        right = _psi(n, 1.3)
        assert left == pytest.approx((-1.0) ** n * right, rel=1e-12, abs=0)


def test_orthonormality_up_to_five():
    # the weights carry the Gaussian, so the rule sums h_n' h_n directly
    x, w = _gauss_hermite_rule(64)
    values = [oscillator._hermite_values(5, xk) for xk in x]
    for n_prime in range(6):
        for n in range(6):
            overlap = math.fsum(wk * h[n_prime] * h[n] for wk, h in zip(w, values))
            expected = 1.0 if n_prime == n else 0.0
            assert overlap == pytest.approx(expected, abs=1e-10)


# --- position matrix elements ------------------------------------------------


def test_matrix_element_natural_units_value():
    element = matrix_element_x_quadrature(1, 0, NATURAL, HBAR_ONE)
    assert element.dim == LENGTH
    assert element.value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12, abs=0)


def test_matrix_element_diagonal_vanishes():
    assert matrix_element_x_quadrature(0, 0, NATURAL, HBAR_ONE).value == pytest.approx(
        0.0, abs=1e-10
    )


def test_matrix_element_same_parity_vanishes():
    assert matrix_element_x_quadrature(2, 0, NATURAL, HBAR_ONE).value == pytest.approx(
        0.0, abs=1e-10
    )


def test_parity_selection_all_even_sums():
    for n_prime in range(6):
        for n in range(6):
            if (n_prime + n) % 2 == 0:
                element = matrix_element_x_quadrature(n_prime, n, NATURAL, HBAR_ONE)
                assert abs(element.value) <= 1e-10


def test_analytic_natural_units():
    assert matrix_element_x_analytic(NATURAL, HBAR_ONE).value == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-15, abs=0
    )


def test_analytic_vs_quadrature_across_magnitudes(constants):
    hbar = constants.get("hbar")
    for spec in _random_specs(20):
        analytic = matrix_element_x_analytic(spec, hbar)
        quadrature = matrix_element_x_quadrature(1, 0, spec, hbar)
        assert quadrature.value == pytest.approx(analytic.value, rel=1e-10, abs=0)


def test_analytic_scaling_quadrupled_mass_halves_element(constants):
    hbar = constants.get("hbar")
    spec = _random_specs(1)[0]
    heavier = OscillatorSpec(spec.reduced_mass * 4.0, spec.omega0)
    assert matrix_element_x_analytic(heavier, hbar).value == pytest.approx(
        matrix_element_x_analytic(spec, hbar).value / 2.0, rel=1e-14, abs=0
    )


def test_quadrature_unattainable_tolerance_raises():
    with pytest.raises(QuadratureError):
        matrix_element_x_quadrature(1, 0, NATURAL, HBAR_ONE, tol=1e-20)


def _count_builds(monkeypatch, name, built):
    """Replace ``oscillator.<name>`` by a wrapper that counts its cache misses per node count."""
    cached = getattr(oscillator, name)

    def counting(nodes):
        misses = cached.cache_info().misses
        value = cached(nodes)
        built[nodes] += cached.cache_info().misses - misses
        return value

    monkeypatch.setattr(oscillator, name, counting)
    cached.cache_clear()


def test_gauss_hermite_rule_built_once_per_node_count(constants, monkeypatch):
    # a build is a miss of the rule's or the table's own cache
    rules_built, tables_built = Counter(), Counter()
    _count_builds(monkeypatch, "_gauss_hermite_rule", rules_built)
    _count_builds(monkeypatch, "_hermite_table", tables_built)
    first = check_quadrature_vs_analytic(constants)
    second = check_quadrature_vs_analytic(constants)
    assert first == second and first.passed
    assert rules_built == {64: 1, 32: 1}
    assert tables_built == {64: 1, 32: 1}


@pytest.mark.parametrize("nodes", [16, 32, 64])
def test_hermite_table_matches_the_recurrence_exactly(nodes):
    x, _ = _gauss_hermite_rule(nodes)
    table = _hermite_table(nodes)
    assert type(table) is tuple and len(table) == N_MAX + 1
    assert all(type(row) is tuple and len(row) == nodes for row in table)
    for k in range(N_MAX + 1):
        assert all(table[k][i] == _hermite_values(k, xi)[k] for i, xi in enumerate(x))
    assert _hermite_table(nodes) is table


def test_gauss_hermite_rule_is_read_only():
    x, w = _gauss_hermite_rule(16)
    assert type(x) is tuple and type(w) is tuple
    assert all(type(v) is float for v in x + w)
    with pytest.raises(TypeError):
        x[0] = 0.0
    with pytest.raises(TypeError):
        w[0] = 0.0
    assert _gauss_hermite_rule(16)[0] is x


@pytest.mark.parametrize("nodes", [16, 32, 64])
def test_newton_rule_matches_golub_welsch(nodes):
    # hermgauss solves the Golub-Welsch eigenproblem: an independent route
    x, w = _gauss_hermite_rule(nodes)
    ref_x, ref_w = hermite.hermgauss(nodes)
    assert len(x) == len(w) == nodes
    assert max(abs(a - b) for a, b in zip(x, ref_x)) <= 1e-14
    assert max(abs(a - b) / b for a, b in zip(w, ref_w)) <= 1e-12


@pytest.mark.parametrize("nodes", [1, 2, 5, 12, 13, 64])
def test_newton_rule_is_symmetric(nodes):
    x, w = _gauss_hermite_rule(nodes)
    assert list(x) == sorted(x)
    assert x == tuple(-v for v in reversed(x))
    assert w == tuple(reversed(w))
    assert math.fsum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0)


def test_gauss_hermite_rule_rejects_empty_rule():
    with pytest.raises(ValueError):
        _gauss_hermite_rule(0)


def test_odd_integrands_vanish_exactly():
    for n_prime, n in ((0, 0), (2, 0), (1, 3), (4, 2), (3, 1)):
        assert matrix_element_x_quadrature(n_prime, n, NATURAL, HBAR_ONE).value == 0.0


def test_eigenfunction_matches_numpy_hermite_series():
    # psi_n = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) with physicists' H_n
    for n in range(N_MAX + 1):
        coefficients = [0.0] * n + [1.0]
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        for x in (-3.7, -1.3, 0.0, 0.4, 2.2, 5.0):
            expected = hermite.hermval(x, coefficients) * math.exp(-0.5 * x * x) / norm
            assert _psi(n, x) == pytest.approx(expected, rel=1e-12, abs=1e-15)


# --- static dipole -------------------------------------------------------------


def test_dipole_two_algebraic_forms_agree(constants):
    rng = random.Random(99)
    hbar = constants.get("hbar")
    for _ in range(10):
        spec = OscillatorSpec(
            Quantity(10.0 ** rng.uniform(-31, -27), MASS),
            Quantity(10.0 ** rng.uniform(12, 20), FREQUENCY),
        )
        q = Quantity(10.0 ** rng.uniform(-20, -18), CHARGE)
        field = Quantity(10.0 ** rng.uniform(-2, 4), ELECTRIC_FIELD)
        direct = dipole_expectation_static(spec, q, field)
        x10 = matrix_element_x_analytic(spec, hbar)
        via_element = (
            2.0 * q.value**2 * field.value * x10.value**2
            / (hbar.value * spec.omega0.value)
        )
        assert direct.dim == DIPOLE_MOMENT
        assert direct.value == pytest.approx(via_element, rel=1e-12, abs=0)


def test_dipole_zero_field_zero_response(constants):
    spec = _random_specs(1)[0]
    out = dipole_expectation_static(
        spec, constants.get("e"), Quantity(0.0, ELECTRIC_FIELD)
    )
    assert out.value == 0.0


def test_dipole_epair_cross_checked_against_trajectory(constants):
    # time-average of the literal-branch trajectory equals the static value
    from vfdielectric.species import builtin_species, resonant_frequency
    from vfdielectric.perturbation import (
        BRANCH_LITERAL,
        CouplingLambda,
        coupling_value,
        dipole_trajectory,
    )

    e_pair = builtin_species(constants)[0]
    osc = resonant_frequency(
        e_pair, constants, constants.get("ref_epsilon0"), constants.get("ref_c")
    )
    field = Quantity(1.0, ELECTRIC_FIELD)
    static = dipole_expectation_static(osc, constants.get("e"), field)

    q, hbar = constants.get("e"), constants.get("hbar")
    lam = CouplingLambda(coupling_value(osc, q, field, hbar))
    n = 64
    taus = [2.0 * math.pi * i / n for i in range(n)]  # periodic grid, no endpoint
    samples = dipole_trajectory(osc, q, BRANCH_LITERAL, taus, hbar, lam)
    mean = sum(p.value for _, p in samples) / n
    assert mean == pytest.approx(static.value, rel=1e-10, abs=0)


def test_dipole_requires_field_dimension(constants):
    spec = _random_specs(1)[0]
    with pytest.raises(DimensionError):
        dipole_expectation_static(spec, constants.get("e"), Quantity(1.0, LENGTH))
