"""The oracles redo their work on every call.

``verify`` builds its seeded inputs once per process (the random oscillators
and the mismatched-dimension operand pairs), but each call must still compute
every distinct integral, integrate every ODE case and attempt every addition
on every call, so no cache can stand in for the check.
"""

import math
from collections import Counter

import pytest

from vfdielectric import oscillator, perturbation, verify
from vfdielectric.oscillator import (
    QuadratureError,
    matrix_element_x_quadrature,
    matrix_elements_x_quadrature,
)
from vfdielectric.quantity import Dimension, Quantity
from vfdielectric.species import OscillatorSpec
from vfdielectric.verify import (
    _mismatched_pairs,
    _random_oscillators,
    check_dimension_audit,
    check_ode_vs_analytic,
    check_quadrature_vs_analytic,
)


def test_dimension_audit_attempts_every_addition_on_every_call(constants, monkeypatch):
    attempted = []
    real_add = verify.q_add

    def counting_add(a, b):
        attempted.append((a.dim, b.dim))
        return real_add(a, b)

    monkeypatch.setattr(verify, "q_add", counting_add)
    for _ in range(2):
        attempted.clear()
        result = check_dimension_audit(constants)
        assert result.passed
        assert len(attempted) == 200
        assert tuple(attempted) == tuple((a.dim, b.dim) for a, b in _mismatched_pairs())
        assert "200/200 mismatched additions rejected" in result.detail


def _count_calls(monkeypatch, module, name, calls):
    """Replace ``module.<name>`` by a wrapper that counts its calls per node count."""
    real = getattr(module, name)

    def counting(*args):
        calls[args[-1]] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def test_quadrature_check_computes_every_integral_on_every_call(constants, monkeypatch):
    integrals, table_reads = Counter(), Counter()
    _count_calls(monkeypatch, oscillator, "_gauss_hermite_integral", integrals)
    # each integral reads the table itself, so a memoized integral reads it less often
    _count_calls(monkeypatch, oscillator, "_hermite_table", table_reads)
    for _ in range(2):
        integrals.clear()
        table_reads.clear()
        assert check_quadrature_vs_analytic(constants).passed
        # <x>_{1,0}, shared by the 20 oscillators, plus 5 parity-forbidden
        # elements, each coarse and fine
        assert integrals == table_reads == {32: 6, 64: 6}


def test_ode_check_integrates_every_case_on_every_call(constants, monkeypatch):
    cases = []
    real_path = perturbation.amplitudes_ode_path

    def counting_path(tau_ends, lam, tolerance):
        cases.append((tuple(tau_ends), lam.value))
        return real_path(tau_ends, lam, tolerance=tolerance)

    monkeypatch.setattr(verify, "amplitudes_ode_path", counting_path)
    midpoints = Counter()
    _count_calls(monkeypatch, perturbation, "_modified_midpoint", midpoints)
    taus = (math.pi, 2 * math.pi, 4 * math.pi)
    for _ in range(2):
        cases.clear()
        midpoints.clear()
        assert check_ode_vs_analytic(constants).passed
        assert cases == [(taus, 1e-4), (taus, 1e-3)]
        # one path per coupling: the three solves of a coupling share their
        # first step, which separate solves took three times over (105 calls)
        assert midpoints.total() == 79


def test_quadrature_route_matches_the_one_oscillator_form(constants):
    hbar = constants.get("hbar")
    specs = _random_oscillators()
    for n_prime, n in ((1, 0), (0, 0), (3, 2)):
        many = list(matrix_elements_x_quadrature(n_prime, n, specs, hbar))
        one = [matrix_element_x_quadrature(n_prime, n, spec, hbar) for spec in specs]
        assert [(q.value, q.dim) for q in many] == [(q.value, q.dim) for q in one]
    messages = []
    for route in (lambda: list(matrix_elements_x_quadrature(1, 0, specs, hbar, 1e-300)),
                  lambda: matrix_element_x_quadrature(1, 0, specs[0], hbar, 1e-300)):
        with pytest.raises(QuadratureError, match="did not converge") as info:
            route()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_seeded_inputs_are_immutable_tuples():
    specs = _random_oscillators()
    assert type(specs) is tuple and len(specs) == 20
    assert all(type(spec) is OscillatorSpec for spec in specs)
    assert _random_oscillators() is specs
    pairs = _mismatched_pairs()
    assert type(pairs) is tuple and len(pairs) == 200
    for pair in pairs:
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(q) is Quantity and q.value == 1.0 for q in pair)
        # distinct and interned: rebuilding from the exponents gives the same instance
        assert all(Dimension(q.dim.exponents) is q.dim for q in pair)
        assert pair[0].dim is not pair[1].dim
    assert _mismatched_pairs() is pairs
