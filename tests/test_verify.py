"""The oracles redo their work on every call.

``verify`` builds its seeded inputs once per process (the random oscillators
and the mismatched-dimension operand pairs), but each call must still compute
every distinct integral, integrate every ODE case and attempt every addition
on every call, so no cache can stand in for the check.

Each check also fails on a fault just past its own bound, injected through
its input and not through a changed bound, and ``verify`` then exits 1.
"""

import contextlib
import io
import math
from collections import Counter

import pytest

from vfdielectric import oscillator, perturbation, verify
from vfdielectric.cli import main
from vfdielectric.oscillator import (
    QuadratureError,
    matrix_element_x_quadrature,
    matrix_elements_x_quadrature,
)
from vfdielectric.quantity import Dimension, Quantity
from vfdielectric.species import OscillatorSpec, builtin_species
from vfdielectric.vacuum import (
    PredictionReport,
    SpeciesContribution,
    epsilon0_closed_form,
    epsilon0_self_consistent,
    lepton_contribution,
)
from vfdielectric.verify import (
    _mismatched_pairs,
    _random_oscillators,
    check_dimension_audit,
    check_fixed_point_vs_closed_form,
    check_mass_cancellation,
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


def _verify_output():
    """The exit code and table of a ``verify`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    return code, out.getvalue()


def test_mass_cancellation_fails_on_a_term_1e_9_high(constants, monkeypatch):
    # the real 1e-12 bound: mu_pair's term 1e-9 relative high spreads the
    # three lepton terms by about that much
    def off(species, *args):
        term = lepton_contribution(species, *args)
        if species.name != "mu_pair":
            return term
        return SpeciesContribution(term.species_name, term.epsilon_term * (1 + 1e-9),
                                   term.in_alpha_units)

    monkeypatch.setattr(verify, "lepton_contribution", off)
    alpha, c = 1.0 / constants.get("ref_inv_alpha").value, constants.get("ref_c")
    terms = [off(s, constants, alpha, c).epsilon_term.value for s in builtin_species(constants)]
    spread = (max(terms) - min(terms)) / terms[0]
    assert 5e-10 < spread < 2e-9
    detail = f"relative spread across lepton species {spread:.2e}"
    result = check_mass_cancellation(constants)
    assert (result.passed, result.detail) == (False, detail)
    code, out = _verify_output()
    assert code == 1
    assert f"FAIL  mass-cancellation (tol 1e-12): {detail}\n" in out


def test_fixed_point_check_fails_on_a_third_evaluation(constants, monkeypatch):
    # the right fixed point, reached in 3 evaluations of F where the solve
    # takes at most 2
    def slow(species, constants):
        report = epsilon0_self_consistent(species, constants)
        return PredictionReport(**{**vars(report), "iterations": 3})

    monkeypatch.setattr(verify, "epsilon0_self_consistent", slow)
    leptons = builtin_species(constants)
    eps = epsilon0_self_consistent(leptons, constants).epsilon0_model.value
    closed = epsilon0_closed_form(constants, n_species=3).value
    rel = abs(eps - closed) / closed
    assert rel <= 1e-12
    detail = f"rel diff {rel:.2e}; converged in 3 iterations"
    result = check_fixed_point_vs_closed_form(constants)
    assert (result.passed, result.detail) == (False, detail)
    code, out = _verify_output()
    assert code == 1
    assert f"FAIL  fixed-point-vs-closed-form (tol 1e-12): {detail}\n" in out
