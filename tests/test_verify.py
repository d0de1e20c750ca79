"""The oracles redo their work on every call.

``verify`` builds its seeded mismatched-dimension operand pairs once per
process, but each call must still compute every distinct integral, integrate
every ODE case and attempt every addition on every call, so no cache can
stand in for the check.

Each check also fails on a fault just past its own bound, injected through
its input and not through a changed bound, and ``verify`` then exits 1.
"""

import contextlib
import io
import math
from collections import Counter

from vfdielectric import oscillator, perturbation, verify
from vfdielectric.cli import main
from vfdielectric.oscillator import matrix_element_x_analytic, matrix_element_x_quadrature
from vfdielectric.perturbation import AmplitudePair, amplitudes_exact
from vfdielectric.quantity import LENGTH, PERMITTIVITY, SPEED, Dimension, Quantity
from vfdielectric.species import builtin_species
from vfdielectric.vacuum import (
    PredictionReport,
    SpeciesContribution,
    epsilon0_closed_form,
    epsilon0_self_consistent,
    lepton_contribution,
)
from vfdielectric.verify import (
    _mismatched_pairs,
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
        # <x>_{1,0} plus 5 parity-forbidden elements, each coarse and fine
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


def test_seeded_inputs_are_immutable_tuples():
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


def test_ode_check_fails_on_an_exact_a1_1e_8_off(constants, monkeypatch):
    # the real 1e-9 bound: the ODE stays within 1.6e-13 of the exact
    # propagator, so against an a1 1e-8 off the worst gap prints as 1.00e-08;
    # the literal bound and the unitarity leak do not read the exact route
    def off(tau, lam):
        exact = amplitudes_exact(tau, lam)
        return AmplitudePair(exact.a0, exact.a1 + 1e-8, exact.tau)

    unpatched = check_ode_vs_analytic(constants).detail
    monkeypatch.setattr(verify, "amplitudes_exact", off)
    detail = unpatched.rpartition("; ")[0] + "; worst |ode - exact| 1.00e-08"
    result = check_ode_vs_analytic(constants)
    assert (result.passed, result.detail) == (False, detail)
    code, out = _verify_output()
    assert code == 1
    assert f"FAIL  ode-vs-analytic (tol 1e-09): {detail}\n" in out


def test_quadrature_check_fails_on_a_closed_form_2e_10_off(constants, monkeypatch):
    # the default 1e-10 bound: the closed form <x>_{1,0} comes back 2e-10 high,
    # while the parity-forbidden elements stay 0.0
    def off(spec, hbar):
        exact = matrix_element_x_analytic(spec, hbar)
        return Quantity(exact.value * (1.0 + 2e-10), exact.dim)

    monkeypatch.setattr(verify, "matrix_element_x_analytic", off)
    detail = "rel err 2.00e-10; max parity-forbidden 0.00e+00 (natural units)"
    result = check_quadrature_vs_analytic(constants)
    assert (result.passed, result.detail) == (False, detail)
    code, out = _verify_output()
    assert code == 1
    assert f"FAIL  quadrature-vs-analytic (tol 1e-10): {detail}\n" in out


def test_quadrature_check_fails_on_a_parity_forbidden_element_of_1e_9(constants, monkeypatch):
    # the default 1e-10 bound: <2|x|0> of the unit oscillator comes back as
    # 1e-9 natural lengths (its natural length is 1.0 m), where every other
    # forbidden element is 0.0
    def off(n_prime, n, spec, *args, **kwargs):
        if (n_prime, n) == (2, 0):
            return Quantity(1e-9 * 1.0, LENGTH)
        return matrix_element_x_quadrature(n_prime, n, spec, *args, **kwargs)

    unpatched = check_quadrature_vs_analytic(constants).detail
    monkeypatch.setattr(verify, "matrix_element_x_quadrature", off)
    detail = unpatched.rpartition("; ")[0] + "; max parity-forbidden 1.00e-09 (natural units)"
    result = check_quadrature_vs_analytic(constants)
    assert (result.passed, result.detail) == (False, detail)
    code, out = _verify_output()
    assert code == 1
    assert f"FAIL  quadrature-vs-analytic (tol 1e-10): {detail}\n" in out


def test_dimension_audit_fails_on_one_accepted_mismatch(constants, monkeypatch):
    # the first mismatched pair adds as if its dimensions agreed; the output
    # dimensions stay right
    first, real_add = _mismatched_pairs()[0], verify.q_add

    def lenient(a, b):
        return a if a is first[0] and b is first[1] else real_add(a, b)

    monkeypatch.setattr(verify, "q_add", lenient)
    detail = (f"eps0 dim {PERMITTIVITY}; c dim {SPEED}; 1/alpha dimensionless; "
              "199/200 mismatched additions rejected")
    result = check_dimension_audit(constants)
    assert (result.passed, result.detail) == (False, detail)
    code, out = _verify_output()
    assert code == 1
    assert f"FAIL  dimension-audit (tol 0): {detail}\n" in out
