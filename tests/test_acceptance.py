"""Acceptance gate: the headline numbers and the oracle/property suites.

Each criterion prints one ``PASS criterion N`` / ``FAIL criterion N`` line
(visible with ``pytest -s tests/test_acceptance.py``) and asserts at its
stated tolerance.
"""

import math
import random

from vfdielectric.quantity import (
    Dimension,
    DimensionError,
    PERMITTIVITY,
    SPEED,
    Quantity,
    q_add,
)
from vfdielectric.constants import load_constants
from vfdielectric.species import builtin_species, kinematics
from vfdielectric.oscillator import (
    matrix_element_x_analytic,
    matrix_element_x_quadrature,
)
from vfdielectric.perturbation import (
    BRANCH_LITERAL,
    BRANCH_PAPER,
    CouplingLambda,
    amplitudes_analytic,
    amplitudes_ode,
    coupling_value,
    dipole_trajectory,
    scaling_exponent,
)
from vfdielectric.species import OscillatorSpec, resonant_frequency
from vfdielectric.quantity import ACTION, ELECTRIC_FIELD, FREQUENCY, MASS
from vfdielectric.vacuum import (
    c_from_epsilon,
    epsilon0_closed_form,
    epsilon0_self_consistent,
    inverse_alpha,
    lepton_contribution,
    quarkonium_contribution,
)

CONSTANTS = load_constants()


def _criterion(number: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {description} ({detail})")
    assert passed, f"criterion {number}: {description}: {detail}"


def test_criterion_01_epsilon0_closed_form():
    value = epsilon0_closed_form(CONSTANTS, n_species=3).value
    rel = abs(value - 9.10e-12) / 9.10e-12
    _criterion(1, "closed-form eps0 within 0.3% of 9.10e-12 F/m", rel <= 3e-3,
               f"eps0 = {value:.6e}, rel dev {rel:.2e}")


def test_criterion_02_speed_of_light():
    c = c_from_epsilon(epsilon0_closed_form(CONSTANTS), CONSTANTS).value
    rel = abs(c - 2.96e8) / 2.96e8
    _criterion(2, "predicted c within 0.3% of 2.96e8 m/s", rel <= 3e-3,
               f"c = {c:.6e}, rel dev {rel:.2e}")


def test_criterion_03_inverse_alpha():
    from mpmath import mp

    mp.dps = 40
    eps = epsilon0_closed_form(CONSTANTS)
    c = c_from_epsilon(eps, CONSTANTS)
    model = inverse_alpha(eps, c, CONSTANTS)
    paper_band = abs(model - 138.93) <= 0.01
    arbitrary = float(mp.mpf(64) * mp.sqrt(3 * mp.pi / 2))
    oracle_rel = abs(model - arbitrary) / arbitrary
    _criterion(3, "1/alpha = 8^2 sqrt(3 pi/2) = 138.93 +- 0.01, mpmath oracle 1e-10",
               paper_band and oracle_rel <= 1e-10,
               f"model {model:.6f}, mpmath {arbitrary:.10f}, rel {oracle_rel:.2e}")


def test_criterion_04_number_densities():
    trio = builtin_species(CONSTANTS)
    eps, c = CONSTANTS.get("ref_epsilon0"), CONSTANTS.get("ref_c")
    alpha = 1.0 / CONSTANTS.get("ref_inv_alpha").value
    n_e = kinematics(trio[0], CONSTANTS, eps, alpha, c).number_density.value
    n_tau = kinematics(trio[2], CONSTANTS, eps, alpha, c).number_density.value
    rel_e = abs(n_e - 1.12e39) / 1.12e39
    rel_tau = abs(n_tau - 4.70e49) / 4.70e49
    _criterion(4, "number densities 1.12e39 (e) and 4.70e49 (tau) within 1%",
               rel_e <= 1e-2 and rel_tau <= 1e-2,
               f"e: {n_e:.4e} ({rel_e:.2%}), tau: {n_tau:.4e} ({rel_tau:.2%})")


def test_criterion_05_reference_deltas():
    report = epsilon0_self_consistent(builtin_species(CONSTANTS), CONSTANTS)
    deltas = report.reference_deltas
    targets = {"epsilon0": -2.8, "c": 1.3, "inv_alpha": -1.4}
    gaps = {key: abs(deltas[key] - target) for key, target in targets.items()}
    _criterion(5, "reference deltas -2.8% / +1.3% / -1.4% within 0.15 pp",
               all(gap <= 0.15 for gap in gaps.values()),
               ", ".join(f"{k}: {deltas[k]:+.3f}%" for k in targets))


def test_criterion_06_quarkonium_bounds():
    quarks = {s.name: s
              for s in builtin_species(CONSTANTS, include_quarks=True, width_choice="max")
              if s.kind == "quarkonium"}
    ref_c = CONSTANTS.get("ref_c")
    e = CONSTANTS.get("e").value
    e2_hbar_c = e * e / (CONSTANTS.get("hbar").value * ref_c.value)
    etac = quarkonium_contribution(quarks["eta_c"], CONSTANTS, ref_c).epsilon_term.value / e2_hbar_c
    etab = quarkonium_contribution(quarks["eta_b"], CONSTANTS, ref_c).epsilon_term.value / e2_hbar_c
    ok_c = 1.3e-3 / 1.5 <= etac <= 1.3e-3 * 1.5
    ok_b = 2.6e-5 / 1.5 <= etab <= 2.6e-5 * 1.5
    _criterion(6, "eta_c ~1.3e-3 and eta_b(max) ~2.6e-5 e^2/(hbar c), factor 1.5",
               ok_c and ok_b, f"eta_c {etac:.4e}, eta_b {etab:.4e}")


def test_criterion_07_quadrature_oracle():
    hbar = CONSTANTS.get("hbar")
    rng = random.Random(7031)
    worst_rel = 0.0
    for _ in range(20):
        spec = OscillatorSpec(
            Quantity(10.0 ** rng.uniform(-31, -25), MASS),
            Quantity(10.0 ** rng.uniform(10, 24), FREQUENCY),
        )
        analytic = matrix_element_x_analytic(spec, hbar).value
        quadrature = matrix_element_x_quadrature(1, 0, spec, hbar).value
        worst_rel = max(worst_rel, abs(quadrature - analytic) / analytic)
    natural = OscillatorSpec(Quantity(1.0, MASS), Quantity(1.0, FREQUENCY))
    hbar_one = Quantity(1.0, ACTION)
    worst_forbidden = 0.0
    for n_prime, n in ((0, 0), (2, 0), (1, 1), (3, 1), (4, 2)):
        element = matrix_element_x_quadrature(n_prime, n, natural, hbar_one).value
        worst_forbidden = max(worst_forbidden, abs(element))
    _criterion(7, "quadrature <x>_{1,0} to 1e-10 over 20 specs; forbidden < 1e-10",
               worst_rel <= 1e-10 and worst_forbidden <= 1e-10,
               f"worst rel {worst_rel:.2e}, worst forbidden {worst_forbidden:.2e}")


def test_criterion_08_ode_oracle():
    worst_gap = 0.0
    worst_leak = 0.0
    for lam_value in (1e-4, 1e-3):
        lam = CouplingLambda(lam_value)
        for tau in (math.pi, 2 * math.pi, 4 * math.pi):
            ode = amplitudes_ode(tau, lam, tolerance=1e-12)
            literal = amplitudes_analytic(tau, lam, BRANCH_LITERAL)
            worst_gap = max(worst_gap, abs(ode.a1 - literal.a1) / (50.0 * lam_value**2))
            worst_leak = max(worst_leak, abs(ode.norm_sq - 1.0))
    _criterion(8, "ODE amplitudes within 50 lam^2 of literal; unitarity 1e-9",
               worst_gap <= 1.0 and worst_leak <= 1e-9,
               f"worst bound fraction {worst_gap:.2e}, worst leak {worst_leak:.2e}")


def test_criterion_09_scaling_exponent():
    exponent = scaling_exponent([1e-4, 3e-4, 1e-3, 3e-3], math.pi)
    _criterion(9, "a0 correction scaling exponent 2.0 +- 0.05",
               abs(exponent - 2.0) <= 0.05, f"exponent {exponent:.4f}")


def test_criterion_10_mass_cancellation_and_fixed_point():
    trio = builtin_species(CONSTANTS)
    ref_c = CONSTANTS.get("ref_c")
    alpha = 1.0 / CONSTANTS.get("ref_inv_alpha").value
    terms = [
        lepton_contribution(s, CONSTANTS, alpha, ref_c).epsilon_term.value for s in trio
    ]
    spread = (max(terms) - min(terms)) / terms[0]
    report = epsilon0_self_consistent(trio, CONSTANTS)
    closed = epsilon0_closed_form(CONSTANTS, n_species=3).value
    fixed_point_rel = abs(report.epsilon0_model.value - closed) / closed
    _criterion(10, "lepton terms equal to 1e-12; "
                   "fixed point = closed form in <= 2 evaluations of F",
               spread <= 1e-12 and fixed_point_rel <= 1e-12 and report.iterations <= 2,
               f"spread {spread:.2e}, fixed-point rel {fixed_point_rel:.2e}, "
               f"iters {report.iterations}")


def test_criterion_11_dipole_time_average():
    e_pair = builtin_species(CONSTANTS)[0]
    osc = resonant_frequency(
        e_pair, CONSTANTS, CONSTANTS.get("ref_epsilon0"), CONSTANTS.get("ref_c")
    )
    q = CONSTANTS.get("e")
    field = Quantity(1.0, ELECTRIC_FIELD)
    hbar = CONSTANTS.get("hbar")
    lam = CouplingLambda(coupling_value(osc, q, field, hbar))
    n = 256
    taus = [2.0 * math.pi * i / n for i in range(n)]
    literal = dipole_trajectory(osc, q, BRANCH_LITERAL, taus, hbar, lam)
    mean = sum(p.value for _, p in literal) / n
    paper = dipole_trajectory(osc, q, BRANCH_PAPER, [0.0], hbar, lam)[0][1].value
    rel = abs(mean - paper) / paper
    _criterion(11, "literal dipole period-average equals paper constant to 1e-10",
               rel <= 1e-10, f"mean {mean:.6e}, constant {paper:.6e}, rel {rel:.2e}")


def test_criterion_12_dimension_audit():
    eps = epsilon0_closed_form(CONSTANTS)
    c = c_from_epsilon(eps, CONSTANTS)
    inv_alpha = inverse_alpha(eps, c, CONSTANTS)
    dims_ok = (
        eps.dim == PERMITTIVITY and c.dim == SPEED and isinstance(inv_alpha, float)
    )
    rng = random.Random(1203)
    n_cases = 1000
    rejected = 0
    for _ in range(n_cases):
        exps_a = [rng.randint(-3, 3) for _ in range(7)]
        exps_b = list(exps_a)
        exps_b[rng.randrange(7)] += rng.choice([-2, -1, 1, 2])
        try:
            q_add(Quantity(1.0, Dimension(tuple(exps_a))),
                  Quantity(1.0, Dimension(tuple(exps_b))))
        except DimensionError:
            rejected += 1
    _criterion(12, "eps0/c/1-alpha dimensions correct; 1000 mismatched adds rejected",
               dims_ok and rejected == n_cases,
               f"dims ok: {dims_ok}, rejected {rejected}/{n_cases}")


def test_criterion_13_wyler_value():
    value = 16.0 * math.pi**3 / 9.0 * (math.factorial(5) / math.pi) ** 0.25
    _criterion(13, "Wyler's number 137.03608 +- 0.00001",
               abs(value - 137.03608) <= 1e-5, f"value {value:.8f}")
