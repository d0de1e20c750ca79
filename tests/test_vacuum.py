import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfdielectric.quantity import (
    CHARGE,
    MASS,
    PERMITTIVITY,
    SPEED,
    OutOfRangeError,
    Quantity,
)
from vfdielectric import vacuum
from vfdielectric.constants import (
    LEPTON_PAIR,
    QUARKONIUM,
    ConstantRecord,
    ConstantsSet,
    build_species,
    species_from_record,
)
from vfdielectric.species import Kinematics, builtin_species, coupling, kinematics
from vfdielectric.vacuum import (
    METHOD_SELF_CONSISTENT,
    AssemblyError,
    c_from_epsilon,
    closed_form_report,
    epsilon0_closed_form,
    epsilon0_self_consistent,
    inverse_alpha,
    lepton_contribution,
    quarkonium_contribution,
    report_from_dict,
    report_to_dict,
)


@pytest.fixture(scope="module")
def ref_c(constants):
    return constants.get("ref_c")


@pytest.fixture(scope="module")
def ref_alpha(constants):
    return 1.0 / constants.get("ref_inv_alpha").value


@pytest.fixture(scope="module")
def trio(constants):
    return builtin_species(constants)


@pytest.fixture(scope="module")
def quark_pair(constants):
    full = builtin_species(constants, include_quarks=True)
    return {s.name: s for s in full[3:]}


def _e2_over_hbar_c(constants, c_value):
    e = constants.get("e").value
    return e * e / (constants.get("hbar").value * c_value)


# --- lepton contribution ------------------------------------------------------


def test_epair_contribution_reference_point(trio, constants, ref_alpha, ref_c):
    contribution = lepton_contribution(trio[0], constants, ref_alpha, ref_c)
    # independent closed coefficient: 8^3 alpha e^2/(hbar c)
    expected = 512.0 * ref_alpha * _e2_over_hbar_c(constants, ref_c.value)
    assert contribution.epsilon_term.dim == PERMITTIVITY
    assert contribution.epsilon_term.value == pytest.approx(expected, rel=1e-12, abs=0)
    assert contribution.epsilon_term.value == pytest.approx(3.03e-12, rel=2e-3, abs=0)
    assert contribution.in_alpha_units == pytest.approx(512.0 * ref_alpha, rel=1e-12)
    assert contribution.in_alpha_units == pytest.approx(3.736, rel=1e-3)


def test_mass_cancellation_across_leptons(trio, constants, ref_alpha, ref_c):
    terms = [
        lepton_contribution(s, constants, ref_alpha, ref_c).epsilon_term.value
        for s in trio
    ]
    assert terms[1] == pytest.approx(terms[0], rel=1e-12, abs=0)
    assert terms[2] == pytest.approx(terms[0], rel=1e-12, abs=0)


def test_mass_cancellation_under_synthetic_scaling(constants, ref_alpha, ref_c):
    base = builtin_species(constants)[0]
    reference = lepton_contribution(base, constants, ref_alpha, ref_c).epsilon_term.value
    for factor in (1e-2, 1.0, 1e3, 1e6):
        scaled = build_species(
            "synthetic_lepton", LEPTON_PAIR, "1",
            {"constituent_mass": Quantity(base.constituent_mass.value * factor, MASS)},
            constants, lambda: "synthetic scaling",
        )
        term = lepton_contribution(scaled, constants, ref_alpha, ref_c).epsilon_term.value
        assert term == pytest.approx(reference, rel=1e-12, abs=0)


def test_lepton_contribution_rejects_quarkonium(quark_pair, constants, ref_alpha, ref_c):
    with pytest.raises(ValueError):
        lepton_contribution(quark_pair["eta_c"], constants, ref_alpha, ref_c)


def test_contribution_invariant_alpha_units(trio, constants, ref_alpha, ref_c):
    contribution = lepton_contribution(trio[0], constants, ref_alpha, ref_c)
    reconstructed = contribution.in_alpha_units * _e2_over_hbar_c(constants, ref_c.value)
    assert contribution.epsilon_term.value == pytest.approx(reconstructed, rel=1e-12, abs=0)


# --- quarkonium contribution -----------------------------------------------------


def test_etac_contribution_order_of_magnitude(quark_pair, constants, ref_c):
    contribution = quarkonium_contribution(quark_pair["eta_c"], constants, ref_c)
    coefficient = contribution.epsilon_term.value / _e2_over_hbar_c(constants, ref_c.value)
    assert 1.3e-3 / 1.5 <= coefficient <= 1.3e-3 * 1.5
    assert contribution.in_alpha_units == pytest.approx(coefficient, rel=1e-12, abs=0)


def _eta_b(constants, width_choice):
    return builtin_species(constants, include_quarks=True, width_choice=width_choice)[-1]


def test_etab_contribution_max_width(constants, ref_c):
    contribution = quarkonium_contribution(_eta_b(constants, "max"), constants, ref_c)
    coefficient = contribution.epsilon_term.value / _e2_over_hbar_c(constants, ref_c.value)
    assert 2.6e-5 / 1.5 <= coefficient <= 2.6e-5 * 1.5


def test_etab_width_choice_scales_linearly(constants, ref_c):
    by_max = quarkonium_contribution(_eta_b(constants, "max"), constants, ref_c)
    by_min = quarkonium_contribution(_eta_b(constants, "min"), constants, ref_c)
    assert by_min.epsilon_term.value / by_max.epsilon_term.value == pytest.approx(
        0.22 / 0.45, rel=1e-12, abs=0
    )


def test_etac_small_against_lepton_total(trio, quark_pair, constants, ref_alpha, ref_c):
    lepton_total = sum(
        lepton_contribution(s, constants, ref_alpha, ref_c).epsilon_term.value
        for s in trio
    )
    etac = quarkonium_contribution(quark_pair["eta_c"], constants, ref_c)
    ratio = etac.epsilon_term.value / lepton_total
    assert ratio == pytest.approx(1e-4, rel=0.5)  # "about 1e-4 times smaller"


def test_quarkonium_contribution_rejects_lepton(trio, constants, ref_c):
    with pytest.raises(ValueError):
        quarkonium_contribution(trio[0], constants, ref_c)


_ETA_C_RECORD = {
    "kind": "species", "name": "eta_c_file", "type": "quarkonium", "charge_fraction": "2/3",
    "constituent_mass": {"value": 1.5, "unit": "GeV"},
    "bound_state_mass": {"value": 3.1, "unit": "GeV"},
    "two_photon_width": {"value": 5.0, "unit": "keV"},
}


@pytest.mark.parametrize("name, width", [
    ("eta_c", "min"), ("eta_c", "max"), ("eta_b", "min"), ("eta_b", "max"), ("file", None),
])
def test_quarkonium_term_equals_the_species_table_route(constants, ref_alpha, ref_c, name, width):
    # the solver's closed density 8 c (M/hbar)^2 Gamma against the table's n Gamma dt
    if name == "file":
        s = species_from_record(_ETA_C_RECORD, constants)
    else:
        full = builtin_species(constants, include_quarks=True, width_choice=width)
        s = {q.name: q for q in full}[name]
    k = kinematics(s, constants, coupling((s,), constants, constants.get("ref_epsilon0"), ref_alpha, ref_c))
    q = s.charge.value
    polarizability = q * q / s.reduced_mass.value / k.omega0.value**2
    expected = k.interacting_density.value * polarizability
    term = quarkonium_contribution(s, constants, ref_c).epsilon_term.value
    assert term == pytest.approx(expected, rel=1e-14, abs=0)


# --- closed form ------------------------------------------------------------------


def test_closed_form_paper_value(constants):
    eps = epsilon0_closed_form(constants, n_species=3)
    assert eps.dim == PERMITTIVITY
    assert eps.value == pytest.approx(9.10e-12, rel=3e-3, abs=0)


def test_closed_form_matches_six_mu0_over_pi_form(constants):
    eps = epsilon0_closed_form(constants, n_species=3)
    e = constants.get("e").value
    hbar = constants.get("hbar").value
    explicit = (6.0 * constants.get("mu0").value / math.pi) * (8.0 * e * e / hbar) ** 2
    assert eps.value == pytest.approx(explicit, rel=1e-14, abs=0)


def test_closed_form_linear_in_species_count(constants):
    one = epsilon0_closed_form(constants, n_species=1)
    three = epsilon0_closed_form(constants, n_species=3)
    assert one.value == pytest.approx(three.value / 3.0, rel=1e-14, abs=0)


def test_closed_form_needs_at_least_one_species(constants):
    with pytest.raises(ValueError):
        epsilon0_closed_form(constants, n_species=0)


# --- derived outputs ---------------------------------------------------------------


def test_speed_of_light_paper_value(constants):
    c = c_from_epsilon(epsilon0_closed_form(constants), constants)
    assert c.dim == SPEED
    assert c.value == pytest.approx(2.96e8, rel=2e-3)


def test_speed_of_light_reference_consistency(constants):
    c = c_from_epsilon(constants.get("ref_epsilon0"), constants)
    assert c.value == pytest.approx(constants.get("ref_c").value, rel=1e-9)


def test_speed_algebraic_identity(constants):
    # 1/sqrt(mu0 (6 mu0/pi)(8 e^2/hbar)^2) == sqrt(pi/6) hbar/(8 e^2 mu0)
    c = c_from_epsilon(epsilon0_closed_form(constants), constants)
    e = constants.get("e").value
    hbar = constants.get("hbar").value
    mu0 = constants.get("mu0").value
    explicit = math.sqrt(math.pi / 6.0) * hbar / (8.0 * e * e * mu0)
    assert c.value == pytest.approx(explicit, rel=1e-12)


def test_inverse_alpha_model_value(constants):
    eps = epsilon0_closed_form(constants)
    c = c_from_epsilon(eps, constants)
    model = inverse_alpha(eps, c, constants)
    assert model == pytest.approx(64.0 * math.sqrt(3.0 * math.pi / 2.0), rel=1e-12)
    assert model == pytest.approx(138.93, abs=0.01)


def test_inverse_alpha_from_reference_values(constants):
    value = inverse_alpha(
        constants.get("ref_epsilon0"), constants.get("ref_c"), constants
    )
    assert value == pytest.approx(137.036, abs=0.001)


# --- self-consistent solver -----------------------------------------------------


def test_lepton_only_fixed_point_equals_closed_form(trio, constants):
    report = epsilon0_self_consistent(trio, constants)
    closed = epsilon0_closed_form(constants, n_species=3)
    assert report.epsilon0_model.value == pytest.approx(closed.value, rel=1e-12, abs=0)
    assert report.iterations <= 2
    assert report.method == METHOD_SELF_CONSISTENT


def test_quark_terms_shift_epsilon_by_1p2e_minus_4(constants):
    lepton_report = epsilon0_self_consistent(builtin_species(constants), constants)
    full_report = epsilon0_self_consistent(
        builtin_species(constants, include_quarks=True), constants
    )
    shift = (
        full_report.epsilon0_model.value - lepton_report.epsilon0_model.value
    ) / lepton_report.epsilon0_model.value

    # independent estimate: quark coefficients over the lepton total, evaluated
    # at the model's own alpha and c
    c_model = full_report.c_model
    quark_sum = sum(
        contribution.epsilon_term.value
        for contribution in full_report.contributions
        if contribution.species_name.startswith("eta_")
    )
    alpha_model = 1.0 / full_report.inv_alpha_model
    expected = quark_sum / (
        3.0 * 512.0 * alpha_model * _e2_over_hbar_c(constants, c_model.value)
    )
    assert shift == pytest.approx(expected, rel=1e-3)
    assert shift == pytest.approx(1.2e-4, rel=0.1)


def test_self_consistent_converges_quickly_with_quarks(constants):
    report = epsilon0_self_consistent(
        builtin_species(constants, include_quarks=True), constants
    )
    assert report.iterations == 2


def _with_widths_scaled(constants, scale):
    """The built-in species, quarks included, with every two-photon width times ``scale``."""
    species = builtin_species(constants, include_quarks=True)
    return species[:3] + tuple(
        build_species(s.name, s.kind, {"eta_c": "2/3", "eta_b": "1/3"}[s.name],
                      {"constituent_mass": s.constituent_mass, "bound_state_mass": s.bound_state_mass,
                       "two_photon_width": s.two_photon_width * scale, "e_min": s.e_min},
                      constants, lambda: f"widths times {scale}")
        for s in species[3:]
    )


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6, 1e20, 1e50])
def test_self_consistent_converges_undamped_at_any_quark_weight(constants, scale):
    # the root of the cubic is one solve away from the seed, even where the
    # quark terms dominate: F at it lands within the stopping rule
    tol = 1e-13  # the solver's own stopping rule
    report = epsilon0_self_consistent(_with_widths_scaled(constants, scale), constants)
    eps = report.epsilon0_model.value
    f_of_eps = math.fsum(c.epsilon_term.value for c in report.contributions)
    assert abs(f_of_eps - eps) <= tol * eps
    assert report.iterations == 2


def test_self_consistent_requires_a_lepton(quark_pair, constants):
    with pytest.raises(ValueError):
        epsilon0_self_consistent(tuple(quark_pair.values()), constants)


def test_quark_solve_evaluates_each_term_twice(constants, monkeypatch):
    # F at the seed and F at the cubic's root, whatever the quark weight: at
    # x1e50 the reference seed is 31 decades below the fixed point; each
    # lepton term takes one kinematics pass, and a quarkonium term none
    calls, passes = [], []
    term, original = vacuum._contribution, vacuum.kinematics

    def counting_term(species, constants, step):
        calls.append(species.name)
        return term(species, constants, step)

    def counting_pass(species, *args):
        passes.append(species.name)
        return original(species, *args)

    monkeypatch.setattr(vacuum, "_contribution", counting_term)
    monkeypatch.setattr(vacuum, "kinematics", counting_pass)
    names = ["e_pair", "mu_pair", "tau_pair", "eta_c", "eta_b"]
    for scale in (1.0, 1e6, 1e50):
        calls.clear()
        passes.clear()
        report = epsilon0_self_consistent(_with_widths_scaled(constants, scale), constants)
        assert calls == names * 2, scale
        assert passes == names[:3] * 2, scale
        assert report.iterations == 2


def test_fixed_point_miss_is_a_program_fault(constants, monkeypatch):
    # the second evaluation of F must land on the root it was evaluated at
    monkeypatch.setattr(vacuum, "_cubic_root", lambda l, a: 1.0)
    with pytest.raises(AssemblyError, match="^F at the solved fixed point "):
        epsilon0_self_consistent(builtin_species(constants, include_quarks=True), constants)


def test_fixed_point_miss_of_2e_10_fails_the_stopping_rule(constants, monkeypatch):
    # the real 1e-13 bound: a cubic root 1e-10 relative high puts the iterate
    # 2e-10 off the fixed point, and F at it misses it by about that much
    species = builtin_species(constants, include_quarks=True)
    cubic_root = vacuum._cubic_root
    monkeypatch.setattr(vacuum, "_cubic_root", lambda l, a: cubic_root(l, a) * (1 + 1e-10))
    with pytest.raises(AssemblyError) as error:
        epsilon0_self_consistent(species, constants)
    seed = constants.get("ref_epsilon0")
    l, a = _lepton_and_quark_sums(species, _replayed_terms(species, constants, seed), seed)
    u = cubic_root(l, a) * (1 + 1e-10)
    eps = seed * (u * u)
    total = _left_to_right(_replayed_terms(species, constants, eps))
    assert 1e-11 < abs(total.value - eps.value) / eps.value < 1e-9
    assert str(error.value) == (
        f"F at the solved fixed point {eps.value!r} is {total.value!r}, not within 1e-13 of it"
    )


def test_monotonicity_of_quark_additions(constants):
    # more polarizable species: eps0 strictly up, c strictly down, coupling
    # strictly up (1/alpha grows with sqrt(eps0))
    lepton_report = epsilon0_self_consistent(builtin_species(constants), constants)
    full_report = epsilon0_self_consistent(
        builtin_species(constants, include_quarks=True), constants
    )
    assert full_report.epsilon0_model.value > lepton_report.epsilon0_model.value
    assert full_report.c_model.value < lepton_report.c_model.value
    assert full_report.inv_alpha_model > lepton_report.inv_alpha_model


def test_lepton_solve_evaluates_each_term_once_per_iteration(trio, constants, monkeypatch):
    # one kinematics pass per lepton term; no evaluation after convergence
    species_seen = []
    original = vacuum.kinematics

    def counting(species, *args):
        species_seen.append(species.name)
        return original(species, *args)

    monkeypatch.setattr(vacuum, "kinematics", counting)
    report = epsilon0_self_consistent(trio, constants)
    assert report.iterations == 2
    assert species_seen == ["e_pair", "mu_pair", "tau_pair"] * report.iterations


@pytest.mark.parametrize("include_quarks", [False, True])
def test_each_evaluation_shares_alpha_fifth_and_the_binding_denominator(
    constants, monkeypatch, include_quarks
):
    # alpha^5 and 2 (4 pi eps)^2 hbar^2 once per evaluation of F, not once per
    # lepton term: one coupling per evaluation, and each lepton pass gets the
    # evaluation's own
    species = builtin_species(constants, include_quarks)
    couplings, shared = [], []
    original_coupling, original_kinematics = vacuum.coupling, vacuum.kinematics

    def counting_coupling(*args):
        couplings.append(original_coupling(*args))
        return couplings[-1]

    def recording_pass(s, constants, coupling):
        shared.append(coupling)
        return original_kinematics(s, constants, coupling)

    monkeypatch.setattr(vacuum, "coupling", counting_coupling)
    monkeypatch.setattr(vacuum, "kinematics", recording_pass)
    report = epsilon0_self_consistent(species, constants)
    assert report.iterations == 2
    assert len(couplings) == 2
    assert all(c.alpha5 is not None and c.denominator is not None for c in couplings)
    assert [id(c) for c in shared] == [id(couplings[0])] * 3 + [id(couplings[1])] * 3


@pytest.mark.parametrize("include_quarks", [False, True])
def test_route_cross_check_runs_for_every_lepton_at_every_step(
    constants, monkeypatch, include_quarks
):
    species = builtin_species(constants, include_quarks=include_quarks)
    checks = []

    class CountingTolerance(float):
        def __mul__(self, other):
            checks.append(other)
            return float(self) * other

    monkeypatch.setattr(vacuum, "_ROUTE_AGREEMENT_TOL", CountingTolerance(1e-12))
    report = epsilon0_self_consistent(species, constants)
    assert len(checks) == 3 * report.iterations


def test_route_cross_check_failure_stops_the_solve(trio, constants, monkeypatch):
    monkeypatch.setattr(vacuum, "_ROUTE_AGREEMENT_TOL", -1.0)
    with pytest.raises(AssemblyError, match="^e_pair: composed term"):
        epsilon0_self_consistent(trio, constants)


def _mu_pair_density_off(monkeypatch, off):
    """Make mu_pair's kinematics pass return its interacting density ``off``
    relative high; the list returned collects its true passes."""
    original, passes = vacuum.kinematics, []

    def off_pass(species, *args):
        k = original(species, *args)
        if species.name != "mu_pair":
            return k
        passes.append(k)
        fields = list(vars(k).values())
        return Kinematics(*fields[:-1], k.interacting_density * (1 + off))

    monkeypatch.setattr(vacuum, "kinematics", off_pass)
    return passes


def test_route_cross_check_catches_a_term_1e_9_off(trio, constants, monkeypatch):
    # the real 1e-12 bound: mu_pair's interacting density 1e-9 relative high
    # puts its composed term 1e-9 off the closed coefficient at the seed
    passes = _mu_pair_density_off(monkeypatch, 1e-9)
    with pytest.raises(AssemblyError) as error:
        epsilon0_self_consistent(trio, constants)
    # the term and the coefficient in float arithmetic, in the solver's order
    omega0, n_vf = passes[0].omega0.value, passes[0].interacting_density.value
    e, hbar = constants.get("e").value, constants.get("hbar").value
    seed = constants.get("ref_epsilon0")
    c = c_from_epsilon(seed, constants)
    alpha = vacuum._alpha(constants.get("e") * constants.get("e"), constants.get("hbar"), seed, c)
    term = (n_vf * (1 + 1e-9)) * (e * e / trio[1].reduced_mass.value / (omega0 * omega0))
    closed = e * e / (hbar * c.value) * (512.0 * alpha)
    assert len(passes) == 1
    assert 5e-10 < abs(term - closed) / closed < 2e-9
    assert str(error.value) == (
        f"mu_pair: composed term {term!r} disagrees with closed coefficient {closed!r}"
    )


@pytest.mark.parametrize("off, fails", [(3e-12, True), (3e-13, False)],
                         ids=["3e-12-off-fails", "3e-13-off-solves"])
def test_route_cross_check_holds_at_its_1e_12_bound(trio, constants, monkeypatch, off, fails):
    # a term 1e-9 off says only that the bound is below 1e-9; these two pin it
    # between 3e-13 and 3e-12, so a bound of 1e-10 or of 1e-13 fails one of them
    _mu_pair_density_off(monkeypatch, off)
    if fails:
        with pytest.raises(AssemblyError, match="^mu_pair: composed term "):
            epsilon0_self_consistent(trio, constants)
    else:
        assert epsilon0_self_consistent(trio, constants).iterations == 2


def test_a_solve_halves_no_mass_and_scales_no_charge(constants, monkeypatch):
    # a species is built with its reduced mass m/2 and charge e n/d, which the
    # solve once derived again, twice per lepton term of each evaluation of F
    species = builtin_species(constants, include_quarks=True)
    products, multiply = [], Quantity.__mul__

    def recording(self, other):
        if isinstance(other, (int, float)):
            products.append((self.dim, other))
        return multiply(self, other)

    monkeypatch.setattr(Quantity, "__mul__", recording)
    monkeypatch.setattr(Quantity, "__rmul__", recording)
    assert epsilon0_self_consistent(species, constants).iterations == 2
    assert products  # the scalar products are seen, and none is of a mass or a charge
    assert [(str(d), x) for d, x in products if d in (MASS, CHARGE)] == []


@pytest.mark.parametrize("include_quarks", [False, True])
def test_contributions_sum_left_to_right_to_epsilon0(constants, include_quarks):
    report = epsilon0_self_consistent(
        builtin_species(constants, include_quarks=include_quarks), constants
    )
    total = report.contributions[0].epsilon_term.value
    for contribution in report.contributions[1:]:
        total += contribution.epsilon_term.value
    assert total == report.epsilon0_model.value


@pytest.mark.parametrize("include_quarks", [False, True])
def test_public_contributions_replay_the_solver_bit_for_bit(constants, include_quarks):
    # the solve rebuilt from the public per-species functions reaches the
    # solver's epsilon0 and its last evaluation's terms, bit for bit
    species = builtin_species(constants, include_quarks=include_quarks)
    report = epsilon0_self_consistent(species, constants)
    seed = constants.get("ref_epsilon0")
    terms = _replayed_terms(species, constants, seed)
    if include_quarks:
        u = vacuum._cubic_root(*_lepton_and_quark_sums(species, terms, seed))
        eps = seed * (u * u)
    else:
        eps = _left_to_right(terms)
    terms = _replayed_terms(species, constants, eps)
    assert report.iterations == 2
    assert terms == report.contributions
    assert _left_to_right(terms) == report.epsilon0_model


def _replayed_terms(species, constants, eps):
    """F's terms at ``eps``, from the public per-species functions."""
    e2, hbar = constants.get("e") * constants.get("e"), constants.get("hbar")
    c = c_from_epsilon(eps, constants)
    alpha = vacuum._alpha(e2, hbar, eps, c)
    return tuple(
        lepton_contribution(s, constants, alpha, c) if s.kind == LEPTON_PAIR
        else quarkonium_contribution(s, constants, c)
        for s in species
    )


def _left_to_right(terms):
    out = terms[0].epsilon_term
    for term in terms[1:]:
        out = out + term.epsilon_term
    return out


def _lepton_and_quark_sums(species, terms, seed):
    """The cubic's ``l`` and ``a``: the lepton and quarkonium sums over ``seed``."""
    return tuple(
        _left_to_right([t for s, t in zip(species, terms) if s.kind == kind]).value / seed.value
        for kind in (LEPTON_PAIR, QUARKONIUM)
    )


# --- reports -----------------------------------------------------------------------


def test_report_internal_invariants(constants):
    for report in (
        closed_form_report(constants),
        epsilon0_self_consistent(builtin_species(constants, include_quarks=True), constants),
    ):
        mu0 = constants.get("mu0").value
        expected_c = 1.0 / math.sqrt(mu0 * report.epsilon0_model.value)
        assert report.c_model.value == pytest.approx(expected_c, rel=1e-12)
        e = constants.get("e").value
        expected_inv_alpha = (
            4.0 * math.pi * report.epsilon0_model.value
            * constants.get("hbar").value * report.c_model.value / (e * e)
        )
        assert report.inv_alpha_model == pytest.approx(expected_inv_alpha, rel=1e-12)


def test_reference_deltas_match_paper(constants, trio):
    report = epsilon0_self_consistent(trio, constants)
    deltas = report.reference_deltas
    assert deltas["epsilon0"] == pytest.approx(-2.8, abs=0.1)
    assert deltas["c"] == pytest.approx(1.3, abs=0.1)
    assert deltas["inv_alpha"] == pytest.approx(-1.4, abs=0.1)


def test_report_dict_round_trip(constants):
    report = epsilon0_self_consistent(
        builtin_species(constants, include_quarks=True), constants
    )
    payload = json.loads(json.dumps(report_to_dict(report, constants)))
    again = report_from_dict(payload)
    assert again.epsilon0_model == report.epsilon0_model
    assert again.c_model == report.c_model
    assert again.inv_alpha_model == report.inv_alpha_model
    assert again.method == report.method
    assert again.iterations == report.iterations
    assert again.reference_deltas == report.reference_deltas
    assert again.contributions == report.contributions


@pytest.mark.parametrize("n_species", [1, 3])
def test_closed_form_report_holds_what_predict_reads(constants, n_species):
    # predict prints the closed form's epsilon0, c, 1/alpha and deltas; the
    # report builds no per-species terms
    report = closed_form_report(constants, n_species)
    eps = epsilon0_closed_form(constants, n_species)
    c = c_from_epsilon(eps, constants)
    inv_alpha = inverse_alpha(eps, c, constants)
    assert (report.epsilon0_model, report.c_model, report.inv_alpha_model) == (eps, c, inv_alpha)
    assert report.contributions == ()
    assert report.reference_deltas == {
        "epsilon0": (constants.get("ref_epsilon0").value - eps.value) / eps.value * 100.0,
        "c": (constants.get("ref_c").value - c.value) / c.value * 100.0,
        "inv_alpha": (constants.get("ref_inv_alpha").value - inv_alpha) / inv_alpha * 100.0,
    }


def _in_float_range(x):
    return x == 0 or sys.float_info.min <= abs(x) <= sys.float_info.max


# a reference past the model by ~1e310 once gave a plain-float delta of inf,
# printed as Infinity with exit 0
@settings(max_examples=200)
@given(st.lists(st.floats(-320.0, 308.0), min_size=3, max_size=3))
def test_reference_deltas_keep_the_float_bits_or_raise(constants, exponents):
    records = dict(constants.records)
    for key, exponent in zip(("ref_epsilon0", "ref_c", "ref_inv_alpha"), exponents):
        old, value = records[key], 10.0**exponent
        if value == 0:
            continue
        records[key] = ConstantRecord(key, Quantity(value, old.quantity.dim), "", value, old.file_unit)
    changed = ConstantsSet(records, "scaled references")
    eps = epsilon0_closed_form(changed)
    c = c_from_epsilon(eps, changed)
    models = {"epsilon0": eps.value, "c": c.value, "inv_alpha": inverse_alpha(eps, c, changed)}
    expected, in_range = {}, True
    for key, model in models.items():
        difference = changed.get(f"ref_{key}").value - model
        ratio = difference / model
        expected[key] = ratio * 100.0
        in_range = in_range and all(map(_in_float_range, (difference, ratio, expected[key])))
    if in_range:
        deltas = closed_form_report(changed).reference_deltas
        assert [d.hex() for d in deltas.values()] == [d.hex() for d in expected.values()]
    else:
        with pytest.raises(OutOfRangeError):
            closed_form_report(changed)
