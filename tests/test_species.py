import math
from fractions import Fraction

import pytest

from vfdielectric import constants as constants_module
from vfdielectric.quantity import (
    ENERGY,
    FREQUENCY,
    LENGTH,
    MASS,
    NUMBER_DENSITY,
    SPEED,
    TIME,
    DimensionError,
    OutOfRangeError,
    Quantity,
    dim,
)
from vfdielectric.constants import (
    LEPTON_PAIR,
    QUARKONIUM,
    ConstantRecord,
    ConstantsError,
    ConstantsSet,
    UnsupportedSpeciesError,
    build_species,
    species_from_record,
)
from vfdielectric.species import (
    builtin_species,
    charge,
    coupling,
    interacting_density,
    kinematics,
    load_species,
    resonant_frequency,
)


@pytest.fixture(scope="module")
def ref_c(constants):
    return constants.get("ref_c")


@pytest.fixture(scope="module")
def ref_eps(constants):
    return constants.get("ref_epsilon0")


@pytest.fixture(scope="module")
def ref_alpha(constants):
    return 1.0 / constants.get("ref_inv_alpha").value


@pytest.fixture(scope="module")
def trio(constants):
    return builtin_species(constants)


@pytest.fixture(scope="module")
def quarks(constants):
    lepton_trio = builtin_species(constants, include_quarks=True)
    return {s.name: s for s in lepton_trio if s.kind == QUARKONIUM}


@pytest.fixture(scope="module")
def at_ref(constants, ref_eps, ref_alpha):
    """The kinematics pass of a species at the reference eps and alpha, and ``c``."""
    def pass_at(species, c):
        return kinematics(species, constants, coupling((species,), constants, ref_eps, ref_alpha, c))
    return pass_at


def _binding_energy(species, constants, epsilon):
    """The Coulomb binding energy ``-hbar omega0`` behind a lepton pair's oscillator."""
    omega0 = resonant_frequency(species, constants, epsilon, constants.get("ref_c")).omega0
    return -omega0.value * constants.get("hbar").value


# --- lifetimes, lengths, densities -----------------------------------------


def test_epair_lifetime(trio, constants, ref_c, at_ref):
    # independent plain-float oracle: hbar / (4 m_e c^2)
    expected = constants.get("hbar").value / (
        4.0 * constants.get("m_e").value * constants.get("ref_c").value ** 2
    )
    lifetime = at_ref(trio[0], ref_c).lifetime
    assert lifetime.dim == TIME
    assert lifetime.value == pytest.approx(expected, rel=1e-14, abs=0)
    assert lifetime.value == pytest.approx(3.2202e-22, rel=1e-4, abs=0)


def test_tau_lifetime_scales_inversely_with_mass(trio, constants, ref_c, at_ref):
    e_pair, _, tau_pair = trio
    ratio = constants.get("m_e").value / constants.get("m_tau").value
    expected = at_ref(e_pair, ref_c).lifetime.value * ratio
    assert at_ref(tau_pair, ref_c).lifetime.value == pytest.approx(expected, rel=1e-14, abs=0)


def test_etac_lifetime(quarks, constants, ref_c, at_ref):
    # hbar / (2 M c^2) with the bound-state rest energy 2.98 GeV
    expected = constants.get("hbar").value / (2.0 * constants.get("m_etac").value)
    lifetime = at_ref(quarks["eta_c"], ref_c).lifetime
    assert lifetime.value == pytest.approx(expected, rel=1e-12, abs=0)
    assert lifetime.value == pytest.approx(1.104e-25, rel=1e-3, abs=0)


def test_epair_coherence_length(trio, ref_c, at_ref):
    length = at_ref(trio[0], ref_c).coherence_length
    assert length.dim == LENGTH
    assert length.value == pytest.approx(9.654e-14, rel=1e-4, abs=0)


def test_coherence_length_scales_as_inverse_c(trio, ref_c, at_ref):
    # L = hbar/(4 m c): doubling c halves the lifetime and halves L
    doubled = Quantity(2.0 * ref_c.value, ref_c.dim)
    base = at_ref(trio[0], ref_c).coherence_length.value
    assert at_ref(trio[0], doubled).coherence_length.value == pytest.approx(
        base / 2.0, rel=1e-14, abs=0
    )


def test_mu_pair_length_mass_ratio(trio, constants, ref_c, at_ref):
    e_pair, mu_pair, _ = trio
    ratio = constants.get("m_e").value / constants.get("m_mu").value
    expected = at_ref(e_pair, ref_c).coherence_length.value * ratio
    assert at_ref(mu_pair, ref_c).coherence_length.value == pytest.approx(expected, rel=1e-14, abs=0)


def test_number_density_epair_paper_value(trio, ref_c, at_ref):
    density = at_ref(trio[0], ref_c).number_density
    assert density.dim == NUMBER_DENSITY
    assert density.value == pytest.approx(1.12e39, rel=1e-2)


def test_number_density_tau_paper_value(trio, ref_c, at_ref):
    assert at_ref(trio[2], ref_c).number_density.value == pytest.approx(4.70e49, rel=1e-2)


def test_number_density_cubic_mass_scaling(trio, ref_c, at_ref):
    e_pair, mu_pair, tau_pair = trio
    n_e = at_ref(e_pair, ref_c).number_density.value
    for other in (mu_pair, tau_pair):
        mass_ratio = other.constituent_mass.value / e_pair.constituent_mass.value
        expected = n_e * mass_ratio**3
        assert at_ref(other, ref_c).number_density.value == pytest.approx(
            expected, rel=1e-12
        )


def test_lifetime_rejects_non_speed_c(trio, at_ref):
    with pytest.raises(DimensionError):
        at_ref(trio[0], Quantity(1.0, LENGTH))


# --- binding energy and oscillator parameters -------------------------------


def test_epair_binding_energy_half_hydrogen(trio, constants, ref_c, ref_eps):
    # oracle: hydrogen 1s energy with reduced mass m_e, halved by the m_e/2
    # reduced-mass substitution
    e = constants.get("e").value
    hbar = constants.get("hbar").value
    hydrogen = -constants.get("m_e").value * e**4 / (
        2.0 * (4.0 * math.pi * ref_eps.value) ** 2 * hbar**2
    )
    expected = hydrogen / 2.0
    bound = _binding_energy(trio[0], constants, ref_eps)
    assert bound == pytest.approx(expected, rel=1e-14, abs=0)
    assert bound / e == pytest.approx(-6.80, rel=2e-3)  # eV


def test_binding_energy_proportional_to_reduced_mass(trio, constants, ref_c, ref_eps):
    e_pair, mu_pair, _ = trio
    ratio = constants.get("m_mu").value / constants.get("m_e").value
    expected = _binding_energy(e_pair, constants, ref_eps) * ratio
    assert _binding_energy(mu_pair, constants, ref_eps) == pytest.approx(
        expected, rel=1e-14, abs=0
    )


def test_binding_energy_two_forms_agree(trio, constants, ref_c, ref_eps):
    # -(mu q^4)/(2 (4 pi eps)^2 hbar^2) == -m alpha^2 c^2 / 4 with the alpha
    # consistent with eps and c
    e = constants.get("e").value
    hbar = constants.get("hbar").value
    alpha = e**2 / (4.0 * math.pi * ref_eps.value * hbar * ref_c.value)
    alpha_form = -constants.get("m_e").value * alpha**2 * ref_c.value**2 / 4.0
    eps_form = _binding_energy(trio[0], constants, ref_eps)
    assert eps_form == pytest.approx(alpha_form, rel=1e-12, abs=0)


def test_epair_resonant_frequency(trio, constants, ref_c, ref_eps):
    # oracle: half the hydrogen 1s binding energy over hbar
    e = constants.get("e").value
    hbar = constants.get("hbar").value
    expected = constants.get("m_e").value * e**4 / (
        4.0 * (4.0 * math.pi * ref_eps.value) ** 2 * hbar**3
    )
    osc = resonant_frequency(trio[0], constants, ref_eps, ref_c)
    assert osc.omega0.value == pytest.approx(expected, rel=1e-14)
    assert osc.omega0.value == pytest.approx(1.03e16, rel=5e-3)
    assert osc.reduced_mass.value == trio[0].constituent_mass.value / 2.0


def test_etac_resonant_frequency_from_e_min(quarks, constants, ref_c, ref_eps):
    # omega0 = E_min/hbar with E_min = (2.98 - 2*1.27) GeV = 0.44 GeV
    osc = resonant_frequency(quarks["eta_c"], constants, ref_eps, ref_c)
    e_min = constants.get("m_etac").value - 2.0 * constants.get("m_c").value
    assert osc.omega0.value == pytest.approx(e_min / constants.get("hbar").value, rel=1e-12)
    assert osc.omega0.value == pytest.approx(6.7e23, rel=3e-3)


def test_resonant_frequency_linear_in_lepton_mass(trio, constants, ref_c, ref_eps):
    e_pair, mu_pair, _ = trio
    w_e = resonant_frequency(e_pair, constants, ref_eps, ref_c).omega0.value
    w_mu = resonant_frequency(mu_pair, constants, ref_eps, ref_c).omega0.value
    ratio = constants.get("m_mu").value / constants.get("m_e").value
    assert w_mu / w_e == pytest.approx(ratio, rel=1e-12)


# --- decay rates and interacting densities ----------------------------------


def test_epair_decay_rate(trio, constants, ref_c, ref_alpha, at_ref):
    expected = (
        ref_alpha**5
        * constants.get("m_e").value
        * ref_c.value**2
        / constants.get("hbar").value
    )
    rate = at_ref(trio[0], ref_c).decay_rate
    assert rate.dim == FREQUENCY
    assert rate.value == pytest.approx(expected, rel=1e-14)
    assert rate.value == pytest.approx(1.61e10, rel=3e-3)


def test_etac_decay_rate_doubles_two_photon_width(quarks, ref_c, at_ref):
    rate = at_ref(quarks["eta_c"], ref_c).decay_rate
    assert rate.value == pytest.approx(2.0 * 7.69e18, rel=1e-12)


def test_lepton_rate_is_twice_the_two_photon_rate(trio, constants, ref_c, ref_alpha, at_ref):
    # the single-photon rate halved recovers the ordinary two-photon rate
    rate = at_ref(trio[0], ref_c).decay_rate.value
    two_photon = (
        ref_alpha**5 * constants.get("m_e").value * ref_c.value**2
        / (2.0 * constants.get("hbar").value)
    )
    assert rate / 2.0 == pytest.approx(two_photon, rel=1e-14)


def test_interacting_density_linearized_closed_form(trio, constants, ref_c, ref_alpha):
    # (alpha^5/4) (4 m c / hbar)^3, written independently
    m_e = constants.get("m_e").value
    hbar = constants.get("hbar").value
    expected = (ref_alpha**5 / 4.0) * (4.0 * m_e * ref_c.value / hbar) ** 3
    n = interacting_density(trio[0], constants, ref_alpha, ref_c, mode="linearized")
    assert n.dim == NUMBER_DENSITY
    assert n.value == pytest.approx(expected, rel=1e-12)
    assert n.value == pytest.approx(5.75e27, rel=1e-3)


def test_interacting_density_exact_vs_linearized_taylor_remainder(
    trio, constants, ref_c, ref_alpha
):
    gamma_dt = ref_alpha**5 / 4.0
    linearized = interacting_density(trio[0], constants, ref_alpha, ref_c, "linearized")
    exact = interacting_density(trio[0], constants, ref_alpha, ref_c, "exact")
    rel_gap = (linearized.value - exact.value) / linearized.value
    assert rel_gap == pytest.approx(gamma_dt / 2.0, rel=1e-2, abs=0)


def test_interacting_density_saturates_at_number_density(constants, ref_c, ref_alpha, at_ref):
    # a fictitious quarkonium with an enormous width: absorption probability -> 1
    saturated = build_species(
        "synthetic_qq", QUARKONIUM, Fraction(2, 3),
        {"constituent_mass": Quantity(1e-27, MASS), "bound_state_mass": Quantity(3e-27, MASS),
         "two_photon_width": Quantity(1e40, FREQUENCY), "e_min": Quantity(1e-11, dim(kg=1, m=2, s=-2))},
        constants, _unused_label,
    )
    exact = interacting_density(saturated, constants, ref_alpha, ref_c, "exact")
    total = at_ref(saturated, ref_c).number_density
    assert exact.value == pytest.approx(total.value, rel=1e-12)


def test_gamma_dt_small_for_all_leptons(trio, ref_c, at_ref):
    for species in trio:
        k = at_ref(species, ref_c)
        assert k.decay_rate.value * k.lifetime.value < 1e-10


def test_interacting_density_identity_lepton(trio, constants, ref_c, ref_alpha, at_ref):
    # (1/L^3) Gamma dt equals the closed form for every lepton species
    for species in trio:
        k = at_ref(species, ref_c)
        composed = k.number_density.value * k.decay_rate.value * k.lifetime.value
        closed = (ref_alpha**5 / 4.0) * (
            4.0 * species.constituent_mass.value * ref_c.value / constants.get("hbar").value
        ) ** 3
        assert composed == pytest.approx(closed, rel=1e-12)
    # interacting_density and the pass run one chain: the same bits for every
    # built-in species under both widths
    for width in ("min", "max"):
        for species in builtin_species(constants, include_quarks=True, width_choice=width):
            linearized = interacting_density(species, constants, ref_alpha, ref_c, "linearized")
            passed = at_ref(species, ref_c).interacting_density
            assert linearized.value.hex() == passed.value.hex(), (width, species.name)


def test_interacting_density_mode_validation(trio, constants, ref_c, ref_alpha):
    with pytest.raises(ValueError):
        interacting_density(trio[0], constants, ref_alpha, ref_c, mode="quadratic")


# --- species construction ---------------------------------------------------


def test_builtin_trio_names_and_kinds(trio):
    assert [s.name for s in trio] == ["e_pair", "mu_pair", "tau_pair"]
    assert all(s.kind == LEPTON_PAIR for s in trio)
    assert all(s.charge_ratio == (1, 1) for s in trio)


def test_builtin_quark_charges(quarks):
    assert quarks["eta_c"].charge_ratio == (2, 3)
    assert quarks["eta_b"].charge_ratio == (1, 3)


def test_a_species_reads_its_charge_fraction_once(constants, monkeypatch):
    reads = []
    real = constants_module.charge_ratio

    def counting(charge_fraction):
        reads.append(charge_fraction)
        return real(charge_fraction)

    monkeypatch.setattr(constants_module, "charge_ratio", counting)
    e_pair, _, _, eta_c, _ = builtin_species(constants, include_quarks=True)
    assert reads == [1, 1, 1, "2/3", "1/3"]  # one read per species
    assert eta_c.charge_ratio == (2, 3)
    reads.clear()
    q = charge(eta_c, constants)  # takes the ratio the spec keeps
    # so does a lepton pair's binding energy, whose q^4 is charge's
    resonant_frequency(e_pair, constants, constants.get("ref_epsilon0"), constants.get("ref_c"))
    assert reads == []
    assert q.value == constants.get("e").value * float(Fraction(2, 3))


def test_width_choice_selects_tabulated_bounds(constants):
    hbar = constants.get("hbar").value
    e = constants.get("e").value
    by_max = builtin_species(constants, include_quarks=True, width_choice="max")[-1]
    by_min = builtin_species(constants, include_quarks=True, width_choice="min")[-1]
    assert by_max.two_photon_width.value == pytest.approx(0.45e3 * e / hbar, rel=1e-12)
    assert by_min.two_photon_width.value == pytest.approx(0.22e3 * e / hbar, rel=1e-12)


def test_etab_e_min_is_0p8_gev(quarks, constants):
    expected = 0.8 * 1e9 * constants.get("e").value
    assert quarks["eta_b"].e_min.value == pytest.approx(expected, rel=1e-9, abs=0)


# the checks a species spec once ran itself, each now made once: the file
# format by species_from_record, each quantity and the charge by build_species


def test_quarkonium_fields_required(constants):
    record = {"kind": "species", "name": "broken", "type": "quarkonium", "charge_fraction": "2/3",
              "constituent_mass": {"value": 1e-27, "unit": "kg"}}
    with pytest.raises(ConstantsError) as caught:
        species_from_record(record, constants)
    assert str(caught.value) == (
        "bad species record in built-in default: species 'broken' is missing field 'bound_state_mass'")


def test_lepton_rejects_quark_fields(constants):
    record = {"kind": "species", "name": "broken", "type": "lepton-pair",
              "constituent_mass": {"value": 1e-30, "unit": "kg"},
              "bound_state_mass": {"value": 1e-27, "unit": "kg"}}
    with pytest.raises(ConstantsError) as caught:
        species_from_record(record, constants)
    assert str(caught.value) == (
        "bad species record in built-in default: species 'broken': a lepton pair carries no "
        "bound_state_mass")


def test_charge_fraction_whitelist(constants):
    with pytest.raises(ConstantsError) as caught:
        build_species("broken", LEPTON_PAIR, Fraction(1, 2), {"constituent_mass": Quantity(1e-30, MASS)},
                      constants, lambda: "src")
    assert str(caught.value) == "src: broken: charge_fraction must be one of 1, 2/3, 1/3; got 1/2"


@pytest.mark.parametrize("build, message", [
    (lambda constants: species_from_record(
        {"kind": "species", "name": "x", "type": "meson",
         "constituent_mass": {"value": 1e-30, "unit": "kg"}}, constants),
     "bad species record in built-in default: species 'x': type must be 'lepton-pair' or 'quarkonium'"),
    (lambda constants: build_species(
        "x", LEPTON_PAIR, 1, {"constituent_mass": constants.get("e")}, constants, lambda: "src"),
     "src: species 'x': constituent_mass must have dimension kg or m^2·kg·s^-2, got s·A"),
    (lambda constants: build_species(
        "x", LEPTON_PAIR, Fraction(2, 3), {"constituent_mass": Quantity(1e-30, MASS)}, constants,
        lambda: "src"),
     "src: x: a lepton pair has charge_fraction 1, got 2/3"),
], ids=["kind", "mass-dimension", "lepton-charge"])
def test_the_builder_refuses_what_a_spec_once_checked(constants, build, message):
    with pytest.raises(ConstantsError) as caught:
        build(constants)
    assert str(caught.value) == message


def test_species_record_lepton(constants):
    spec = species_from_record(
        {
            "kind": "species", "name": "e_pair", "type": "lepton-pair",
            "charge_fraction": "1",
            "constituent_mass": {"value": 9.1093837015e-31, "unit": "kg"},
        },
        constants,
    )
    assert spec.kind == LEPTON_PAIR
    assert spec.constituent_mass.value == 9.1093837015e-31


def test_species_record_quarkonium_defaults_e_min(constants):
    spec = species_from_record(
        {
            "kind": "species", "name": "eta_c", "type": "quarkonium",
            "charge_fraction": "2/3",
            "constituent_mass": {"value": 1.27, "unit": "GeV"},
            "bound_state_mass": {"value": 2.98, "unit": "GeV"},
            "two_photon_width": {"value": 7.69e18, "unit": "1/s"},
        },
        constants,
    )
    expected_e_min = (2.98 - 2 * 1.27) * 1e9 * constants.get("e").value
    assert spec.e_min.value == pytest.approx(expected_e_min, rel=1e-9, abs=0)
    builtin = builtin_species(constants, include_quarks=True)[3]
    assert spec.constituent_mass.value == pytest.approx(
        builtin.constituent_mass.value, rel=1e-12, abs=0
    )


def test_eta_t_is_named_unsupported(constants):
    with pytest.raises(UnsupportedSpeciesError, match="eta_t"):
        species_from_record(
            {"kind": "species", "name": "eta_t", "type": "quarkonium"}, constants
        )


def test_load_species_prefers_file_records(tmp_path, constants):
    import json
    from vfdielectric.constants import load_constants, serialize_constants

    rows = json.loads(serialize_constants(constants))
    rows.append({
        "kind": "species", "name": "mu_pair", "type": "lepton-pair",
        "charge_fraction": "1",
        "constituent_mass": {"value": 1.883531627e-28, "unit": "kg"},
    })
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    loaded = load_constants(path)
    species = load_species(loaded)
    assert [s.name for s in species] == ["mu_pair"]


def test_load_species_falls_back_to_builtin(constants):
    assert [s.name for s in load_species(constants)] == ["e_pair", "mu_pair", "tau_pair"]


def _unused_label():
    raise AssertionError("the label is worded only for an error")


def test_a_lepton_pair_reads_no_constant():
    # neither ref_c nor hbar: a lepton pair's mass is given in kg
    spec = build_species("e_pair", LEPTON_PAIR, Fraction(1),
                         {"constituent_mass": Quantity(9.1e-31, MASS)}, ConstantsSet({}, "empty"),
                         _unused_label)
    assert spec.constituent_mass == Quantity(9.1e-31, MASS) and spec.e_min is None


def _registry(**values):
    return ConstantsSet({key: ConstantRecord(key, quantity, "", quantity.value, "")
                         for key, quantity in values.items()}, "here")


def test_default_e_min_is_the_given_energies_or_m_c_squared():
    c = Quantity(3.0e8, SPEED)
    registry = _registry(ref_c=c)
    width = Quantity(1e18, FREQUENCY)
    as_energies = build_species(
        "x", QUARKONIUM, Fraction(2, 3),
        {"constituent_mass": Quantity(2.0e-10, ENERGY), "bound_state_mass": Quantity(5.0e-10, ENERGY),
         "two_photon_width": width}, registry, _unused_label)
    assert as_energies.e_min == Quantity(5.0e-10, ENERGY) - Quantity(2.0e-10, ENERGY) * 2
    c2 = c * c
    m, M = Quantity(2.0e-27, MASS), Quantity(5.0e-27, MASS)
    as_masses = build_species(
        "x", QUARKONIUM, Fraction(2, 3),
        {"constituent_mass": m, "bound_state_mass": M, "two_photon_width": width}, registry,
        _unused_label)
    assert as_masses.e_min == M * c2 - m * c2 * 2
    assert (as_masses.constituent_mass, as_masses.bound_state_mass) == (m, M)


@pytest.mark.parametrize("given, message", [
    ({"constituent_mass": Quantity(1.0, TIME)}, "src: species 'x': constituent_mass must have dimension"),
    ({"constituent_mass": Quantity(-1.0, MASS)}, "src: species 'x': constituent_mass must be strictly positive"),
    ({"constituent_mass": Quantity(1e-310, MASS)},
     "src: species 'x': constituent_mass is out of the float range: 1e-310 is subnormal"),
])
def test_builder_refuses_a_quantity_naming_the_label(given, message):
    with pytest.raises(ConstantsError, match=f"^{message}"):
        build_species("x", LEPTON_PAIR, Fraction(1), given, ConstantsSet({}, "here"), lambda: "src")


def test_alpha_fifth_tests_alpha_once(trio, quarks, constants, ref_c, ref_eps):
    alpha = 1 / 137.035999084

    def alpha_fifth(alpha, species=trio):
        return coupling(species, constants, ref_eps, alpha, ref_c).alpha5

    assert alpha_fifth(alpha) == alpha**5.0
    for bad in (0.0, -alpha, math.nan):
        with pytest.raises(OutOfRangeError, match="^alpha must be positive, got"):
            alpha_fifth(bad)
    # past the sign test, the float-range rule refuses alpha or its power
    with pytest.raises(OutOfRangeError, match=r"^the product 1\.0 \* inf is inf"):
        alpha_fifth(math.inf)
    with pytest.raises(OutOfRangeError, match=r"^the power 1e\+100 \*\* 5 is inf"):
        alpha_fifth(1e100)
    # a list with no lepton pair reads neither alpha nor eps
    shared = coupling(tuple(quarks.values()), constants, Quantity(1.0), math.nan, ref_c)
    assert (shared.alpha5, shared.denominator) == (None, None)
    assert shared.c2.value == ref_c.value * ref_c.value
