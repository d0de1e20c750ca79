"""Timed calls into each ``vfdielectric`` module's public functions.

Each metric is the drift-corrected time of one call, as the median over
``REPEATS`` batches; a batch repeats the call until it has run for about
``BATCH_SECONDS``, so fast operations are timed over many calls.  All inputs
come from the bundled constants.  The package is imported by ``measure``, not
by this module.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from statistics import median

from probe import Bracket

REPEATS = 5
BATCH_SECONDS = 0.004


def _batch_size(fn) -> int:
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    return max(1, min(10_000, int(BATCH_SECONDS / max(once, 1e-7))))


def _per_call(bracket: Bracket, fn) -> float:
    n = _batch_size(fn)

    def batch():
        for _ in range(n):
            fn()

    return median([bracket.time(batch)[1] / n for _ in range(REPEATS)])


def _cli(cli, command: str):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([command])
    return run


def measure(bracket: Bracket) -> dict[str, float]:
    """Every ``*_us`` / ``*_ms`` layer metric, keyed by metric name."""
    from vfdielectric import cli, constants, oscillator, perturbation, quantity
    from vfdielectric import species, vacuum, verify

    consts = constants.load_constants()
    e, hbar = consts.get("e"), consts.get("hbar")
    ref_c = consts.get("ref_c")
    alpha = 1.0 / consts.get("ref_inv_alpha").value
    leptons = species.builtin_species(consts)
    with_quarks = species.builtin_species(consts, include_quarks=True)
    e_pair, eta_c = leptons[0], with_quarks[3]
    osc = species.resonant_frequency(e_pair, consts, consts.get("ref_epsilon0"), ref_c)
    lam = perturbation.CouplingLambda(1e-3)

    cases = {
        "constants.load_constants_us": lambda: constants.load_constants(),
        "quantity.q_mul_us": lambda: quantity.q_mul(e, hbar),
        "quantity.q_div_us": lambda: quantity.q_div(e, hbar),
        "quantity.q_pow_us": lambda: quantity.q_pow(e, 3),
        "quantity.q_add_us": lambda: quantity.q_add(e, e),
        "species.builtin_species_us":
            lambda: species.builtin_species(consts, include_quarks=True),
        "species.interacting_density_us":
            lambda: species.interacting_density(e_pair, consts, alpha, ref_c),
        "vacuum.lepton_contribution_us":
            lambda: vacuum.lepton_contribution(e_pair, consts, alpha, ref_c),
        "vacuum.quarkonium_contribution_us":
            lambda: vacuum.quarkonium_contribution(eta_c, consts, ref_c),
        "vacuum.self_consistent_leptons_ms":
            lambda: vacuum.epsilon0_self_consistent(leptons, consts),
        "vacuum.self_consistent_quarks_ms":
            lambda: vacuum.epsilon0_self_consistent(with_quarks, consts),
        "perturbation.amplitudes_ode_ms":
            lambda: perturbation.amplitudes_ode(math.pi, lam, tolerance=1e-12),
        "perturbation.scaling_exponent_ms":
            lambda: perturbation.scaling_exponent((1e-4, 3e-4, 1e-3, 3e-3), math.pi),
        "oscillator.matrix_element_x_quadrature_us":
            lambda: oscillator.matrix_element_x_quadrature(1, 0, osc, hbar),
        "verify.quadrature_vs_analytic_ms":
            lambda: verify.check_quadrature_vs_analytic(consts),
        "verify.ode_vs_analytic_ms": lambda: verify.check_ode_vs_analytic(consts),
        "verify.fixed_point_vs_closed_form_ms":
            lambda: verify.check_fixed_point_vs_closed_form(consts),
        "verify.mass_cancellation_ms": lambda: verify.check_mass_cancellation(consts),
        "verify.dimension_audit_ms": lambda: verify.check_dimension_audit(consts),
    }
    for command in ("predict", "species", "verify", "sensitivity", "historical"):
        cases[f"cli.{command}_ms"] = _cli(cli, command)

    out = {}
    for name, fn in cases.items():
        scale = 1e6 if name.endswith("_us") else 1e3
        out[name] = _per_call(bracket, fn) * scale
    return out
