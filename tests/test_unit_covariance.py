"""The answers do not depend on the unit system.

Every file value is re-expressed in units where the metre, kilogram, second
and ampere are scaled by powers of two: a value of dimension
``m^i kg^j s^k A^l`` reads ``value * 2**(a i + b j + c k + d l)``.  An
eV-family value takes the volt's factor ``kg m^2 s^-3 A^-1``, because the
loader multiplies it by the file's ``e``.  Powers of two are exact in binary
floating point, so every dimensionless output must come out bit-identical,
every dimensioned one exactly the original times its factor, and
``iterations`` unchanged.  The dimension audit cannot see a bare float literal
that hides a unit, such as an SI constant or an absolute tolerance; this
oracle can.

``verify --format json`` prints only dimensionless numbers and text, so its
standard output must be byte-identical in every scaled unit system.

Two exemptions:

- ``sensitivity`` computes its dipole trajectory in the fixed SI field
  ``Quantity(1.0, ELECTRIC_FIELD)`` (1 V/m), and its output schema is frozen,
  so the trajectory is checked through ``perturbation.dipole_trajectory``
  with the field scaled too.
- The ``max rel err`` figure in the ``quadrature-vs-analytic`` detail of
  ``verify``.  Its 20 seeded oscillators are fixed SI masses and frequencies,
  not file values, and only ``hbar`` scales: the matrix elements then scale
  by the square root of hbar's factor, which is inexact when that power of
  two is odd, and the figure moves in its last printed digit.  It is exempt
  in those unit systems only; the rest of the line, and the check's verdict,
  must still match.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfdielectric.cli import main
from vfdielectric.constants import UNIT_DIMENSIONS, load_constants, serialize_constants
from vfdielectric.perturbation import BRANCHES, CouplingLambda, coupling_value, dipole_trajectory
from vfdielectric.quantity import (
    ACTION,
    DIMENSIONLESS,
    ELECTRIC_FIELD,
    EV_SCALE,
    FREQUENCY,
    LENGTH,
    NUMBER_DENSITY,
    PERMITTIVITY,
    SPEED,
    TIME,
    Quantity,
    dim,
)
from vfdielectric.species import builtin_species, resonant_frequency

_VOLT = dim(m=2, kg=1, s=-3, A=-1)
_ARGVS = (
    ["predict"], ["predict", "--include-quarks"], ["species", "--include-quarks"], ["historical"],
)
# the dimension of each dimensioned output, by its JSON key; every other number
# is dimensionless, a delta_percent included
_DIMENSIONS = {
    "epsilon0": PERMITTIVITY, "c": SPEED, "epsilon_term": PERMITTIVITY,
    "lifetime_s": TIME, "coherence_length_m": LENGTH, "number_density_per_m3": NUMBER_DENSITY,
    "omega0_rad_per_s": FREQUENCY, "decay_rate_per_s": FREQUENCY,
    "interacting_density_per_m3": NUMBER_DENSITY,
}


def _exponent(dimension, powers):
    """The power of two that scales a value of ``dimension``."""
    assert not any(dimension.exponents[4:])
    total = sum(e * p for e, p in zip(dimension.exponents, powers))
    assert total.denominator == 1
    return int(total)


def _write_scaled(directory, powers):
    rows = json.loads(serialize_constants(load_constants()))
    for row in rows:
        unit_dim = _VOLT if row["unit"] in EV_SCALE else UNIT_DIMENSIONS[row["unit"]]
        row["value"] = math.ldexp(row["value"], _exponent(unit_dim, powers))
    path = directory / "constants.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    return path


def _outputs(path):
    """Each command's JSON output on the file at ``path``, its source left out."""
    payloads = []
    for argv in _ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", "json", "--constants", str(path)]) == 0
        payload = json.loads(out.getvalue())
        if isinstance(payload, dict):
            payload.pop("constants_source", None)
        payloads.append(payload)
    return payloads


def _leaves(node, path=()):
    """``(path, value)`` of every scalar in a JSON document, in order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _dimension(path):
    return DIMENSIONLESS if "deltas_percent" in path else _DIMENSIONS.get(path[-1], DIMENSIONLESS)


def _trajectories(constants, powers):
    e_pair = builtin_species(constants)[0]
    osc = resonant_frequency(e_pair, constants, constants.get("ref_epsilon0"), constants.get("ref_c"))
    field = Quantity(math.ldexp(1.0, _exponent(ELECTRIC_FIELD, powers)), ELECTRIC_FIELD)
    q, hbar = constants.get("e"), constants.get("hbar")
    lam = CouplingLambda(coupling_value(osc, q, field, hbar))
    taus = [2 * math.pi * i / 16 for i in range(17)]
    return [dipole_trajectory(osc, q, branch, taus, hbar, lam) for branch in BRANCHES]


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    """The outputs and trajectories in SI units."""
    path = _write_scaled(tmp_path_factory.mktemp("si"), (0, 0, 0, 0))
    return _outputs(path), _trajectories(load_constants(path), (0, 0, 0, 0))


@settings(max_examples=40)
@given(powers=st.tuples(*[st.integers(-24, 24)] * 4))
@example(powers=(-20, 40, -16, 8))
@example(powers=(4, -8, 12, -4))
def test_outputs_are_covariant_under_power_of_two_units(original, tmp_path_factory, powers):
    outputs, trajectories = original
    path = _write_scaled(tmp_path_factory.mktemp("scaled"), powers)
    for before, after in zip(outputs, _outputs(path)):
        before, after = list(_leaves(before)), list(_leaves(after))
        assert [p for p, _ in after] == [p for p, _ in before]
        for (where, a), (_, b) in zip(before, after):
            if isinstance(a, float):
                assert b == math.ldexp(a, _exponent(_dimension(where), powers)), where
            else:  # names, the method and iterations
                assert b == a, where

    for before, after in zip(trajectories, _trajectories(load_constants(path), powers)):
        for (tau, p), (tau_scaled, p_scaled) in zip(before, after):
            assert tau_scaled == tau
            assert p_scaled.dim == p.dim
            assert p_scaled.value == math.ldexp(p.value, _exponent(p.dim, powers))


_REL_ERR = re.compile(r"max rel err \S+ over")


def _exempt_rel_err(text):
    masked, count = _REL_ERR.subn("max rel err (exempt) over", text)
    assert count == 1
    return masked


def _verify_stdout(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--format", "json", "--constants", str(path)]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def original_verify(tmp_path_factory):
    return _verify_stdout(_write_scaled(tmp_path_factory.mktemp("si_verify"), (0, 0, 0, 0)))


@settings(max_examples=40)
@given(powers=st.tuples(*[st.integers(-24, 24)] * 4))
@example(powers=(-20, 40, -16, 8))
@example(powers=(0, 1, 0, 0))  # hbar times 2: the max rel err exemption applies
def test_verify_stdout_is_invariant_under_power_of_two_units(original_verify, tmp_path_factory,
                                                             powers):
    before = original_verify
    after = _verify_stdout(_write_scaled(tmp_path_factory.mktemp("scaled_verify"), powers))
    if _exponent(ACTION, powers) % 2:
        before, after = _exempt_rel_err(before), _exempt_rel_err(after)
    assert after == before
