"""The package's value classes: the slotted ``Quantity`` and every ``Record``.

Each is immutable, compares, hashes and prints by its fields in order, survives
``copy`` and ``pickle``, and rejects a missing or unknown constructor argument.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from vfdielectric.constants import ConstantRecord, ConstantsSet
from vfdielectric.perturbation import AmplitudePair, CouplingLambda
from vfdielectric.quantity import (
    CHARGE,
    DIMENSIONLESS,
    FREQUENCY,
    MASS,
    PERMITTIVITY,
    SPEED,
    DimensionError,
    Quantity,
    Record,
)
from vfdielectric.species import LEPTON_PAIR, OscillatorSpec, SpeciesSpec
from vfdielectric.vacuum import PredictionReport, SpeciesContribution
from vfdielectric.verify import CheckResult

_E = Quantity(1.602176634e-19, CHARGE)
_M = Quantity(9.1093837015e-31, MASS)
_TERM = SpeciesContribution("e_pair", Quantity(2.9e-12, PERMITTIVITY), 0.31)

# (class, positional arguments, the field names in order)
CASES = [
    (Quantity, (2.5, SPEED), ("value", "dim")),
    (ConstantRecord, ("e", _E, "CODATA", 1.602176634e-19, "C"),
     ("key", "quantity", "source", "file_value", "file_unit")),
    (ConstantsSet, ({"e": ConstantRecord("e", _E, "", 1.0, "C")}, "here", ({"name": "x"},)),
     ("records", "origin", "species_records")),
    (SpeciesSpec, ("e_pair", LEPTON_PAIR, _M, Fraction(1), None, None, None),
     ("name", "kind", "constituent_mass", "charge_fraction", "bound_state_mass",
      "two_photon_width", "e_min")),
    (OscillatorSpec, (_M * 0.5, Quantity(1e16, FREQUENCY)), ("reduced_mass", "omega0")),
    (SpeciesContribution, ("e_pair", Quantity(2.9e-12, PERMITTIVITY), 0.31),
     ("species_name", "epsilon_term", "in_alpha_units")),
    (PredictionReport, (Quantity(8.8e-12, PERMITTIVITY), Quantity(3e8, SPEED), 137.0,
                        (_TERM,), "closed-form", {"c": 0.1}, "here", 4),
     ("epsilon0_model", "c_model", "inv_alpha_model", "contributions", "method",
      "reference_deltas", "constants_source", "iterations")),
    (CouplingLambda, (0.01,), ("value",)),
    (AmplitudePair, (1 + 0j, 0.01j, 2.0), ("a0", "a1", "tau")),
    (CheckResult, ("dimension-audit", True, 1e-12, "ok"),
     ("name", "passed", "tolerance", "detail")),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# a field that holds a dict makes the instance unhashable, as with any tuple of it
UNHASHABLE = {ConstantsSet, PredictionReport}


def _changed(value):
    """A value of the same kind as ``value`` but unequal to it."""
    return {} if isinstance(value, dict) else value + "x" if isinstance(value, str) else value * 2


@pytest.mark.parametrize("cls, args, fields", CASES, ids=IDS)
def test_keyword_construction_matches_positional(cls, args, fields):
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_keyword == cls(*args)
    assert tuple(getattr(by_keyword, f) for f in fields) == args


@pytest.mark.parametrize("cls, args, fields", CASES, ids=IDS)
def test_setting_or_deleting_an_attribute_raises(cls, args, fields):
    obj = cls(*args)
    with pytest.raises(AttributeError):
        setattr(obj, fields[0], args[0])
    with pytest.raises(AttributeError):
        delattr(obj, fields[0])
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, fields[0]) == args[0]


@pytest.mark.parametrize("cls, args, fields", CASES, ids=IDS)
def test_equality_goes_by_the_fields(cls, args, fields):
    obj = cls(*args)
    assert obj == cls(*args) and not obj != cls(*args)
    assert obj != args and obj != object()
    assert obj != cls(_changed(args[0]), *args[1:])


@pytest.mark.parametrize("cls, args, fields", CASES, ids=IDS)
def test_hash_is_that_of_the_field_tuple(cls, args, fields):
    obj = cls(*args)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(args) == hash(cls(*args))


@pytest.mark.parametrize("cls, args, fields", CASES, ids=IDS)
def test_repr_lists_the_fields_in_order(cls, args, fields):
    body = ", ".join(f"{f}={a!r}" for f, a in zip(fields, args))
    assert repr(cls(*args)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, args, fields", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_object(cls, args, fields):
    obj = cls(*args)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], args[0])


@pytest.mark.parametrize("cls, args, fields", CASES, ids=IDS)
def test_missing_unknown_or_extra_argument_raises_type_error(cls, args, fields):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


def test_defaults_are_the_class_attributes():
    assert Quantity(2.0) == Quantity(2.0, DIMENSIONLESS)
    spec = SpeciesSpec("e_pair", LEPTON_PAIR, _M, Fraction(1))
    assert (spec.bound_state_mass, spec.two_photon_width, spec.e_min) == (None, None, None)
    assert ConstantsSet({}, "here").species_records == ()
    report = PredictionReport(Quantity(8.8e-12, PERMITTIVITY), Quantity(3e8, SPEED), 137.0,
                              (), "closed-form", {}, "here")
    assert report.iterations is None


def test_record_fields_are_the_annotations_in_order():
    class Point(Record):
        x: float
        y: float = 0.0

    assert Point(1.0) == Point(x=1.0, y=0.0)
    assert repr(Point(1.0, 2.0)).endswith("Point(x=1.0, y=2.0)")
    assert vars(Point(1.0, 2.0)) == {"x": 1.0, "y": 2.0}


def test_quantity_converts_to_float_and_checks_its_inputs():
    q = Quantity(3, SPEED)
    assert type(q.value) is float and q.value == 3.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Quantity(bad)
    with pytest.raises(TypeError, match="Dimension"):
        Quantity(1.0, "m/s")


@pytest.mark.parametrize("build, error", [
    (lambda: SpeciesSpec("x", "meson", _M, Fraction(1)), ValueError),
    (lambda: SpeciesSpec("x", LEPTON_PAIR, _E, Fraction(1)), DimensionError),
    (lambda: SpeciesSpec("x", LEPTON_PAIR, _M, Fraction(2, 3)), ValueError),
    (lambda: OscillatorSpec(_M * -1.0, Quantity(1e16, FREQUENCY)), ValueError),
    (lambda: SpeciesContribution("x", Quantity(-1e-12, PERMITTIVITY), 0.3), ValueError),
    (lambda: PredictionReport(_M, Quantity(3e8, SPEED), 137.0, (), "m", {}, "here"),
     DimensionError),
    (lambda: CouplingLambda(math.inf), ValueError),
], ids=["kind", "mass-dimension", "lepton-charge", "reduced-mass", "epsilon-term",
        "epsilon0-dimension", "coupling"])
def test_post_init_checks_still_run(build, error):
    with pytest.raises(error):
        build()
