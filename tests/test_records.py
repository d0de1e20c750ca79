"""The package's value classes: the slotted ``Quantity`` and every ``Record``.

Each is immutable, compares, hashes and prints by its fields in order, survives
``copy`` and ``pickle``, and rejects a missing or unknown constructor argument.
Every record class of the package is in ``CASES`` or named in ``EXEMPT``.
"""

import copy
import importlib
import math
import pickle
import pkgutil
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vfdielectric
from vfdielectric.constants import (
    LEPTON_PAIR,
    QUARKONIUM,
    ConstantRecord,
    ConstantsError,
    ConstantsSet,
    SpeciesSpec,
    build_species,
)
from vfdielectric.perturbation import AmplitudePair, CouplingLambda, scaling_exponent
from vfdielectric.quantity import (
    CHARGE,
    DIMENSIONLESS,
    ENERGY,
    FREQUENCY,
    LENGTH,
    MASS,
    NUMBER_DENSITY,
    PERMITTIVITY,
    SPEED,
    TIME,
    DimensionError,
    Quantity,
    Record,
)
from vfdielectric.species import Coupling, Kinematics, OscillatorSpec, builtin_species
from vfdielectric.vacuum import PredictionReport, SpeciesContribution, c_from_epsilon
from vfdielectric.verify import CheckResult

_E = Quantity(1.602176634e-19, CHARGE)
_M = Quantity(9.1093837015e-31, MASS)
_TERM = SpeciesContribution("e_pair", Quantity(2.9e-12, PERMITTIVITY), 0.31)
_QUARK_FIELDS = (_M * 3000.0, Quantity(7.7e18, FREQUENCY), Quantity(7e-11, ENERGY))

# (class, positional arguments, the field names in order)
CASES = [
    (Quantity, (2.5, SPEED), ("value", "dim")),
    (ConstantRecord, ("e", _E, "CODATA", 1.602176634e-19, "C"),
     ("key", "quantity", "source", "file_value", "file_unit")),
    (ConstantsSet, ({"e": ConstantRecord("e", _E, "", 1.0, "C")}, "here", ({"name": "x"},),
                    (SpeciesSpec("x", LEPTON_PAIR, _M, _M * 0.5, _E),)),
     ("records", "origin", "species_records", "species")),
    # a charge other than e, which a copy and a pickle keep
    (SpeciesSpec, ("eta_c", QUARKONIUM, _M, _M * 0.5, _E * (2 / 3), *_QUARK_FIELDS),
     ("name", "kind", "constituent_mass", "reduced_mass", "charge", "bound_state_mass",
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
    (Kinematics, (Quantity(3.2e-22, TIME), Quantity(9.7e-14, LENGTH), Quantity(1.1e39, NUMBER_DENSITY),
                  Quantity(1e16, FREQUENCY), Quantity(1.6e10, FREQUENCY), Quantity(5.8e27, NUMBER_DENSITY)),
     ("lifetime", "coherence_length", "number_density", "omega0", "decay_rate",
      "interacting_density")),
    (Coupling, (Quantity(3e8, SPEED), Quantity(9e16, SPEED**2), 2.1e-11,
                Quantity(2.8e-88, PERMITTIVITY**2 * (ENERGY * TIME)**2)),
     ("c", "c2", "alpha5", "denominator")),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# a field that holds a dict makes the instance unhashable, as with any tuple of it
UNHASHABLE = {ConstantsSet, PredictionReport}
# record classes of the package that CASES leaves out, each for a reason
EXEMPT = {
    "vfdielectric.vacuum._Step",  # private to vacuum, which alone builds it, positionally
}


def _changed(value):
    """A value of the same kind as ``value`` but unequal to it."""
    if isinstance(value, Record):
        fields = list(vars(value).values())
        return type(value)(_changed(fields[0]), *fields[1:])
    return {} if isinstance(value, dict) else value + "x" if isinstance(value, str) else value * 2


def _package_records():
    """Every Record subclass defined in the package, by module and qualified name."""
    for module in pkgutil.iter_modules(vfdielectric.__path__, "vfdielectric."):
        importlib.import_module(module.name)
    found, pending = set(), list(Record.__subclasses__())
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if cls.__module__.startswith("vfdielectric."):
            found.add(cls)
    return found


def test_every_package_record_is_a_case_or_exempt():
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in _package_records()}
    cased = {f"{cls.__module__}.{cls.__qualname__}" for cls, _, _ in CASES}
    assert names - cased == EXEMPT


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
    spec = SpeciesSpec("e_pair", LEPTON_PAIR, _M, _M * 0.5, _E)
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


def test_each_record_class_binds_its_own_arguments():
    # Python binds the arguments of the generated __init__, so its messages
    # name the class and the argument
    class Point(Record):
        x: float
        y: float = 0.0

    assert Point.__init__ is not Record.__init__
    with pytest.raises(TypeError, match=r"Point.__init__\(\) missing 1 required positional argument: 'x'"):
        Point()
    with pytest.raises(TypeError, match="multiple values for argument 'x'"):
        Point(1.0, x=2.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'z'"):
        Point(1.0, z=2.0)
    with pytest.raises(TypeError, match="takes from 2 to 3 positional arguments but 4 were given"):
        Point(1.0, 2.0, 3.0)


def test_a_field_named_like_the_generated_locals_is_a_plain_field():
    class Odd(Record):
        self: int
        values: int = 2
        defaults: int = 3

    assert vars(Odd(1)) == {"self": 1, "values": 2, "defaults": 3}
    assert Odd(self=4, defaults=5) == Odd(4, 2, 5)


def test_a_field_without_default_after_one_with_a_default_is_refused():
    with pytest.raises(SyntaxError):
        class Bad(Record):
            x: float = 0.0
            y: float


def test_post_init_runs_only_where_a_class_defines_checks():
    calls = []

    class Checked(Record):
        x: float

        def __post_init__(self) -> None:
            calls.append(vars(self))

    class Derived(Checked):  # the checks are inherited, the fields are its own
        y: float

    class Unchecked(Record):
        x: float

    Checked(1.0)
    Derived(2.0)
    Unchecked(3.0)
    assert calls == [{"x": 1.0}, {"y": 2.0}]


# Charge-fraction checks of build_species, the one place a species is checked:
# an int, Fraction, float or Decimal is read as the ratio Fraction() gives it,
# a string as Fraction() parses it, and the accepted set and both messages are
# those of Fraction(value) in {1, 2/3, 1/3}
_NOT_ALLOWED = "x: charge_fraction must be one of 1, 2/3, 1/3; got {}"
_LEPTON_ONLY_ONE = "x: a lepton pair has charge_fraction 1, got {}"
_HERE = "built here"
# no quantity of these species needs a constant to become SI; the charge reads e
_E_ONLY = ConstantsSet({"e": ConstantRecord("e", _E, "", _E.value, "C")}, "nowhere")


def _build(kind, fields, charge_fraction):
    given = dict(zip(("constituent_mass", "bound_state_mass", "two_photon_width", "e_min"),
                     (_M, *fields)))
    return build_species("x", kind, charge_fraction, given, _E_ONLY, lambda: _HERE)


@pytest.mark.parametrize("kind, fields, charge_fraction, ratio", [
    (QUARKONIUM, _QUARK_FIELDS, Fraction(4, 6), (2, 3)),
    (QUARKONIUM, _QUARK_FIELDS, Fraction(1, 3), (1, 3)),
    (QUARKONIUM, _QUARK_FIELDS, "2/3", (2, 3)),
    (QUARKONIUM, _QUARK_FIELDS, 1, (1, 1)),
    (LEPTON_PAIR, (), 1, (1, 1)),
    (LEPTON_PAIR, (), Fraction(3, 3), (1, 1)),
    (LEPTON_PAIR, (), True, (1, 1)),
    (LEPTON_PAIR, (), 1.0, (1, 1)),
    (LEPTON_PAIR, (), Decimal("1.00"), (1, 1)),
    (LEPTON_PAIR, (), "1", (1, 1)),
])
def test_accepted_charge_fractions(kind, fields, charge_fraction, ratio):
    spec = _build(kind, fields, charge_fraction)
    assert Fraction(charge_fraction).as_integer_ratio() == ratio
    assert spec.charge == _E * (ratio[0] / ratio[1])  # e times float(Fraction)
    assert spec.reduced_mass == _M * 0.5


@pytest.mark.parametrize("kind, fields, charge_fraction, message", [
    (QUARKONIUM, _QUARK_FIELDS, Fraction(1, 2), _NOT_ALLOWED.format("1/2")),
    (LEPTON_PAIR, (), Fraction(1, 2), _NOT_ALLOWED.format("1/2")),
    (LEPTON_PAIR, (), 2, _NOT_ALLOWED.format("2")),
    (QUARKONIUM, _QUARK_FIELDS, 2 / 3, _NOT_ALLOWED.format(2 / 3)),  # not exactly 2/3
    (QUARKONIUM, _QUARK_FIELDS, "1/2", _NOT_ALLOWED.format("1/2")),
    (LEPTON_PAIR, (), Fraction(2, 3), _LEPTON_ONLY_ONE.format("2/3")),
    (LEPTON_PAIR, (), Fraction(4, 6), _LEPTON_ONLY_ONE.format("2/3")),
    (LEPTON_PAIR, (), "2/3", _LEPTON_ONLY_ONE.format("2/3")),
])
def test_rejected_charge_fractions(kind, fields, charge_fraction, message):
    with pytest.raises(ConstantsError) as caught:
        _build(kind, fields, charge_fraction)
    assert str(caught.value) == f"{_HERE}: {message}"


@pytest.mark.parametrize("charge_fraction, error", [
    ("1/0", ZeroDivisionError), ("two thirds", ValueError), (math.nan, ValueError),
    (math.inf, OverflowError), (None, TypeError), (1j, TypeError),
])
def test_unreadable_charge_fraction_raises_as_fraction_does(charge_fraction, error):
    # refused with Fraction's own error as the cause, and its text in the line
    with pytest.raises(error) as fraction_error:
        Fraction(charge_fraction)
    with pytest.raises(ConstantsError) as caught:
        _build(LEPTON_PAIR, (), charge_fraction)
    assert str(caught.value) == (f"{_HERE}: species 'x': charge_fraction {charge_fraction!r} "
                                 f"is not a fraction: {fraction_error.value}")
    assert type(caught.value.__cause__) is error


def _fraction_outcome(charge_fraction):
    """The line ``build_species`` words for a quarkonium state with ``charge_fraction``,
    read by ``Fraction()`` itself, or None if it is accepted."""
    try:
        ratio = Fraction(charge_fraction).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        return f"{_HERE}: species 'x': charge_fraction {charge_fraction!r} is not a fraction: {exc}"
    return None if ratio in ((1, 1), (2, 3), (1, 3)) else f"{_HERE}: {_NOT_ALLOWED.format(charge_fraction)}"


@settings(max_examples=600)
@given(st.text("0123456789.+-_eE /\u0663", max_size=7))
@example("1e-99999")
@example("0e-9999")
@example(" 1.E+0999 ")
@example("1e1_000")
@example("1e1__00")
@example("1/2e-999")
@example("1.e-999")
@example("\u0663e-\u0663\u0663\u0663")
@example("1e-5")
@example("100e-2")
def test_a_decimal_text_keeps_the_outcome_fraction_gives_it(charge_fraction):
    # a decimal whose exponent outgrows its text is refused without its power
    # of ten, the line Fraction() would have led to; exponents here stay short
    try:
        _build(QUARKONIUM, _QUARK_FIELDS, charge_fraction)
        line = None
    except ConstantsError as exc:
        line = str(exc)
    assert line == _fraction_outcome(charge_fraction)


def test_a_species_copy_keeps_its_charge():
    spec = _build(QUARKONIUM, _QUARK_FIELDS, "2/3")
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and twin.charge == spec.charge == _E * (2 / 3)
        with pytest.raises(AttributeError):
            twin.charge = _E / 3


def test_quantity_converts_to_float_and_checks_its_inputs():
    q = Quantity(3, SPEED)
    assert type(q.value) is float and q.value == 3.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Quantity(bad)
    with pytest.raises(TypeError, match="Dimension"):
        Quantity(1.0, "m/s")


@pytest.mark.parametrize("build, error", [
    (lambda: OscillatorSpec(_M * -1.0, Quantity(1e16, FREQUENCY)), ValueError),
    (lambda: SpeciesContribution("x", Quantity(-1e-12, PERMITTIVITY), 0.3), ValueError),
    (lambda: PredictionReport(_M, Quantity(3e8, SPEED), 137.0, (), "m", {}, "here"),
     DimensionError),
    (lambda: CouplingLambda(math.inf), ValueError),
], ids=["reduced-mass", "epsilon-term",
        "epsilon0-dimension", "coupling"])
def test_post_init_checks_still_run(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda constants: builtin_species(constants, width_choice="mid"),
     "width_choice must be 'min' or 'max', got 'mid'"),
    (lambda constants: OscillatorSpec(_M, Quantity(0.0, FREQUENCY)), "omega0 must be positive"),
    (lambda constants: c_from_epsilon(Quantity(-8.8541878128e-12, PERMITTIVITY), constants),
     "epsilon must be positive"),
    (lambda constants: c_from_epsilon(Quantity(0.0, PERMITTIVITY), constants),
     "epsilon must be positive"),
    # at tau = 0 the exact a0 correction is exactly zero
    (lambda constants: scaling_exponent([1e-4, 3e-4, 1e-3, 3e-3], 0.0),
     "a0 correction vanished at lam=0.0001; cannot take log"),
], ids=["width-choice", "omega0", "negative-epsilon", "zero-epsilon", "vanished-correction"])
def test_an_argument_out_of_range_is_refused_with_its_reason(constants, build, message):
    with pytest.raises(ValueError) as caught:
        build(constants)
    assert str(caught.value) == message
