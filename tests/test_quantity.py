import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfdielectric.quantity import (
    ACTION,
    CHARGE,
    DIMENSIONLESS,
    ENERGY,
    FREQUENCY,
    LENGTH,
    MASS,
    PERMEABILITY,
    PERMITTIVITY,
    SPEED,
    TIME,
    Dimension,
    DimensionError,
    OutOfRangeError,
    Quantity,
    dim,
    q_add,
    q_div,
    q_mul,
    q_pow,
    q_sqrt,
)


def test_mul_values_and_dims():
    a = Quantity(2.0, LENGTH)
    b = Quantity(3.0, FREQUENCY)
    product = q_mul(a, b)
    assert product.value == 6.0
    assert product.dim == SPEED


def test_mul_identity_with_dimensionless_one():
    x = Quantity(4.25, ENERGY)
    assert q_mul(x, Quantity(1.0)) == x


def test_mul_hbar_times_omega_is_energy():
    # exponent bookkeeping by hand: (kg m^2 s^-1) * (s^-1) = kg m^2 s^-2
    product = q_mul(Quantity(1.054571817e-34, ACTION), Quantity(2.0e15, FREQUENCY))
    assert product.dim == dim(kg=1, m=2, s=-2)
    assert product.value == pytest.approx(2.109143634e-19, rel=1e-12)


def test_div_values_and_dims():
    quotient = q_div(Quantity(6.0, LENGTH), Quantity(3.0, TIME))
    assert quotient.value == 2.0
    assert quotient.dim == SPEED


def test_div_self_is_dimensionless_one():
    x = Quantity(7.5, PERMEABILITY)
    out = q_div(x, x)
    assert out.value == 1.0
    assert out.dim == DIMENSIONLESS


def test_div_hbar_by_mass_c_squared_is_time():
    # exponent bookkeeping: action / energy = time
    hbar = Quantity(1.054571817e-34, ACTION)
    m = Quantity(9.1093837015e-31, MASS)
    c = Quantity(2.99792458e8, SPEED)
    out = q_div(hbar, q_mul(m, q_mul(c, c)) * 4)
    assert out.dim == TIME


def test_div_by_zero_raises():
    # both a ZeroDivisionError and the named out-of-range error the CLI maps to exit 2
    for divide in (lambda: q_div(Quantity(1.0), Quantity(0.0, LENGTH)),
                   lambda: Quantity(1.0, LENGTH) / 0.0):
        with pytest.raises(ZeroDivisionError) as info:
            divide()
        assert isinstance(info.value, OutOfRangeError)


def test_negative_power_of_zero_raises_division_by_zero():
    # once a bare ZeroDivisionError from float ** ("0.0 cannot be raised to a negative power")
    for power, raise_it in ((-3, lambda: q_pow(Quantity(0.0, LENGTH), -3)),
                            (-1, lambda: Quantity(0.0) ** -1),
                            (Fraction(-2), lambda: q_pow(Quantity(0.0, TIME), Fraction(-2)))):
        with pytest.raises(OutOfRangeError, match=rf"^power {power} of zero \(dimension ") as info:
            raise_it()
        assert isinstance(info.value, ZeroDivisionError)


def test_add_same_dimension():
    out = q_add(Quantity(1.0, LENGTH), Quantity(2.0, LENGTH))
    assert out == Quantity(3.0, LENGTH)


def test_add_mismatch_names_both_dimensions():
    with pytest.raises(DimensionError) as excinfo:
        q_add(Quantity(1.0, LENGTH), Quantity(1.0, TIME))
    message = str(excinfo.value)
    assert "m" in message and "s" in message


def test_add_zero_identity():
    x = Quantity(3.5, CHARGE)
    assert q_add(Quantity(0.0, CHARGE), x) == x


def test_pow_square_root():
    out = q_pow(Quantity(4.0, dim(m=2)), Fraction(1, 2))
    assert out.value == 2.0
    assert out.dim == LENGTH


def test_pow_zero_gives_dimensionless_one():
    out = q_pow(Quantity(123.4, PERMITTIVITY), 0)
    assert out.value == 1.0
    assert out.dim == DIMENSIONLESS


def test_pow_cubed_inverse_length():
    # (m_e c / hbar)^3 -> length^-3
    m = Quantity(9.1093837015e-31, MASS)
    c = Quantity(2.99792458e8, SPEED)
    hbar = Quantity(1.054571817e-34, ACTION)
    out = q_pow(q_div(q_mul(m, c), hbar), 3)
    assert out.dim == dim(m=-3)


def test_pow_negative_base_fractional_raises():
    with pytest.raises(ValueError):
        q_pow(Quantity(-4.0, dim(m=2)), Fraction(1, 2))


def test_negative_base_integer_power_fine():
    assert q_pow(Quantity(-2.0, LENGTH), 2).value == 4.0


def test_nonfinite_construction_rejected():
    with pytest.raises(ValueError):
        Quantity(float("nan"))
    with pytest.raises(ValueError):
        Quantity(float("inf"), LENGTH)


def test_overflow_to_nonfinite_rejected():
    big = Quantity(1e308, LENGTH)
    with pytest.raises(ValueError):
        q_mul(big, big)


def test_operator_sugar_matches_functions():
    a = Quantity(2.0, LENGTH)
    b = Quantity(4.0, TIME)
    assert a * b == q_mul(a, b)
    assert a / b == q_div(a, b)
    assert a + a == q_add(a, a)
    assert (a - a).value == 0.0
    assert a**2 == q_pow(a, 2)
    assert (3 * a).value == 6.0
    assert (1 / b).dim == FREQUENCY
    assert q_sqrt(a**2) == a


def test_as_dimensionless_guard():
    assert Quantity(2.5).as_dimensionless() == 2.5
    with pytest.raises(DimensionError):
        Quantity(2.5, LENGTH).as_dimensionless()


def test_dimension_str_forms():
    assert str(DIMENSIONLESS) == "1"
    assert str(SPEED) == "m·s^-1"
    assert str(q_sqrt(Quantity(4.0, LENGTH)).dim) == "m^1/2"


# --- property tests ---------------------------------------------------------

_exponents = st.tuples(*([st.integers(min_value=-4, max_value=4)] * 7))


@given(_exponents, _exponents)
def test_mul_dims_are_exact_exponent_sums(exps_a, exps_b):
    a = Quantity(1.5, Dimension(tuple(Fraction(x) for x in exps_a)))
    b = Quantity(2.5, Dimension(tuple(Fraction(x) for x in exps_b)))
    out = q_mul(a, b)
    assert out.dim.exponents == tuple(
        Fraction(x) + Fraction(y) for x, y in zip(exps_a, exps_b)
    )


@given(
    st.floats(min_value=1e-30, max_value=1e30, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-30, max_value=1e30, allow_nan=False, allow_infinity=False),
    _exponents,
)
def test_div_then_mul_round_trips(value_a, value_b, exps):
    a = Quantity(value_a, LENGTH)
    b = Quantity(value_b, Dimension(tuple(Fraction(x) for x in exps)))
    back = q_mul(q_div(a, b), b)
    assert back.dim == a.dim
    assert abs(back.value - a.value) <= 1e-15 * abs(a.value)


@settings(max_examples=300)
@given(_exponents, _exponents)
def test_add_rejects_every_unequal_dimension_pair(exps_a, exps_b):
    a = Quantity(1.0, Dimension(tuple(Fraction(x) for x in exps_a)))
    b = Quantity(1.0, Dimension(tuple(Fraction(x) for x in exps_b)))
    if exps_a == exps_b:
        assert q_add(a, b).value == 2.0
    else:
        with pytest.raises(DimensionError):
            q_add(a, b)


# --- interned dimensions ------------------------------------------------------

_rationals = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=6)
)
_rational_exponents = st.tuples(*([_rationals] * 7))


@given(_exponents)
def test_equal_int_and_fraction_exponents_give_one_instance(exps):
    as_fractions = tuple(Fraction(x) for x in exps)
    interned = Dimension(exps)
    assert Dimension(as_fractions) is interned
    assert Dimension(list(exps)) is interned
    assert interned.exponents == as_fractions
    assert all(type(x) is Fraction for x in interned.exponents)


@given(_rational_exponents, _rational_exponents, _rationals)
def test_memoized_ops_match_fraction_arithmetic(exps_a, exps_b, power):
    a, b = Dimension(exps_a), Dimension(exps_b)
    for _ in range(2):  # the second round is served from the memo tables
        assert (a * b).exponents == tuple(x + y for x, y in zip(exps_a, exps_b))
        assert (a / b).exponents == tuple(x - y for x, y in zip(exps_a, exps_b))
        assert (a**power).exponents == tuple(x * power for x in exps_a)
    assert a * b is Dimension(tuple(x + y for x, y in zip(exps_a, exps_b)))
    if power.denominator == 1:
        assert a ** int(power) is a**power


@given(_rational_exponents, _rational_exponents, st.booleans())
def test_hash_and_equality_agree(exps_a, exps_b, same):
    if same:
        exps_b = exps_a
    a, b = Dimension(exps_a), Dimension(exps_b)
    assert (a == b) == (exps_a == exps_b) == (a is b)
    assert (a != b) == (exps_a != exps_b)
    if a == b:
        assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(exps_a))


def test_dimension_is_immutable():
    speed = dim(m=1, s=-1)
    with pytest.raises(AttributeError):
        speed.exponents = (Fraction(0),) * 7
    with pytest.raises(AttributeError):
        del speed.exponents
    with pytest.raises(AttributeError):
        speed.extra = 1
    assert speed is SPEED and str(speed) == "m·s^-1"


def test_copies_are_the_interned_instance():
    assert copy.copy(SPEED) is SPEED
    assert copy.deepcopy(SPEED) is SPEED
    assert pickle.loads(pickle.dumps(SPEED)) is SPEED


@given(st.integers(min_value=0, max_value=12).filter(lambda n: n != 7))
def test_wrong_exponent_count_rejected(n):
    with pytest.raises(ValueError):
        Dimension((0,) * n)


@pytest.mark.parametrize("bad", [1.0, 0.5, "1", None, complex(1, 0)])
def test_non_rational_exponent_rejected(bad):
    with pytest.raises(TypeError):
        Dimension((bad, 0, 0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        dim(m=bad)
    with pytest.raises(TypeError):
        LENGTH**bad


# --- the arithmetic fast paths ------------------------------------------------

_nonzero_values = st.floats(min_value=-1e40, max_value=1e40).filter(lambda v: abs(v) >= 1e-40)


@given(_nonzero_values, _rational_exponents, st.integers(min_value=-6, max_value=6))
def test_int_power_matches_the_fraction_power_bit_for_bit(value, exps, power):
    d = Dimension(exps)
    for _ in range(2):  # the second round is served from the memo table
        out = q_pow(Quantity(value, d), power)
        assert out.value.hex() == (float(value) ** float(Fraction(power))).hex()
        assert out.dim is d ** Fraction(power)


@given(st.floats(min_value=5e-324, max_value=1.7e308), _rational_exponents)
def test_sqrt_matches_the_half_power_bit_for_bit(value, exps):
    a = Quantity(value, Dimension(exps))
    for _ in range(2):
        root, half = q_sqrt(a), q_pow(a, Fraction(1, 2))
        assert root.value.hex() == half.value.hex()
        assert root.dim is half.dim


def test_fast_paths_keep_their_error_types_and_messages():
    with pytest.raises(ValueError, match=r"^fractional power 1/2 of a non-positive value -4\.0$"):
        q_sqrt(Quantity(-4.0, dim(m=2)))
    with pytest.raises(ValueError, match=r"^fractional power 1/2 of a non-positive value 0\.0$"):
        q_sqrt(Quantity(0.0))
    with pytest.raises(ValueError, match=r"^Quantity value must be finite, got inf$"):
        q_mul(Quantity(1e308, LENGTH), Quantity(1e308, LENGTH))
    with pytest.raises(TypeError, match=r"^exponents must be int or Fraction, got float$"):
        q_pow(Quantity(2.0, LENGTH), 2.0)


def test_out_of_range_results_raise_one_named_error():
    big, tiny = Quantity(1e200, LENGTH), Quantity(1e-200, LENGTH)
    for make in (
        lambda: Quantity(float("inf"), LENGTH),
        lambda: Quantity(float("nan")),
        lambda: q_mul(big, big),
        lambda: q_div(big, tiny),
        lambda: q_add(Quantity(1.7e308), Quantity(1.7e308)),
        lambda: big * 1e200,
        lambda: big / 1e-200,
        lambda: q_pow(big, 2),
        lambda: q_pow(tiny, -2),
        lambda: q_pow(Quantity(1e250, dim(m=2)), Fraction(3, 2)),
    ):
        with pytest.raises(OutOfRangeError):
            make()
    assert issubclass(OutOfRangeError, ValueError)


def test_arithmetic_results_are_immutable():
    a = Quantity(4.0, dim(m=2))
    for result in (q_mul(a, a), q_sqrt(a), q_pow(a, 2), -a, a * 2.0, a / 2.0):
        with pytest.raises(AttributeError):
            result.value = 1.0
        with pytest.raises(AttributeError):
            del result.dim
        with pytest.raises(AttributeError):
            result.extra = 1


class _FloatSubclass(float):
    def __rmul__(self, other):
        return _FloatSubclass(float(self) * other)

    def __rtruediv__(self, other):
        return _FloatSubclass(other / float(self))


def test_scalar_results_hold_a_builtin_float():
    a = Quantity(2.0, LENGTH)
    assert type((a * _FloatSubclass(3.0)).value) is float
    assert type((_FloatSubclass(3.0) * a).value) is float
    assert type((a / _FloatSubclass(4.0)).value) is float
    assert (a * _FloatSubclass(3.0)).value == 6.0 and (a / _FloatSubclass(4.0)).value == 0.5


def test_repeated_sqrt_and_int_power_build_no_fraction(monkeypatch):
    a = Quantity(2.5, dim(m=3, s=-1, A=1))
    q_sqrt(a), q_pow(a, 3), q_pow(a, -2)  # first calls may fill the memo tables
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert Fraction(1, 3) and len(built) == 1  # the patch is live
    built.clear()
    for _ in range(3):
        q_sqrt(a), q_pow(a, 3), q_pow(a, -2), a**3
    assert built == []
