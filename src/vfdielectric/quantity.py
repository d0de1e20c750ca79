"""Dimensioned scalar arithmetic over the seven SI base dimensions.

Every physical number in this package is a :class:`Quantity`: a finite float
(always in SI base units) paired with a :class:`Dimension`, a 7-tuple of
integer exponents over (length, mass, time, current, temperature, amount,
luminosity).  Every formula of the model is a product of integer powers; its
one root, ``c = 1/sqrt(mu0*eps0)``, is taken of s²/m², and :func:`q_sqrt`
refuses a dimension with an odd exponent.  Every binary operation checks
dimensional consistency, so a formula that type-checks here is also
unit-checked.

Two constructors make a :class:`Quantity`.  The public ``Quantity(value, dim)``
checks everything: it converts ``value`` with ``float()``, refuses a non-finite
value and refuses a ``dim`` that is not a :class:`Dimension`.  The arithmetic
here builds its results through a private constructor that checks only
finiteness, since its operands already hold a builtin float and an interned
Dimension.  A non-finite value from either raises :class:`OutOfRangeError`, and
so does a power that overflows a float; a division by zero raises an error
that is both an :class:`OutOfRangeError` and a ``ZeroDivisionError``.  Products,
quotients, powers and the square root are memoized per interned Dimension.

Energy values cross the eV/J boundary only at ingestion: :data:`EV_SCALE` is
the one table of eV-family units, which the constants loader scales through
with the elementary-charge value from the same file.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Dimension",
    "DimensionError",
    "OutOfRangeError",
    "Quantity",
    "Record",
    "dim",
    "q_add",
    "q_div",
    "q_mul",
    "q_pow",
    "q_sqrt",
    "EV_SCALE",
    "DIMENSIONLESS",
    "LENGTH",
    "MASS",
    "TIME",
    "CURRENT",
    "SPEED",
    "FREQUENCY",
    "ENERGY",
    "ACTION",
    "CHARGE",
    "ELECTRIC_FIELD",
    "PERMITTIVITY",
    "PERMEABILITY",
    "NUMBER_DENSITY",
    "DIPOLE_MOMENT",
]

# Base-dimension order: length, mass, time, current, temperature, amount, luminosity.
_BASE_SYMBOLS = ("m", "kg", "s", "A", "K", "mol", "cd")
_ZERO7 = (0,) * 7
# the one Dimension per exponent tuple; guarded by the lock when written
_INTERNED: dict[tuple[int, ...], "Dimension"] = {}
_INTERN_LOCK = threading.Lock()
_set = object.__setattr__  # how Dimension sets its slots
_MISSING = object()  # a record field with neither an argument nor a default


class DimensionError(ValueError):
    """Raised when operands carry incompatible SI dimensions."""


class OutOfRangeError(ValueError):
    """Raised when a value or an arithmetic result is not a finite float, or
    when a result that must be positive is not: an input that under- or
    overflowed on the way, since the data files allow only positive inputs."""


class _DivisionByZeroError(OutOfRangeError, ZeroDivisionError):
    """Raised when a quantity is divided by zero: a quotient past the float range."""


def _int(x: int) -> int:
    """``x`` if it is an ``int``; a float must not reach a table, where ``1.0 == 1``."""
    if type(x) is not int:
        raise TypeError(f"exponents must be int, got {type(x).__name__}")
    return x


def _immutable(self: object, name: str, value: object = None) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable classes below."""
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


def _format(exponents: tuple[int, ...]) -> str:
    parts = [
        symbol if exp == 1 else f"{symbol}^{exp}"
        for symbol, exp in zip(_BASE_SYMBOLS, exponents)
        if exp != 0
    ]
    return "·".join(parts) or "1"


class Dimension:
    """Integer exponents over the seven SI base dimensions.

    Instances are interned: ``Dimension(exps)`` returns the one instance for
    those exponents, so equality is identity.  Each exponent, and each power,
    must be an ``int``; anything else raises ``TypeError``.  Each instance is
    immutable and memoizes its products, quotients, powers and square root, so
    repeated arithmetic builds no new exponents; the memo tables hold only
    interned dimensions, so they grow with the number of distinct dimensions a
    process meets, not with the number of operations.
    """

    __slots__ = ("exponents", "is_dimensionless", "_hash", "_str", "_mul", "_div", "_pow", "_root")

    exponents: tuple[int, ...]
    is_dimensionless: bool

    def __new__(cls, exponents: tuple[int, ...] = _ZERO7) -> "Dimension":
        exps = tuple(map(_int, exponents))
        if len(exps) != 7:
            raise ValueError("a Dimension needs exactly 7 exponents")
        self = _INTERNED.get(exps)
        if self is None:
            with _INTERN_LOCK:  # two threads must not both create the instance
                self = _INTERNED.get(exps)
                if self is None:
                    self = object.__new__(cls)
                    _set(self, "exponents", exps)
                    _set(self, "is_dimensionless", not any(exps))
                    _set(self, "_hash", hash(exps))
                    _set(self, "_str", _format(exps))
                    _set(self, "_mul", {})
                    _set(self, "_div", {})
                    _set(self, "_pow", {})
                    _set(self, "_root", None)
                    _INTERNED[exps] = self
        return self

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # copies and unpickled instances go through the intern table
        return (Dimension, (self.exponents,))

    # interning makes equality identity (object's own __eq__); the hash is
    # nevertheless that of the exponents, so it does not depend on the process
    def __hash__(self) -> int:
        return self._hash

    # The product and quotient memos are keyed by the other operand's id(): an
    # interned instance lives as long as the intern table, so its id is never
    # reused, and an int key hashes without calling __hash__.  q_mul and q_div
    # read these memos themselves and call the methods only on a miss.

    def __mul__(self, other: "Dimension") -> "Dimension":
        out = self._mul.get(id(other))
        if out is None:
            out = self._mul[id(other)] = Dimension(
                tuple(a + b for a, b in zip(self.exponents, other.exponents))
            )
        return out

    def __truediv__(self, other: "Dimension") -> "Dimension":
        out = self._div.get(id(other))
        if out is None:
            out = self._div[id(other)] = Dimension(
                tuple(a - b for a, b in zip(self.exponents, other.exponents))
            )
        return out

    def __pow__(self, power: int) -> "Dimension":
        out = self._pow.get(_int(power))
        if out is None:
            out = self._pow[power] = Dimension(tuple(a * power for a in self.exponents))
        return out

    def _sqrt(self) -> "Dimension":
        """The dimension whose square is this one, memoized in its own slot."""
        out = self._root
        if out is None:  # two threads racing here both store the one interned instance
            if any(a % 2 for a in self.exponents):
                raise DimensionError(f"square root of {self} has a non-integer exponent")
            out = Dimension(tuple(a // 2 for a in self.exponents))
            _set(self, "_root", out)
        return out

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"Dimension(exponents={self.exponents!r})"


def dim(
    m: int = 0, kg: int = 0, s: int = 0, A: int = 0, K: int = 0, mol: int = 0, cd: int = 0
) -> Dimension:
    """Build a Dimension from keyword exponents, e.g. ``dim(m=1, s=-1)``."""
    return Dimension((m, kg, s, A, K, mol, cd))


DIMENSIONLESS = Dimension()
LENGTH = dim(m=1)
MASS = dim(kg=1)
TIME = dim(s=1)
CURRENT = dim(A=1)
SPEED = dim(m=1, s=-1)
FREQUENCY = dim(s=-1)                      # also rad/s: radians are dimensionless
ENERGY = dim(kg=1, m=2, s=-2)              # J
ACTION = dim(kg=1, m=2, s=-1)              # J·s
CHARGE = dim(A=1, s=1)                     # C
ELECTRIC_FIELD = dim(kg=1, m=1, s=-3, A=-1)        # V/m
PERMITTIVITY = dim(A=2, s=4, kg=-1, m=-3)          # F/m
PERMEABILITY = dim(kg=1, m=1, A=-2, s=-2)          # H/m
NUMBER_DENSITY = dim(m=-3)
DIPOLE_MOMENT = dim(A=1, s=1, m=1)         # C·m


class Quantity:
    """A finite real value with an SI dimension.

    Construction rejects NaN and infinities outright so that no formula
    downstream ever sees a non-finite operand.  Instances are immutable.
    """

    __slots__ = ("value", "dim")

    def __init__(self, value: float, dim: Dimension = DIMENSIONLESS) -> None:
        v = float(value)
        if not math.isfinite(v):
            raise OutOfRangeError(f"Quantity value must be finite, got {value!r}")
        if not isinstance(dim, Dimension):
            raise TypeError("dim must be a Dimension")
        _set_value(self, v)
        _set_dim(self, dim)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return (Quantity, (self.value, self.dim))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is Quantity
        return self.value == other.value and self.dim is other.dim if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.dim))

    def __repr__(self) -> str:
        return f"Quantity(value={self.value!r}, dim={self.dim!r})"

    # arithmetic delegates to the module-level operations

    def __mul__(self, other: "Quantity | int | float") -> "Quantity":
        if isinstance(other, (int, float)):
            # float(): a float subclass's own __rmul__ may return its own type
            return _result(float(self.value * other), self.dim)
        return q_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: "Quantity | int | float") -> "Quantity":
        if isinstance(other, (int, float)):
            if other == 0:
                raise _DivisionByZeroError("division of a Quantity by scalar zero")
            return _result(float(self.value / other), self.dim)
        return q_div(self, other)

    def __rtruediv__(self, other: "int | float") -> "Quantity":
        if isinstance(other, (int, float)):
            return q_div(Quantity(float(other)), self)
        return NotImplemented

    def __add__(self, other: "Quantity") -> "Quantity":
        return q_add(self, other)

    def __sub__(self, other: "Quantity") -> "Quantity":
        return q_add(self, -other)

    def __neg__(self) -> "Quantity":
        return _result(-self.value, self.dim)

    def __pow__(self, power: int) -> "Quantity":
        return q_pow(self, power)

    def as_dimensionless(self) -> float:
        """Return the bare value, refusing if a dimension is still attached."""
        if not self.dim.is_dimensionless:
            raise DimensionError(f"quantity is not dimensionless: {self.dim}")
        return self.value

    def require(self, expected: Dimension, what: str = "quantity") -> "Quantity":
        """Assert this quantity has the expected dimension and return it."""
        if self.dim != expected:
            raise DimensionError(f"{what} must have dimension {expected}, got {self.dim}")
        return self

    def __str__(self) -> str:
        return f"{self.value!r} {self.dim}" if not self.dim.is_dimensionless else repr(self.value)


_new = object.__new__
_set_value = Quantity.value.__set__  # the slot descriptors bypass _immutable
_set_dim = Quantity.dim.__set__
_isfinite = math.isfinite


def _result(value: float, dim: Dimension) -> Quantity:
    """The private constructor of arithmetic results.

    ``value`` is already a builtin float and ``dim`` an interned Dimension, so
    of the public constructor's checks only finiteness is left to make.
    """
    if not _isfinite(value):
        raise OutOfRangeError(f"Quantity value must be finite, got {value!r}")
    q = _new(Quantity)
    _set_value(q, value)
    _set_dim(q, dim)
    return q


class Record:
    """Base of the package's small immutable records.

    A subclass declares its fields as class annotations, in order, and a
    field's default as the class attribute of that name.  Instances are built
    positionally or by keyword, run the subclass's ``__post_init__`` checks,
    cannot be changed, and compare, hash and print by their field values.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        values = self.__dict__
        for f, value in zip(cls._fields, args):  # a loop: dict.update(zip(...)) costs more
            values[f] = value
        if kwargs or len(args) != len(cls._fields):  # keywords, then defaults, fill in the rest
            for f in cls._fields[len(args):]:
                values[f] = kwargs.pop(f) if f in kwargs else cls.__dict__.get(f, _MISSING)
            if kwargs or len(args) > len(cls._fields) or _MISSING in values.values():
                raise TypeError(f"{cls.__name__}{cls._fields}: missing, repeated or extra argument")
        self.__post_init__()

    def __post_init__(self) -> None:
        """The checks a subclass runs on each new instance; none here."""

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self.__dict__ == other.__dict__ if same else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


# q_mul and q_div are the bulk of all arithmetic, so each does _result's work
# in its own frame.


def q_mul(a: Quantity, b: Quantity) -> Quantity:
    """Product: values multiply, exponents add exactly."""
    value = a.value * b.value
    if not _isfinite(value):
        raise OutOfRangeError(f"Quantity value must be finite, got {value!r}")
    dim = a.dim._mul.get(id(b.dim)) or a.dim * b.dim
    q = _new(Quantity)
    _set_value(q, value)
    _set_dim(q, dim)
    return q


def q_div(a: Quantity, b: Quantity) -> Quantity:
    """Quotient: values divide, exponents subtract exactly."""
    if b.value == 0:
        raise _DivisionByZeroError(f"division by zero quantity (dimension {b.dim})")
    value = a.value / b.value
    if not _isfinite(value):
        raise OutOfRangeError(f"Quantity value must be finite, got {value!r}")
    dim = a.dim._div.get(id(b.dim)) or a.dim / b.dim
    q = _new(Quantity)
    _set_value(q, value)
    _set_dim(q, dim)
    return q


def q_add(a: Quantity, b: Quantity) -> Quantity:
    """Sum, defined only for identical dimensions."""
    if a.dim is not b.dim:
        raise DimensionError(f"cannot add {a.dim} to {b.dim}")
    return _result(a.value + b.value, a.dim)


def q_pow(a: Quantity, power: int) -> Quantity:
    """Raise to an integer power; exponents scale by the same integer."""
    dim = a.dim**power  # a power that is not an int raises TypeError here
    try:
        value = a.value ** float(power)
    except OverflowError:
        raise OutOfRangeError(f"power {power} of {a.value!r} overflows a float") from None
    except ZeroDivisionError:  # a negative power of zero
        raise _DivisionByZeroError(f"power {power} of zero (dimension {a.dim})") from None
    return _result(value, dim)


def q_sqrt(a: Quantity) -> Quantity:
    """Square root of a positive value whose exponents are all even.

    The value is ``a.value ** 0.5``; an odd exponent raises
    :class:`DimensionError`.  A finite positive float's square root cannot
    overflow, so unlike :func:`q_pow` it needs no overflow handler.
    """
    if a.value <= 0:
        raise OutOfRangeError(f"fractional power 1/2 of a non-positive value {a.value!r}")
    return _result(a.value**0.5, a.dim._sqrt())


# eV-family multiples, relative to 1 eV: the only table of eV-family units
EV_SCALE = {"eV": 1.0, "keV": 1e3, "MeV": 1e6, "GeV": 1e9}

