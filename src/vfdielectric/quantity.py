"""Dimensioned scalar arithmetic over the seven SI base dimensions.

Every physical number in this package is a :class:`Quantity`: a finite float
(always in SI base units) paired with a :class:`Dimension`, a 7-tuple of exact
rational exponents over (length, mass, time, current, temperature, amount,
luminosity).  Rational exponents keep intermediate roots such as
``1/sqrt(mu0*eps0)`` representable without loss, and every binary operation
checks dimensional consistency, so a formula that type-checks here is also
unit-checked.

Energy values cross the eV/J boundary only at ingestion: :data:`EV_SCALE` is
the one table of eV-family units, which the constants loader scales through
with the elementary-charge value from the same file.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Dimension",
    "DimensionError",
    "Quantity",
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
_ZERO7 = (Fraction(0),) * 7
# the one Dimension per exponent tuple; guarded by the lock when written
_INTERNED: dict[tuple[Fraction, ...], "Dimension"] = {}
_INTERN_LOCK = threading.Lock()


class DimensionError(ValueError):
    """Raised when operands carry incompatible SI dimensions."""


def _as_fraction(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exponents must be int or Fraction, got {type(x).__name__}")


def _format(exponents: tuple[Fraction, ...]) -> str:
    parts = [
        symbol if exp == 1 else f"{symbol}^{exp}"
        for symbol, exp in zip(_BASE_SYMBOLS, exponents)
        if exp != 0
    ]
    return "·".join(parts) or "1"


class Dimension:
    """Exact rational exponents over the seven SI base dimensions.

    Instances are interned: ``Dimension(exps)`` returns the one instance for
    those exponents (``int`` and equal ``Fraction`` inputs alike), so equality
    is identity.  Each instance is immutable and memoizes its products,
    quotients and powers, so repeated arithmetic builds no new exponents; the
    memo tables hold only interned dimensions, so they grow with the number
    of distinct dimensions a process meets, not with the number of operations.
    """

    __slots__ = ("exponents", "is_dimensionless", "_hash", "_str", "_mul", "_div", "_pow")

    exponents: tuple[Fraction, ...]
    is_dimensionless: bool

    def __new__(cls, exponents: tuple[int | Fraction, ...] = _ZERO7) -> "Dimension":
        key = tuple(exponents)
        if len(key) != 7:
            raise ValueError("a Dimension needs exactly 7 exponents")
        # Validate before the lookup, since 1.0 == 1 would find an entry.  A
        # tuple of ints hashes and compares equal to the same Fractions, so
        # it finds its instance without building any Fraction.
        for x in key:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"exponents must be int or Fraction, got {type(x).__name__}")
        self = _INTERNED.get(key)
        if self is None:
            exps = tuple(_as_fraction(x) for x in key)
            with _INTERN_LOCK:  # two threads must not both create the instance
                self = _INTERNED.get(exps)
                if self is None:
                    self = object.__new__(cls)
                    init = object.__setattr__
                    init(self, "exponents", exps)
                    init(self, "is_dimensionless", not any(exps))
                    init(self, "_hash", hash(exps))
                    init(self, "_str", _format(exps))
                    init(self, "_mul", {})
                    init(self, "_div", {})
                    init(self, "_pow", {})
                    _INTERNED[exps] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Dimension is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Dimension is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copies and unpickled instances go through the intern table
        return (Dimension, (self.exponents,))

    # interning makes equality identity (object's own __eq__); the hash is
    # nevertheless that of the exponents, so it does not depend on the process
    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Dimension") -> "Dimension":
        out = self._mul.get(other)
        if out is None:
            out = self._mul[other] = Dimension(
                tuple(a + b for a, b in zip(self.exponents, other.exponents))
            )
        return out

    def __truediv__(self, other: "Dimension") -> "Dimension":
        out = self._div.get(other)
        if out is None:
            out = self._div[other] = Dimension(
                tuple(a - b for a, b in zip(self.exponents, other.exponents))
            )
        return out

    def __pow__(self, power: int | Fraction) -> "Dimension":
        p = _as_fraction(power)
        out = self._pow.get(p)
        if out is None:
            out = self._pow[p] = Dimension(tuple(a * p for a in self.exponents))
        return out

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"Dimension(exponents={self.exponents!r})"


def dim(
    m: int | Fraction = 0,
    kg: int | Fraction = 0,
    s: int | Fraction = 0,
    A: int | Fraction = 0,
    K: int | Fraction = 0,
    mol: int | Fraction = 0,
    cd: int | Fraction = 0,
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


@dataclass(frozen=True)
class Quantity:
    """A finite real value with an SI dimension.

    Construction rejects NaN and infinities outright so that no formula
    downstream ever sees a non-finite operand.
    """

    value: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"Quantity value must be finite, got {self.value!r}")
        object.__setattr__(self, "value", v)
        if not isinstance(self.dim, Dimension):
            raise TypeError("dim must be a Dimension")

    # arithmetic delegates to the module-level operations

    def __mul__(self, other: "Quantity | int | float") -> "Quantity":
        if isinstance(other, (int, float)):
            return Quantity(self.value * other, self.dim)
        return q_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: "Quantity | int | float") -> "Quantity":
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division of a Quantity by scalar zero")
            return Quantity(self.value / other, self.dim)
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
        return Quantity(-self.value, self.dim)

    def __pow__(self, power: int | Fraction) -> "Quantity":
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


def q_mul(a: Quantity, b: Quantity) -> Quantity:
    """Product: values multiply, exponents add exactly."""
    return Quantity(a.value * b.value, a.dim * b.dim)


def q_div(a: Quantity, b: Quantity) -> Quantity:
    """Quotient: values divide, exponents subtract exactly."""
    if b.value == 0:
        raise ZeroDivisionError(f"division by zero quantity (dimension {b.dim})")
    return Quantity(a.value / b.value, a.dim / b.dim)


def q_add(a: Quantity, b: Quantity) -> Quantity:
    """Sum, defined only for identical dimensions."""
    if a.dim != b.dim:
        raise DimensionError(f"cannot add {a.dim} to {b.dim}")
    return Quantity(a.value + b.value, a.dim)


def q_pow(a: Quantity, power: int | Fraction) -> Quantity:
    """Raise to an exact rational power; exponents scale by the same rational."""
    p = _as_fraction(power)
    if p.denominator != 1 and a.value <= 0:
        raise ValueError(
            f"fractional power {p} of a non-positive value {a.value!r}"
        )
    return Quantity(float(a.value) ** float(p), a.dim**p)


def q_sqrt(a: Quantity) -> Quantity:
    return q_pow(a, Fraction(1, 2))


# eV-family multiples, relative to 1 eV: the only table of eV-family units
EV_SCALE = {"eV": 1.0, "keV": 1e3, "MeV": 1e6, "GeV": 1e9}

