"""Exact rational functions in Delta, x and z: the oracle of the kz tests.

``RationalFunction`` is the former ``gl11kl.symbolic`` type, unchanged.  The
package checks its three exact identities by evaluation on a grid; the
functions at the end restate them over rational functions, as the package
once computed them, so the tests can check each identity symbolically and
measure the degrees that make the grid check a proof.

A ``RationalFunction`` is an unreduced pair num/den of sparse polynomials in
(Delta, x, z) over Q, each a dict ``{(i, j, k): Fraction}`` keyed by the
exponents of Delta, x and z.  Arithmetic works on the pairs directly and
d/dz uses the quotient rule; no polynomial gcd is ever taken.  Two elements
are equal when ``a.num * b.den == b.num * a.den``, so equality needs no
canonical form, and instances are unhashable.  The constructor cancels only
the common monomial Delta^i x^j z^k of num and den, which keeps a parameter
that divides both sides (such as x after dividing by x/z) out of the
denominator, so ``value`` can evaluate there.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

_ONE = {(0, 0, 0): Fraction(1)}


def _poly(coeffs: Mapping) -> dict:
    return {tuple(k): Fraction(v) for k, v in coeffs.items() if v}


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + sign * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1, k1), v1 in a.items():
        for (i2, j2, k2), v2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _dz(a: dict) -> dict:
    return {(i, j, k - 1): v * k for (i, j, k), v in a.items() if k}


def _subs(a: dict, delta, x) -> dict:
    out: dict = {}
    for (i, j, k), v in a.items():
        if delta is not None:
            v, i = v * Fraction(delta) ** i, 0
        if x is not None:
            v, j = v * Fraction(x) ** j, 0
        out[(i, j, k)] = out.get((i, j, k), 0) + v
    return {k: v for k, v in out.items() if v}


def _value(a: dict, z, delta, x) -> Fraction:
    z, delta, x = Fraction(z), Fraction(delta), Fraction(x)
    return sum((v * delta**i * x**j * z**k for (i, j, k), v in a.items()), Fraction(0))


def _repr(a: dict) -> str:
    def mono(v, key):
        powers = [f"{name}**{e}" if e > 1 else name for name, e in zip(("Delta", "x", "z"), key) if e]
        return "*".join([str(v)] + powers)

    return " + ".join(mono(a[key], key) for key in sorted(a, reverse=True)) or "0"


class RationalFunction:
    """num/den over Q[Delta, x, z], reduced only by their common monomial."""

    __slots__ = ("num", "den")

    __hash__ = None  # equality is by cross-multiplication, not by structure

    def __init__(self, num: Mapping, den: Mapping | None = None):
        num = _poly(num)
        den = _poly(den) if den is not None else dict(_ONE)
        if not den:
            raise ZeroDivisionError("zero denominator in RationalFunction")
        if not num:
            den = dict(_ONE)
        else:
            # lowest exponent of Delta, x and z over every term of both sides
            low = tuple(min(e) for e in zip(*num, *den))
            if any(low):
                num = {tuple(e - m for e, m in zip(k, low)): v for k, v in num.items()}
                den = {tuple(e - m for e, m in zip(k, low)): v for k, v in den.items()}
        self.num = num
        self.den = den

    # -- constructors

    @classmethod
    def const(cls, v) -> "RationalFunction":
        return cls({(0, 0, 0): v})

    @classmethod
    def delta(cls) -> "RationalFunction":
        return cls({(1, 0, 0): 1})

    @classmethod
    def x(cls) -> "RationalFunction":
        return cls({(0, 1, 0): 1})

    @classmethod
    def z(cls) -> "RationalFunction":
        return cls({(0, 0, 1): 1})

    @staticmethod
    def _coerce(v) -> "RationalFunction":
        if isinstance(v, RationalFunction):
            return v
        return RationalFunction.const(v)

    # -- structure

    @property
    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            _add(_mul(self.num, other.den), _mul(other.num, self.den)), _mul(self.den, other.den)
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(_mul(self.num, other.num), _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_mul(self.num, other.den), _mul(self.den, other.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction.const(1) / self ** (-n)
        out = RationalFunction.const(1)
        for _ in range(n):
            out = out * self
        return out

    def differentiate(self) -> "RationalFunction":
        """d/dz by the quotient rule."""
        return RationalFunction(
            _add(_mul(_dz(self.num), self.den), _mul(self.num, _dz(self.den)), -1),
            _mul(self.den, self.den),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            if isinstance(other, (int, Fraction)):
                other = RationalFunction.const(other)
            else:
                return NotImplemented
        return _mul(self.num, other.den) == _mul(other.num, self.den)

    def subs(self, delta=None, x=None) -> "RationalFunction":
        """Substitute rational values for the parameters (z stays formal)."""
        return RationalFunction(_subs(self.num, delta, x), _subs(self.den, delta, x))

    def value(self, z, delta, x) -> Fraction:
        """Evaluate at exact rational (z, Delta, x); raises on a pole."""
        return _value(self.num, z, delta, x) / _value(self.den, z, delta, x)

    def __repr__(self):
        if self.den == _ONE:
            return _repr(self.num)
        return f"[{_repr(self.num)}] / [{_repr(self.den)}]"


# -- the kz identities over rational functions --------------------------------
#
# An equation is a tuple (a2, a1, a0) of RationalFunctions for
# a2 f'' + a1 f' + a0 f = 0.  Each function is the former symbolic body of
# its ``gl11kl.kz`` namesake (``gauge`` of ``_gauge``, ``normalized`` of the
# ``SecondOrderOde`` method).

Z, D, X = RationalFunction.z(), RationalFunction.delta(), RationalFunction.x()


def normalized(ode: tuple) -> tuple:
    """Rescale so the leading coefficient is exactly z(1-z)."""
    if ode[0].is_zero:
        raise ZeroDivisionError("degenerate second-order equation")
    s = Z * (1 - Z) / ode[0]
    return tuple(a * s for a in ode)


def gauge() -> RationalFunction:
    """2 Delta (1/(1-z) - 1/z): the system's diagonal, and w'/w for w = z^{-2D}(1-z)^{-2D}."""
    return 2 * D * (1 / (1 - Z) - 1 / Z)


def build_first_order_system() -> tuple:
    return ((gauge(), -X / (1 - Z)), (X / Z, gauge()))


def eliminate_to_second_order(m: tuple) -> tuple:
    (m00, m01), (m10, m11) = m
    g = 1 / m10
    gp = g.differentiate()
    a1 = gp - g * m11 - m00 * g
    a0 = -(g * m11.differentiate()) - gp * m11 + m00 * g * m11 - m01
    return normalized((g, a1, a0))


def correlator_ode() -> tuple:
    a0 = 4 * D * D / Z + 2 * D * (2 * D - 1) / (1 - Z) + (X * X - 16 * D * D)
    return (Z * (1 - Z), (4 * D + 1) - (8 * D + 1) * Z, a0)


def hypergeometric_ode() -> tuple:
    return (Z * (1 - Z), 1 - Z, X * X)


def transform_ode(ode: tuple) -> tuple:
    r1 = gauge()
    r2 = r1 * r1 + r1.differentiate()
    a2, a1, a0 = ode
    return normalized((a2, 2 * a2 * r1 + a1, a2 * r2 + a1 * r1 + a0))


def vanish1_residual() -> RationalFunction:
    return -2 * D - Z * gauge() - (-2 * D / (1 - Z) + 2 * D + X)


def identities() -> dict:
    """Each exact check of ``kz.verification_report`` as (left sides, right sides), coefficient by coefficient."""
    derived = eliminate_to_second_order(build_first_order_system())
    return {
        "elimination_matches_direct_coefficients": (derived, normalized(correlator_ode())),
        "gauge_transform_to_hypergeometric": (transform_ode(derived), hypergeometric_ode()),
        "scalar_pair_residual": ((vanish1_residual(),), (-X,)),
    }


def identities_hold() -> bool:
    """Do the three identities hold as equalities of rational functions?"""
    return all(a == b for lhs, rhs in identities().values() for a, b in zip(lhs, rhs))
