"""Field arithmetic, equality by cross-multiplication and calculus of the rational-function oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _rational_oracle as oracle
from _rational_oracle import RationalFunction

Z = RationalFunction.z
D = RationalFunction.delta
X = RationalFunction.x
C = RationalFunction.const


def test_sub_of_simple_poles():
    got = 1 / (1 - Z()) - 1 / Z()
    assert got == (2 * Z() - 1) / (Z() * (1 - Z()))


def test_differentiate_inverse_z():
    assert (1 / Z()).differentiate() == -1 / (Z() * Z())


def test_gcd_normalization():
    # equal by cross-multiplication; neither side is reduced
    assert (Z() * Z() - 1) / (Z() - 1) == Z() + 1
    assert (Z() * Z() - 1) / (Z() - 1) != Z() - 1


def test_param_field_reduction_is_canonical():
    assert (D() * D() - X() * X()) / (D() - X()) == D() + X()


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Z() / C(0)
    with pytest.raises(ZeroDivisionError):
        RationalFunction({(0, 0, 1): 1}, {})


def test_unhashable():
    with pytest.raises(TypeError):
        hash(Z())


def test_substitution():
    e = (D() + X()) * (D() - X())
    assert e.subs(delta=Fraction(3), x=Fraction(1)) == 8
    rf = (1 - Z()) / (1 + D() * Z())
    assert rf.value(Fraction(1, 2), delta=Fraction(2), x=Fraction(0)) == Fraction(1, 4)


def test_value_raises_on_a_pole():
    with pytest.raises(ZeroDivisionError):
        (1 / Z()).value(0, 1, 1)
    with pytest.raises(ZeroDivisionError):
        (1 / (Z() - X())).value(Fraction(1, 2), 0, Fraction(1, 2))


def test_common_monomial_cancels():
    # x z / (x (1 - z)): the common factor x leaves the denominator, so the
    # removable point x = 0 evaluates
    rf = (X() * Z()) / (X() * (1 - Z()))
    assert all(j == 0 for (_, j, _) in rf.den)
    assert rf.value(Fraction(1, 3), delta=1, x=0) == Fraction(1, 2)


def _to_sympy(sympy, rf, d, x, z):
    def poly(p):
        return sum(
            sympy.Rational(v.numerator, v.denominator) * d**i * x**j * z**k for (i, j, k), v in p.items()
        )

    return poly(rf.num) / poly(rf.den)


def test_sympy_cancel_cross_check():
    sympy = pytest.importorskip("sympy")
    d, x, z = sympy.symbols("Delta x z")
    derived = oracle.eliminate_to_second_order(oracle.build_first_order_system())
    direct = (
        z * (1 - z),
        (4 * d + 1) - (8 * d + 1) * z,
        4 * d**2 / z + 2 * d * (2 * d - 1) / (1 - z) + (x**2 - 16 * d**2),
    )
    for got, want in zip(derived, direct):
        assert sympy.cancel(_to_sympy(sympy, got, d, x, z)) == sympy.cancel(want)
    gauged = oracle.transform_ode(derived)
    for got, want in zip(gauged, (z * (1 - z), 1 - z, x**2)):
        assert sympy.cancel(_to_sympy(sympy, got, d, x, z)) == sympy.cancel(want)


# -- randomized field axioms ------------------------------------------------

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def small_param(c, d, x):
    return C(c) + d * D() + x * X()


@given(fractions, fractions, fractions, fractions, fractions, fractions)
def test_param_field_ring_axioms(a1, a2, b1, b2, c1, c2):
    a = small_param(a1, a2, b1)
    b = small_param(b1, b2, c1)
    c = small_param(c1, c2, a1)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not b.is_zero:
        assert (a / b) * b == a


@given(fractions, fractions, fractions, fractions)
def test_rational_function_field_axioms(a0, a1, b0, b1):
    a = a0 + a1 * Z()
    b = b0 + b1 * Z() + Z() * Z()
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a


@given(fractions, fractions, fractions, fractions)
def test_leibniz_rule(a0, a1, b0, b1):
    f = (a0 + a1 * Z()) / (1 + Z())
    g = b0 + b1 * Z() + Z() * Z()
    lhs = (f * g).differentiate()
    rhs = f.differentiate() * g + f * g.differentiate()
    assert lhs == rhs


@given(fractions, fractions)
def test_derivative_of_quotient(a0, b0):
    # f = p/q with p linear, so (f q)'' = f'' q + 2 f' q' + f q'' = p'' = 0
    p = a0 + Z()
    q = 1 + b0 * Z() + Z() ** 2
    f = p / q
    f1 = f.differentiate()
    assert f1.differentiate() * q + 2 * f1 * q.differentiate() + f * q.differentiate().differentiate() == 0
