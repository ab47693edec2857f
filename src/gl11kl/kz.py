"""The correlator ODE: its exact identities, checked on a grid, and its numerics.

The two coupled first-order equations satisfied by the four-point functions
are eliminated to a single second-order Fuchsian ODE with regular singular
points at 0, 1 and infinity, normalized so the leading coefficient is
z(1-z).  The parameters Delta (lowest conformal weight) and x (= e/k) are
treated as independent formal parameters.  A gauge transform by
z^{2 Delta} (1-z)^{2 Delta} carries the ODE to the hypergeometric equation
with parameters (x, -x; 1), whose value at z = 1 is the nonzero constant
sin(pi x)/(pi x) that certifies duality for the typical simples.

The indicial exponents at z = 0 coincide, so the fundamental solution
phi1(z) = z^{-2 Delta}(1-z)^{-2 Delta} F(x, -x; 1; z) has a logarithmic
partner z^{-2 Delta}(1-z)^{-2 Delta} (F(...) log z + G(z)) with G a power
series fixed only up to multiples of phi1.  None of the implemented checks
need the partner, so it is recorded here and not computed.

The three exact identities (the elimination gives the directly entered
coefficients, the gauge transform gives the hypergeometric form, and the
scalar pair leaves -x) are rational in (Delta, x, z).  Each is checked by
exact evaluation on the product grid ``_GRID``: Delta in {0, 1, 2}, x in
{1, 2, 3} and z in {2, ..., 6}, clear of the poles x = 0, z = 0 and z = 1.
With each side in reduced form p/q (q a product of x, z and 1 - z), the
cleared numerator p1 q2 - p2 q1 has degree at most (Delta 2, x 2, z 4) for
the elimination, (0, 2, 2) for the gauge transform and (0, 1, 0) for the
scalar pair (measured with sympy's ``cancel``; the tests measure it again).
The grid has more points than that in each variable, and a polynomial that
vanishes on such a product grid is zero, so a pass on its 3 x 3 x 5 = 45
points is a proof.  The checks' only derivatives, g' and M11' in the
elimination and r1' = (w'/w)' in the transform, come from ``_Jet``, an
exact (value, d/dz) pair.

Floating-point evaluation is double precision.  That the z = 1 constant
meets ``tol`` down to 1e-15 is measured, not proved: at tol = 1e-15 its
worst error on the report's x is 6.7e-16, while the worst-case rounding of
its n-factor product, about 3n 2^-53 relative, is 7.7e-14 at the report's
largest x, 7/10 (n = 230), above that ``tol``.  The ODE residual
substitutes into the same coefficients as ``correlator_ode`` and the same
gauge jet as the transform, on 0.1 <= z <= 0.9, |x| <= 50.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .frozen import Frozen

#: the (Delta, x, z) points of the exact checks; z is a Fraction, so every quotient is exact
_GRID = tuple((d, x, Fraction(z)) for d in range(3) for x in (1, 2, 3) for z in range(2, 7))


class _Jet:
    """An exact value v and its z-derivative d; each operation applies its derivative rule.

    Only what the checks use is defined: a jet minus a jet, and a constant
    minus, times or divided by a jet.  Any other mix raises.
    """

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __sub__(self, other):
        return _Jet(self.v - other.v, self.d - other.d)

    def __rsub__(self, c):
        return _Jet(c - self.v, -self.d)

    def __rmul__(self, c):
        return _Jet(c * self.v, c * self.d)

    def __rtruediv__(self, c):
        q = c / self.v
        return _Jet(q, -q * self.d / self.v)


def _ode(rows) -> "SecondOrderOde":
    """The equation whose coefficients at the points of ``_GRID`` are rows, one (a2, a1, a0) per point."""
    return SecondOrderOde(*zip(*rows))


class SecondOrderOde(Frozen):
    """a2 f'' + a1 f' + a0 f = 0, by its coefficients' values at the points of ``_GRID``."""

    __slots__ = ("a2", "a1", "a0")  # tuples of exact numbers, in the order of _GRID

    def __init__(self, a2: tuple, a1: tuple, a0: tuple):
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a0", a0)

    def normalized(self) -> "SecondOrderOde":
        """Rescale so the leading coefficient is exactly z(1-z); a zero a2 raises ZeroDivisionError."""
        scales = [z * (1 - z) / a2 for (_, _, z), a2 in zip(_GRID, self.a2)]
        return _ode((a2 * s, a1 * s, a0 * s) for s, a2, a1, a0 in zip(scales, self.a2, self.a1, self.a0))


def _gauge_jet(d, z) -> _Jet:
    """2 Delta (1/(1-z) - 1/z) as a jet: w'/w for w = z^{-2D}(1-z)^{-2D}, and its derivative."""
    return 2 * d * (1 / (1 - _Jet(z, 1)) - 1 / _Jet(z, 1))


@cache  # the system, the transform and the scalar pair share it; no caller mutates a jet
def _gauge() -> tuple:
    """``_gauge_jet`` at the points of ``_GRID``: the system's diagonal, and w'/w."""
    return tuple(_gauge_jet(d, z) for d, _, z in _GRID)


def build_first_order_system() -> tuple:
    """The coupled system (f1', f3') = M (f1, f3), as M = ((M00, M01), (M10, M11)).

    Shared diagonal 2*Delta*(1/(1-z) - 1/z); off-diagonal couplings
    -x/(1-z) and x/z.  Each entry is a tuple of jets, one per grid point.
    """
    diag = _gauge()
    m01 = tuple(-x / (1 - _Jet(z, 1)) for _, x, z in _GRID)
    m10 = tuple(x / _Jet(z, 1) for _, x, z in _GRID)
    return ((diag, m01), (m10, diag))


def eliminate_to_second_order(m: tuple) -> SecondOrderOde:
    """Eliminate the first component to the ODE satisfied by the second.

    Solving the second row for f1 = g (f3' - M11 f3), g = 1/M10, and
    substituting into the first row gives a2 f3'' + a1 f3' + a0 f3 = 0 with
    a2 = g, a1 = g' - g M11 - M00 g and a0 = -g M11' - g' M11 + M00 g M11 - M01,
    normalized so the leading coefficient is z(1-z).  A zero M10 raises
    ZeroDivisionError.
    """
    rows = []
    for m00, m01, m10, m11 in zip(m[0][0], m[0][1], m[1][0], m[1][1]):
        g = 1 / m10
        a1 = g.d - g.v * m11.v - m00.v * g.v
        a0 = -(g.v * m11.d) - g.d * m11.v + m00.v * g.v * m11.v - m01.v
        rows.append((g.v, a1, a0))
    return _ode(rows).normalized()


def _correlator_row(d, x, z) -> tuple:
    """(a2, a1, a0) of the correlator ODE at one (Delta, x, z), entered directly."""
    a0 = 4 * d * d / z + 2 * d * (2 * d - 1) / (1 - z) + (x * x - 16 * d * d)
    return z * (1 - z), (4 * d + 1) - (8 * d + 1) * z, a0


def correlator_ode() -> SecondOrderOde:
    """The second-order ODE with its coefficients entered directly.

    z(1-z) f'' + [(4D+1) - (8D+1) z] f' +
    [4D^2/z + 2D(2D-1)/(1-z) + (x^2 - 16D^2)] f = 0, D = Delta.
    """
    return _ode(_correlator_row(d, x, z) for d, x, z in _GRID)


def hypergeometric_ode() -> SecondOrderOde:
    """z(1-z) f'' + (1-z) f' + x^2 f = 0, the (x, -x; 1) normal form."""
    return _ode((z * (1 - z), 1 - z, x * x) for _, x, z in _GRID)


def transform_ode(ode: SecondOrderOde) -> SecondOrderOde:
    """Transport an ODE for f through f = z^{-2D}(1-z)^{-2D} g.

    If f solves the input, the returned ODE is the one g satisfies; the
    gauge factor is handled through its logarithmic derivative r1 = w'/w,
    which is rational, with w''/w = r1^2 + r1', so the computation stays exact.
    """
    return _ode(
        (a2, 2 * a2 * r1.v + a1, a2 * (r1.v * r1.v + r1.d) + a1 * r1.v + a0)
        for r1, a2, a1, a0 in zip(_gauge(), ode.a2, ode.a1, ode.a0)
    ).normalized()


def check_transform() -> bool:
    """Does the gauge transform carry the correlator ODE to hypergeometric form?"""
    return transform_ode(eliminate_to_second_order(build_first_order_system())) == hypergeometric_ode()


def vanish1_residual() -> tuple:
    """Residual coefficient of the overdetermined scalar pair, at the points of ``_GRID``.

    Substituting f' = 2 Delta (1/(1-z) - 1/z) f into
    -2 Delta f - z f' = (-2 Delta/(1-z) + 2 Delta + x) f leaves
    (residual) * f = 0; the residual is the constant -x.
    """
    return tuple(-2 * d - z * r.v - (-2 * d / (1 - z) + 2 * d + x) for (d, x, z), r in zip(_GRID, _gauge()))


def verify_vanish1() -> bool:
    """True iff the scalar pair forces x * f = 0 exactly."""
    return vanish1_residual() == tuple(-x for _, x, _ in _GRID)


# ---------------------------------------------------------------------------
# numeric layer
# ---------------------------------------------------------------------------

#: smallest ``tol`` the z = 1 evaluation accepts: the rounding of its product
#: reached 6.1e-16 against 40-digit values for 1/10 <= x <= 99/2
_TOL_FLOOR = 1e-15
_X_MAX = 50.0  # largest |x| the z = 1 constant and the ODE residual accept
_RESIDUAL_TAIL = 1e-14  # the bound on the tails of ode_residual's three series


def _term_ratio(n: int, x: float) -> float:
    # c_{n+1}/c_n at z = 1 for parameters (x, -x; 1)
    return (n * n - x * x) / ((n + 1.0) * (n + 1.0))


def _gauss_series(x: float, z: float, tol: float) -> tuple[float, float, float]:
    """F, F', F'' at |z| < 1 for parameters (x, -x; 1).

    The three sums are taken termwise until |c_n| n^2 |z|^(n-2) / (1 - |z|),
    which bounds the tail of each, drops below ``tol``.  On the domain of
    ``ode_residual`` that always happens: |c_n| stays below about 1e36 and
    z^n underflows to 0 by n ~ 7,070.
    """
    c, f, f1, f2, n = 1.0, 1.0, 0.0, 0.0, 0
    while True:
        c = c * _term_ratio(n, x)
        n += 1
        zn = z ** (n - 1)
        f += c * zn * z
        f1 += c * n * zn
        if n >= 2:
            f2 += c * n * (n - 1) * z ** (n - 2)
        if n > abs(x) + 2 and abs(c) * (n * n) * abs(z) ** (n - 2) / (1.0 - abs(z)) < tol:
            return f, f1, f2


def _gauss_factor_count(x: float, tol: float) -> int:
    """Factors of the z = 1 product that leave a log-tail error below tol/1000."""
    if not tol >= _TOL_FLOOR:
        raise ValueError(f"tol {tol!r} is below the z = 1 evaluation's floor {_TOL_FLOOR:g}")
    x2 = x * x
    remainder = (x2 + 3.5 * x2 * x2 + 1.5 * x2**4) / 42.0  # times n^-7
    return max(1, math.ceil(2 * abs(x)), math.ceil((remainder / (tol / 1000)) ** (1 / 7)))


def _nonintegral(x) -> float:
    """x as a float, for the z = 1 constant, which is 0 or 1 at integer x."""
    xq = Fraction(x)
    if xq.denominator == 1:
        raise ValueError("x must not be an integer")
    return float(xq)


def rigidity_constant(x, tol: float = 1e-12) -> float:
    """The z -> 1 constant F(x, -x; 1; 1) of the fundamental solution.

    At z = 1 the Gauss series converges absolutely with terms O(n^{-2}); its
    partial sum telescopes to the product prod_{j<=n} (1 - x^2/j^2), which
    is evaluated directly and then multiplied by exp of the log of the rest
    of the product, -sum_m (x^{2m}/m) sum_{j>n} j^{-2m}, kept to m <= 3 with
    Euler-Maclaurin sums.  That log is off by about
    (x^2 + 3.5 x^4 + 1.5 x^8) / (42 n^7), and n is the smallest count, and
    at least 2|x|, that holds this below tol/1000; the rest of ``tol`` is
    left to rounding.  A ``tol`` below 1e-15, where that rounding is of the
    order of ``tol``, raises ValueError, as do integer x and |x| > 50.
    """
    xf = _nonintegral(x)
    if abs(xf) > _X_MAX:
        raise ValueError("parameter too large for the z = 1 evaluation")
    n = _gauss_factor_count(xf, tol)
    prod = 1.0
    x2 = xf * xf
    for j in range(1, n + 1):
        prod *= 1.0 - x2 / (j * j)
    # sum_{j>N} j^{-s} by Euler-Maclaurin for s = 2, 4, 6
    s2 = 1.0 / n - 1.0 / (2 * n**2) + 1.0 / (6 * n**3) - 1.0 / (30.0 * n**5)
    s4 = 1.0 / (3 * n**3) - 1.0 / (2 * n**4) + 1.0 / (3.0 * n**5)
    s6 = 1.0 / (5 * n**5) - 1.0 / (2 * n**6) + 1.0 / (2.0 * n**7)
    log_tail = -(x2 * s2) - (x2 * x2 / 2.0) * s4 - (x2 * x2 * x2 / 3.0) * s6
    return prod * math.exp(log_tail)


def rigidity_constant_closed_form(x) -> float:
    """sin(pi x)/(pi x), the closed form of the same constant."""
    xf = _nonintegral(x)
    return math.sin(math.pi * xf) / (math.pi * xf)


def ode_residual(x, delta, z: float) -> float:
    """Absolute residual of the fundamental solution in the correlator ODE.

    Evaluates f(z) = z^{-2D}(1-z)^{-2D} F(z) and its first two derivatives
    termwise and substitutes into the coefficients of ``correlator_ode`` at z.
    The gauge factor is pulled out of the bracket and the six products are
    combined with compensated summation; each series is summed until its
    tail bound drops below 1e-14.  The domain is 0.1 <= z <= 0.9 and |x| <= 50.
    At the report's (x, Delta) points and twenty draws with |x| <= 5/2 and
    |Delta| <= 3/2, on z = 0.1, ..., 0.9, the worst residual was 2.6e-12, at
    z = 0.1 (7.6e-13 at z = 0.9).  The residual is absolute and carries the
    gauge factor, so it grows off those samples: 8.8e-10 at z = 0.99.  No
    bound is claimed for large parameters either: |x| = 99/2 gives about 1e21.
    """
    if not (0.1 <= z <= 0.9):
        raise ValueError(f"z must lie in [0.1, 0.9], got {z!r}")
    xq, dq = Fraction(x), Fraction(delta)
    xf, df = float(xq), float(dq)
    if abs(xf) > _X_MAX:
        raise ValueError("parameter too large for the residual")
    big_f, big_f1, big_f2 = _gauss_series(xf, z, _RESIDUAL_TAIL)
    zq = Fraction(z)  # exact: binary floats are dyadic rationals
    r1, (a2, a1, a0) = _gauge_jet(dq, zq), _correlator_row(dq, xq, zq)  # w''/w = r1^2 + r1'
    bracket = math.fsum(
        (
            float(a2 * (r1.v * r1.v + r1.d)) * big_f,
            float(2 * a2 * r1.v) * big_f1,
            float(a2) * big_f2,
            float(a1 * r1.v) * big_f,
            float(a1) * big_f1,
            float(a0) * big_f,
        )
    )
    w = z ** (-2 * df) * (1 - z) ** (-2 * df)
    return abs(w * bracket)


def verification_report(tol: float = 1e-12) -> list[dict]:
    """Run every exact and numeric check and report one entry per check.

    Each numeric entry states the threshold it was held to and the sample
    point of its worst error.  The z = 1 values are held to
    ``max(10 * tol, 1e-8)`` and the residuals to 1e-10.  ``tol`` also sizes
    the z = 1 product, so a ``tol`` below its floor 1e-15 raises ValueError,
    as does a ``tol`` whose threshold ``10 * tol`` is not a finite float.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if 10 * tol == math.inf:
        raise ValueError(f"tol {tol!r} is too large: its z = 1 threshold 10 * tol is not a finite float")
    derived = eliminate_to_second_order(build_first_order_system())
    exact = (
        ("elimination_matches_direct_coefficients", derived == correlator_ode().normalized()),
        ("gauge_transform_to_hypergeometric", transform_ode(derived) == hypergeometric_ode()),
        ("scalar_pair_residual", verify_vanish1()),
    )
    checks = [{"check": name, "status": "pass" if ok else "fail"} for name, ok in exact]
    xs = [Fraction(1, 10), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(7, 10)]
    errors = [(abs(rigidity_constant(x, tol) - rigidity_constant_closed_form(x)), str(x)) for x in xs]
    checks.append(_numeric_entry("gauss_value_vs_closed_form", "max_abs_error", max(10 * tol, 1e-8), ("x",), errors))
    pairs = ("1/2", "3/8"), ("1/3", "-1/2"), ("2/5", "1/4"), ("-1/2", "5/8"), ("3/4", "2/3")  # (x, Delta)
    residuals = [(ode_residual(x, d, z), x, d, z) for x, d in pairs for z in (0.1, 0.25, 0.5, 0.75, 0.9)]
    checks.append(_numeric_entry("fundamental_solution_residual", "max_residual", 1e-10, ("x", "Delta", "z"), residuals))
    return checks


def _numeric_entry(check: str, key: str, threshold: float, names: tuple, rows: list) -> dict:
    """The report entry of a numeric check: the first of its (error, *point) rows with the largest error.

    ``key`` names the error, and ``names`` the coordinates of the point.
    """
    worst, *point = max(rows, key=lambda row: row[0])
    return {
        "check": check,
        "status": "pass" if worst < threshold else "fail",
        key: worst,
        "threshold": threshold,
        "worst_at": dict(zip(names, point)),
    }
