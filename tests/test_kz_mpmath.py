"""The double-precision kz numerics against mpmath at 40 digits.

The bounds are the errors met by the current code, pinned so a loss of
accuracy shows.  The module skips when mpmath is absent.
"""

from fractions import Fraction

import pytest

from gl11kl import kz

mpmath = pytest.importorskip("mpmath")

F = Fraction

# the x values of kz.verification_report, plus one above 1
REPORT_X = (F(1, 10), F(1, 3), F(2, 5), F(1, 2), F(7, 10), F(5, 2))

# the (x, Delta) samples of kz.verification_report's residual check
RESIDUAL_SAMPLES = (
    (F(1, 2), F(3, 8)),
    (F(1, 3), F(-1, 2)),
    (F(2, 5), F(1, 4)),
    (F(-1, 2), F(5, 8)),
    (F(3, 4), F(2, 3)),
)


def mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def test_hyp2f1_inside_the_disc():
    with mpmath.workdps(40):
        for z in (0.5, 0.99, 0.999):
            for x in REPORT_X:
                want = mpmath.hyp2f1(mp(x), -mp(x), 1, mpmath.mpf(z))
                assert abs(kz._gauss_series(float(x), z, 1e-12)[0] - want) < 1e-12


def test_rigidity_constant_at_one():
    with mpmath.workdps(40):
        for x in (F(1, 10), F(1, 3), F(7, 10), F(5, 2), F(49, 2)):
            want = mpmath.hyp2f1(mp(x), -mp(x), 1, 1)
            assert abs(want - mpmath.sinc(mpmath.pi * mp(x))) < 1e-35
            assert abs(kz.rigidity_constant(x) - want) <= 1.2e-14


def test_rigidity_constant_meets_tol():
    # the z = 1 product is sized from tol: it meets tol down to the floor 1e-15
    with mpmath.workdps(40):
        for x in (*REPORT_X, F(49, 2), F(99, 2)):
            want = mpmath.sinc(mpmath.pi * mp(x))
            for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15):
                assert abs(kz.rigidity_constant(x, tol) - want) <= tol, (x, tol)


def gauss_and_derivs(x, z):
    # d/dz 2F1(a, b; c; z) = (a b / c) 2F1(a + 1, b + 1; c + 1; z)
    return (
        mpmath.hyp2f1(x, -x, 1, z),
        -(x**2) * mpmath.hyp2f1(1 + x, 1 - x, 2, z),
        -(x**2) * (1 - x**2) / 2 * mpmath.hyp2f1(2 + x, 2 - x, 3, z),
    )


def test_ode_residual_against_mpmath():
    # phi(z) = z^{-2D} (1-z)^{-2D} F(x, -x; 1; z) solves the correlator ODE,
    # so its residual at 40 digits is zero to working precision and the
    # double-precision residual is pure rounding
    with mpmath.workdps(40):
        for x, d in RESIDUAL_SAMPLES:
            xm, dm = mp(x), mp(d)
            for z in (0.1, 0.25, 0.5, 0.75, 0.9):
                zm = mpmath.mpf(z)
                big_f, big_f1, big_f2 = gauss_and_derivs(xm, zm)
                w = zm ** (-2 * dm) * (1 - zm) ** (-2 * dm)
                r1 = -2 * dm / zm + 2 * dm / (1 - zm)
                r2 = r1**2 + 2 * dm / zm**2 + 2 * dm / (1 - zm) ** 2
                phi = w * big_f
                phi1 = w * (r1 * big_f + big_f1)
                phi2 = w * (r2 * big_f + 2 * r1 * big_f1 + big_f2)
                a2 = zm * (1 - zm)
                a1 = (4 * dm + 1) - (8 * dm + 1) * zm
                a0 = 4 * dm**2 / zm + 2 * dm * (2 * dm - 1) / (1 - zm) + (xm**2 - 16 * dm**2)
                assert abs(a2 * phi2 + a1 * phi1 + a0 * phi) < 1e-30
                assert kz.ode_residual(x, d, z) < 1.5e-13
                series = kz._gauss_series(float(x), z, 1e-14)
                for got, want in zip(series, (big_f, big_f1, big_f2)):
                    assert abs(got - want) <= 3e-14 * abs(want)
