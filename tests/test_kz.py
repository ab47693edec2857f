"""The exact checks on their grid, against the rational-function oracle, and the hypergeometric numerics."""

import itertools
import math
import time
from fractions import Fraction
from random import Random

import pytest

import _rational_oracle as oracle
from gl11kl import kz
from test_symbolic import _to_sympy

F = Fraction
Z, D, X = oracle.Z, oracle.D, oracle.X
MINUS_X = tuple(-x for _, x, _ in kz._GRID)


def _at(rf, point):
    """The value of a RationalFunction at a (Delta, x, z) point."""
    d, x, z = point
    return rf.value(z, d, x)


def _on_grid(functions) -> tuple:
    """Each RationalFunction's values at the points of ``kz._GRID``."""
    return tuple(tuple(_at(rf, p) for p in kz._GRID) for rf in functions)


def _coefficients(ode) -> tuple:
    return ode.a2, ode.a1, ode.a0


def _jets(entry) -> list:
    return [(j.v, j.d) for j in entry]


def _derived():
    return kz.eliminate_to_second_order(kz.build_first_order_system())


# -- the grid and the proof's premise -----------------------------------------

# per identity, the degree in (Delta, x, z) of the cleared numerator p1 q2 - p2 q1,
# as the kz module docstring states it
STATED_DEGREES = {
    "elimination_matches_direct_coefficients": (2, 2, 4),
    "gauge_transform_to_hypergeometric": (0, 2, 2),
    "scalar_pair_residual": (0, 1, 0),
}


def _axes() -> list:
    return [sorted({p[i] for p in kz._GRID}) for i in range(3)]


def test_grid_is_the_stated_product_grid():
    axes = _axes()
    assert axes == [[0, 1, 2], [1, 2, 3], [2, 3, 4, 5, 6]]
    assert list(kz._GRID) == list(itertools.product(*axes))
    # with z a Fraction, no quotient on the grid falls back to a float
    assert all(type(z) is Fraction for _, _, z in kz._GRID)


def test_grid_exceeds_identity_degrees():
    # Each side of each identity, reduced to p/q by sympy: the grid has more
    # points in each variable than p1 q2 - p2 q1 has degree, and no reduced
    # denominator vanishes on it, so a pass on the grid proves the identity.
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("Delta x z")
    sizes = [len(axis) for axis in _axes()]
    for name, (lhs, rhs) in oracle.identities().items():
        degrees = [0, 0, 0]
        for a, b in zip(lhs, rhs):
            (p1, q1), (p2, q2) = (sympy.fraction(sympy.cancel(_to_sympy(sympy, f, *syms))) for f in (a, b))
            for product in (p1 * q2, p2 * q1):
                poly = sympy.Poly(product, *syms)
                degrees = [max(n, poly.degree(s)) for n, s in zip(degrees, syms)]
            for q in {q1, q2}:
                assert all(q.subs(dict(zip(syms, p))) != 0 for p in kz._GRID), (name, q)
        assert tuple(degrees) == STATED_DEGREES[name]
        assert all(size > n for size, n in zip(sizes, degrees)), name


def test_oracle_identities_hold_symbolically():
    assert oracle.identities_hold()


def test_grid_values_are_the_oracle_functions():
    derived, want = _derived(), oracle.eliminate_to_second_order(oracle.build_first_order_system())
    assert _coefficients(derived) == _on_grid(want)
    assert _coefficients(kz.correlator_ode()) == _on_grid(oracle.correlator_ode())
    assert _coefficients(kz.hypergeometric_ode()) == _on_grid(oracle.hypergeometric_ode())
    assert _coefficients(kz.transform_ode(derived)) == _on_grid(oracle.transform_ode(want))
    assert _coefficients(kz.transform_ode(kz.hypergeometric_ode())) == _on_grid(
        oracle.transform_ode(oracle.hypergeometric_ode())
    )
    assert (kz.vanish1_residual(),) == _on_grid([oracle.vanish1_residual()])


# -- first-order system ------------------------------------------------------


def test_system_shares_diagonal():
    m = kz.build_first_order_system()
    assert _jets(m[0][0]) == _jets(m[1][1])


def test_system_is_the_oracle_system_on_the_grid():
    # each entry's value and z-derivative, the derivative by the jets' rules
    for row, want_row in zip(kz.build_first_order_system(), oracle.build_first_order_system()):
        for entry, rf in zip(row, want_row):
            assert _jets(entry) == list(zip(*_on_grid([rf, rf.differentiate()])))


def test_system_at_delta_zero():
    m = kz.build_first_order_system()
    for i, (d, x, z) in enumerate(kz._GRID):
        if d == 0:
            assert (m[0][0][i].v, m[0][0][i].d) == (0, 0)
            assert m[0][1][i].v == -x / (1 - z)
            assert m[1][0][i].v == x / z


def test_system_trace():
    m = kz.build_first_order_system()
    trace = 4 * D * (2 * Z - 1) / (Z * (1 - Z))
    want = list(zip(*_on_grid([trace, trace.differentiate()])))
    assert [(a.v + b.v, a.d + b.d) for a, b in zip(m[0][0], m[1][1])] == want


# -- elimination -------------------------------------------------------------


def _eliminate(m, g_prime_sign):
    """The arithmetic of ``kz.eliminate_to_second_order``, with the sign of g' in a1 as given."""
    rows = []
    for m00, m01, m10, m11 in zip(m[0][0], m[0][1], m[1][0], m[1][1]):
        g = 1 / m10
        a1 = g_prime_sign * g.d - g.v * m11.v - m00.v * g.v
        rows.append((g.v, a1, -(g.v * m11.d) - g.d * m11.v + m00.v * g.v * m11.v - m01.v))
    return kz._ode(rows).normalized()


def _direct(sign):
    """``kz.correlator_ode`` with 2 Delta (2 Delta + sign) in a0; sign -1 is the equation."""
    rows = []
    for d, x, z in kz._GRID:
        a0 = 4 * d * d / z + 2 * d * (2 * d + sign) / (1 - z) + (x * x - 16 * d * d)
        rows.append((z * (1 - z), (4 * d + 1) - (8 * d + 1) * z, a0))
    return kz._ode(rows)


def test_elimination_reproduces_direct_coefficients():
    derived = kz.eliminate_to_second_order(kz.build_first_order_system())
    assert derived == kz.correlator_ode().normalized()


def test_elimination_delta_zero_is_hypergeometric():
    derived, hyper = _derived(), kz.hypergeometric_ode()
    at_zero = [i for i, (d, _, _) in enumerate(kz._GRID) if d == 0]
    assert len(at_zero) == 15
    for got, want in zip(_coefficients(derived), _coefficients(hyper)):
        assert [got[i] for i in at_zero] == [want[i] for i in at_zero]


def test_elimination_rejects_degenerate_system():
    m = kz.build_first_order_system()
    zero = tuple(0 * entry for entry in m[1][0])
    broken = ((m[0][0], m[0][1]), (zero, m[1][1]))
    with pytest.raises(ZeroDivisionError):
        kz.eliminate_to_second_order(broken)


def test_elimination_at_rational_sample_points():
    # independent spot check of the oracle off the grid: evaluate its derived
    # coefficients at exact rational (z, Delta, x) and compare with the
    # directly entered ones, written out in Fractions
    derived = oracle.eliminate_to_second_order(oracle.build_first_order_system())
    rng = Random(6)
    for _ in range(20):
        z = F(rng.randint(1, 9), 10)
        d = F(rng.randint(-4, 4), rng.randint(1, 3))
        x = F(rng.randint(-4, 4), rng.randint(1, 3))
        a0 = 4 * d * d / z + 2 * d * (2 * d - 1) / (1 - z) + (x * x - 16 * d * d)
        assert [a.value(z, d, x) for a in derived] == [z * (1 - z), (4 * d + 1) - (8 * d + 1) * z, a0]


def test_grid_catches_the_direct_a0_mutant():
    # 2 Delta (2 Delta - 1) -> 2 Delta (2 Delta + 1) in the direct a0
    derived = _derived()
    assert _direct(-1) == kz.correlator_ode()
    assert derived == _direct(-1).normalized()
    assert derived != _direct(1).normalized()


def test_grid_catches_a_flipped_g_prime_sign():
    # a1 = g' - g M11 - M00 g -> -g' - g M11 - M00 g
    m = kz.build_first_order_system()
    direct = kz.correlator_ode().normalized()
    assert _eliminate(m, 1) == kz.eliminate_to_second_order(m) == direct
    assert _eliminate(m, -1) != direct


# -- gauge transform and scalar pair -----------------------------------------


def test_check_transform():
    assert kz.check_transform()


def test_transform_is_identity_at_delta_zero():
    ode = kz.correlator_ode().normalized()
    got = kz.transform_ode(kz.correlator_ode())
    hyper = kz.hypergeometric_ode()
    at_zero = [i for i, (d, _, _) in enumerate(kz._GRID) if d == 0]
    for a, b, c in zip(_coefficients(got), _coefficients(ode), _coefficients(hyper)):
        assert [a[i] for i in at_zero] == [b[i] for i in at_zero] == [c[i] for i in at_zero]


def test_mutated_gauge_exponent_fails(monkeypatch):
    # the exponent 2 Delta -> 2 Delta + 1 in the transform only: the system
    # is eliminated before the mutant gauge is in place
    derived = _derived()
    for shift, holds in ((0, True), (1, False)):
        mutant = tuple((2 * d + shift) * (1 / (1 - kz._Jet(z, 1)) - 1 / kz._Jet(z, 1)) for d, _, z in kz._GRID)
        monkeypatch.setattr(kz, "_gauge", lambda mutant=mutant: mutant)
        assert (kz.transform_ode(derived) == kz.hypergeometric_ode()) is holds, shift


def test_vanish1_residual_is_minus_x():
    assert kz.verify_vanish1()
    assert kz.vanish1_residual() == MINUS_X


def test_vanish1_degenerates_at_x_zero():
    # at x = 0 the relation degenerates to 0 = 0 (atypical degeneration); the
    # grid avoids x = 0, so the oracle shows it
    assert oracle.vanish1_residual().subs(x=0).is_zero


def test_vanish1_sign_mutation_detected():
    # -2 Delta f -> +2 Delta f on the left side of the scalar pair
    def residual(sign):
        return tuple(
            sign * 2 * d - z * r.v - (-2 * d / (1 - z) + 2 * d + x) for (d, x, z), r in zip(kz._GRID, kz._gauge())
        )

    assert residual(-1) == kz.vanish1_residual()
    assert residual(1) != MINUS_X
    assert residual(1) != tuple(-x for x in MINUS_X)


# -- series evaluation -------------------------------------------------------


def test_hyp2f1_at_origin_and_x_zero():
    assert kz._gauss_series(3 / 7, 0.0, 1e-12)[0] == 1.0
    for z in (0.0, 0.3, 0.9, -0.5):
        assert kz._gauss_series(0.0, z, 1e-12)[0] == 1.0


def test_hyp2f1_half_at_one_is_two_over_pi():
    assert abs(kz.rigidity_constant(F(1, 2)) - 2 / math.pi) < 1e-10


def test_partial_sums_telescope_to_product():
    # sum_{n<=N} c_n = prod_{j<=N} (1 - x^2/j^2), the identity behind the
    # z = 1 evaluation; the partial sum is taken by direct term accumulation
    for x in (0.5, 0.3, 1.7):
        lhs = term = 1.0
        for n in range(400):
            term *= kz._term_ratio(n, x)
            lhs += term
        rhs = 1.0
        for j in range(1, 401):
            rhs *= 1.0 - x * x / (j * j)
        assert abs(lhs - rhs) < 1e-12


def test_gauss_terms_decay_quadratically():
    # |c_n| n^2 stays bounded (monitored tail estimate)
    x = 0.7
    c = 1.0
    bound = 0.0
    for n in range(2000):
        c *= (n * n - x * x) / ((n + 1) ** 2)
        if n >= 2:
            bound = max(bound, abs(c) * (n + 1) ** 2)
    assert bound < 2.0
    assert abs(c) * 2000**2 < 2.0


def test_rigidity_constant_matches_closed_form():
    for num, den in ((1, 10), (1, 3), (2, 5), (1, 2), (7, 10)):
        x = F(num, den)
        assert abs(kz.rigidity_constant(x) - kz.rigidity_constant_closed_form(x)) < 1e-8


def test_rigidity_constant_meets_tol_against_closed_form():
    # stdlib twin of the 40-digit check in test_kz_mpmath; above 1e-10 the
    # closed form's own rounding does not matter
    for x in (F(1, 10), F(1, 3), F(2, 5), F(1, 2), F(7, 10), F(5, 2), F(49, 2), F(99, 2)):
        for tol in (1e-6, 1e-8, 1e-10):
            assert abs(kz.rigidity_constant(x, tol) - kz.rigidity_constant_closed_form(x)) <= tol, (x, tol)


def gauss_log_tail_error(x: float, n: int) -> float:
    # the first neglected Euler-Maclaurin terms of x^2 s2 and x^4/2 s4, and
    # the leading x^8/4 s8 term of the log of prod_{j>n} (1 - x^2/j^2)
    return (x**2 + 3.5 * x**4 + 1.5 * x**8) / (42 * n**7)


def test_gauss_factor_count_is_sized_from_tol():
    # the fewest factors, and at least 2|x|, that hold the tail error below tol/1000
    for x in (0.1, 0.4, 0.7, 2.5, 24.5, 49.5):
        for tol in (1e6, 1e-6, 1e-10, 1e-12, 1e-15):
            n = kz._gauss_factor_count(x, tol)
            assert n >= 2 * abs(x) and gauss_log_tail_error(x, n) <= tol / 1000, (x, tol)
            assert n - 1 < 2 * abs(x) or gauss_log_tail_error(x, n - 1) > tol / 1000, (x, tol)
    assert kz._gauss_factor_count(0.5, 1e-12) < kz._gauss_factor_count(0.5, 1e-15) < 200


def test_rigidity_constant_rejects_tol_below_floor():
    for tol in (9e-16, 1e-300, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol"):
            kz.rigidity_constant(F(1, 3), tol)
    assert kz.rigidity_constant(F(1, 3), 1e-15) > 0


def test_rigidity_closed_form_values():
    assert abs(kz.rigidity_constant_closed_form(F(1, 2)) - 2 / math.pi) < 1e-15
    want = 3 * math.sqrt(3) / (2 * math.pi)
    assert abs(kz.rigidity_constant_closed_form(F(1, 3)) - want) < 1e-15
    # sinc limit: the constant tends to 1 as x -> 0
    assert abs(kz.rigidity_constant_closed_form(F(1, 10**6)) - 1.0) < 1e-11


def test_rigidity_rejects_integers():
    with pytest.raises(ValueError):
        kz.rigidity_constant(F(2))
    with pytest.raises(ValueError):
        kz.rigidity_constant_closed_form(F(0))


def test_rigidity_rejects_large_parameters():
    assert kz.rigidity_constant(F(99, 2)) != 0
    for x in (F(101, 2), F(-101, 2)):
        with pytest.raises(ValueError, match="too large"):
            kz.rigidity_constant(x)


def test_ode_residual_small():
    # small parameters: |Delta| <= 3/2 keeps the gauge-factor amplification
    # of double-precision rounding below the 1e-10 target at z = 0.9
    rng = Random(8)
    for _ in range(10):
        x = F(rng.randint(1, 7), rng.randint(2, 8))
        if x.denominator == 1:
            x += F(1, 2)
        d = F(rng.randint(-6, 6), rng.randint(4, 8))
        for z in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert kz.ode_residual(x, d, z) < 1e-10


def test_ode_residual_x_zero_case():
    # with x = 0 the fundamental solution is the pure gauge factor
    for z in (0.2, 0.5, 0.8):
        assert kz.ode_residual(F(0), F(3, 4), z) < 1e-12


def test_ode_residual_mutation_control():
    # mismatched parameters leave an O(1) residual
    x, d, z = F(1, 2), F(3, 8), 0.5
    f, f1, f2 = kz._gauss_series(float(x), z, 1e-14)
    df = float(d)
    w = z ** (-2 * df) * (1 - z) ** (-2 * df)
    r1 = -2 * df / z + 2 * df / (1 - z)
    r2 = r1 * r1 + 2 * df / z**2 + 2 * df / (1 - z) ** 2
    phi = w * f
    phi1 = w * (r1 * f + f1)
    phi2 = w * (r2 * f + 2 * r1 * f1 + f2)
    a2 = z * (1 - z)
    a1 = (4 * df + 1) - (8 * df + 1) * z
    wrong_a0 = 4 * df**2 / z + 2 * df * (2 * df - 1) / (1 - z) + (float(x) ** 2 - 16 * df**2) + 1.0
    assert abs(a2 * phi2 + a1 * phi1 + wrong_a0 * phi) > 0.1


def test_ode_residual_rejects_endpoints():
    with pytest.raises(ValueError):
        kz.ode_residual(F(1, 2), F(0), 0.0)
    with pytest.raises(ValueError):
        kz.ode_residual(F(1, 2), F(0), 1.0)


def test_gauss_series_stops_at_a_tiny_tail_bound():
    # a tail bound of 1e-300 is met once z^n underflows, at once even at the
    # slowest corner of ode_residual's domain, and it moves the sums by rounding only
    for x, z in ((0.5, 0.5), (99 / 2, 0.9), (-99 / 2, 0.9)):
        t0 = time.perf_counter()
        sums = kz._gauss_series(x, z, 1e-300)
        assert time.perf_counter() - t0 < 0.1, (x, z)
        assert sums == pytest.approx(kz._gauss_series(x, z, 1e-14), rel=1e-12, abs=1e-12), (x, z)


# the (x, Delta) points of ``verification_report`` and its z samples
REPORT_PAIRS = ((F(1, 2), F(3, 8)), (F(1, 3), F(-1, 2)), (F(2, 5), F(1, 4)), (F(-1, 2), F(5, 8)), (F(3, 4), F(2, 3)))
REPORT_Z = (0.1, 0.25, 0.5, 0.75, 0.9)


def _gauss_sums(x: float, z: float, tol: float) -> tuple[float, float, float]:
    """The termwise sums of ``kz._gauss_series`` in their former spelling, with no term cap."""
    c, f, f1, f2, n = 1.0, 1.0, 0.0, 0.0, 0
    while True:
        c = c * kz._term_ratio(n, x)
        n += 1
        zn = z ** (n - 1)
        f += c * zn * z
        f1 += c * n * zn
        if n >= 2:
            f2 += c * n * (n - 1) * z ** (n - 2)
        if n > abs(x) + 2:
            bound = abs(c) * max(1.0, n * n) * abs(z) ** max(0, n - 2) / max(1e-30, 1.0 - abs(z))
            if bound < tol:
                return f, f1, f2


def _first_residual(x: Fraction, d: Fraction, z: float, tol: float = 1e-14) -> float:
    """The former ``kz.ode_residual`` arithmetic on ``_gauss_sums``: the floats the package must keep."""
    big_f, big_f1, big_f2 = _gauss_sums(float(x), z, tol)
    zq = F(z)
    r1 = -2 * d / zq + 2 * d / (1 - zq)
    r2 = r1 * r1 + 2 * d / (zq * zq) + 2 * d / ((1 - zq) * (1 - zq))
    a2 = zq * (1 - zq)
    a1 = (4 * d + 1) - (8 * d + 1) * zq
    a0 = 4 * d * d / zq + 2 * d * (2 * d - 1) / (1 - zq) + (x * x - 16 * d * d)
    parts = (a2 * r2, 2 * a2 * r1, a2, a1 * r1, a1, a0)
    bracket = math.fsum(float(p) * s for p, s in zip(parts, (big_f, big_f1, big_f2, big_f, big_f1, big_f)))
    return abs(z ** (-2 * float(d)) * (1 - z) ** (-2 * float(d)) * bracket)


def _small_draws(seed: int) -> list:
    """The (x, Delta) draws of ``test_ode_residual_small`` (seed 8) and criterion 6 (seed 106)."""
    rng = Random(seed)
    draws = []
    for _ in range(10):
        x = F(rng.randint(1, 7), rng.randint(2, 8))
        if x.denominator == 1:
            x += F(1, 2)
        draws.append((x, F(rng.randint(-6, 6), rng.randint(4, 8))))
    return draws


def test_ode_residual_keeps_its_floats_bit_for_bit():
    # the domain check and the guard-free loop leave every sampled residual as it was
    for x, d in (*REPORT_PAIRS, *_small_draws(8), *_small_draws(106)):
        for z in REPORT_Z:
            assert kz.ode_residual(x, d, z) == _first_residual(x, d, z), (x, d, z)


def test_gauss_series_keeps_the_summed_values():
    # the sample points of ``verification_report``, bit for bit
    for x, _ in REPORT_PAIRS:
        for z in REPORT_Z:
            assert kz._gauss_series(float(x), z, 1e-14) == _gauss_sums(float(x), z, 1e-14), (x, z)


def test_ode_residual_meets_its_bound_at_z_0_9():
    # the domain's end: the docstring states a worst of 7.6e-13 there
    for x, d in (*REPORT_PAIRS, *_small_draws(8), *_small_draws(106)):
        assert kz.ode_residual(x, d, 0.9) < 1e-12, (x, d)


def test_ode_residual_domain_ends_at_z_0_9():
    # above 0.9 the residual outgrows 1e-10 (8.8e-10 at 0.99), and near 1 the
    # tail bound needs ~ln(tol)/ln(z) terms: such z raise before any summing
    for z in (math.nextafter(0.9, 1.0), 0.95, 0.99999, 1 - 1e-14, math.nan):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="z must lie"):
            kz.ode_residual(F(1, 2), F(3, 8), z)
        assert time.perf_counter() - t0 < 0.1, z


def test_ode_residual_domain_starts_at_z_0_1():
    # below 0.1 the absolute residual grows with the gauge factor: at x = 7/4,
    # Delta = 3/2 it was 9.1e-8 at z = 0.01 and 4.8e8 at 1e-6; such z raise at once
    x, d = F(7, 4), F(3, 2)
    for z in (math.nextafter(0.1, 0.0), 0.05, 0.01, 1e-6, 0.0):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="z must lie"):
            kz.ode_residual(x, d, z)
        assert time.perf_counter() - t0 < 0.1, z
    assert kz.ode_residual(x, d, 0.1) < 1e-11


def test_ode_residual_parameter_size():
    # |x| <= 50 as for the z = 1 constant: the slowest corner still returns
    # at once, and no bound is claimed there (about 1e21)
    for x in (F(99, 2), F(-99, 2)):
        t0 = time.perf_counter()
        assert kz.ode_residual(x, F(3, 8), 0.9) > 0
        assert time.perf_counter() - t0 < 0.1, x
    for x in (F(101, 2), F(-101, 2)):
        with pytest.raises(ValueError, match="too large"):
            kz.ode_residual(x, F(3, 8), 0.5)


def test_verification_report_passes_quickly():
    t0 = time.time()
    report = kz.verification_report(tol=1e-12)
    elapsed = time.time() - t0
    assert all(c["status"] == "pass" for c in report)
    assert {c["check"] for c in report} == {
        "elimination_matches_direct_coefficients",
        "gauge_transform_to_hypergeometric",
        "scalar_pair_residual",
        "gauss_value_vs_closed_form",
        "fundamental_solution_residual",
    }
    assert elapsed < 5.0


def test_verification_report_eliminates_once(monkeypatch):
    calls = []
    eliminate = kz.eliminate_to_second_order

    def counted(system):
        calls.append(system)
        return eliminate(system)

    monkeypatch.setattr(kz, "eliminate_to_second_order", counted)
    report = kz.verification_report(tol=1e-12)
    assert len(calls) == 1
    assert report[1] == {"check": "gauge_transform_to_hypergeometric", "status": "pass"}
    # the gauge check transforms the derived ODE, so a wrong elimination fails both
    monkeypatch.setattr(kz, "eliminate_to_second_order", lambda system: kz.hypergeometric_ode())
    assert [c["status"] for c in kz.verification_report(tol=1e-12)[:2]] == ["fail", "fail"]
