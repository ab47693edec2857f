"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact except the two numeric hypergeometric bounds,
whose tolerances are fixed here (1e-10 for the residuals, 1e-8 for the
endpoint values, under one second of runtime).
"""

import time
from fractions import Fraction
from random import Random

from gl11kl import characters as ch
from gl11kl import extensions as ex
from gl11kl import kz, oracle
from gl11kl.fusion import fuse, fuse_formal, k_ring_check
from gl11kl.labels import AtypicalA, FormalSum, TypicalV

import _draws
import _rational_oracle
import _series_oracle as oracle_series

F = Fraction
UNIT = AtypicalA(0, 0)


def _report(number: int, title: str):
    print(f"criterion {number} ({title}): PASS")


def test_criterion_01_fusion_ring_laws():
    rng = Random(101)
    for _ in range(500):
        a, b, c = (_draws.simple_or_projective(rng) for _ in range(3))
        assert fuse(UNIT, a) == FormalSum(a)
        assert fuse(a, b) == fuse(b, a)
        assert fuse_formal(fuse(a, b), FormalSum(c)) == fuse_formal(FormalSum(a), fuse(b, c))
    _report(1, "fusion ring laws: unit, commutativity, associativity")


def test_criterion_02_oracle_equivalence():
    rng = Random(102)

    def check(a, b):
        want = {oracle.fin_label_of(l): m for l, m in fuse(a, b).items()}
        got = oracle.decompose(
            oracle.tensor(
                oracle.realize(oracle.fin_label_of(a)), oracle.realize(oracle.fin_label_of(b))
            )
        )
        assert got == want, (a, b)

    for _ in range(50):
        n, n2 = _draws.rational(rng), _draws.rational(rng)
        e = _draws.nonintegral(rng)
        e2 = _draws.nonintegral(rng)
        if (e + e2).denominator == 1:  # stay in the generic typical branch
            e2 += F(1, 3) if (e2 + F(1, 3)).denominator != 1 else F(1, 5)
        check(TypicalV(n, e), TypicalV(n2, e2))          # sum nonzero
        check(TypicalV(n, e), TypicalV(-n, -e))          # sum zero
        check(AtypicalA(n2, 0), TypicalV(n, e))          # atypical x typical
        check(AtypicalA(n, 0), AtypicalA(n2, 0))         # atypical x atypical
    _report(2, "matrix oracle reproduces the provable top-space fusions")


def test_criterion_03_grothendieck_consistency():
    rng = Random(103)
    for _ in range(100):
        a = _draws.simple_or_projective(rng)
        b = _draws.simple_or_projective(rng)
        assert k_ring_check(a, b), (a, b)
    _report(3, "fusion descends to composition factors")


def test_criterion_04_l0_structure():
    rng = Random(104)
    for _ in range(50):
        n = _draws.rational(rng)
        e = _draws.rational(rng)
        k = _draws.rational(rng)
        if k == 0:
            k = F(1)
        m = oracle.realize(oracle.Verma(n, e))
        want = (e / k) * (n + e / (2 * k))
        # an entry map keeps nonzero entries only
        assert oracle.l0_top_matrix(m, k) == {(i, i): want for i in range(2) if want}
    p0 = oracle.l0_top_matrix(oracle.realize(oracle.Projective(0)), 1)
    assert p0
    assert not oracle.mul(p0, p0)
    dense = [[p0.get((i, j), F(0)) for j in range(4)] for i in range(4)]
    assert oracle.mat_rank(dense) == 1  # one size-2 block
    _report(4, "zero-mode action: scalar on Vermas, size-2 nilpotent on P(0)")


def test_criterion_05_kz_symbolic():
    derived = kz.eliminate_to_second_order(kz.build_first_order_system())
    assert derived == kz.correlator_ode().normalized()
    assert kz.check_transform()
    assert kz.verify_vanish1()
    # the same three identities as equalities of rational functions, by the tests' oracle
    assert _rational_oracle.identities_hold()
    _report(5, "symbolic elimination, gauge transform, scalar-pair residual")


def test_criterion_06_hypergeometric_numeric():
    rng = Random(106)
    t0 = time.time()
    for _ in range(10):
        x = F(rng.randint(1, 7), rng.randint(2, 8))
        if x.denominator == 1:
            x += F(1, 2)
        d = F(rng.randint(-6, 6), rng.randint(4, 8))  # small parameters
        for z in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert kz.ode_residual(x, d, z) < 1e-10
    for num, den in ((1, 10), (1, 3), (2, 5), (1, 2), (7, 10)):
        x = F(num, den)
        got = kz.rigidity_constant(x)
        assert abs(got - kz.rigidity_constant_closed_form(x)) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"numeric suite took {elapsed:.2f}s"
    _report(6, "fundamental-solution residuals and endpoint constant")


def test_criterion_07_induced_character_identity():
    rng = Random(107)
    draws = []
    for i in range(20):
        e = _draws.nonintegral(rng, max_num=4, max_den=4)
        if i % 2 == 0:
            n = F(rng.randint(-2, 2) - e, 2)  # force 2n + e integral
        else:
            n = F(rng.randint(-4, 4), rng.randint(2, 4))
        draws.append((n, e))
    for n, e in draws:
        assert ch.verify_induced_identity(n, e, 4, 3), (n, e)
    _report(7, "induced-module character identity, both weight regimes")


def test_criterion_08_character_additivity():
    rng = Random(108)
    for _ in range(10):
        n = _draws.rational(rng)
        cutoff = F(2)
        window = (n - cutoff - 1, n + cutoff)
        verma = ch.char_verma(n, 0, cutoff)
        below, above = (ch.char_atypical0(n + d, cutoff, window) for d in (F(-1, 2), F(1, 2)))
        lhs, _ = oracle_series.add((below.terms, below.q_cutoff), (above.terms, above.q_cutoff))
        assert lhs == oracle_series.restrict_z((verma.terms, verma.q_cutoff), *window)[0]
    _report(8, "Verma character splits over its two atypical factors")


def test_criterion_09_locality_criteria():
    rng = Random(109)
    for _ in range(200):
        s = _draws.simple(rng)
        assert ex.is_local(s, ex.SL21_MINUS_HALF) == _draws.local_criterion_minus_half(s)
    for _ in range(200):
        s = _draws.simple(rng)
        assert ex.is_local(s, ex.SL21_LEVEL1) == _draws.local_criterion_level1(s)
    _report(9, "monodromy locality matches the closed-form criteria")


def test_criterion_10_monodromy_closed_form():
    rng = Random(110)
    for _ in range(50):
        v = _draws.typical(rng)
        shift = 2 * v.n + v.ehat
        for m in range(-3, 4):
            got = ex.monodromy_exponent(v, ex.SL21_MINUS_HALF.generator_of(m))
            assert (got + m * shift).denominator == 1
    _report(10, "typical monodromy exponent is -m(2n + e) modulo integers")


def test_criterion_11_weight_growth():
    rng = Random(111)
    flat_seen = 0
    for i in range(50):
        if i % 5 == 0:  # force the flat direction
            e = _draws.nonintegral(rng)
            v = TypicalV(-e / 2, e)
        else:
            v = _draws.typical(rng)
        low = ex.weight_growth(v, ex.SL21_MINUS_HALF)
        assert low.quadratic_coeff == 0
        assert low.linear_coeff == -(2 * v.n + v.ehat)
        is_flat = low.classification == "relaxed_flat"
        assert is_flat == (2 * v.n + v.ehat == 0)
        flat_seen += is_flat
        one = ex.weight_growth(v, ex.SL21_LEVEL1)
        assert one.quadratic_coeff == F(1, 2)
    assert flat_seen >= 10
    _report(11, "summand weight growth: linear at level -1/2, m^2/2 at level 1")
