"""Character engine against an independent brute-force expansion."""

import math
from fractions import Fraction
from random import Random

import pytest

from gl11kl import characters as ch
from gl11kl.labels import TypicalV, VermaV0, delta
from gl11kl.series import JacobiSeries, jacobi_equal_to_cutoff

import _draws
import _series_oracle as oracle

F = Fraction


def conformal_weight(n, e):
    """Delta of the Verma at (n, e), as ``labels.delta`` computes it."""
    return delta(VermaV0(n, e) if F(e).denominator == 1 else TypicalV(n, e))


def brute_product_slices(depth: int) -> dict:
    """(q, z) -> coeff of the universal product, by naive dict convolution.

    Independent of the package's series type: multiplies the factors of
    prod (1 + z q^{i+1}) (1 + q^i / z) / (1 - q^{i+1})^2 as plain dicts,
    dropping q-degrees above ``depth``.
    """

    def mul(a, b):
        out = {}
        for (qa, za), ca in a.items():
            for (qb, zb), cb in b.items():
                if qa + qb > depth:
                    continue
                key = (qa + qb, za + zb)
                out[key] = out.get(key, 0) + ca * cb
        return {k: v for k, v in out.items() if v}

    acc = {(0, 0): 1}
    for i in range(depth + 1):
        acc = mul(acc, {(0, 0): 1, (i, -1): 1})
        if i + 1 <= depth:
            acc = mul(acc, {(0, 0): 1, (i + 1, 1): 1})
            geom = {(m * (i + 1), 0): m + 1 for m in range(depth // (i + 1) + 1)}
            acc = mul(acc, geom)
    return acc


def alternating_verma_sum(n, q_cutoff, z_window):
    """The atypical character as the alternating sum of Verma series.

    The former body of ``char_atypical0``: one ``char_verma`` per m, summed
    with sign (-1)^m on Fraction keys, then cut to the z-window.  The loop
    stops once a summand's highest z exponent falls below the window.
    Returns the oracle's (terms, cutoff) pair.
    """
    n, q_cutoff = F(n), F(q_cutoff)
    z_lo, z_hi = F(z_window[0]), F(z_window[1])
    acc = {}
    m = 0
    while n - F(1, 2) - m + q_cutoff >= z_lo:
        for key, coeff in ch.char_verma(n - F(1, 2) - m, 0, q_cutoff).terms.items():
            acc[key] = acc.get(key, 0) + (-1) ** m * coeff
        m += 1
    # every term lies at q in [0, q_cutoff], so none lies beyond the cutoff
    # above the lowest surviving term, whatever cancels
    return oracle.restrict_z(({k: v for k, v in acc.items() if v}, q_cutoff), z_lo, z_hi)


def induced_by_series_arithmetic(n, ehat, m_range, q_cutoff):
    """Both sides of the induced identity by series arithmetic.

    The former body of ``char_induced_typical`` on the oracle's arithmetic:
    the left side as the sum of the Verma summands, the right side as the
    product of one Verma with the exact finite sum of
    q^{-m(2n+ehat)} z^m y^{-2m}.  Returns two (terms, cutoff) pairs.
    """
    n, ehat, q_cutoff = F(n), F(ehat), F(q_cutoff)
    shift = 2 * n + ehat
    depth = q_cutoff + m_range * abs(shift)
    vermas = [ch.char_verma(n + m, ehat - 2 * m, depth) for m in range(-m_range, m_range + 1)]
    lhs = oracle.add(*((v.terms, v.q_cutoff) for v in vermas))
    comb = {(-m * shift, F(m), F(-2 * m)): 1 for m in range(-m_range, m_range + 1)}
    base = ch.char_verma(n, ehat, depth)
    return lhs, oracle.mul((base.terms, base.q_cutoff), (comb, None))


def assert_same_series(got: JacobiSeries, want):
    assert got.terms == want[0]
    assert got.q_cutoff == want[1]
    assert all(type(e) is F for key in got.terms for e in key)
    assert all(type(c) is int and c for c in got.terms.values())


def test_verma_q0_slice():
    s = ch.char_verma(0, 0, 0)
    assert s.terms == {
        (F(0), F(0), F(0)): 1,
        (F(0), F(-1), F(0)): 1,
    }


def test_verma_leading_term_shifted_by_weight():
    s = ch.char_verma(0, 1, 0)
    # Delta_{0,1} = 1/2, prefactor y^1
    assert s.terms == {
        (F(1, 2), F(0), F(1)): 1,
        (F(1, 2), F(-1), F(1)): 1,
    }


def test_verma_against_brute_force():
    depth = 3
    want = brute_product_slices(depth)
    n, e = F(1, 4), F(1, 2)
    d = conformal_weight(n, e)
    got = ch.char_verma(n, e, depth)
    assert {(q - d, z - n): c for (q, z, y), c in got.terms.items()} == {
        k: v for k, v in want.items()
    }
    assert all(y == e for (_, _, y) in got.terms)
    # the triple-product closed form against the product form, depth by depth
    for depth in range(11):
        got = ch.char_verma(0, 0, depth)
        assert {(q, z): c for (q, z, y), c in got.terms.items()} == brute_product_slices(depth)
        assert all(y == 0 for (_, _, y) in got.terms)
        assert got.q_cutoff == depth


def test_universal_product_cache_hooks():
    # the benchmark splits cold from warm character time on these
    ch._universal_product.cache_clear()
    assert ch._universal_product.cache_info().currsize == 0
    ch._universal_product(4)
    ch._universal_product(4)
    info = ch._universal_product.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_verma_q1_slice_values():
    # frozen from the brute-force expansion; the slice total matches the
    # count of one-mode states, 4 modes x 2 top vectors = 8
    want = brute_product_slices(1)
    slice1 = {z: c for (q, z), c in want.items() if q == 1}
    assert slice1 == {1: 1, 0: 3, -1: 3, -2: 1}
    got = ch.char_verma(0, 0, 1)
    assert {k[1]: v for k, v in got.terms.items() if k[0] == 1} == slice1
    assert sum(slice1.values()) == 8


def test_verma_coefficients_nonnegative_and_top_dimension():
    rng = Random(41)
    for _ in range(10):
        n, e = _draws.rational(rng), _draws.rational(rng)
        s = ch.char_verma(n, e, 2)
        assert all(v > 0 for v in s.terms.values())
        d = conformal_weight(n, e)
        top = [v for (q, z, y), v in s.terms.items() if q == d]
        assert sum(top) == 2  # q^0 specialization at y = z = 1


def test_atypical0_vacuum_leading_term():
    # the telescoped sum starts one half-step below the printed z-prefactor
    a = ch.char_atypical0(0, 2, (-4, 2))
    q0 = {k: v for k, v in a.terms.items() if k[0] == 0}
    assert q0 == {(F(0), F(-1, 2), F(0)): 1}
    assert (0, 0, 0) not in a.terms


def test_atypical0_coefficients_nonnegative():
    rng = Random(42)
    for _ in range(8):
        n = _draws.rational(rng)
        a = ch.char_atypical0(n, 2, (n - 4, n + 2))
        assert all(v >= 0 for v in a.terms.values())
        assert not a.is_zero


def test_atypical0_matches_alternating_verma_sum():
    rng = Random(45)
    for _ in range(40):
        n = F(rng.randint(-12, 12), rng.choice((1, 2, 4)))
        cutoff = F(rng.randint(0, 12), rng.choice((1, 2)))
        if cutoff > 6:
            cutoff = F(rng.randint(0, 6))
        lo = F(rng.randint(-16, 16), rng.choice((1, 2, 4)))
        window = (lo, lo + F(rng.randint(0, 24), rng.choice((1, 2))))
        assert_same_series(
            ch.char_atypical0(n, cutoff, window), alternating_verma_sum(n, cutoff, window)
        )


def test_exact_sequence_additivity():
    rng = Random(43)
    for _ in range(10):
        n = _draws.rational(rng)
        cutoff = F(2)
        window = (n - cutoff - 1, n + cutoff)
        verma = ch.char_verma(n, 0, cutoff)
        below, above = (ch.char_atypical0(n + d, cutoff, window) for d in (F(-1, 2), F(1, 2)))
        lhs, _ = oracle.add((below.terms, below.q_cutoff), (above.terms, above.q_cutoff))
        assert lhs == oracle.restrict_z((verma.terms, verma.q_cutoff), *window)[0]


def test_induced_identity_m0_term():
    lhs, rhs = ch.char_induced_typical(F(1, 4), F(1, 2), 1, 1)
    base = ch.char_verma(F(1, 4), F(1, 2), 1)
    # the m = 0 summand of the direct sum side is the plain Verma character
    for key, coeff in base.terms.items():
        if key[2] == F(1, 2):  # y-exponent tags the m = 0 summand
            assert lhs.terms.get(key) == coeff


def test_delta_shift_of_summands():
    rng = Random(44)
    for _ in range(30):
        n, e = _draws.rational(rng), _draws.rational(rng)
        for m in range(-3, 4):
            lhs = conformal_weight(n + m, e - 2 * m)
            assert lhs == conformal_weight(n, e) - m * (2 * n + e)


def test_induced_identity_exact():
    assert ch.verify_induced_identity(F(1, 4), F(1, 2), 3, 2)
    assert ch.verify_induced_identity(F(1, 3), F(-3, 4), 3, 2)
    # 2n + e integral (flat direction) and non-integral alike
    assert ch.verify_induced_identity(F(1, 4), F(3, 2), 3, 2)


def test_induced_sides_match_series_arithmetic():
    rng = Random(46)
    draws = [(F(-1, 4), F(1, 2), 2, F(1))]  # 2n + ehat = 0: no q shift
    for _ in range(30):
        n, e = _draws.rational(rng, 3), _draws.nonintegral(rng)
        # q_cutoff below m_range*|2n+ehat| cuts the heaviest summands away
        draws.append((n, e, rng.randint(1, 3), F(rng.randint(-2, 8), rng.choice((1, 2)))))
    for n, e, m_range, q_cutoff in draws:
        try:
            want = induced_by_series_arithmetic(n, e, m_range, q_cutoff)
        except ValueError:
            with pytest.raises(ValueError):
                ch.char_induced_typical(n, e, m_range, q_cutoff)
            continue
        got = ch.char_induced_typical(n, e, m_range, q_cutoff)
        assert_same_series(got[0], want[0])
        assert_same_series(got[1], want[1])


def test_induced_identity_mismatch_detected():
    lhs, rhs = ch.char_induced_typical(F(1, 4), F(1, 2), 2, 1)
    window = ch.induced_window(F(1, 4), F(1, 2), 2, 1)
    broken = JacobiSeries({k: 2 * v for k, v in rhs.terms.items()}, rhs.q_cutoff)  # cannot match
    assert not jacobi_equal_to_cutoff(lhs, broken, window)


def test_bad_arguments():
    with pytest.raises(ValueError):
        ch.char_verma(0, 0, -1)
    with pytest.raises(ValueError):
        ch.char_atypical0(0, 1, (2, 1))
    with pytest.raises(ValueError, match="q_cutoff must be nonnegative"):
        ch.char_atypical0(0, -1, (1, 2))
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        ch._universal_product(-1)
    with pytest.raises(ValueError):
        ch.char_induced_typical(0, F(1, 2), 0, 1)


def test_character_request_dispatch():
    from gl11kl.errors import NotDeterminedError

    from gl11kl.labels import AtypicalA, ProjectiveP, TypicalV, VermaV0

    assert ch.characters(TypicalV(0, F(1, 2)), F(1)) == ch.char_verma(0, F(1, 2), 1)
    # a z window restricts a Verma character as it does an atypical one
    full = ch.char_verma(1, -2, F(3, 2))
    got = ch.characters(VermaV0(1, -2), "3/2", (0, 1))
    assert got.terms == {k: c for k, c in full.terms.items() if 0 <= k[1] <= 1} != full.terms
    assert got.q_cutoff == F(3, 2)
    assert ch.characters(VermaV0(1, -2), "3/2", (5, 5)).terms == {}
    assert ch.characters(AtypicalA(0, 0), F(1), (-2, 1)) == ch.char_atypical0(0, 1, (-2, 1))
    with pytest.raises(ValueError, match="q_cutoff must be nonnegative"):
        ch.characters(TypicalV(0, F(1, 2)), F(-1))
    with pytest.raises(ValueError, match="empty z window"):
        ch.characters(TypicalV(0, F(1, 2)), F(1), (2, 1))
    with pytest.raises(ValueError, match="empty z window"):
        ch.characters(AtypicalA(0, 0), F(1), (2, 1))
    with pytest.raises(ValueError, match="need a z window"):
        ch.characters(AtypicalA(0, 0), F(1))
    with pytest.raises(NotDeterminedError):
        ch.characters(AtypicalA(0, 2), F(1), (-1, 1))
    # a bad argument is reported before the label's kind: the cutoff, then the window
    with pytest.raises(ValueError, match="q_cutoff must be nonnegative"):
        ch.characters(ProjectiveP(0, 0), F(-1), (2, 1))
    with pytest.raises(ValueError, match="empty z window"):
        ch.characters(ProjectiveP(0, 0), F(1), (2, 1))


def test_each_z_window_is_checked_once(monkeypatch):
    # characters() checks the window before the label's kind and hands the
    # checked window on: char_atypical0's own check runs only when it is
    # called directly
    from gl11kl.labels import AtypicalA, ProjectiveP, TypicalV, VermaV0

    calls = []
    window = ch._window
    monkeypatch.setattr(ch, "_window", lambda z_window: calls.append(z_window) or window(z_window))
    for label in (AtypicalA(F(1, 3), 0), TypicalV(0, F(1, 2)), VermaV0(1, -2)):
        before = len(calls)
        got = ch.characters(label, 2, (-2, F(3, 2)))
        assert len(calls) - before == 1, label
    assert got == ch.characters(VermaV0(1, -2), 2, (-2, F(3, 2)))
    before = len(calls)
    assert ch.char_atypical0(F(1, 3), 2, (-2, F(3, 2))) == ch.characters(AtypicalA(F(1, 3), 0), 2, (-2, F(3, 2)))
    assert len(calls) - before == 2
    with pytest.raises(ValueError, match="empty z window"):
        ch.characters(ProjectiveP(0, 0), F(1), (2, 1))


def test_m_range_integers_are_checked():
    for m_range in (F(3, 2), 1.5, "3/2"):
        for call in (ch.char_induced_typical, ch.induced_window, ch.verify_induced_identity):
            with pytest.raises(ValueError, match="expected an integer"):
                call(F(1, 4), F(1, 2), m_range, 1)
    # an integral value of another type means the same range
    assert ch.induced_window(F(1, 4), F(1, 2), F(2), 1) == ch.induced_window(F(1, 4), F(1, 2), 2, 1)
    assert ch.char_induced_typical(F(1, 4), F(1, 2), 2.0, 1) == ch.char_induced_typical(F(1, 4), F(1, 2), 2, 1)
    assert ch.verify_induced_identity(F(1, 4), F(1, 2), "2", 1)


def _perturbed(rng, terms: dict, cutoff):
    """terms with one change that keeps every term within cutoff of the lowest.

    Bumps a coefficient, drops a term, or adds a term in a class of its own.
    """
    out = dict(terms)
    keys = sorted(out)
    choice = rng.randrange(3) if keys else 2
    if choice == 0:
        key = rng.choice(keys)
        out[key] += 1
    elif choice == 1:
        del out[rng.choice(keys)]
    else:
        base = keys[0][0] if keys else F(0)
        q = base + cutoff * F(rng.randint(0, 6), 6) + F(1, 7)
        if q - base > cutoff:
            q = base
        out[(q, F(rng.randint(-5, 5), 5), F(1, 3))] = rng.choice((-1, 2))
    return out


def test_int_offsets_match_fraction_keyed_oracle():
    # the integer-offset characters against the Fraction-keyed bodies they
    # replaced: terms, order, minimum, cutoff and windowed equality verdicts
    rng = Random(12)
    negative_fractional_delta = windows_across_zero = 0
    for draw in range(300):
        kind = draw % 3
        if kind == 0:
            n = F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4)))
            e = F(rng.randint(-30, 30), rng.choice((1, 2, 3, 5)))
            # every depth 0..20 once, then mostly shallow ones
            depth = draw // 3 if draw < 63 else rng.randint(0, rng.randint(0, 20))
            cutoff = depth + rng.choice((0, F(1, 2), F(2, 3)))
            delta = conformal_weight(n, e)
            negative_fractional_delta += delta < 0 and delta.denominator > 1
            label = VermaV0(n, e) if e.denominator == 1 else TypicalV(n, e)
            want = oracle.verma(n, e, cutoff)
            window = None
            if rng.random() < 0.5:
                lo = F(rng.randint(-36, 4), rng.choice((1, 2, 3)))
                window = (lo, lo + F(rng.randint(0, 48), rng.choice((1, 2))))
                want = oracle.restrict_z(want, *window)
            pairs = [(ch.characters(label, cutoff, window), want)]
        elif kind == 1:
            n = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 4)))
            cutoff = F(rng.randint(0, rng.randint(0, 12)), rng.choice((1, 2)))
            lo = F(rng.randint(-20, 8), rng.choice((1, 2, 4)))
            window = (lo, lo + F(rng.randint(0, 24), rng.choice((1, 2))))
            pairs = [(ch.char_atypical0(n, cutoff, window), oracle.atypical0(n, cutoff, window))]
        else:
            while True:
                n, e = F(rng.randint(-12, 12), rng.choice((2, 3, 4))), _draws.nonintegral(rng)
                m_range = rng.randint(1, 3)
                cutoff = F(rng.randint(-2, 8), rng.choice((1, 2)))
                if 0 <= ch.induced_window(n, e, m_range, cutoff) <= rng.randint(0, 4):
                    break
            got = ch.char_induced_typical(n, e, m_range, cutoff)
            want = oracle.induced_typical(n, e, m_range, cutoff)
            pairs = list(zip(got, want))
            window = ch.induced_window(n, e, m_range, cutoff)
            assert jacobi_equal_to_cutoff(*got, window) is oracle.equal_to_cutoff(*want, window) is True
        if window is not None and kind < 2:
            windows_across_zero += window[0] < 0 < window[1]
        for got, want in pairs:
            terms, cutoff = want
            assert got.terms == terms and got.q_cutoff == cutoff
            assert all(type(x) is F for key in got.terms for x in key)
            assert JacobiSeries(got.terms, got.q_cutoff) == got  # the split form is canonical
            assert list(got.sorted_terms()) == sorted(terms.items())
            assert got.min_q() == min((k[0] for k in terms), default=None)
            assert got.is_zero == (not terms)
            other = _perturbed(rng, terms, cutoff)
            w = cutoff * F(rng.randint(0, 4), 4)
            sides = [(got, want), (JacobiSeries(other, cutoff), (other, cutoff))]
            if rng.random() < 0.5:
                sides.reverse()  # the added class lies on either side
            (a, pair_a), (b, pair_b) = sides
            assert jacobi_equal_to_cutoff(a, b, w) is oracle.equal_to_cutoff(pair_a, pair_b, w)
    assert negative_fractional_delta >= 10 and windows_across_zero >= 50


def test_induced_scaled_integers_match_fraction_keyed_oracle():
    # the denominators of n, ehat and q_cutoff all enter the common
    # denominator of the exponents: draw them coprime and up to 7, with
    # negative numerators, 2n + ehat = 0 and m_range up to 6; a cutoff may
    # be negative as long as the depth q_cutoff + m_range|2n + ehat| is not,
    # and both sides raise alike where it is, also for -1 < depth < 0
    rng = Random(19)
    seen = dict.fromkeys(("coprime", "flat", "negative_cutoff", "raised", "depth_above_minus_one", "m_range_6"), 0)
    for draw in range(400):
        while True:
            n = F(rng.randint(-14, 14), rng.randint(1, 7))
            e = -2 * n if draw % 8 == 0 else F(rng.randint(-14, 14), rng.randint(1, 7))
            m_range = rng.randint(1, 6)
            cutoff = F(rng.randint(-6, 6), rng.randint(1, 4))
            depth = cutoff + m_range * abs(2 * n + e)  # the oracle's depth
            if depth <= 5:
                break
        if depth < 0:
            seen["raised"] += 1
            seen["depth_above_minus_one"] += depth > -1
            with pytest.raises(ValueError, match="q_cutoff must be nonnegative"):
                ch.char_induced_typical(n, e, m_range, cutoff)
            with pytest.raises(ValueError, match="q_cutoff must be nonnegative"):
                oracle.induced_typical(n, e, m_range, cutoff)
            continue
        seen["coprime"] += math.gcd(n.denominator, e.denominator) == 1 < min(n.denominator, e.denominator)
        seen["flat"] += 2 * n + e == 0
        seen["negative_cutoff"] += cutoff < 0
        seen["m_range_6"] += m_range == 6
        got = ch.char_induced_typical(n, e, m_range, cutoff)
        want = oracle.induced_typical(n, e, m_range, cutoff)
        for side, (terms, want_cutoff) in zip(got, want):
            assert side.terms == terms and side.q_cutoff == want_cutoff == depth, (n, e, m_range, cutoff)
        w = depth * F(rng.randint(0, 4), 4)
        assert jacobi_equal_to_cutoff(*got, w) is oracle.equal_to_cutoff(*want, w) is True
        assert ch.verify_induced_identity(n, e, m_range, cutoff)
    assert min(seen.values()) >= 15, seen


def test_vermas_share_one_read_only_block():
    # two labels at one depth: two splits and one tuple each, over one block
    a, b = ch.char_verma(F(1, 3), F(2, 5), 4), ch.char_verma(-2, F(7, 3), F(9, 2))
    (va,), (vb,) = a._classes.values(), b._classes.values()
    assert va[3] is vb[3] is ch._universal_product(4)
    assert va[2] == vb[2] == 4 and min(n for n, _ in va[3]) == 0 == min(m for _, m in va[3])
    with pytest.raises(TypeError):
        va[3][(0, 0)] = 5
    with pytest.raises(TypeError):
        del va[3][(0, 0)]
    # the induced sides hold one shared block per summand, on both sides
    lhs, rhs = ch.char_induced_typical(F(1, 4), F(1, 2), 2, 1)
    assert all(lhs._classes[k][3] is v[3] for k, v in rhs._classes.items())


def test_oracle_draws_keep_the_form_canonical(monkeypatch):
    # every series the oracle test draws: its terms rebuild it, its int keys
    # are over their least denominator and re-key to the former Fraction
    # keys, a cut of it is the series of the kept terms, and no cached block
    # has changed
    made = []
    for name in ("characters", "char_atypical0", "char_induced_typical"):

        def record(*args, _call=getattr(ch, name)):
            out = _call(*args)
            made.extend(out if isinstance(out, tuple) else [out])
            return out

        monkeypatch.setattr(ch, name, record)
    ch._universal_product.cache_clear()
    test_int_offsets_match_fraction_keyed_oracle()
    assert ch._universal_product.cache_info().currsize == 21  # the depths 0..20
    raised = own_blocks = 0
    for s in made:
        assert JacobiSeries(s.terms, s.q_cutoff) == s
        assert all(map(oracle.canonical, s._classes))
        assert oracle.fraction_keys(s._classes) == oracle.classes_by_fractions(s.terms, s.q_cutoff)
        if s.is_zero:
            continue
        cut = s.q_cutoff / 2
        kept = {k: c for k, c in s.terms.items() if k[0] <= s.min_q() + cut}
        got = JacobiSeries(s.terms, cut)
        assert got.terms == kept and got == JacobiSeries(kept, cut)
        raised += any(got._classes[k][1] > v[1] for k, v in s._classes.items() if k in got._classes)
        # z-windowed Vermas and atypicals hold blocks of their own
        own_blocks += any(v[3] is not ch._universal_product(v[2]) for v in s._classes.values())
    assert len(made) >= 300 and raised >= 100 and own_blocks >= 50
    for depth in range(21):
        assert ch._universal_product(depth) == ch._universal_product.__wrapped__(depth)
