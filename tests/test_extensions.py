"""Simple-current extensions: monodromy, locality, induction, weight growth."""

import warnings
from fractions import Fraction
from random import Random

import pytest

from gl11kl import extensions as ex
from gl11kl.errors import Gl11Error, NotDeterminedError
from gl11kl.fusion import fuse
from gl11kl.labels import (
    AtypicalA,
    ProjectiveP,
    TypicalV,
    VermaV0,
    delta,
    epsilon,
    is_simple,
    strip_parity,
)

import _draws

F = Fraction
MH, L1 = ex.SL21_MINUS_HALF, ex.SL21_LEVEL1


def test_generators_match_closed_forms():
    for m in range(-6, 7):
        g = MH.generator_of(m)
        assert (g.n, g.ell) == (m - epsilon(m), -2 * m)
        g = L1.generator_of(m)
        assert (g.n, g.ell) == (epsilon(m), m)
    assert MH.generator_of(0) == AtypicalA(0, 0)
    assert L1.generator_of(0) == AtypicalA(0, 0)


def test_group_law():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the custom sample violates the weight bound
        custom = ex.ExtensionSpec.custom(F(1, 2), -1)
    for ext in (MH, L1, custom):
        for m in range(-5, 6):
            for m2 in range(-5, 6):
                got = fuse(ext.generator_of(m), ext.generator_of(m2)).single()
                assert got == ext.generator_of(m + m2)


def test_custom_admissibility_warnings():
    # A(1/3;-1): Delta = 1/6 so |ell| = 1 > 2*Delta, and 2n*ell = 1/3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ex.ExtensionSpec.custom(F(1, 3), -1)  # violates both constraints
    assert len(caught) == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ex.ExtensionSpec.custom(F(1, 2), -2)  # the level -1/2 generator: clean
    assert not caught


def test_monodromy_unit_is_zero():
    for ext in (MH, L1):
        for m in range(-3, 4):
            assert ex.monodromy_exponent(AtypicalA(0, 0), ext.generator_of(m)) == 0


def test_monodromy_exact_value_example():
    # V(1/4;1/2) against the first level -1/2 generator A(1/2;-2):
    # Delta(V(5/4;-3/2)) - Delta(V(1/4;1/2)) - Delta(A(1/2;-2)) = -2,
    # integral, consistent with 2n + e = 1 being an integer
    e = ex.monodromy_exponent(TypicalV(F(1, 4), F(1, 2)), AtypicalA(F(1, 2), -2))
    assert e == -2
    assert e.denominator == 1


def test_monodromy_typical_closed_form():
    rng = Random(51)
    for _ in range(50):
        v = _draws.typical(rng)
        shift = 2 * v.n + v.ehat
        for m in range(-3, 4):
            got = ex.monodromy_exponent(v, MH.generator_of(m))
            assert got + m * shift + abs(m) == 0
            # mod-1 statement of the same computation
            assert (got + m * shift).denominator == 1


def test_monodromy_additive_mod_one():
    rng = Random(52)
    for _ in range(40):
        s = _draws.simple(rng)
        for ext in (MH, L1):
            for m in (-2, -1, 1, 2):
                for m2 in (-2, 1, 3):
                    lhs = ex.monodromy_exponent(s, ext.generator_of(m + m2))
                    rhs = ex.monodromy_exponent(s, ext.generator_of(m)) + ex.monodromy_exponent(
                        s, ext.generator_of(m2)
                    )
                    assert (lhs - rhs).denominator == 1


def test_is_local_matches_reference_criteria():
    rng = Random(53)
    for _ in range(200):
        s = _draws.simple(rng)
        assert ex.is_local(s, MH) == _draws.local_criterion_minus_half(s)
        assert ex.is_local(s, L1) == _draws.local_criterion_level1(s)


def test_is_local_examples():
    assert ex.is_local(AtypicalA(F(1, 2), 3), MH)
    assert not ex.is_local(TypicalV(F(1, 3), F(1, 2)), MH)
    assert ex.is_local(TypicalV(F(1, 4), F(1, 4)), L1)


def test_induce_formulas():
    rng = Random(54)
    for _ in range(40):
        v = _draws.typical(rng)
        out = ex.induce(v, MH, 3)
        for m, lbl in zip(range(-3, 4), out):
            assert lbl == TypicalV(v.n + m, v.ehat - 2 * m)
        out = ex.induce(v, L1, 3)
        for m, lbl in zip(range(-3, 4), out):
            assert lbl == TypicalV(v.n, v.ehat + m)
        a = _draws.atypical(rng)
        out = ex.induce(a, L1, 3)
        for m, lbl in zip(range(-3, 4), out):
            assert lbl == AtypicalA(a.n - epsilon(a.ell) + epsilon(a.ell + m), a.ell + m)


def test_induce_unit_gives_extension_summands():
    for ext in (MH, L1):
        out = ex.induce(AtypicalA(0, 0), ext, 4)
        assert out == [ext.generator_of(m) for m in range(-4, 5)]


def test_induced_summands_distinct():
    rng = Random(55)
    for _ in range(40):
        s = _draws.simple(rng)
        for ext in (MH, L1):
            out = ex.induce(s, ext, 4)
            assert len(set(out)) == len(out)


def test_induced_equivalent():
    v = TypicalV(F(1, 4), F(1, 2))
    assert ex.induced_equivalent(v, v, MH)
    assert ex.induced_equivalent(v, TypicalV(F(5, 4), F(-3, 2)), MH)
    assert not ex.induced_equivalent(v, TypicalV(F(5, 4), F(1, 2)), MH)
    a = AtypicalA(1, 0)
    assert ex.induced_equivalent(a, AtypicalA(F(3, 2), -2), MH)  # fuse with g_1
    assert ex.induced_equivalent(AtypicalA(0, 0), AtypicalA(F(1, 2), -2), MH)
    assert not ex.induced_equivalent(a, AtypicalA(F(1, 2), -2), MH)
    assert not ex.induced_equivalent(a, AtypicalA(F(1, 2), -1), MH)
    with pytest.raises(ValueError):
        ex.induced_equivalent(v, ProjectiveP(0, 0), MH)


def test_induced_equivalent_is_equivalence():
    rng = Random(56)
    for _ in range(30):
        s = _draws.simple(rng)
        ext = MH if rng.random() < 0.5 else L1
        m = rng.randint(-3, 3)
        s2 = fuse(s, ext.generator_of(m)).single()
        m2 = rng.randint(-3, 3)
        s3 = fuse(s2, ext.generator_of(m2)).single()
        assert ex.induced_equivalent(s, s2, ext)
        assert ex.induced_equivalent(s2, s, ext)
        assert ex.induced_equivalent(s, s3, ext)


def test_equivalence_classes_of_local_atypicals():
    # local atypicals at level -1/2 have n in (1/2)Z; modulo the generator
    # orbit the class of A(n;l) is pinned by (l mod 2, n + l/2 - eps(l)...)
    # here we check orbits partition a sample without collisions across orbits
    labels = [AtypicalA(F(p, 2), ell) for p in range(-3, 4) for ell in range(-2, 3)]
    reps = []
    for lbl in labels:
        assert ex.is_local(lbl, MH)
        if not any(ex.induced_equivalent(lbl, r, MH) for r in reps):
            reps.append(lbl)
    # each label equivalent to exactly one representative
    for lbl in labels:
        matches = [r for r in reps if ex.induced_equivalent(lbl, r, MH)]
        assert len(matches) == 1


def test_induced_projective_cover():
    v = TypicalV(F(1, 4), F(1, 2))
    assert ex.induced_projective_cover(v, MH, 2) == ex.induce(v, MH, 2)
    s = AtypicalA(F(1, 2), 1)
    got = ex.induced_projective_cover(s, MH, 2)
    want = [fuse(ProjectiveP(F(1, 2), 1), MH.generator_of(m)).single() for m in range(-2, 3)]
    assert got == want
    unit_cover = ex.induced_projective_cover(AtypicalA(0, 0), MH, 1)
    assert unit_cover[1] == ProjectiveP(0, 0)
    with pytest.raises(Gl11Error):
        ex.induced_projective_cover(TypicalV(F(1, 3), F(1, 2)), MH, 2)


def test_weight_growth_typical_minus_half():
    rng = Random(57)
    for _ in range(30):
        v = _draws.typical(rng)
        got = ex.weight_growth(v, MH)
        assert got.quadratic_coeff == 0
        assert got.linear_coeff == -(2 * v.n + v.ehat)
        if 2 * v.n + v.ehat == 0:
            assert got.classification == "relaxed_flat"
        else:
            assert got.classification == "spectral_flow_unbounded"
    flat = TypicalV(F(1, 4), F(-1, 2))
    assert ex.weight_growth(flat, MH).classification == "relaxed_flat"


def test_weight_growth_level1():
    rng = Random(58)
    for _ in range(30):
        v = _draws.typical(rng)
        got = ex.weight_growth(v, L1)
        assert got.quadratic_coeff == F(1, 2)
        assert got.classification == "lowest_weight"
    got = ex.weight_growth(AtypicalA(0, 0), L1)
    assert got.quadratic_coeff == F(1, 2)
    assert got.classification == "lowest_weight"


def test_weight_growth_matches_sampled_deltas():
    # the fitted polynomial reproduces Delta(summand(m)) wherever it is exact
    v = TypicalV(F(2, 3), F(1, 4))
    got = ex.weight_growth(v, MH)
    ind = ex.InducedModule(v, MH)
    base = delta(ind.summand(0))
    for m in range(-4, 5):
        want = base + got.linear_coeff * m + got.quadratic_coeff * m * m
        assert delta(ind.summand(m)) == want


def test_induced_character_verified():
    out = ex.induced_character(F(1, 4), F(1, 2), 3, 2)
    assert not out.is_zero
    assert all(isinstance(v, int) for v in out.terms.values())


def summand_by_fusion(base, ext, m):
    """The former InducedModule.summand: fuse with the m-th generator."""
    return fuse(base, ext.generator_of(m)).single()


def sampled_weight_growth(s, ext):
    """The former weight_growth: three four-point fits of fused summands."""
    s = strip_parity(s)
    if not is_simple(s):
        raise ValueError("weight growth applies to simple labels")

    def sample(ms):
        return [(m, delta(summand_by_fusion(s, ext, m))) for m in ms]

    ell0 = s.ell if isinstance(s, AtypicalA) else 0
    guard = abs(ell0) + abs(ext.b) + 2
    fit = ex._fit_quadratic(sample([-1, 0, 1, 2]))
    pos = ex._fit_quadratic(sample([guard, guard + 1, guard + 2, guard + 3]))
    neg = ex._fit_quadratic(sample([-guard - 3, -guard - 2, -guard - 1, -guard]))
    if pos is None or neg is None or pos[0] != neg[0]:
        raise Gl11Error("summand weights do not follow a quadratic growth law")
    quad = pos[0]
    lin_pos, lin_neg = pos[1], neg[1]
    if fit is not None:
        quad, lin, _ = fit
        report_lin = lin
    else:
        report_lin = lin_pos
    if quad > 0:
        cls = "lowest_weight"
    elif quad < 0:
        raise Gl11Error("summand weights are unbounded above and below")
    elif lin_pos < 0 or lin_neg > 0:
        cls = "spectral_flow_unbounded"
    elif lin_pos == 0 or lin_neg == 0:
        cls = "relaxed_flat"
    else:
        cls = "lowest_weight"
    return ex.WeightGrowth(quad, report_lin, cls)


def _random_extension(rng):
    """A named extension or a custom generator A(a; b) with b in [-4, 4]."""
    r = rng.random()
    if r < 0.2:
        return MH
    if r < 0.4:
        return L1
    return ex.ExtensionSpec("custom", _draws.rational(rng), rng.randint(-4, 4))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


def _flip(x):
    second = x.ehat if isinstance(x, TypicalV) else x.ell
    return type(x)(x.n, second, parity_flip=True)


def test_summand_matches_fusion():
    rng = Random(59)
    raised = 0
    for _ in range(150):
        ext = _random_extension(rng)
        base = rng.choice(
            [
                _draws.typical(rng),
                _draws.atypical(rng, max_ell=4),
                _draws.projective(rng, max_ell=4),
                VermaV0(_draws.rational(rng), rng.randint(-3, 3)),
            ]
        )
        if rng.random() < 0.3:
            base = _flip(base)
        ind = ex.InducedModule(base, ext)
        for m in range(-8, 9):
            got = _outcome(ind.summand, m)
            assert got == _outcome(summand_by_fusion, base, ext, m), (base, ext, m)
            if isinstance(got, tuple):
                assert got[0] is NotDeterminedError
                raised += 1
            else:
                assert type(got.n) is Fraction and not got.parity_flip
    assert raised
    for ext in (MH, L1):
        assert ex.InducedModule(AtypicalA(0, 0), ext).summand(0) == AtypicalA(0, 0)


def test_weight_growth_matches_sampled_fits():
    rng = Random(60)
    seen = set()
    for _ in range(400):
        ext = _random_extension(rng)
        base = rng.choice([_draws.typical(rng), _draws.atypical(rng, max_ell=4)])
        if rng.random() < 0.2:
            base = _flip(base)
        got = _outcome(ex.weight_growth, base, ext)
        assert got == _outcome(sampled_weight_growth, base, ext), (base, ext)
        if isinstance(got, tuple):
            assert got == (Gl11Error, "summand weights are unbounded above and below")
            seen.add("raise")
        else:
            assert type(got.quadratic_coeff) is Fraction
            assert type(got.linear_coeff) is Fraction
            seen.add(got.classification)
    assert seen == {"raise", "lowest_weight", "spectral_flow_unbounded", "relaxed_flat"}
    for bad in (ProjectiveP(0, 0), VermaV0(0, 1)):
        assert _outcome(ex.weight_growth, bad, MH) == _outcome(sampled_weight_growth, bad, MH)
