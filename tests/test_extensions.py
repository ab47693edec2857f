"""Simple-current extensions: monodromy, locality, induction, weight growth."""

import inspect
import math
import textwrap
import warnings
from fractions import Fraction
from random import Random

import pytest

from gl11kl import characters
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
    _int,
    is_simple,
    spectral_flow,
    strip_parity,
)
from gl11kl.series import jacobi_equal_to_cutoff

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
    summands = dict(zip(range(-4, 5), ex.induce(v, MH, 4)))
    base = delta(summands[0])
    for m in range(-4, 5):
        want = base + got.linear_coeff * m + got.quadratic_coeff * m * m
        assert delta(summands[m]) == want


def induced_character(n, ehat, m_range: int, q_cutoff):
    """Verified character of a typical induction along the (m, -2m) steps.

    The former ``extensions.induced_character``: expands the direct-sum side
    and the closed-form side of the character identity and returns the
    common value; a mismatch raises.
    """
    lhs, rhs = characters.char_induced_typical(n, ehat, m_range, q_cutoff)
    window = characters.induced_window(n, ehat, m_range, q_cutoff)
    if not jacobi_equal_to_cutoff(lhs, rhs, window):
        raise RuntimeError("induced character identity failed; implementation fault")
    return lhs


def test_induced_character_verified():
    out = induced_character(F(1, 4), F(1, 2), 3, 2)
    assert not out.is_zero
    assert all(isinstance(v, int) for v in out.terms.values())


def generator_by_formula(ext, m):
    """The former ExtensionSpec.generator_of: A(m a - m eps(b) + eps(m b); m b)."""
    return AtypicalA(m * ext.a - m * epsilon(ext.b) + epsilon(m * ext.b), m * ext.b)


def summand_by_fusion(base, ext, m):
    """The former InducedModule.summand: fuse with the m-th generator."""
    return fuse(base, generator_by_formula(ext, m)).single()


def _fit_quadratic(points):
    """Exact degree <= 2 interpolation through four points, or None."""
    (m0, d0), (m1, d1), (m2, d2), (m3, d3) = points
    # Newton's divided differences on the first three points
    f01 = (d1 - d0) / (m1 - m0)
    f12 = (d2 - d1) / (m2 - m1)
    f012 = (f12 - f01) / (m2 - m0)
    a = f012
    b = f01 - f012 * (m0 + m1)
    c = d0 - m0 * (b + a * m0)
    if a * m3 * m3 + b * m3 + c != d3:
        return None
    return a, b, c


def sampled_weight_growth(s, ext):
    """Weight growth from three four-point fits of fused summands.

    The fit through m in {-1, 0, 1, 2} is trusted only when its quadratic
    coefficient is the far fits' one: at 2l + b = 0 the kink of |l + m b|
    sits at m = 1/2 and those four points lie on a wrong parabola.
    """
    s = strip_parity(s)
    if not is_simple(s):
        raise ValueError("weight growth applies to simple labels")

    def sample(ms):
        return [(m, delta(summand_by_fusion(s, ext, m))) for m in ms]

    ell0 = s.ell if isinstance(s, AtypicalA) else 0
    guard = abs(ell0) + abs(ext.b) + 2
    fit = _fit_quadratic(sample([-1, 0, 1, 2]))
    pos = _fit_quadratic(sample([guard, guard + 1, guard + 2, guard + 3]))
    neg = _fit_quadratic(sample([-guard - 3, -guard - 2, -guard - 1, -guard]))
    if pos is None or neg is None or pos[0] != neg[0]:
        raise Gl11Error("summand weights do not follow a quadratic growth law")
    quad = pos[0]
    lin_pos, lin_neg = pos[1], neg[1]
    if fit is not None and fit[0] == quad:
        report_lin = fit[1]
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


def weight_growth_by_fractions(s, ext):
    """The former weight_growth: the closed form in Fraction arithmetic."""
    s = strip_parity(s)
    if not is_simple(s):
        raise ValueError("weight growth applies to simple labels")
    b, step = ext.b, ext.a - epsilon(ext.b)
    half_b = Fraction(b, 2)
    rate = step + half_b
    quad = b * rate
    if isinstance(s, TypicalV):
        lin = lin_pos = lin_neg = b * s.n + s.ehat * (step + b)
    else:
        ell = s.ell
        # l/2 - eps(l) = (l - sign(l))/2, and b eps(b) = |b|/2
        lin_mid = ell * rate + b * (s.n + Fraction(ell - (ell > 0) + (ell < 0), 2))
        spread = Fraction(abs(b), 2)
        lin_pos, lin_neg = lin_mid + spread, lin_mid - spread
        if ell - b >= 0 and ell + 2 * b >= 0:
            lin = lin_mid + half_b
        elif ell - b <= 0 and ell + 2 * b <= 0:
            lin = lin_mid - half_b
        else:
            lin = lin_pos
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
    return ex.WeightGrowth(quad, lin, cls)


def spectral_flow_by_fractions(label, ell):
    """The former labels.spectral_flow, in Fraction arithmetic."""
    ell = _int(ell)
    if ell == 0:
        return label
    half = Fraction(1, 2)
    if isinstance(label, VermaV0):
        if label.ell == 0:
            return VermaV0(label.n - ell, ell, label.parity_flip)
        if ell == -label.ell:
            return VermaV0(label.n + label.ell, 0, label.parity_flip)
        raise NotDeterminedError("spectral flow from ehat != 0 is only defined back to ehat = 0")
    if isinstance(label, (AtypicalA, ProjectiveP)):
        if label.ell != 0:
            raise NotDeterminedError("spectral flow of an atypical or projective label requires ehat = 0")
        if ell < 0:
            return type(label)(label.n - ell - half, ell, label.parity_flip)
        return type(label)(-label.n - ell + half, ell, label.parity_flip)
    raise NotDeterminedError("spectral flow of a typical label is not defined here")


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
        got = _outcome(ex.induce, base, ext, 8)
        want = [_outcome(summand_by_fusion, base, ext, m) for m in range(-8, 9)]
        if isinstance(got, tuple):  # every summand raises, so induce raises
            assert got[0] is NotDeterminedError and want == [got] * 17, (base, ext)
            raised += 1
        else:
            assert got == want, (base, ext)
            assert all(type(x.n) is Fraction and not x.parity_flip for x in got)
    assert raised
    for ext in (MH, L1):
        assert ex.induce(AtypicalA(0, 0), ext, 0) == [AtypicalA(0, 0)]


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


# ---------------------------------------------------------------------------
# the former fused bodies, kept as oracles for the closed forms
# ---------------------------------------------------------------------------


def monodromy_by_fusion(s, c):
    """The former monodromy_exponent: fuse, then three deltas."""
    label = fuse(s, c).single()
    if not is_simple(label):
        raise Gl11Error("monodromy is defined against a simple fusion output")
    return delta(label) - delta(s) - delta(c)


def is_local_by_fusion(s, ext):
    s = strip_parity(s)
    return all(monodromy_by_fusion(s, ext.generator_of(m)).denominator == 1 for m in (1, -1))


def induced_equivalent_two_branch(s, s2, ext):
    """The former induced_equivalent, with its separate b = 0 branch."""
    s, s2 = strip_parity(s), strip_parity(s2)
    if not (is_simple(s) and is_simple(s2)):
        raise ValueError("induced equivalence applies to simple labels")
    if type(s) is not type(s2):
        return False
    if ext.b != 0:
        if isinstance(s, TypicalV):
            offset = s2.ehat - s.ehat
        else:
            offset = Fraction(s2.ell - s.ell)
        ratio = offset / ext.b
        if ratio.denominator != 1:
            return False
        return summand_by_fusion(s, ext, int(ratio)) == s2
    if ext.a == 0:
        return s == s2
    if isinstance(s, TypicalV) and s.ehat != s2.ehat:
        return False
    if isinstance(s, AtypicalA) and s.ell != s2.ell:
        return False
    offset = s2.n - s.n
    if (offset / ext.a).denominator != 1:
        return False
    return summand_by_fusion(s, ext, int(offset / ext.a)) == s2


# 1/2 + (-1/2) and 1/3 + 2/3 are integral ehat sums, 1/2 + 1/3 is not
GRID_NS = (F(-1, 2), F(0), F(1, 3))
GRID_EHATS = (F(-1, 2), F(1, 2), F(1, 3), F(2, 3))
GRID_ELLS = (-2, -1, 0, 1, 2)


def _grid_labels():
    out = [TypicalV(n, e) for n in GRID_NS for e in GRID_EHATS]
    out += [k(n, ell) for k in (AtypicalA, ProjectiveP, VermaV0) for n in GRID_NS for ell in GRID_ELLS]
    return out + [_flip(x) for x in out]


def _grid_extensions():
    """Named, custom with b != 0, and b = 0 with a = 0 and with a != 0."""
    return [
        MH,
        L1,
        ex.ExtensionSpec("custom", F(1, 3), -1),
        ex.ExtensionSpec("custom", F(-1, 4), 3),
        ex.ExtensionSpec("custom", F(2, 3), 2),
        ex.ExtensionSpec("custom", F(1, 2), 0),
        ex.ExtensionSpec("custom", F(-2, 3), 0),
        ex.ExtensionSpec("custom", F(0), 0),
    ]


def test_monodromy_matches_fusion_on_grid():
    labels = _grid_labels()
    kinds = set()
    for s in labels:
        for c in labels:
            got = _outcome(ex.monodromy_exponent, s, c)
            assert got == _outcome(monodromy_by_fusion, s, c), (s, c)
            assert isinstance(got, tuple) or type(got) is Fraction
            kinds.add(got[0] if isinstance(got, tuple) else Fraction)
    # a value, a non-simple output, two summands, and a reducible Verma
    assert kinds == {Fraction, Gl11Error, ValueError, NotDeterminedError}


def test_monodromy_with_kappa_negated_is_caught(monkeypatch):
    # the mutant: _monodromy with 2 kappa replaced by -2 kappa before use
    source = textwrap.dedent(inspect.getsource(ex._monodromy))
    anchor = "    num = "
    assert source.count(anchor) == 1
    namespace = dict(vars(ex))
    exec(source.replace(anchor, "    k2 = -k2\n" + anchor), namespace)
    monkeypatch.setattr(ex, "_monodromy", namespace["_monodromy"])
    labels = _grid_labels()
    assert any(
        _outcome(ex.monodromy_exponent, s, c) != _outcome(monodromy_by_fusion, s, c)
        for s in labels
        for c in labels
    )


def test_is_local_matches_fusion_on_grid():
    for ext in _grid_extensions():
        for s in _grid_labels():
            got = _outcome(ex.is_local, s, ext)
            assert got == _outcome(is_local_by_fusion, s, ext), (s, ext)


def test_induced_equivalent_matches_two_branch_on_grid():
    labels = _grid_labels()
    simples = [x for x in labels if is_simple(x)]
    found = 0
    for ext in _grid_extensions():
        for s in simples[: len(simples) // 2]:  # the unflipped half; s2 covers flips
            orbit = [summand_by_fusion(s, ext, m) for m in range(-2, 3)]
            for s2 in simples + orbit + [_flip(orbit[0])]:
                got = ex.induced_equivalent(s, s2, ext)
                assert got == induced_equivalent_two_branch(s, s2, ext), (s, s2, ext)
                found += got
        for bad in labels[::7]:
            got = _outcome(ex.induced_equivalent, bad, simples[0], ext)
            assert got == _outcome(induced_equivalent_two_branch, bad, simples[0], ext)
    assert found


def _orbit_cases():
    """(simple, extension) pairs: the grid's, and seeded draws over custom extensions.

    The extensions are the grid's (named, b != 0, b = 0 with a != 0 and
    with a = 0), one with a = 0 and b != 0, and seeded draws.
    """
    simples = [x for x in _grid_labels() if is_simple(x) and not x.parity_flip]
    exts = _grid_extensions() + [ex.ExtensionSpec("custom", F(0), 2)]
    cases = [(s, ext) for ext in exts for s in simples]
    rng = Random(64)
    for _ in range(300):
        cases.append((_draws.simple(rng), _random_extension(rng)))
    return cases


def test_orbit_rep_is_the_summand_in_its_window():
    # the m that puts the summand's ehat/b, or n/a when b = 0, in [0, 1),
    # found here by Fraction floors; with a = b = 0 the orbit is s alone
    seen = set()
    for s, ext in _orbit_cases():
        rep = ex._orbit_rep(s, ext)
        assert ex._orbit_rep(rep, ext) == rep, (s, ext)
        if ext.b:
            m = -math.floor(s.ehat / ext.b)
            assert 0 <= rep.ehat / ext.b < 1, (s, ext)
        elif ext.a:
            m = -math.floor(s.n / ext.a)
            assert 0 <= rep.n / ext.a < 1, (s, ext)
        else:
            assert rep == s
            seen.add("a = b = 0")
            continue
        assert rep == ex.induce(s, ext, abs(m))[abs(m) + m] == summand_by_fusion(s, ext, m), (s, ext)
        seen.add("b != 0" if ext.b else "b = 0")
        seen.add("m = 0" if m == 0 else "m != 0")
    assert seen == {"a = b = 0", "b != 0", "b = 0", "m = 0", "m != 0"}


def test_induce_matches_fusion_on_grid():
    # generator_of is checked against the former closed-form generator and
    # against fusing the unit with it; induce, a translation along the
    # generator orbit that shares no arithmetic with fusion, against fusing
    # each summand
    unit = AtypicalA(0, 0)
    raised = 0
    for ext in _grid_extensions():
        for m in range(-6, 7):
            got = ext.generator_of(m)
            assert got == generator_by_formula(ext, m) == summand_by_fusion(unit, ext, m)
            assert type(got.n) is Fraction
        for base in _grid_labels():
            want = [_outcome(summand_by_fusion, base, ext, m) for m in range(-4, 5)]
            for r in range(5):
                got = _outcome(ex.induce, base, ext, r)
                window = want[4 - r : 5 + r]
                if isinstance(window[0], tuple):  # induce raises at its first summand
                    assert got == window[0] == (
                        NotDeterminedError,
                        "fusion against a reducible Verma label is not determined",
                    ), (base, ext, r)
                    assert type(base) is VermaV0
                    raised += 1
                else:
                    assert got == window, (base, ext, r)
                    assert all(type(x.n) is Fraction and not x.parity_flip for x in got)
    assert raised
    # seeded draws, as the orbit cases take them, with m_range up to 6: the
    # closed form's branches for b < 0, b = 0, a = 0 and m < 0 each meet the
    # fused reference, on simple and projective bases, parity flipped or not
    rng, seen = Random(66), set()
    for _ in range(300):
        base, ext, r = _draws.simple_or_projective(rng), _random_extension(rng), rng.randint(0, 6)
        if rng.random() < 0.3:
            base = _flip(base)
        got = ex.induce(base, ext, r)
        assert got == [summand_by_fusion(base, ext, m) for m in range(-r, r + 1)], (base, ext, r)
        assert all(type(x.n) is Fraction and not x.parity_flip for x in got)
        seen.update(name for name, hit in (("b < 0", ext.b < 0), ("b = 0", ext.b == 0), ("a = 0", ext.a == 0), ("m < 0", r > 0)) if hit)
    assert seen == {"b < 0", "b = 0", "a = 0", "m < 0"}


def test_induce_takes_no_sign_per_summand_but_the_moved_ell(monkeypatch):
    # rule 1 against generator m cancels the generator's own eps(m b), so
    # no summand takes sign(m b) or the generator's n: a V base takes no
    # sign per summand, and an A or P base takes sign(ell + m b) once per
    # summand.  Per call, the step takes sign(b) and an A or P base sign(ell)
    calls = [0]
    sign = ex._sign

    def counted(x):
        calls[0] += 1
        return sign(x)

    monkeypatch.setattr(ex, "_sign", counted)
    for ext in _grid_extensions():
        for base in _grid_labels():
            if type(base) is VermaV0:
                continue
            for r in range(5):
                before = calls[0]
                out = ex.induce(base, ext, r)
                taken = calls[0] - before
                if type(base) is TypicalV:
                    assert taken <= 1, (base, ext, r)
                else:
                    assert taken <= len(out) + 2, (base, ext, r)
    assert calls[0]


def _far_classification(s, ext):
    """The growth class read off Delta(summand(m)) at m = +-38, +-39, +-40."""
    d = {m: delta(summand_by_fusion(s, ext, m)) for m in (-40, -39, -38, 38, 39, 40)}
    quad = (d[40] - 2 * d[39] + d[38]) / 2
    if quad != (d[-40] - 2 * d[-39] + d[-38]) / 2:
        raise AssertionError("far weights follow no single quadratic")
    slope_pos, slope_neg = d[40] - d[39], d[-39] - d[-40]
    if quad > 0:
        return "lowest_weight"
    if quad < 0:
        return "raise"
    if slope_pos < 0 or slope_neg > 0:
        return "spectral_flow_unbounded"
    if slope_pos == 0 or slope_neg == 0:
        return "relaxed_flat"
    return "lowest_weight"


def test_weight_growth_matches_sampled_fits_on_grid():
    kinked = 0
    for ext in _grid_extensions():
        for s in _grid_labels():
            if not is_simple(s):
                continue
            got = _outcome(ex.weight_growth, s, ext)
            assert got == _outcome(sampled_weight_growth, s, ext), (s, ext)
            if isinstance(s, AtypicalA):
                cls = "raise" if isinstance(got, tuple) else got.classification
                assert cls == _far_classification(s, ext), (s, ext)
                kinked += 2 * s.ell + ext.b == 0 != ext.b
    assert kinked


def test_weight_growth_across_the_kink_at_minus_half():
    # A(n;1) at level -1/2 has 2l + b = 0: |1 - 2m|/2 has its kink at
    # m = 1/2, where the four points m = -1..2 lie on a parabola of
    # quadratic coefficient 1/2 that the weights do not follow
    want = {
        F(3, 2): "spectral_flow_unbounded",
        F(1, 2): "relaxed_flat",
        F(0): "lowest_weight",
        F(-1, 2): "relaxed_flat",
        F(-3, 2): "spectral_flow_unbounded",
    }
    for n, cls in want.items():
        s = AtypicalA(n, 1)
        got = ex.weight_growth(s, MH)
        assert got.quadratic_coeff == 0
        assert got.classification == cls == _far_classification(s, MH)
    summands = ex.induce(AtypicalA(F(3, 2), 1), MH, 20)
    weights = [delta(summands[20 + m]) for m in (0, 1, 3, 20)]
    assert weights == [2, -1, -5, -39]


def test_weight_growth_matches_fraction_body_on_grid():
    # the int closed form against its former Fraction body, by value, type,
    # repr, and exception type and text; the draws add custom extensions
    labels = _grid_labels()
    rng = Random(62)
    draws = []
    for _ in range(600):
        ext = _random_extension(rng)
        draws.append((ext, rng.choice([_draws.typical(rng), _draws.atypical(rng, max_ell=5)])))
    seen = set()
    for ext, s in [(ext, s) for ext in _grid_extensions() for s in labels] + draws:
        got = _outcome(ex.weight_growth, s, ext)
        assert got == _outcome(weight_growth_by_fractions, s, ext), (s, ext)
        if isinstance(got, tuple):
            seen.add(got[0])
        else:
            assert repr(got) == repr(weight_growth_by_fractions(s, ext))
            assert type(got.quadratic_coeff) is type(got.linear_coeff) is Fraction
            seen.add(got.classification)
    assert seen == {ValueError, Gl11Error, "lowest_weight", "spectral_flow_unbounded", "relaxed_flat"}


def test_spectral_flow_matches_fraction_body_on_grid():
    # every grid label, supported or not, and the Vermas at ehat != 0 flowed
    # back to ehat = 0, at flows -3..3
    rng = Random(63)
    sources = _grid_labels()
    for kind in (AtypicalA, ProjectiveP, VermaV0):
        sources += [kind(_draws.rational(rng, 40, 9), 0, rng.random() < 0.5) for _ in range(40)]
    flowed = set()
    for src in sources:
        for ell in range(-3, 4):
            got = _outcome(spectral_flow, src, ell)
            assert got == _outcome(spectral_flow_by_fractions, src, ell), (src, ell)
            if not isinstance(got, tuple) and ell:
                assert type(got.n) is Fraction and got.parity_flip == src.parity_flip
                flowed.add((type(src), ell > 0, src.ell == 0))
    # both flows of every kind from ehat = 0, and Vermas back from either side
    assert flowed == {(k, up, True) for k in (AtypicalA, ProjectiveP, VermaV0) for up in (False, True)} | {
        (VermaV0, up, False) for up in (False, True)
    }


def test_closed_forms_do_not_fuse(monkeypatch):
    def refuse(*args):
        raise AssertionError("fused or sampled in place of the closed form")

    monkeypatch.setattr(ex, "fuse", refuse)
    monkeypatch.setattr(ex, "delta", refuse)
    simples = [x for x in _grid_labels() if is_simple(x)]
    for ext in _grid_extensions():
        for s in simples:
            for m in (-1, 1, 2):
                c = ext.generator_of(m)
                ex.monodromy_exponent(s, c)
                ex.monodromy_exponent(c, s)  # an atypical s against a typical c swaps
            ex.is_local(s, ext)
            ex.induced_equivalent(s, simples[0], ext)
            got = _outcome(ex.weight_growth, s, ext)
            assert not isinstance(got, tuple) or got[0] is Gl11Error


def test_extension_stores_ints_and_views_a():
    for ext in _grid_extensions():
        stored = [getattr(ext, name) for name in type(ext).__slots__]
        assert [type(v) for v in stored] == [str, int, int, int]
        assert type(ext.a) is Fraction and (ext.a.numerator, ext.a.denominator) == (ext._ap, ext._aq)
    assert ex.ExtensionSpec("x", F(2, 4), 1).a == F(1, 2)


@pytest.mark.parametrize("bad", [F(3, 2), 2.9], ids=["3/2", "2.9"])
def test_extension_integers_are_checked(bad):
    with pytest.raises(ValueError, match="expected an integer"):
        ex.ExtensionSpec("x", F(1, 2), bad)
    assert ex.ExtensionSpec("x", F(1, 2), F(4, 2)).b == 2
    assert type(ex.ExtensionSpec("x", F(1, 2), 2).b) is int


@pytest.mark.parametrize("bad", [F(3, 2), 2.9], ids=["3/2", "2.9"])
def test_custom_extension_integers_are_checked(bad):
    with pytest.raises(ValueError, match="expected an integer"):
        ex.ExtensionSpec.custom(F(1, 2), bad)
    assert ex.ExtensionSpec.custom(F(1, 2), F(-4, 2)).name == "custom:1/2,-2"


@pytest.mark.parametrize("bad", [F(3, 2), 2.9], ids=["3/2", "2.9"])
def test_generator_of_integers_are_checked(bad):
    with pytest.raises(ValueError, match="expected an integer"):
        MH.generator_of(bad)
    assert MH.generator_of(F(2)) == MH.generator_of(2)


@pytest.mark.parametrize("bad", [F(3, 2), 2.9], ids=["3/2", "2.9"])
def test_induce_integers_are_checked(bad):
    with pytest.raises(ValueError, match="expected an integer"):
        ex.induce(AtypicalA(0, 0), L1, bad)
    assert ex.induce(AtypicalA(0, 0), L1, F(1)) == ex.induce(AtypicalA(0, 0), L1, 1)
