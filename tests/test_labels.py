"""Label invariants: weights, flow, duals, covers, composition series."""

from fractions import Fraction
from random import Random

import pytest

from gl11kl.errors import NotDeterminedError
from gl11kl.labels import (
    AtypicalA,
    FormalSum,
    ModuleLabel,
    ProjectiveP,
    TypicalV,
    VermaV0,
    contragredient,
    delta,
    epsilon,
    epsilon2,
    k_decompose,
    parse_label,
    projective_cover,
    render_label,
    spectral_flow,
    top_dim,
)

import _draws
import _series_oracle as oracle

F = Fraction


def test_typical_requires_nonintegral_ehat():
    with pytest.raises(ValueError):
        TypicalV(0, 2)


def test_delta_examples():
    assert delta(TypicalV(1, F(1, 2))) == F(5, 8)
    assert delta(AtypicalA(5, 0)) == 0
    assert delta(AtypicalA(F(-1, 2), 1)) == 0


def test_delta_projective_uses_minimal_constituent():
    # constituents of P(n;l) are the Vermas at n and n - 2 eps(l)
    for n, ell in ((F(1, 3), 2), (F(-5, 4), -3), (F(0), 1)):
        label = ProjectiveP(n, ell)
        deltas = [delta(VermaV0(n, ell)), delta(VermaV0(n - 2 * epsilon(ell), ell))]
        assert delta(label) == min(deltas)


def test_delta_matches_fraction_formula_on_all_kinds():
    # labels.delta builds one Fraction from numerators and denominators; the
    # oracle keeps the Fraction formula ehat (n + ehat/2) it replaced
    for n in [F(a, d) for a in range(-7, 8) for d in (1, 2, 3, 5)]:
        for flip in (False, True):
            labels = [TypicalV(n, F(e, g), flip) for e in (-7, -1, 1, 5) for g in (2, 3, 6)]
            labels += [cls(n, ell, flip) for cls in (AtypicalA, VermaV0, ProjectiveP) for ell in range(-3, 4)]
            for label in labels:
                shifted = label.n
                if type(label) is ProjectiveP and label.ell != 0:
                    shifted -= 2 * epsilon(label.ell)
                assert delta(label) == oracle.weight(shifted, label.ehat), label


def test_sums_print_in_kind_ehat_n_parity_order():
    # ehat compares as a rational, its denominator included, before n:
    # V(1;1/3) comes before V(0;1/2)
    labels = [TypicalV(0, F(1, 2), True), ProjectiveP(0, 0), TypicalV(0, F(1, 2)), VermaV0(0, 0)]
    labels += [TypicalV(1, F(1, 3)), AtypicalA(0, 1), AtypicalA(F(1, 2), -1), TypicalV(-1, F(-3, 2))]
    want = "A(1/2;-1) + A(0;1) + V(-1;-3/2) + V(1;1/3) + V(0;1/2) + PiV(0;1/2) + Verma0(0;0) + P(0;0)"
    assert repr(FormalSum(labels)) == want


def test_epsilon_values():
    assert epsilon(3) == F(1, 2)
    assert epsilon(0) == 0
    assert epsilon(-2) == F(-1, 2)
    assert epsilon2(1, -1) == 0
    assert epsilon2(1, 1) == F(1, 2)


def test_epsilon2_symmetric_and_unital():
    for ell in range(-6, 7):
        assert epsilon2(ell, 0) == 0
        for ell2 in range(-6, 7):
            assert epsilon2(ell, ell2) == epsilon2(ell2, ell)


def epsilon2_by_sum(ell, ell2):
    """The former epsilon2: three epsilons added."""
    return epsilon(ell) + epsilon(ell2) - epsilon(ell + ell2)


def test_epsilon2_matches_sum_of_epsilons():
    for ell in range(-6, 7):
        for ell2 in range(-6, 7):
            got = epsilon2(ell, ell2)
            assert got == epsilon2_by_sum(ell, ell2), (ell, ell2)
            assert type(got) is Fraction


def test_spectral_flow_identity():
    for label in (VermaV0(F(1, 3), 0), AtypicalA(2, 0), ProjectiveP(F(-1, 2), 0)):
        assert spectral_flow(label, 0) == label


def test_spectral_flow_examples():
    assert spectral_flow(ProjectiveP(F(1, 4), 0), -1) == ProjectiveP(F(3, 4), -1)
    assert spectral_flow(VermaV0(F(1, 4), 0), -1) == VermaV0(F(5, 4), -1)
    assert spectral_flow(VermaV0(0, 0), 2) == VermaV0(-2, 2)
    assert spectral_flow(AtypicalA(1, 0), -2) == AtypicalA(F(5, 2), -2)
    # positive flow composes with conjugation, as for the projective covers
    assert spectral_flow(ProjectiveP(F(1, 4), 0), 2) == ProjectiveP(F(-7, 4), 2)
    assert spectral_flow(AtypicalA(1, 0), 2) == AtypicalA(F(-5, 2), 2)


def test_spectral_flow_round_trip_on_vermas():
    rng = Random(2)
    for _ in range(50):
        n = _draws.rational(rng)
        ell = rng.randint(-4, 4)
        src = VermaV0(n, 0)
        assert spectral_flow(spectral_flow(src, ell), -ell) == src


def test_spectral_flow_rejects_unsupported_sources():
    with pytest.raises(NotDeterminedError):
        spectral_flow(TypicalV(0, F(1, 2)), 1)
    with pytest.raises(NotDeterminedError):
        spectral_flow(AtypicalA(0, 1), 1)
    with pytest.raises(NotDeterminedError):
        spectral_flow(VermaV0(0, 2), 1)  # only the inverse flow is defined
    with pytest.raises(NotDeterminedError):
        spectral_flow(ProjectiveP(0, 1), 1)


def test_contragredient_examples():
    assert contragredient(AtypicalA(0, 0)) == AtypicalA(0, 0)
    got = contragredient(TypicalV(F(1, 4), F(1, 2)))
    assert (got.n, got.ehat, got.parity_flip) == (F(-1, 4), F(-1, 2), True)
    assert contragredient(ProjectiveP(2, 0)) == ProjectiveP(-2, 0)


def test_contragredient_involution_and_delta_fixed():
    rng = Random(9)
    for _ in range(100):
        label = rng.choice(
            (_draws.typical(rng), _draws.atypical(rng), ProjectiveP(_draws.rational(rng), 0))
        )
        dual = contragredient(label)
        assert contragredient(dual) == label
        assert delta(dual) == delta(label)


def test_contragredient_rejects_undetermined():
    with pytest.raises(NotDeterminedError):
        contragredient(ProjectiveP(0, 1))
    with pytest.raises(NotDeterminedError):
        contragredient(VermaV0(0, 0))


def test_projective_cover():
    v = TypicalV(1, F(1, 3))
    assert projective_cover(v) == v
    assert projective_cover(AtypicalA(F(1, 2), -2)) == ProjectiveP(F(1, 2), -2)
    assert projective_cover(AtypicalA(3, 0)) == ProjectiveP(3, 0)
    with pytest.raises(ValueError):
        projective_cover(ProjectiveP(0, 0))


class _Unknown(ModuleLabel):
    """A label kind that no function of the package knows."""

    __slots__ = ("n", "parity_flip")

    def __init__(self, n, parity_flip):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parity_flip", parity_flip)


def test_k_decompose_cases():
    assert k_decompose(VermaV0(0, 0)) == FormalSum(
        [AtypicalA(F(-1, 2), 0), AtypicalA(F(1, 2), 0)]
    )
    n = F(2, 3)
    assert k_decompose(VermaV0(n, 1)) == FormalSum([AtypicalA(n, 1), AtypicalA(n + 1, 1)])
    assert k_decompose(VermaV0(n, -2)) == FormalSum([AtypicalA(n, -2), AtypicalA(n - 1, -2)])
    assert k_decompose(ProjectiveP(n, 0)) == FormalSum(
        [(AtypicalA(n, 0), 2), (AtypicalA(n + 1, 0), 1), (AtypicalA(n - 1, 0), 1)]
    )
    assert k_decompose(ProjectiveP(n, 3)) == FormalSum(
        [(AtypicalA(n, 3), 2), (AtypicalA(n + 1, 3), 1), (AtypicalA(n - 1, 3), 1)]
    )
    v = TypicalV(n, F(1, 2))
    assert k_decompose(v) == FormalSum(v)
    with pytest.raises(TypeError, match="unknown label"):
        k_decompose(_Unknown(n, False))


def test_k_decompose_multiplicity_and_top_dims():
    rng = Random(4)
    for _ in range(60):
        label = rng.choice(
            (
                _draws.typical(rng),
                _draws.atypical(rng),
                _draws.projective(rng),
                VermaV0(_draws.rational(rng), rng.randint(-3, 3)),
            )
        )
        parts = k_decompose(label)
        expected_total = {TypicalV: 1, AtypicalA: 1, VermaV0: 2, ProjectiveP: 4}[type(label)]
        assert parts.total() == expected_total
        assert sum(top_dim(l) * m for l, m in parts.items()) >= top_dim(label)


def test_top_dim_values():
    assert top_dim(AtypicalA(3, 0)) == 1
    assert top_dim(AtypicalA(0, 2)) == 2
    assert top_dim(TypicalV(0, F(1, 2))) == 2
    assert top_dim(VermaV0(0, 0)) == 2
    assert top_dim(ProjectiveP(0, 0)) == 4
    assert top_dim(ProjectiveP(0, -1)) == 2
    with pytest.raises(TypeError, match="unknown label"):
        top_dim(_Unknown(0, False))


def test_render_parse_round_trip():
    rng = Random(17)
    for _ in range(100):
        label = rng.choice(
            (
                _draws.typical(rng),
                _draws.atypical(rng),
                _draws.projective(rng),
                VermaV0(_draws.rational(rng), rng.randint(-3, 3)),
            )
        )
        assert parse_label(render_label(label)) == label
        flipped = type(label)(label.n, label.ehat, parity_flip=True)
        assert render_label(flipped).startswith("Pi")
        assert parse_label(render_label(flipped)) == flipped


def test_parse_examples():
    assert parse_label("V(1/4;1/2)") == TypicalV(F(1, 4), F(1, 2))
    assert parse_label("A(-1/2;1)") == AtypicalA(F(-1, 2), 1)
    assert parse_label("p(0;0)") == ProjectiveP(0, 0)
    # the contragredient of a typical is parity-flipped, and renders with Pi
    assert parse_label("PiV(-1/4;-1/2)") == contragredient(TypicalV(F(1, 4), F(1, 2)))
    with pytest.raises(ValueError):
        parse_label("V(0;2)")
    with pytest.raises(ValueError):
        parse_label("A(0;1/2)")
    with pytest.raises(ValueError):
        parse_label("Q(0;0)")


def test_parse_is_case_insensitive():
    flipped = contragredient(TypicalV(F(1, 4), F(1, 2)))
    for pi in ("Pi", "pi", "PI", "pI"):
        for kind in ("V", "v"):
            assert parse_label(f"{pi}{kind}(-1/4;-1/2)") == flipped
        for text in ("VERMA0(1/2;0)", "vErma0(1/2;0)", "verma0(1/2;0)"):
            assert parse_label(text) == VermaV0(F(1, 2), 0)
            assert parse_label(pi + text) == VermaV0(F(1, 2), 0, parity_flip=True)
        assert parse_label(f"{pi}a(1;-2)") == AtypicalA(1, -2, parity_flip=True)
    # errors name the kind canonically, whatever case it was typed in
    with pytest.raises(ValueError, match="'vERMA0\\(0;1/2\\)': Verma0 labels need an integer ell"):
        parse_label("vERMA0(0;1/2)")
    with pytest.raises(ValueError, match="'p\\(0;1/2\\)': P labels need an integer ell"):
        parse_label("p(0;1/2)")


def test_formal_sum_algebra():
    a, b = AtypicalA(1, 0), AtypicalA(2, 0)
    s = FormalSum([a, b]) + FormalSum(a)
    assert s.multiplicity(a) == 2 and s.multiplicity(b) == 1
    assert (2 * s).total() == 6
    with pytest.raises(ValueError):
        FormalSum([(a, -1)])
    with pytest.raises(ValueError):
        s.single()


def test_formal_sum_repr_hash_and_size():
    a, b, p = AtypicalA(1, 0), AtypicalA(-2, 0), ProjectiveP(F(1, 2), 0)
    s = FormalSum([p, a, a, b])
    t = FormalSum([b, (a, 2), p])
    # labels print in sorted order, a multiplicity above 1 as a prefix
    assert repr(s) == repr(t) == "A(-2;0) + 2*A(1;0) + P(1/2;0)"
    assert repr(FormalSum()) == "0"
    # equal sums hash equal, whatever order their terms were given in
    assert s == t and hash(s) == hash(t)
    assert len(s) == 3 and s.total() == 4
    assert not s.is_zero and FormalSum().is_zero and len(FormalSum()) == 0
    assert FormalSum(p).single() == p
    with pytest.raises(ValueError, match="multiplicity-free"):
        FormalSum([(a, 2)]).single()
    # the sort is by kind, in the order A, V, Verma0, P, then by ehat, n and
    # parity; each later kind here has the smaller ehat and n
    mixed = [ProjectiveP(-3, -2), VermaV0(-2, -1), TypicalV(-1, F(-1, 2)), AtypicalA(5, 4, True), AtypicalA(5, 4)]
    assert repr(FormalSum(mixed)) == "A(5;4) + PiA(5;4) + V(-1;-1/2) + Verma0(-2;-1) + P(-3;-2)"


def test_formal_sum_copies_a_formal_sum():
    a, b = AtypicalA(1, 0), AtypicalA(2, 0)
    s = FormalSum([a, b])
    copy = FormalSum(s)
    assert copy == s and copy._terms is not s._terms
    copy._terms[a] = 5
    assert s.multiplicity(a) == 1


def test_formal_sum_multiplicities_are_checked():
    a = AtypicalA(0, 0)
    for bad in (1.5, Fraction(3, 2), "1/2"):
        with pytest.raises(ValueError, match="expected an integer"):
            FormalSum([(a, bad)])
        with pytest.raises(ValueError, match="expected an integer"):
            FormalSum({a: bad})
    assert FormalSum([(a, 2.0)]) == FormalSum({a: 2}) == FormalSum([(a, Fraction(2))])
    assert all(type(m) is int for _, m in FormalSum([(a, 2.0)]))


def test_formal_sum_scaling_is_checked():
    s = FormalSum([AtypicalA(0, 0), AtypicalA(1, 0)])
    for bad in (2.5, Fraction(5, 2), "5/2"):
        with pytest.raises(ValueError, match="expected an integer"):
            bad * s
        with pytest.raises(ValueError, match="expected an integer"):
            s * bad
    with pytest.raises(ValueError, match="scaling must be nonnegative"):
        -1 * s
    assert 2.0 * s == 2 * s == s * Fraction(2)
    assert all(type(m) is int for _, m in 2.0 * s)
