"""The character result type, its windowed equality, and the test oracle's window rules."""

from fractions import Fraction

import pytest

import _series_oracle as oracle
from gl11kl import characters as ch
from gl11kl.labels import TypicalV
from gl11kl.series import JacobiSeries, _below, _split, jacobi_equal_to_cutoff


F = Fraction


def S(terms, cutoff=None):
    return JacobiSeries(terms, cutoff)


def test_mul_truncates_to_window():
    one_plus_q = ({(0, 0, 0): 1, (1, 0, 0): 1}, 1)
    one_minus_q = ({(0, 0, 0): 1, (1, 0, 0): -1}, 1)
    terms, cutoff = oracle.mul(one_plus_q, one_minus_q)
    assert terms == {(0, 0, 0): 1}  # q^2 truncated
    assert cutoff == 1


def test_equality_reflexive():
    a = S({(0, 0, 0): 1, (1, 0, 0): 1}, cutoff=3)
    assert jacobi_equal_to_cutoff(a, a, 3)


def test_equality_detects_mismatch():
    a = S({(0, 0, 0): 1, (1, 0, 0): 1}, cutoff=1)
    b = S({(0, 0, 0): 1, (1, 0, 0): 2}, cutoff=1)
    assert not jacobi_equal_to_cutoff(a, b, 1)


def test_equality_ignores_terms_beyond_window():
    a = S({(0, 0, 0): 1, (1, 0, 0): 1}, cutoff=3)
    b = S({(0, 0, 0): 1, (1, 0, 0): 1, (3, 0, 0): 5}, cutoff=3)
    assert jacobi_equal_to_cutoff(a, b, 2)
    assert not jacobi_equal_to_cutoff(a, b, 3)


def test_window_beyond_cutoff_rejected():
    a = S({(0, 0, 0): 1}, cutoff=1)
    with pytest.raises(ValueError):
        jacobi_equal_to_cutoff(a, a, 2)


def test_negative_window_rejected():
    # a window of -1 compares nothing, so it would call these equal
    a = S({(0, 0, 0): 1}, cutoff=1)
    b = S({(0, 0, 0): 5}, cutoff=1)
    with pytest.raises(ValueError, match="nonnegative"):
        jacobi_equal_to_cutoff(a, b, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        jacobi_equal_to_cutoff(JacobiSeries(), JacobiSeries(), Fraction(-1, 2))
    with pytest.raises(ValueError, match="q_cutoff must be nonnegative"):
        S({(0, 0, 0): 1}, cutoff=-1)
    assert not jacobi_equal_to_cutoff(a, b, 0)


def test_coefficients_must_be_integers():
    with pytest.raises(ValueError, match="expected an integer"):
        S({(0, 0, 0): 1.5})
    with pytest.raises(ValueError, match="expected an integer"):
        S({(0, 0, 0): Fraction(1, 2)})
    got = S({(0, 0, 0): 2.0, (1, 0, 0): Fraction(0), (2, 0, 0): True})
    assert got.terms == {(0, 0, 0): 2, (2, 0, 0): 1}
    assert all(type(c) is int for c in got.terms.values())


def test_addition_shrinks_to_reliable_window():
    # a known to q<=2 from 0, b known to q<=2 from 1: sum reliable to q<=2
    a = ({(0, 0, 0): 1, (2, 0, 0): 7}, 2)
    b = ({(1, 0, 0): 1, (3, 0, 0): 9}, 2)
    terms, cutoff = oracle.add(a, b)
    assert terms.get((2, 0, 0)) == 7
    assert (3, 0, 0) not in terms  # beyond the shared window
    assert min(k[0] for k in terms) == 0 and cutoff == 2


def test_restrict_z_window():
    a = ({(0, -2, 0): 1, (0, 0, 0): 2, (0, 3, 0): 4}, None)
    assert oracle.restrict_z(a, -1, 3) == ({(0, 0, 0): 2, (0, 3, 0): 4}, None)
    with pytest.raises(ValueError):
        oracle.restrict_z(a, 2, 1)


def test_exponents_split_by_floor():
    assert _split(F(-1, 3)) == (F(2, 3), -1)
    assert _split(F(-2)) == (F(0), -2)
    assert _split(F(7, 2)) == (F(1, 2), 3)
    # q = -1/3 is 2/3 - 1 and z = -3/2 is 1/2 - 2
    s = S({(F(-1, 3), -2, 0): 4, (F(2, 3), F(-3, 2), 0): 5})
    # each class is (dq, dz, n_top, block), its one term at block offset (0, 0)
    assert s._classes == {
        (F(2, 3), F(0), F(0)): (-1, -2, 0, {(0, 0): 4}),
        (F(2, 3), F(1, 2), F(0)): (0, -2, 0, {(0, 0): 5}),
    }
    assert list(s.sorted_terms()) == [((F(-1, 3), F(-2), F(0)), 4), ((F(2, 3), F(-3, 2), F(0)), 5)]
    assert s.min_q() == F(-1, 3)


def test_emptied_series_is_the_empty_series():
    got = ch.characters(TypicalV(F(-7, 3), F(5, 2)), 3, (F(1, 2), F(2, 3)))
    assert got == S({}, 3) and jacobi_equal_to_cutoff(got, S({}, 3), 3)
    assert got.is_zero and got.min_q() is None
    assert got.terms == {} and list(got.sorted_terms()) == []
    assert repr(got) == "JacobiSeries(0 terms, min_q=None, q_cutoff=3)"


def test_class_on_one_side_only():
    # b's extra term at q = 3/2 is a class a does not have
    a = S({(0, 0, 0): 1, (1, 0, 0): 2}, cutoff=2)
    b = S({(0, 0, 0): 1, (1, 0, 0): 2, (F(3, 2), 0, 0): 7}, cutoff=2)
    for window in (0, 1, F(4, 3)):
        assert jacobi_equal_to_cutoff(a, b, window) and jacobi_equal_to_cutoff(b, a, window)
    for window in (F(3, 2), 2):
        assert not jacobi_equal_to_cutoff(a, b, window) and not jacobi_equal_to_cutoff(b, a, window)
    # the lower minimum sets the window for both sides
    c = S({(F(-1, 2), 0, 0): 1}, cutoff=1)
    assert jacobi_equal_to_cutoff(c, a, F(1, 4)) is False
    assert jacobi_equal_to_cutoff(c, S({(F(-1, 2), 0, 0): 1, (F(1, 2), 0, 0): 3}, 1), F(1, 2))


def test_terms_view_is_built_once():
    s = ch.char_verma(F(1, 3), F(2, 5), 4)
    assert s.terms is s.terms
    assert JacobiSeries(s.terms, s.q_cutoff) == s


def test_reads_and_comparisons_never_build_terms(monkeypatch):
    def unwanted(self):
        raise AssertionError("terms view built")

    monkeypatch.setattr(JacobiSeries, "terms", property(unwanted))
    got = ch.characters(TypicalV(F(-7, 3), F(5, 2)), 3, (-4, -1))
    assert len(list(got.sorted_terms())) == 11 and got.min_q() == F(-65, 24)
    lhs, rhs = ch.char_induced_typical(F(1, 4), F(1, 2), 2, 1)
    assert jacobi_equal_to_cutoff(lhs, rhs, ch.induced_window(F(1, 4), F(1, 2), 2, 1))
    assert ch.verify_induced_identity(F(-1, 3), F(3, 4), 3, 2)
    assert "terms" in repr(got) and got == got


def test_constructor_keeps_terms_within_cutoff():
    # the cutoff counts from the lowest q, here -4/3, across classes
    got = S({(F(-4, 3), 0, 0): 1, (F(2, 3), 1, 0): 2, (F(3, 4), 0, 0): 5, (F(1, 2), 0, 0): 0}, cutoff=2)
    assert got.terms == {(F(-4, 3), 0, 0): 1, (F(2, 3), 1, 0): 2}
    assert got.min_q() == F(-4, 3) and got.q_cutoff == 2
    assert S({(F(3, 4), 0, 0): 5}, cutoff=0).terms == {(F(3, 4), 0, 0): 5}


def test_below_keeps_an_uncut_class_as_the_same_object():
    s = ch.char_verma(F(1, 3), F(2, 5), 6)
    ((key, value),) = s._classes.items()
    for above in (6, F(13, 2), 100):
        assert _below(s._classes, s.min_q() + above)[key] is value
    # one short of the top is a cut: the Verma at depth 5, its least M raised
    cut = _below(s._classes, s.min_q() + 5)[key]
    assert cut == ch.char_verma(F(1, 3), F(2, 5), 5)._classes[key] != value
    assert cut[1] > value[1] and cut[2] == 5
    assert _below(s._classes, s.min_q() - F(1, 2)) == {}
    # the comparison of the induced sides cuts nothing
    lhs, rhs = ch.char_induced_typical(F(1, 4), F(1, 2), 2, 1)
    window = ch.induced_window(F(1, 4), F(1, 2), 2, 1)
    for side in (lhs, rhs):
        kept = _below(side._classes, min(lhs.min_q(), rhs.min_q()) + window)
        assert all(kept[k] is v for k, v in side._classes.items())
