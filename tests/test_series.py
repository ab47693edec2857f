"""The character result type, its windowed equality, and the test oracle's window rules."""

from fractions import Fraction

import pytest

import _series_oracle as oracle
from gl11kl.series import JacobiSeries, jacobi_equal_to_cutoff


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
