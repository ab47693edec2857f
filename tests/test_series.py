"""The character result type, its windowed equality, and the test oracle's window rules."""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

import _series_oracle as oracle
from gl11kl import characters as ch
from gl11kl.labels import TypicalV
from gl11kl.series import JacobiSeries, _below, jacobi_equal_to_cutoff


F = Fraction


def S(terms, cutoff=None):
    return JacobiSeries(terms, cutoff)


def below(classes: dict, limit) -> dict:
    """``_below`` at a Fraction limit."""
    limit = F(limit)
    return _below(classes, (limit.numerator, limit.denominator), 0, 1)


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
    # q = -1/3 is 2/3 - 1 and z = -3/2 is 1/2 - 2; each key (q0, z0, y, den)
    # is over the least common denominator of its exponents
    s = S({(F(-1, 3), -2, 0): 4, (F(2, 3), F(-3, 2), 0): 5})
    # each class is (dq, dz, n_top, block), its one term at block offset (0, 0)
    assert s._classes == {
        (2, 0, 0, 3): (-1, -2, 0, {(0, 0): 4}),
        (4, 3, 0, 6): (0, -2, 0, {(0, 0): 5}),
    }
    assert list(s.sorted_terms()) == [((F(-1, 3), F(-2), F(0)), 4), ((F(2, 3), F(-3, 2), F(0)), 5)]
    assert s.min_q() == F(-1, 3)
    # -2 is 0 - 2, 7/2 is 1/2 + 3, and y = -1/5 stays whole in the key
    t = S({(F(-2), F(7, 2), F(-1, 5)): 1, (F(-1, 3), F(1, 3), F(1, 3)): 2}, 2)
    assert t._classes == {(0, 5, -2, 10): (-2, 3, 0, {(0, 0): 1}), (2, 1, 1, 3): (-1, 0, 0, {(0, 0): 2})}
    assert t.min_q() == -2 and all(map(oracle.canonical, t._classes))


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
    # the kept view is read-only, so it cannot drift from the classes that
    # equality reads: a write raises, and the series rebuilds from its terms
    s, t = ch.char_verma(F(1, 3), F(2, 5), 4), ch.char_verma(F(1, 3), F(2, 5), 4)
    assert s.terms is s.terms
    key = next(iter(s.terms))
    with pytest.raises(TypeError):
        s.terms[key] = 99
    with pytest.raises(TypeError):
        del s.terms[key]
    assert s.terms == t.terms and s == t
    assert JacobiSeries(s.terms, s.q_cutoff) == s == t


_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, *(lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in _PROTOCOLS)],
    ids=["copy", "deepcopy", *(f"pickle{p}" for p in _PROTOCOLS)],
)
def test_characters_copy_and_pickle(round_trip):
    # characters share read-only blocks, which neither copy nor pickle can
    # take; a series goes through its public constructor instead
    series = [
        ch.char_verma(F(1, 3), F(1, 2), 3),
        ch.char_atypical0(F(1, 4), 4, (-3, 3)),
        *ch.char_induced_typical(F(1, 4), F(1, 2), 2, 1),
        S({(F(1, 2), 0, 0): 3, (0, F(1, 3), F(-1, 2)): -1}),
        S({}),
        S({}, 2),
    ]
    for s in series:
        again = round_trip(s)
        assert type(again) is JacobiSeries and again == s and again.q_cutoff == s.q_cutoff
        assert again.terms == s.terms and repr(again) == repr(s)


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
    assert key == (16, 25, 30, 75)  # q0 = Delta = 16/75, z0 = 1/3, y = 2/5
    for above in (6, F(13, 2), 100):
        assert below(s._classes, s.min_q() + above)[key] is value
    # one short of the top is a cut: the Verma at depth 5, its least M raised
    cut = below(s._classes, s.min_q() + 5)[key]
    assert cut == ch.char_verma(F(1, 3), F(2, 5), 5)._classes[key] != value
    assert cut[1] > value[1] and cut[2] == 5
    # the limit lies under q0: a negative numerator, floored to drop the class
    assert below(s._classes, s.min_q() - F(1, 2)) == {} == below(s._classes, -F(1, 7))
    # the comparison of the induced sides cuts nothing
    lhs, rhs = ch.char_induced_typical(F(1, 4), F(1, 2), 2, 1)
    window = ch.induced_window(F(1, 4), F(1, 2), 2, 1)
    for side in (lhs, rhs):
        kept = below(side._classes, min(lhs.min_q(), rhs.min_q()) + window)
        assert all(kept[k] is v for k, v in side._classes.items())


_DENS = (1, 2, 3, 4, 5, 6, 7, 9)


def _terms(rng: Random) -> dict:
    """Terms over one to three classes, with negative exponents and mixed denominators."""
    bases = [tuple(F(rng.randint(-9, 9), rng.choice(_DENS)) for _ in range(3)) for _ in range(rng.randint(1, 3))]
    terms = {}
    for _ in range(rng.randint(0, 10)):
        q, z, y = rng.choice(bases)
        terms[(q + rng.randint(-3, 3), z + rng.randint(-3, 3), y)] = rng.choice((-2, -1, 0, 1, 3))
    return terms


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_int_classes_match_fraction_bodies():
    # the constructor, min_q, _below and jacobi_equal_to_cutoff on int keys
    # against their former Fraction-keyed bodies: the same classes, the same
    # uncut values kept as the same objects, and the same verdicts or errors
    rng = Random(27)
    seen = dict.fromkeys(("mixed", "negative_floor", "cut", "uncut", "equal", "unequal", "raised"), 0)
    for _ in range(600):
        cutoff = rng.choice((None, F(rng.randint(0, 8), rng.choice((1, 2, 3)))))
        terms = _terms(rng)
        s, want = S(terms, cutoff), oracle.classes_by_fractions(terms, cutoff)
        assert oracle.fraction_keys(s._classes) == want and all(map(oracle.canonical, s._classes))
        assert s.min_q() == oracle.min_q_by_fractions(want)
        seen["mixed"] += len({key[3] for key in s._classes}) > 1
        limit = (s.min_q() or 0) + F(rng.randint(-6, 12), rng.choice((1, 2, 3, 4)))
        got, ref = below(s._classes, limit), oracle.below_by_fractions(want, limit)
        assert oracle.fraction_keys(got) == ref
        same = oracle.fraction_keys({k: got[k] is v for k, v in s._classes.items() if k in got})
        assert same == {k: ref[k] is v for k, v in want.items() if k in ref}
        seen["cut"] += not all(same.values())
        seen["uncut"] += any(same.values())
        gaps = [limit - F(k[0], k[3]) for k in s._classes]  # floor(gap) is -1 or less
        seen["negative_floor"] += any(gap < 0 and gap.denominator > 1 for gap in gaps)
        other_terms = dict(terms) if rng.random() < 0.5 else _terms(rng)
        if other_terms and rng.random() < 0.5:
            other_terms[rng.choice(list(other_terms))] = 5
        other_cutoff = rng.choice((None, cutoff, F(rng.randint(0, 8), rng.choice((1, 2, 3)))))
        other = S(other_terms, other_cutoff)
        w = F(rng.randint(-1, 9), rng.choice((1, 2, 3)))
        verdict = _outcome(jacobi_equal_to_cutoff, s, other, w)
        pairs = (want, cutoff), (oracle.classes_by_fractions(other_terms, other_cutoff), other_cutoff)
        assert verdict == _outcome(oracle.equal_by_fractions, *pairs, w)
        seen[{True: "equal", False: "unequal"}.get(verdict, "raised")] += 1
    assert min(seen.values()) >= 100, seen

