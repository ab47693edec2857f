"""Labels that store ints against the Fraction-field labels they replaced.

``_label_reference`` keeps the former label classes and functions.  On the
extension grid's labels, on every key the fusion rules produce from them
and on seeded draws, the int path (``fusion._label``, the public
constructors, ``parse_label`` and the label functions) must give the same
field values and types, ``repr``, rendering and pickle round trips.  A label
hashes as the tuple of the ints it stores, which its equality compares.
"""

import pickle
import sys
from fractions import Fraction
from random import Random

import pytest

import _label_reference as ref
from gl11kl import extensions as ex
from gl11kl import fusion
from gl11kl import labels as lb
from test_extensions import GRID_NS, _grid_extensions, _grid_labels

F = Fraction
KINDS = (lb.TypicalV, lb.AtypicalA, lb.VermaV0, lb.ProjectiveP)


def _same(x, r) -> None:
    """x, a package label, equals the reference label r in every observable."""
    assert type(x).__name__ == type(r).__name__, (x, r)
    values = x._values()
    assert values == r._values() and [type(v) for v in values] == [type(v) for v in r._values()], (x, r)
    assert repr(x) == repr(r)
    assert lb.render_label(x) == ref.render_label(r)
    assert hash(x) == hash((x._np, x._nq, x._ep, x._eq, x.parity_flip))
    assert x.__reduce__()[1] == r.__reduce__()[1]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(x, protocol))
        assert type(again) is type(x) and again == x and hash(again) == hash(x) and repr(again) == repr(x)


def _draw_label(rng: Random):
    """A label of any kind from the public constructor, its values as Fraction, int or str."""
    kind = rng.choice(KINDS)
    n = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 12, 35)))
    n = rng.choice((n, str(n), int(n) if n.denominator == 1 else n))
    flip = rng.choice((False, True))
    if kind is lb.TypicalV:
        while True:
            e = F(rng.randint(-40, 40), rng.choice((2, 3, 5, 12)))
            if e.denominator != 1:
                return kind(n, rng.choice((e, str(e))), flip)
    return kind(n, rng.choice((rng.randint(-5, 5), str(rng.randint(-5, 5)), F(rng.randint(-5, 5)))), flip)


def _labels():
    rng = Random(91)
    return _grid_labels() + [_draw_label(rng) for _ in range(300)]


def test_constructors_match_the_fraction_fields():
    for x in _labels():
        _same(x, ref.like(x))
        assert x == type(x)(*x._values()) and hash(x) == hash(type(x)(*x._values()))


def test_int_keys_build_the_former_labels():
    # every key the rules produce from the grid, and seeded keys at even scales
    keys = set()
    grid = [x for x in _grid_labels() if type(x) is not lb.VermaV0]
    for a in grid:
        for b in grid:
            d = fusion._scale(a, b)
            keys.update((key, d) for key in fusion._rules(fusion._key(a, d), fusion._key(b, d), d))
    rng = Random(92)
    for _ in range(500):
        d, kind = 2 * rng.randint(1, 30), rng.choice(KINDS)
        second = rng.randint(-99, 99)
        if kind is lb.TypicalV and second % d == 0:
            second += 1
        keys.add(((kind, rng.randint(-999, 999), second if kind is lb.TypicalV else rng.randint(-4, 4)), d))
    assert len(keys) > 1000
    for key, d in keys:
        _same(fusion._label(key, d), ref.label(key, d))


def _texts(rng: Random) -> list:
    """Label texts that match the grammar: rendered ones and unreduced, signed and padded ones."""
    out = []
    for _ in range(300):
        kind = rng.choice(("V", "A", "P", "Verma0", "v", "verma0"))
        n = f"{rng.choice(('', '-'))}{rng.choice(('0', '00', ''))}{rng.randint(0, 60)}"
        if rng.random() < 0.7:
            n += f"/{rng.choice(('', '0'))}{rng.randint(1, 24)}"
        second = f"{rng.choice(('', '-'))}{rng.randint(0, 30)}"
        if rng.random() < 0.6:
            second += f"/{rng.randint(1, 12)}"
        out.append(f"{rng.choice(('', 'Pi', 'pI '))}{kind}( {n} ;{second})")
    return out


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the error is the outcome
        return None, (type(exc), str(exc))


def test_parse_label_reads_ints_as_the_former_did():
    rng = Random(93)
    texts = _texts(rng) + [lb.render_label(x) for x in _labels()]
    errors = 0
    for text in texts:
        (x, error), (r, want) = _outcome(lb.parse_label, text), _outcome(ref.parse_label, text)
        assert error == want, text
        if error is None:
            _same(x, r)
        errors += error is not None
    assert 0 < errors < len(texts) / 2
    big, even = "9" * lb.MAX_DIGITS, "9" * (lb.MAX_DIGITS - 1) + "8"
    for text in (f"A({big}/{even};-{big})", f"V(-{big}/7;{big}/{even})", f"P(0/{big};0)", f"PiVerma0({even}/6;{big}/3)"):
        _same(lb.parse_label(text), ref.parse_label(text))


def test_label_functions_match_the_fraction_forms():
    for x in _labels():
        r = ref.like(x)
        _same(lb.strip_parity(x), ref.strip_parity(r))
        assert lb.delta(x) == ref.delta(r) and type(lb.delta(x)) is Fraction
        assert lb.ehat(x) == F(ref._second(r)) and type(lb.ehat(x)) is Fraction
        want = ref.contragredient(r)
        if want is not None:
            _same(lb.contragredient(x), want)
        factors = ref.k_decompose(r)
        got = lb.k_decompose(x)
        assert len(got) == len(factors)
        for y, mult in got.items():
            assert factors[ref.like(y)] == mult
            _same(y, ref.like(y))
        for ell in range(-3, 4):
            want = ref.spectral_flow(r, ell)
            if want is not None:
                _same(lb.spectral_flow(x, ell), want)
        if type(x) is lb.AtypicalA:
            _same(lb.projective_cover(x), ref.ProjectiveP(r.n, r.ell, r.parity_flip))


@pytest.mark.parametrize("m", range(-4, 5))
def test_generator_powers_match_the_fraction_form(m):
    for ext in _grid_extensions():
        _same(ext.generator_of(m), ref.generator_of(ext.a, ext.b, m))


def test_views_are_fractions_of_the_stored_ints():
    for x in _labels():
        assert type(x.n) is Fraction and (x.n.numerator, x.n.denominator) == (x._np, x._nq)
        if type(x) is lb.TypicalV:
            assert type(x.ehat) is Fraction and (x.ehat.numerator, x.ehat.denominator) == (x._ep, x._eq)
        else:
            assert type(x.ell) is int and (x._ep, x._eq) == (x.ell, 1)
    for n in GRID_NS:
        built = fusion._label((lb.TypicalV, 3 * n.numerator, 5), 6 * n.denominator)
        assert type(built.n) is Fraction and built.n == n / 2 and built.ehat == F(5, 6 * n.denominator)


def test_distinct_grid_labels_of_one_kind_hash_apart():
    # CPython hashes the int -1 as -2, so ell = -1 and ell = -2 hash alike;
    # the rest hash apart
    for kind in KINDS:
        grid = {x for x in _grid_labels() if type(x) is kind and (x._ep, x._eq) != (-1, 1)}
        assert len(grid) > 1 and len({hash(x) for x in grid}) == len(grid), kind


def test_hash_of_a_multiple_of_the_modulus_denominator():
    # Fraction hashes p/q with q a multiple of the hash modulus as infinity; a
    # label at such a denominator hashes its ints, however it was built
    q = sys.hash_info.modulus * 3
    for p in (1, -1, 2, -7):
        built = [
            lb.AtypicalA(F(p, q), 0),
            lb._new(lb.AtypicalA, 3 * p, 3 * q, 0, 1),
            lb.parse_label(f"A({p}/{q};0)"),
            lb.parse_label(f"A({2 * p}/{2 * q};0)"),
        ]
        for x in built:
            assert x == built[0] and hash(x) == hash((p, q, 0, 1, False)), x
        built = [lb.TypicalV(F(1, 3), F(p, q), True), lb._new(lb.TypicalV, 1, 3, p, q, True), lb.parse_label(f"PiV(1/3;{p}/{q})")]
        for x in built:
            assert x == built[0] and hash(x) == hash((1, 3, p, q, True)), x
