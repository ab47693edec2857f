"""Fusion products of simple and projective labels, with Grothendieck checks.

The two factors are first ordered by kind (A, then P, then V); then three
rules give every product:

1. An atypical simple translates.  A(c;l) times V(n;e) is
   V(c + n - eps(l); e + l), and times A or P at (n;l') it is the same kind
   at (c + n - eps2(l, l'); l + l').
2. A projective spreads.  P(m;l) times V or P is the 1-2-1 spread of
   A(m;l) times that factor: the result at n - 1, twice at n, and at n + 1.
3. Two typicals V(n;e), V(n';e') give V(n + n' +- 1/2; e + e') when e + e'
   is not an integer, and P(n + n' + eps(l); l) when it is the integer l.

The rules run on int keys at an even scale d, the lcm of 2 and the
denominators of the inputs: A(n;l) and P(n;l) are (kind, n d, l), and
V(n;e) is (TypicalV, n d, e d), read off the ints a label stores.  Then
eps(l) d is the numerator of eps(l), which is 0 or +-1/2, times d/2, and so
is eps2 d: every coordinate of a product is again an int at scale d, and a
label is built from ints, with no Fraction, only for a product that is
returned.

Reducible Verma labels are rejected because their products are not part of
the classification this package implements.  Outputs are always formal sums,
even when a single label, so results compose uniformly.
"""

from __future__ import annotations

from math import lcm

from .errors import NotDeterminedError
from .labels import (
    AtypicalA,
    FormalSum,
    ModuleLabel,
    ProjectiveP,
    TypicalV,
    VermaV0,
    _new,
    _sign,
    _twice_epsilon2,
    strip_parity,
)

_RULE_ORDER = {AtypicalA: 0, ProjectiveP: 1, TypicalV: 2}


def _checked(a: ModuleLabel, b: ModuleLabel) -> None:
    """Raise what fusing a and b raises; no strip is needed, as ``_key`` ignores parity."""
    if isinstance(a, VermaV0) or isinstance(b, VermaV0):
        raise NotDeterminedError("fusion against a reducible Verma label is not determined")
    if type(a) not in _RULE_ORDER or type(b) not in _RULE_ORDER:
        raise TypeError(f"cannot fuse {strip_parity(a)!r} and {strip_parity(b)!r}")


def _scale(a: ModuleLabel, b: ModuleLabel) -> int:
    """The even scale d of a pair: the lcm of 2 and the denominators (ehat's is 1 but for V)."""
    return lcm(2, a._nq, b._nq, a._eq, b._eq)


def _key(x: ModuleLabel, d: int) -> tuple:
    n = x._np * (d // x._nq)
    if type(x) is TypicalV:
        return TypicalV, n, x._ep * (d // x._eq)
    return type(x), n, x._ep  # ell


def _spread(key: tuple, d: int) -> dict:
    """Rule 2's 1-2-1 spread of a key: n - 1, twice n, and n + 1."""
    kind, n, second = key
    return {(kind, n - d, second): 1, key: 2, (kind, n + d, second): 1}


def _rules(x: tuple, y: tuple, d: int) -> dict:
    """Rules 1-3 on two keys at the even scale d, as {key: multiplicity}."""
    if _RULE_ORDER[x[0]] > _RULE_ORDER[y[0]]:
        x, y = y, x
    kind, n, ell = x
    other, n2, second = y
    half = d // 2
    if kind is TypicalV:  # rule 3; ell and second are e d and e' d here
        e = ell + second
        if e % d:
            return {(TypicalV, n + n2 + half, e): 1, (TypicalV, n + n2 - half, e): 1}
        ell = e // d
        return {(ProjectiveP, n + n2 + _sign(ell) * half, ell): 1}
    # rule 1: against a typical y, n d falls by eps(ell) d and e d moves by
    # ell d; against an A or P, n d falls by eps2(ell, ell') d and ell' moves
    # by ell.  t is the int sign term, 2 eps or 2 eps2, so t half is that fall
    t = _sign(ell) if other is TypicalV else _twice_epsilon2(ell, second)
    out = (other, n + n2 - t * half, second + ell * (d if other is TypicalV else 1))
    return {out: 1} if kind is AtypicalA else _spread(out, d)  # rule 1 or 2


def _label(key: tuple, d: int) -> ModuleLabel:
    """The label of a key at scale d, built from its ints."""
    kind, n, second = key
    return _new(kind, n, d, second, d if kind is TypicalV else 1)


def fuse(a: ModuleLabel, b: ModuleLabel) -> FormalSum:
    """Fusion product of two labels as a formal sum of labels.

    Parity flips on the inputs are ignored; parity is not propagated through
    fusion.  Raises :class:`NotDeterminedError` on reducible Verma inputs.
    """
    _checked(a, b)
    d = _scale(a, b)
    out = _rules(_key(a, d), _key(b, d), d)
    return FormalSum._trusted({_label(key, d): m for key, m in out.items()})


def fuse_formal(a: FormalSum, b: FormalSum) -> FormalSum:
    """Bilinear extension of :func:`fuse` to formal sums."""
    out: dict[ModuleLabel, int] = {}
    for la, ma in a.items():
        for lb, mb in b.items():
            for label, m in fuse(la, lb).items():
                out[label] = out.get(label, 0) + ma * mb * m
    return FormalSum._trusted(out)


def _factors(keys: dict, d: int) -> dict:
    """Composition factors of a sum of keys: P(n;l) is A(n;l) twice and A(n +- 1;l) once."""
    out: dict = {}
    for (kind, n, second), m in keys.items():
        if kind is ProjectiveP:
            kind, parts = AtypicalA, ((n - d, m), (n, 2 * m), (n + d, m))
        else:
            parts = ((n, m),)
        for n, w in parts:
            out[kind, n, second] = out.get((kind, n, second), 0) + w
    return out


def k_ring_check(a: ModuleLabel, b: ModuleLabel) -> bool:
    """Does fusion commute with passing to composition factors?

    Compares the factors of the fusion product against the factor-wise
    fusion of the composition factors of the inputs, both as sums of keys
    of simple labels.  Raises as :func:`fuse` does.
    """
    _checked(a, b)
    d = _scale(a, b)
    x, y = _key(a, d), _key(b, d)
    rhs: dict = {}
    for fx, mx in _factors({x: 1}, d).items():
        for fy, my in _factors({y: 1}, d).items():
            for key, m in _rules(fx, fy, d).items():
                rhs[key] = rhs.get(key, 0) + mx * my * m
    return _factors(_rules(x, y, d), d) == _factors(rhs, d)
