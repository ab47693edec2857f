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

Reducible Verma labels are rejected because their products are not part of
the classification this package implements.  Outputs are always formal sums,
even when a single label, so results compose uniformly.
"""

from __future__ import annotations

from .errors import NotDeterminedError
from .labels import (
    AtypicalA,
    FormalSum,
    ModuleLabel,
    ProjectiveP,
    TypicalV,
    VermaV0,
    _HALF,
    _spread,
    epsilon,
    epsilon2,
    k_decompose,
    k_decompose_sum,
    strip_parity,
)

_RULE_ORDER = {AtypicalA: 0, ProjectiveP: 1, TypicalV: 2}


def fuse(a: ModuleLabel, b: ModuleLabel) -> FormalSum:
    """Fusion product of two labels as a formal sum of labels.

    Parity flips on the inputs are ignored; parity is not propagated through
    fusion.  Raises :class:`NotDeterminedError` on reducible Verma inputs.
    """
    a, b = strip_parity(a), strip_parity(b)
    if isinstance(a, VermaV0) or isinstance(b, VermaV0):
        raise NotDeterminedError("fusion against a reducible Verma label is not determined")
    try:
        swap = _RULE_ORDER[type(a)] > _RULE_ORDER[type(b)]
    except KeyError:
        raise TypeError(f"cannot fuse {a!r} and {b!r}") from None
    if swap:
        a, b = b, a
    if type(a) is AtypicalA:  # rule 1
        return FormalSum(_translate(a, b))
    if type(a) is ProjectiveP:  # rule 2
        return _spread(_translate(AtypicalA(a.n, a.ell), b))
    e_sum = a.ehat + b.ehat  # rule 3
    n_sum = a.n + b.n
    if e_sum.denominator != 1:
        return FormalSum([TypicalV(n_sum + _HALF, e_sum), TypicalV(n_sum - _HALF, e_sum)])
    ell = int(e_sum)
    return FormalSum(ProjectiveP(n_sum + epsilon(ell), ell))


def _translate(c: AtypicalA, x: ModuleLabel) -> ModuleLabel:
    """A(c;l) times a simple or projective x: one label of x's kind."""
    n, ell = c.n + x.n, c.ell
    if type(x) is TypicalV:
        if not ell:  # A(c;0) moves n alone
            return TypicalV(n, x.ehat)
        return TypicalV(n - epsilon(ell), x.ehat + ell)
    kappa = epsilon2(ell, x.ell)
    return type(x)(n - kappa if kappa else n, ell + x.ell)


def fuse_formal(a: FormalSum, b: FormalSum) -> FormalSum:
    """Bilinear extension of :func:`fuse` to formal sums."""
    out: dict[ModuleLabel, int] = {}
    for la, ma in a.items():
        for lb, mb in b.items():
            for label, m in fuse(la, lb).items():
                out[label] = out.get(label, 0) + ma * mb * m
    return FormalSum._trusted(out)


def k_ring_check(a: ModuleLabel, b: ModuleLabel) -> bool:
    """Does fusion commute with passing to composition factors?

    Compares the factors of the fusion product against the factor-wise
    fusion of the composition factors of the inputs, both as formal sums of
    simple labels.
    """
    lhs = k_decompose_sum(fuse(a, b))
    rhs = k_decompose_sum(fuse_formal(k_decompose(a), k_decompose(b)))
    return lhs == rhs
