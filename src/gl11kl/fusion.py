"""Fusion products of simple and projective labels, with Grothendieck checks.

The binary product is defined on atypical/typical simples and projectives;
reducible Verma labels are rejected because their products are not part of
the classification this package implements.  Outputs are always formal sums,
even when a single label, so results compose uniformly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotDeterminedError
from .labels import (
    AtypicalA,
    FormalSum,
    ModuleLabel,
    ProjectiveP,
    TypicalV,
    VermaV0,
    epsilon,
    epsilon2,
    k_decompose,
    k_decompose_sum,
    strip_parity,
)

_HALF = Fraction(1, 2)


def fuse(a: ModuleLabel, b: ModuleLabel) -> FormalSum:
    """Fusion product of two labels as a formal sum of labels.

    Parity flips on the inputs are ignored; parity is not propagated through
    fusion.  Raises :class:`NotDeterminedError` on reducible Verma inputs.
    """
    a, b = strip_parity(a), strip_parity(b)
    if isinstance(a, VermaV0) or isinstance(b, VermaV0):
        raise NotDeterminedError("fusion against a reducible Verma label is not determined")
    if isinstance(a, AtypicalA) and isinstance(b, AtypicalA):
        return FormalSum(
            AtypicalA(a.n + b.n - epsilon2(a.ell, b.ell), a.ell + b.ell)
        )
    if isinstance(a, AtypicalA) and isinstance(b, TypicalV):
        return FormalSum(TypicalV(a.n + b.n - epsilon(a.ell), b.ehat + a.ell))
    if isinstance(a, TypicalV) and isinstance(b, AtypicalA):
        return fuse(b, a)
    if isinstance(a, TypicalV) and isinstance(b, TypicalV):
        e_sum = a.ehat + b.ehat
        n_sum = a.n + b.n
        if e_sum.denominator != 1:
            return FormalSum([TypicalV(n_sum + _HALF, e_sum), TypicalV(n_sum - _HALF, e_sum)])
        ell = int(e_sum)
        # the remaining branch needs one factor's ehat off the integers,
        # which holds for every well-formed typical label
        if a.ehat.denominator == 1 and b.ehat.denominator == 1:
            raise NotDeterminedError("fusion not determined for integral ehat factors")
        return FormalSum(ProjectiveP(n_sum + epsilon(ell), ell))
    if isinstance(a, AtypicalA) and isinstance(b, ProjectiveP):
        return FormalSum(
            ProjectiveP(a.n + b.n - epsilon2(a.ell, b.ell), a.ell + b.ell)
        )
    if isinstance(a, ProjectiveP) and isinstance(b, AtypicalA):
        return fuse(b, a)
    if isinstance(a, TypicalV) and isinstance(b, ProjectiveP):
        n_sum = a.n + b.n - epsilon(b.ell)
        e_new = a.ehat + b.ell
        return FormalSum(
            [
                (TypicalV(n_sum + 1, e_new), 1),
                (TypicalV(n_sum, e_new), 2),
                (TypicalV(n_sum - 1, e_new), 1),
            ]
        )
    if isinstance(a, ProjectiveP) and isinstance(b, TypicalV):
        return fuse(b, a)
    if isinstance(a, ProjectiveP) and isinstance(b, ProjectiveP):
        n_sum = a.n + b.n - epsilon2(a.ell, b.ell)
        ell = a.ell + b.ell
        return FormalSum(
            [
                (ProjectiveP(n_sum + 1, ell), 1),
                (ProjectiveP(n_sum, ell), 2),
                (ProjectiveP(n_sum - 1, ell), 1),
            ]
        )
    raise TypeError(f"cannot fuse {a!r} and {b!r}")


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
