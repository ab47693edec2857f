"""Sparse three-variable series with exact rational exponents.

A ``JacobiSeries`` stores integer coefficients indexed by exponent triples
(q, z, y), truncated in the q-direction: terms are retained only while
``q_exp - min q_exp <= q_cutoff``.  A cutoff of ``None`` marks a series that
is exact (typically a finite sum), which behaves as an infinite window.

Addition and multiplication re-truncate so that every retained coefficient
is fully determined by the retained coefficients of the operands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Optional

_Key = tuple  # (q_exp, z_exp, y_exp), all Fraction


def _q3(k) -> tuple[Fraction, Fraction, Fraction]:
    a, b, c = k
    return (Fraction(a), Fraction(b), Fraction(c))


def _min_or_none(terms) -> Optional[Fraction]:
    return min((k[0] for k in terms), default=None)


class JacobiSeries:
    """Truncated series in q, z, y with integer coefficients."""

    __slots__ = ("terms", "q_cutoff")

    def __init__(self, terms: Mapping[_Key, int] | None = None, q_cutoff: Fraction | None = None):
        cutoff = None if q_cutoff is None else Fraction(q_cutoff)
        if cutoff is not None and cutoff < 0:
            raise ValueError("q_cutoff must be nonnegative")
        clean: dict = {}
        if terms:
            for k, v in terms.items():
                v = int(v)
                if v:
                    clean[_q3(k)] = v
        if cutoff is not None and clean:
            base = _min_or_none(clean)
            clean = {k: v for k, v in clean.items() if k[0] - base <= cutoff}
        self.terms = clean
        self.q_cutoff = cutoff

    @classmethod
    def _trusted(cls, terms: dict, q_cutoff: Fraction | None) -> "JacobiSeries":
        """Wrap terms that are already clean, without copying or checking.

        The caller guarantees: keys are (q, z, y) Fraction triples, values are
        nonzero ints, ``q_cutoff`` is None or a nonnegative Fraction, and no
        term lies more than ``q_cutoff`` above the lowest q exponent.
        """
        series = cls.__new__(cls)
        series.terms = terms
        series.q_cutoff = q_cutoff
        return series

    # -- constructors

    @classmethod
    def zero(cls, q_cutoff: Fraction | None = None) -> "JacobiSeries":
        return cls({}, q_cutoff)

    @classmethod
    def monomial(cls, coeff: int, q, z, y, q_cutoff: Fraction | None = None) -> "JacobiSeries":
        return cls({(Fraction(q), Fraction(z), Fraction(y)): coeff}, q_cutoff)

    # -- structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_q(self) -> Optional[Fraction]:
        return _min_or_none(self.terms)

    def coefficient(self, q, z, y) -> int:
        return self.terms.get((Fraction(q), Fraction(z), Fraction(y)), 0)

    def q_slice(self, q) -> dict:
        """Map (z_exp, y_exp) -> coefficient at the given q exponent."""
        q = Fraction(q)
        return {(k[1], k[2]): v for k, v in self.terms.items() if k[0] == q}

    def sorted_terms(self) -> Iterator[tuple[_Key, int]]:
        return iter(sorted(self.terms.items()))

    def _known_bound(self) -> Optional[Fraction]:
        """Largest q exponent up to which this series is fully determined."""
        if self.q_cutoff is None:
            return None  # exact: determined everywhere
        base = self.min_q()
        if base is None:
            return None  # zero series has no truncation anchor; treat as exact
        return base + self.q_cutoff

    # -- arithmetic

    def __add__(self, other: "JacobiSeries") -> "JacobiSeries":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            s = terms.get(k, 0) + v
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        bound = _combine_bounds(self._known_bound(), other._known_bound())
        if bound is None:
            return JacobiSeries(terms, None)
        terms = {k: v for k, v in terms.items() if k[0] <= bound}
        base = _min_or_none(terms)
        cutoff = None if base is None else bound - base
        return JacobiSeries(terms, cutoff)

    def __neg__(self) -> "JacobiSeries":
        return JacobiSeries({k: -v for k, v in self.terms.items()}, self.q_cutoff)

    def __sub__(self, other: "JacobiSeries") -> "JacobiSeries":
        return self + (-other)

    def scale(self, s: int) -> "JacobiSeries":
        return JacobiSeries({k: v * s for k, v in self.terms.items()}, self.q_cutoff)

    def __mul__(self, other: "JacobiSeries") -> "JacobiSeries":
        return jacobi_mul(self, other)

    def shifted(self, dq, dz, dy) -> "JacobiSeries":
        """Multiply by the monomial q^dq z^dz y^dy."""
        dq, dz, dy = Fraction(dq), Fraction(dz), Fraction(dy)
        return JacobiSeries(
            {(k[0] + dq, k[1] + dz, k[2] + dy): v for k, v in self.terms.items()},
            self.q_cutoff,
        )

    def restrict_z(self, z_lo, z_hi) -> "JacobiSeries":
        """Drop terms whose z exponent falls outside [z_lo, z_hi]."""
        z_lo, z_hi = Fraction(z_lo), Fraction(z_hi)
        if z_lo > z_hi:
            raise ValueError("empty z window")
        return JacobiSeries(
            {k: v for k, v in self.terms.items() if z_lo <= k[1] <= z_hi}, self.q_cutoff
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JacobiSeries)
            and self.terms == other.terms
            and self.q_cutoff == other.q_cutoff
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.q_cutoff))

    def __repr__(self):
        n = len(self.terms)
        return f"JacobiSeries({n} terms, min_q={self.min_q()}, q_cutoff={self.q_cutoff})"


def _combine_bounds(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def jacobi_mul(a: JacobiSeries, b: JacobiSeries) -> JacobiSeries:
    """Coefficientwise convolution, truncated to the common reliable window.

    The result window is the minimum of the two operand windows, measured
    from the product's minimal q exponent (the sum of the operand minima).
    """
    cutoff = _combine_bounds(a.q_cutoff, b.q_cutoff)
    if a.is_zero or b.is_zero:
        return JacobiSeries.zero(cutoff)
    base = a.min_q() + b.min_q()
    bound = None if cutoff is None else base + cutoff
    terms: dict = {}
    for (qa, za, ya), va in a.terms.items():
        for (qb, zb, yb), vb in b.terms.items():
            q = qa + qb
            if bound is not None and q > bound:
                continue
            k = (q, za + zb, ya + yb)
            s = terms.get(k, 0) + va * vb
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
    # the lowest q-slices of a and b are nonzero Laurent polynomials in z, y,
    # so their product is too: the product's lowest q is base, and every
    # term kept lies within cutoff of it
    return JacobiSeries._trusted(terms, cutoff)


def jacobi_equal_to_cutoff(a: JacobiSeries, b: JacobiSeries, window) -> bool:
    """True iff all coefficients agree within ``window`` of the common minimum.

    The common minimum is the smaller of the two minimal q exponents.  Raises
    if the requested window exceeds either series' cutoff.
    """
    window = Fraction(window)
    for s in (a, b):
        if s.q_cutoff is not None and window > s.q_cutoff:
            raise ValueError("comparison window exceeds a series cutoff")
    mins = [m for m in (a.min_q(), b.min_q()) if m is not None]
    if not mins:
        return True
    limit = min(mins) + window
    # stored coefficients are nonzero, so once every term of a inside the
    # window is matched in b, equal counts leave b no extra term there
    inside = 0
    for k, v in a.terms.items():
        if k[0] <= limit:
            if b.terms.get(k) != v:
                return False
            inside += 1
    return inside == sum(1 for k in b.terms if k[0] <= limit)
