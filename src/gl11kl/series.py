"""The result type of the character layer and its windowed equality.

A ``JacobiSeries`` stores integer coefficients indexed by exponent triples
(q, z, y), truncated in the q-direction: terms are retained only while
``q_exp - min q_exp <= q_cutoff``.  A cutoff of ``None`` marks a series that
is exact (typically a finite sum), which behaves as an infinite window.
Two truncated series are compared with ``jacobi_equal_to_cutoff`` on a
window that neither cutoff undercuts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .labels import _int

_Key = tuple  # (q_exp, z_exp, y_exp), all Fraction


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
                v = _int(v)
                if v:
                    q, z, y = k
                    clean[(Fraction(q), Fraction(z), Fraction(y))] = v
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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_q(self) -> Optional[Fraction]:
        return _min_or_none(self.terms)

    def sorted_terms(self) -> Iterator[tuple[_Key, int]]:
        return iter(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JacobiSeries)
            and self.terms == other.terms
            and self.q_cutoff == other.q_cutoff
        )

    def __repr__(self):
        n = len(self.terms)
        return f"JacobiSeries({n} terms, min_q={self.min_q()}, q_cutoff={self.q_cutoff})"


def jacobi_equal_to_cutoff(a: JacobiSeries, b: JacobiSeries, window) -> bool:
    """True iff all coefficients agree within ``window`` of the common minimum.

    The common minimum is the smaller of the two minimal q exponents.  Raises
    if the window is negative or exceeds either series' cutoff.
    """
    window = Fraction(window)
    if window < 0:
        raise ValueError("comparison window must be nonnegative")
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
