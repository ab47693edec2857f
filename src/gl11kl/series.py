"""The result type of the character layer and its windowed equality.

A ``JacobiSeries`` stores integer coefficients indexed by exponent triples
(q, z, y), truncated in the q-direction: terms are retained only while
``q_exp - min q_exp <= q_cutoff``.  A cutoff of ``None`` marks a series that
is exact (typically a finite sum), which behaves as an infinite window.
Two truncated series are compared with ``jacobi_equal_to_cutoff`` on a
window that neither cutoff undercuts.

Every character lies on an integer grid over a few base monomials, so the
terms are stored by fractional class: the int key (q0, z0, y, den), for
q0/den, z0/den, y/den with 0 <= q0, z0 < den and gcd(q0, z0, y, den) = 1,
maps to (dq, dz, n_top, block), the terms c q^(q0/den+dq+N)
z^(z0/den+dz+M) y^(y/den) of a read-only block {(N, M): c} whose least N
and M are 0 and largest N n_top.  So the terms fix the tuple: the form is
canonical and equality structural.  Characters share one block per depth
(``characters._universal_product``), hence read-only blocks; classes over
one shared block compare by shifts alone.  Cuts and comparisons run on
ints; ``terms``, ``min_q`` and the rest build Fractions when read.
``terms`` is built on its first read and kept, as a read-only mapping, so
it cannot drift from the classes that equality reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .labels import _f, _int

_Key = tuple  # (q_exp, z_exp, y_exp), all Fraction


def _ratio(v) -> tuple:
    """v as (numerator, denominator), building no Fraction for an int or a Fraction."""
    v = v if isinstance(v, (int, Fraction)) else Fraction(v)
    return v.numerator, v.denominator


def _cutoff(q) -> Fraction:
    """q as a Fraction, which must be nonnegative: the check of every character's q_cutoff."""
    q = _f(q)
    if q.numerator < 0:
        raise ValueError("q_cutoff must be nonnegative")
    return q


def _key(q0: int, z0: int, y: int, den: int) -> tuple:
    """The class key of q0/den, z0/den and y/den, 0 <= q0, z0 < den, over their least denominator."""
    g = math.gcd(q0, z0, y, den)
    return q0 // g, z0 // g, y // g, den // g


def _canon(offsets: dict, dq: int = 0, dz: int = 0) -> tuple:
    """The nonempty offsets {(N, M): c}, moved by (dq, dz), as a canonical class."""
    n_lo, m_lo = min(n for n, _ in offsets), min(m for _, m in offsets)
    block = {(n - n_lo, m - m_lo): c for (n, m), c in offsets.items()}
    return dq + n_lo, dz + m_lo, max(n for n, _ in block), MappingProxyType(block)


def _low(*parts: dict):
    """The least q exponent of the classes as (numerator, denominator), None if there are none."""
    low = None
    for classes in parts:
        for (q0, _, _, den), value in classes.items():
            num = value[0] * den + q0  # (dq, q0) as q0/den + dq
            if low is None or num * low[1] < low[0] * den:
                low = num, den
    return low


def _below(classes: dict, low: tuple, w: int, h: int) -> dict:
    """The classes cut to q <= low + w/h, low as (numerator, denominator), uncut ones as they are."""
    num, den = low[0] * h + w * low[1], low[1] * h  # the limit
    out = classes.copy()  # keeps each key's hash
    for key, (dq, dz, n_top, block) in classes.items():
        top = (num * key[3] - key[0] * den) // (den * key[3]) - dq  # floor(limit - q0) - dq
        if top < 0:
            del out[key]
        elif top < n_top:  # the block holds N = 0, so the cut is not empty
            out[key] = _canon({k: c for k, c in block.items() if k[0] <= top}, dq, dz)
    return out


class JacobiSeries:
    """Truncated series in q, z, y with integer coefficients.

    The general constructor is public API: it builds any series from its
    terms {(q, z, y): c}, cut ``q_cutoff`` above the least q exponent, and
    ``q_cutoff=None`` marks an exact series.  The package itself builds
    characters through ``_trusted``; the constructor's callers are the
    tests' expected series and the perturbed series of ``bench/selftest.py``.
    """

    __slots__ = ("_classes", "q_cutoff", "_terms")

    def __init__(self, terms: Mapping[_Key, int] | None = None, q_cutoff: Fraction | None = None):
        cutoff = None if q_cutoff is None else _cutoff(q_cutoff)
        classes: dict = {}
        if terms:
            for (q, z, y), v in terms.items():
                v = _int(v)
                if v:
                    q, z, y = _f(q), _f(z), _f(y)
                    den = q.denominator * z.denominator * y.denominator
                    (n, q0), (m, z0) = (divmod(x.numerator * den // x.denominator, den) for x in (q, z))
                    classes.setdefault(_key(q0, z0, y.numerator * den // y.denominator, den), {})[n, m] = v
        self._classes = classes = {key: _canon(offsets) for key, offsets in classes.items()}
        if cutoff is not None and classes:
            self._classes = _below(classes, _low(classes), cutoff.numerator, cutoff.denominator)
        self.q_cutoff = cutoff
        self._terms = None

    @classmethod
    def _trusted(cls, classes: dict, q_cutoff: Fraction | None) -> "JacobiSeries":
        """Wrap classes that are already canonical, without copying or checking.

        The caller guarantees: keys are (q0, z0, y, den) int tuples with
        0 <= q0, z0 < den and gcd(q0, z0, y, den) == 1, as ``_key`` builds
        them; each maps to a canonical class (dq, dz, n_top, block) as
        ``_canon`` builds it, with nonzero int coefficients,
        ``q_cutoff`` is None or a nonnegative Fraction, and no term lies more
        than ``q_cutoff`` above the lowest q exponent.
        """
        series = cls.__new__(cls)
        series._classes = classes
        series.q_cutoff = q_cutoff
        series._terms = None
        return series

    def _rows(self) -> list:
        """(N, q0, M, z0, y, q, z, c) per term, one Fraction per distinct q and z of a class."""
        rows = []
        for (q0, z0, y, den), (dq, dz, _, block) in self._classes.items():
            q0, z0, y = Fraction(q0, den), Fraction(z0, den), Fraction(y, den)
            qs = {n: q0 + dq + n for n in {n for n, _ in block}}
            zs = {m: z0 + dz + m for m in {m for _, m in block}}
            rows += [(dq + n, q0, dz + m, z0, y, qs[n], zs[m], c) for (n, m), c in block.items()]
        return rows

    @property
    def terms(self) -> Mapping[_Key, int]:
        """The coefficients keyed by (q, z, y) Fraction triples, read-only: built on first read and kept."""
        if self._terms is None:
            self._terms = MappingProxyType({(q, z, y): c for _, _, _, _, y, q, z, c in self._rows()})
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._classes

    def min_q(self) -> Optional[Fraction]:
        low = _low(self._classes)
        return None if low is None else Fraction(*low)

    def sorted_terms(self) -> Iterator[tuple[_Key, int]]:
        # (N, q0, M, z0, y) orders as (q, z, y), and no two terms share it
        rows = self._rows()
        rows.sort()
        return (((q, z, y), c) for _, _, _, _, y, q, z, c in rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JacobiSeries)
            and self._classes == other._classes
            and self.q_cutoff == other.q_cutoff
        )

    def __reduce__(self):
        """Copy and pickle through the public constructor: the read-only blocks and terms do neither."""
        return JacobiSeries, (dict(self.terms), self.q_cutoff)

    def __repr__(self):
        n = sum(len(value[3]) for value in self._classes.values())
        return f"JacobiSeries({n} terms, min_q={self.min_q()}, q_cutoff={self.q_cutoff})"


def jacobi_equal_to_cutoff(a: JacobiSeries, b: JacobiSeries, window) -> bool:
    """True iff all coefficients agree within ``window`` of the common minimum.

    The common minimum is the smaller of the two minimal q exponents.  Raises
    if the window is negative or exceeds either series' cutoff.
    """
    w, h = _ratio(window)
    if w < 0:
        raise ValueError("comparison window must be nonnegative")
    for c in (a.q_cutoff, b.q_cutoff):
        if c is not None and w * c.denominator > c.numerator * h:
            raise ValueError("comparison window exceeds a series cutoff")
    low = _low(a._classes, b._classes)
    if low is None:
        return True
    return _below(a._classes, low, w, h) == _below(b._classes, low, w, h)
