"""Jacobi-variable characters from the triple-product expansion.

The Verma character is q^Delta y^ehat z^n times a universal product that
does not depend on the label.  By the Jacobi triple product that product is
(sum_m z^m q^{m(m+1)/2}) / prod_{j>=1} (1-q^j)^3, so the coefficient of
q^N z^m is p3(N - m(m+1)/2), where p3 counts 3-coloured partitions; the
integer offsets (N, m, p3) are computed once per truncation depth and
cached.  A character is these offsets moved by the label's exponents: the
exponents are split once into a fractional base and an integer part, and
the offsets are shifted by that integer part, so no term carries a Fraction
of its own (see ``series``).  Atypical ell = 0 characters
are alternating telescoping sums of Verma characters, summed on the integer
offsets before any exponent is formed; the induced-module character
identity is verified by expanding both of its sides over a window on which
both are complete.

The z-normalization follows the product formula as printed: the q^0 slice of
a Verma character is z^n (1 + 1/z).  The internal matrix conventions place
the two top N-eigenvalues at n +- 1/2; the two normalizations differ by a
global factor z^(1/2) and are never mixed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import NotDeterminedError
from .labels import AtypicalA, ModuleLabel, TypicalV, VermaV0, _f, _int, ehat
from .series import JacobiSeries, _split, jacobi_equal_to_cutoff


def conformal_weight(n, ehat) -> Fraction:
    """Delta = ehat * (n + ehat/2)."""
    n, ehat = _f(n), _f(ehat)
    return ehat * (n + ehat / 2)


def characters(label: ModuleLabel, q_cutoff, z_window: tuple | None = None) -> JacobiSeries:
    """The character of one label, for Verma labels and atypicals at ell = 0.

    A z window keeps the terms with lo <= z <= hi, whatever the label.  The
    cutoff and the window are checked before the label's kind, so a bad
    argument is a ValueError even where no character is available.
    """
    q_cutoff = _f(q_cutoff)
    if q_cutoff < 0:
        raise ValueError("q_cutoff must be nonnegative")
    if z_window is not None:
        lo, hi = z_window
        z_window = (_f(lo), _f(hi))
        if z_window[0] > z_window[1]:
            raise ValueError("empty z window")
    if isinstance(label, (TypicalV, VermaV0)):
        series = char_verma(label.n, ehat(label), q_cutoff)
        if z_window is None:
            return series
        lo, hi = z_window
        kept = {}
        for key, offsets in series._classes.items():
            m_lo, m_hi = math.ceil(lo - key[1]), math.floor(hi - key[1])  # lo <= z0 + M <= hi
            inside = {k: c for k, c in offsets.items() if m_lo <= k[1] <= m_hi}
            if inside:
                kept[key] = inside
        return JacobiSeries._trusted(kept, q_cutoff)
    if isinstance(label, AtypicalA) and label.ell == 0:
        if z_window is None:
            raise ValueError("atypical characters need a z window")
        return char_atypical0(label.n, q_cutoff, z_window)
    raise NotDeterminedError("characters are available for Verma labels and atypicals at ell = 0")


@lru_cache(maxsize=None)
def _universal_product(depth: int) -> tuple:
    """Offsets (N, m, c) of prod_{i>=0} (1+z q^{i+1})(1+q^i/z) / (1-q^{i+1})^2.

    c is the coefficient of q^N z^m, for every N <= depth.  By the Jacobi
    triple product the product equals sum_m z^m q^{m(m+1)/2} over
    prod_{j>=1} (1-q^j)^3, so c = p3(N - m(m+1)/2), where p3 counts
    3-coloured partitions; m and -m-1 share the value.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    # three passes of 1/prod(1-q^j) turn [1, 0, 0, ...] into p3
    p3 = [1] + [0] * depth
    for _ in range(3):
        for part in range(1, depth + 1):
            for k in range(part, depth + 1):
                p3[k] += p3[k - part]
    out = []
    for big_n in range(depth + 1):
        m = 0
        while m * (m + 1) // 2 <= big_n:
            c = p3[big_n - m * (m + 1) // 2]
            out.append((big_n, m, c))
            out.append((big_n, -m - 1, c))
            m += 1
    return tuple(out)


def _class(offsets, q: Fraction, z: Fraction, y: Fraction, top: int) -> dict:
    """The offsets (N, m, c) with N <= top as the terms c q^(q+N) z^(z+m) y^y.

    Returns the one class {(q0, z0, y): {(N + dq, m + dz): c}} of the
    canonical form, with q = q0 + dq and z = z0 + dz split by floor, or {}
    if no offset is kept.
    """
    (q0, dq), (z0, dz) = _split(q), _split(z)
    shifted = {(big_n + dq, m + dz): c for big_n, m, c in offsets if big_n <= top}
    return {(q0, z0, y): shifted} if shifted else {}


def char_verma(n, ehat, q_cutoff) -> JacobiSeries:
    """Character of the Verma at (n, ehat), truncated q_cutoff above Delta.

    Valid for every ehat: this is the Verma character whether or not the
    module is irreducible.
    """
    n, ehat, q_cutoff = _f(n), _f(ehat), _f(q_cutoff)
    if q_cutoff < 0:
        raise ValueError("q_cutoff must be nonnegative")
    depth = int(q_cutoff)
    return JacobiSeries._trusted(
        _class(_universal_product(depth), conformal_weight(n, ehat), n, ehat, depth), q_cutoff
    )


def char_atypical0(n, q_cutoff, z_window) -> JacobiSeries:
    """Character of the atypical simple at (n, 0) on a finite z-window.

    The alternating sum over m >= 0 of the Verma characters at
    (n - 1/2 - m, 0).  With c(N, j) the universal coefficient, the
    coefficient of q^N z^(n - 1/2 + k) is S(N, k) = sum_{j >= k} (-1)^(j-k)
    c(N, j), summed from the top by S(N, k) = c(N, k) - S(N, k + 1).  As
    c(N, j) = c(N, -j-1) and the two carry opposite signs, S vanishes below
    the lowest j of the q^N slice, so every slice is finite in z.  Terms
    are restricted to z_window, so the window must cover every exponent the
    caller needs.
    """
    n, q_cutoff = _f(n), _f(q_cutoff)
    z_lo, z_hi = (_f(z_window[0]), _f(z_window[1]))
    if z_lo > z_hi:
        raise ValueError("empty z window")
    if q_cutoff < 0:
        raise ValueError("q_cutoff must be nonnegative")
    depth = int(q_cutoff)
    centre = n - Fraction(1, 2)
    k_lo, k_hi = math.ceil(z_lo - centre), math.floor(z_hi - centre)
    rows: dict = {}  # N -> {j: c(N, j)}
    for big_n, j, c in _universal_product(depth):
        rows.setdefault(big_n, {})[j] = c
    sums = []
    for big_n, row in rows.items():
        total = 0
        for k in range(max(row), min(row) - 1, -1):
            total = row[k] - total
            if total and k_lo <= k <= k_hi:
                sums.append((big_n, k, total))
    return JacobiSeries._trusted(_class(sums, Fraction(0), centre, Fraction(0), depth), q_cutoff)


def char_induced_typical(n, ehat, m_range: int, q_cutoff) -> tuple[JacobiSeries, JacobiSeries]:
    """Both sides of the induced-module character identity, truncated alike.

    Left side: the sum over |m| <= m_range of the Verma characters at
    (n + m, ehat - 2m), each with its own conformal weight.  Right side: the
    Verma character at (n, ehat) times the finite sum of
    q^{-m(2n+ehat)} y^{-2m} z^m, taken as one shift of that Verma's
    exponents per m.  Uses the level-1 normalization (ehat = e).  Both
    sides are complete on a window of size q_cutoff above the base weight;
    the summand offsets are absorbed by expanding
    depth = q_cutoff + m_range*|2n+ehat| deeper, and each side keeps its
    terms up to depth above its lowest weight.  The summands of either side
    carry distinct y exponents, so they never share a term.
    """
    n, ehat, q_cutoff, m_range = _f(n), _f(ehat), _f(q_cutoff), _int(m_range)
    if m_range < 1:
        raise ValueError("m_range must be at least 1")
    shift = 2 * n + ehat
    depth = q_cutoff + m_range * abs(shift)
    if depth < 0:
        raise ValueError("q_cutoff must be nonnegative")
    offsets = _universal_product(int(depth))
    delta = conformal_weight(n, ehat)
    bound = delta - m_range * abs(shift) + depth
    lhs: dict = {}
    rhs: dict = {}
    for m in range(-m_range, m_range + 1):
        y = ehat - 2 * m
        # each side splits its own base, the summand's weight on the left and
        # the shifted base weight on the right, so the two stay independent
        delta_m = conformal_weight(n + m, y)
        lhs.update(_class(offsets, delta_m, n + m, y, math.floor(bound - delta_m)))
        q_m = delta - m * shift
        rhs.update(_class(offsets, q_m, n + m, y, math.floor(bound - q_m)))
    return JacobiSeries._trusted(lhs, depth), JacobiSeries._trusted(rhs, depth)


def induced_window(n, ehat, m_range: int, q_cutoff) -> Fraction:
    """Comparison window on which both sides of the identity are complete."""
    shift = 2 * _f(n) + _f(ehat)
    return _f(q_cutoff) + _int(m_range) * abs(shift)


def verify_induced_identity(n, ehat, m_range: int, q_cutoff) -> bool:
    """Exact coefficientwise equality of the two sides on the shared window."""
    lhs, rhs = char_induced_typical(n, ehat, m_range, q_cutoff)
    return jacobi_equal_to_cutoff(lhs, rhs, induced_window(n, ehat, m_range, q_cutoff))
