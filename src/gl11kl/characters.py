"""Jacobi-variable characters from the triple-product expansion.

The Verma character is q^Delta y^ehat z^n times a universal product that
does not depend on the label.  By the Jacobi triple product that product is
(sum_m z^m q^{m(m+1)/2}) / prod_{j>=1} (1-q^j)^3, so the coefficient of
q^N z^m is p3(N - m(m+1)/2), where p3 counts 3-coloured partitions; these
coefficients are cached once per truncation depth as one read-only block
(see ``series``).  A Verma character is that block moved by the label's
exponents, split once into a fractional base and an integer shift: every
Verma at one depth holds the same block, and no term carries a Fraction of
its own.  With n = a/d and ehat = b/g the exponents are integers over one
common denominator, reduced by one gcd to the int class key.  Atypical ell = 0
characters are alternating telescoping sums of Verma characters, summed
once per depth on the block before any exponent is formed; the induced
identity is verified by expanding both of its sides, each summand the block
to its own depth, over a window on which both are complete.

The z-normalization follows the product formula as printed: the q^0 slice of
a Verma character is z^n (1 + 1/z).  The internal matrix conventions place
the two top N-eigenvalues at n +- 1/2; the two normalizations differ by a
global factor z^(1/2) and are never mixed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import NotDeterminedError
from .labels import AtypicalA, ModuleLabel, TypicalV, VermaV0, _int
from .series import JacobiSeries, _canon, _cutoff, _key, _ratio, jacobi_equal_to_cutoff


def characters(label: ModuleLabel, q_cutoff, z_window: tuple | None = None) -> JacobiSeries:
    """The character of one label, for Verma labels and atypicals at ell = 0.

    A z window keeps the terms with lo <= z <= hi, whatever the label.  The
    cutoff and the window are checked before the label's kind, so a bad
    argument is a ValueError even where no character is available.
    """
    q_cutoff = _cutoff(q_cutoff)
    window = None if z_window is None else _window(z_window)
    if isinstance(label, (TypicalV, VermaV0)):
        series = char_verma(label.n, label.ehat, q_cutoff)
        if z_window is None:
            return series
        ((key, (dq, dz, _, block)),) = series._classes.items()  # a Verma is one class
        span = _z_span(key[1] + dz * key[3], key[3], window)  # z = key[1]/key[3] + dz + M
        return _z_cut(key, dq, dz, block, span, q_cutoff)
    if isinstance(label, AtypicalA) and label.ell == 0:
        if z_window is None:
            raise ValueError("atypical characters need a z window")
        return _atypical0(label._np, label._nq, q_cutoff, window)
    raise NotDeterminedError("characters are available for Verma labels and atypicals at ell = 0")


def _window(z_window) -> tuple[int, int, int, int]:
    """(lo, r, hi, t) for a z window (lo/r, hi/t); the one check that it is not empty."""
    lo, hi = z_window
    (lo, r), (hi, t) = _ratio(lo), _ratio(hi)
    if lo * t > hi * r:
        raise ValueError("empty z window")
    return lo, r, hi, t


def _z_span(z0: int, den: int, window: tuple) -> tuple[int, int]:
    """The least and greatest integer M with lo/r <= z0/den + M <= hi/t, for window (lo, r, hi, t)."""
    lo, r, hi, t = window
    return -((z0 * r - lo * den) // (r * den)), (hi * den - z0 * t) // (t * den)


def _z_cut(key: tuple, dq: int, dz: int, block, span: tuple, q_cutoff: Fraction) -> JacobiSeries:
    """The series of the one class key: (dq, dz, block), cut to the block's z offsets lo <= M <= hi."""
    lo, hi = span
    inside = {k: c for k, c in block.items() if lo <= k[1] <= hi}
    return JacobiSeries._trusted({key: _canon(inside, dq, dz)} if inside else {}, q_cutoff)


def _low_m(depth: int) -> int:
    """The least z offset m to q-depth ``depth``: -w-1 for the largest w with w(w+1)/2 <= depth."""
    return -((math.isqrt(8 * depth + 1) + 1) // 2)


@lru_cache(maxsize=None)
def _universal_product(depth: int) -> MappingProxyType:
    """The read-only block of prod_{i>=0} (1+z q^{i+1})(1+q^i/z) / (1-q^{i+1})^2.

    The block maps (N, m - _low_m(depth)) to the coefficient c of q^N z^m,
    for every N <= depth, so its least keys are 0.  By the Jacobi
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
    low = _low_m(depth)
    out = {}
    for big_n in range(depth + 1):
        m = 0
        while m * (m + 1) // 2 <= big_n:
            out[(big_n, m - low)] = out[(big_n, -m - 1 - low)] = p3[big_n - m * (m + 1) // 2]
            m += 1
    return MappingProxyType(out)


def _moved(dq: int, dz: int, depth: int) -> tuple:
    """The class of the universal product to ``depth`` moved to q^(q0 + dq) z^(z0 + dz)."""
    return dq, dz + _low_m(depth), depth, _universal_product(depth)


def char_verma(n, ehat, q_cutoff) -> JacobiSeries:
    """Character of the Verma at (n, ehat), truncated q_cutoff above Delta.

    Valid for every ehat: this is the Verma character whether or not the
    module is irreducible.
    """
    (a, d), (b, g), q_cutoff = _ratio(n), _ratio(ehat), _cutoff(q_cutoff)
    scale = 2 * d * g * g  # Delta = b(2ag + bd) / 2dg^2, n = 2ag^2 / scale, ehat = 2bdg / scale
    (dq, q0), (dz, z0) = divmod(b * (2 * a * g + b * d), scale), divmod(a, d)
    key = _key(q0, 2 * z0 * g * g, 2 * b * d * g, scale)
    return JacobiSeries._trusted({key: _moved(dq, dz, int(q_cutoff))}, q_cutoff)


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
    (a, d), window = _ratio(n), _window(z_window)
    return _atypical0(a, d, _cutoff(q_cutoff), window)


def _atypical0(a: int, d: int, q_cutoff: Fraction, window: tuple) -> JacobiSeries:
    """``char_atypical0`` at n = a/d on a checked cutoff and a checked window (lo, r, hi, t)."""
    centre, den = 2 * a - d, 2 * d  # n - 1/2 = centre / den
    m_lo, m_hi = _z_span(centre, den, window)  # z = centre/den + m
    depth = int(q_cutoff)
    low = _low_m(depth)  # the block's z offset k is m - low
    dz, z0 = divmod(centre, den)
    return _z_cut(_key(0, z0, 0, den), 0, dz + low, _telescoped(depth), (m_lo - low, m_hi - low), q_cutoff)


@lru_cache(maxsize=None)
def _telescoped(depth: int) -> MappingProxyType:
    """The nonzero S(N, k) of ``char_atypical0`` by (N, k), k on the universal block's z offsets."""
    rows: dict = {}  # N -> {k: c}
    for (big_n, k), c in _universal_product(depth).items():
        rows.setdefault(big_n, {})[k] = c
    sums = {}
    for big_n, row in rows.items():
        total = 0
        for k in range(max(row), min(row) - 1, -1):
            total = row[k] - total
            if total:
                sums[(big_n, k)] = total
    return MappingProxyType(sums)


def char_induced_typical(n, ehat, m_range: int, q_cutoff) -> tuple[JacobiSeries, JacobiSeries]:
    """Both sides of the induced-module character identity, truncated alike.

    Left side: the sum over |m| <= m_range of the Verma characters at
    (n + m, ehat - 2m), each with its own conformal weight.  Right side: the
    Verma character at (n, ehat) times the finite sum of
    q^{-m(2n+ehat)} y^{-2m} z^m, taken as one shift of that Verma's
    exponents per m.  Uses the level-1 normalization (ehat = e).  Both
    sides are expanded depth = q_cutoff + m_range*|2n+ehat| deep and keep
    their terms up to q = Delta + q_cutoff, so both are complete on a window
    of size depth above the lowest weight.  The summands of either side
    carry distinct y exponents, so they never share a term.  With n = a/d,
    ehat = b/g and q_cutoff = c/h each q exponent is formed as an integer
    over Q = lcm(2dg^2, h): on the left the summand's weight
    (b - 2mg)(2g(a + md) + d(b - 2mg)) / 2dg^2, on the right
    Delta - m(2n + ehat), so the two sides stay independent.
    """
    (a, d), (b, g), (c, h), m_range = _ratio(n), _ratio(ehat), _ratio(q_cutoff), _int(m_range)
    if m_range < 1:
        raise ValueError("m_range must be at least 1")
    scale = math.lcm(2 * d * g * g, h)  # Q; every exponent below is times Q
    unit = scale // (2 * d * g * g)
    shift = 2 * g * (2 * a * g + b * d) * unit  # 2n + ehat = (2ag + bd) / dg
    depth = c * (scale // h) + m_range * abs(shift)
    if depth < 0:
        raise ValueError("q_cutoff must be nonnegative")
    delta = b * (2 * a * g + b * d) * unit
    bound = delta + depth - m_range * abs(shift)
    whole, z0 = divmod(a, d)
    lhs, rhs = {}, {}  # a Fraction is built only for the cutoff
    for m in range(-m_range, m_range + 1):
        e = b - 2 * m * g  # ehat - 2m = e / g
        y = 2 * e * d * g * unit  # over Q
        for side, q in ((lhs, e * (2 * g * (a + m * d) + d * e) * unit), (rhs, delta - m * shift)):
            top = (bound - q) // scale
            if top >= 0:  # a shorter cut is the universal product to that depth
                dq, q0 = divmod(q, scale)
                side[_key(q0, 2 * z0 * g * g * unit, y, scale)] = _moved(dq, whole + m, top)
    cutoff = Fraction(depth, scale)
    return JacobiSeries._trusted(lhs, cutoff), JacobiSeries._trusted(rhs, cutoff)


def induced_window(n, ehat, m_range: int, q_cutoff) -> Fraction:
    """The window q_cutoff + m_range |2n + ehat| on which both sides of the identity are complete."""
    (a, d), (b, g), (c, h) = _ratio(n), _ratio(ehat), _ratio(q_cutoff)  # 2n + ehat = (2ag + bd) / dg
    return Fraction(c * d * g + _int(m_range) * abs(2 * a * g + b * d) * h, h * d * g)


def verify_induced_identity(n, ehat, m_range: int, q_cutoff) -> bool:
    """Exact coefficientwise equality of the two sides on the shared window."""
    lhs, rhs = char_induced_typical(n, ehat, m_range, q_cutoff)
    return jacobi_equal_to_cutoff(lhs, rhs, lhs.q_cutoff)  # the cutoff is induced_window(...)
