"""Plain-dict series arithmetic, the oracle of the character tests.

A series here is a pair (terms, cutoff): terms maps (q, z, y) exponent
triples to nonzero ints, and cutoff is how far above the lowest q exponent
the terms are known, None for an exact series.  Like
``brute_product_slices``, nothing here uses the package's series type.

The character builders at the end are the former bodies of
``char_verma``, ``char_atypical0`` and ``char_induced_typical``, which keyed
every term by its Fraction exponents: the oracle of the package's
integer-offset form.  They take the conformal weight from ``weight``, the
former body of ``labels.delta``, not from the package.

The class functions after them are the former Fraction-keyed bodies of the
``JacobiSeries`` constructor, ``_below``, ``min_q`` and
``jacobi_equal_to_cutoff``, whose class keys were (q0, z0, y) Fraction
triples with 0 <= q0, z0 < 1: the oracle of the package's int class keys.
"""

import math
from fractions import Fraction

from gl11kl.characters import _universal_product
from gl11kl.labels import _f, _int
from gl11kl.series import _canon


def _known_to(series):
    """Largest q exponent up to which the series is known, None if everywhere."""
    terms, cutoff = series
    if cutoff is None or not terms:
        return None
    return min(k[0] for k in terms) + cutoff


def _cut(terms: dict, bound):
    """Nonzero terms up to q = bound, with the cutoff that bound gives them."""
    kept = {k: v for k, v in terms.items() if v and (bound is None or k[0] <= bound)}
    if bound is None or not kept:
        return kept, None
    return kept, bound - min(k[0] for k in kept)


def add(*summands):
    """The sum, kept only up to the q where every summand is still known."""
    acc: dict = {}
    for terms, _ in summands:
        for k, v in terms.items():
            acc[k] = acc.get(k, 0) + v
    bound = min((b for b in map(_known_to, summands) if b is not None), default=None)
    return _cut(acc, bound)


def mul(a, b):
    """The product, cut to the smaller cutoff above its lowest q exponent."""
    (terms_a, cut_a), (terms_b, cut_b) = a, b
    cutoff = cut_a if cut_b is None else cut_b if cut_a is None else min(cut_a, cut_b)
    if not terms_a or not terms_b:
        return {}, cutoff
    acc: dict = {}
    for (qa, za, ya), va in terms_a.items():
        for (qb, zb, yb), vb in terms_b.items():
            k = (qa + qb, za + zb, ya + yb)
            acc[k] = acc.get(k, 0) + va * vb
    if cutoff is None:
        return _cut(acc, None)
    base = min(k[0] for k in terms_a) + min(k[0] for k in terms_b)
    return _cut(acc, base + cutoff)[0], cutoff


def restrict_z(series, z_lo, z_hi):
    """The terms whose z exponent lies in [z_lo, z_hi], cutoff unchanged."""
    if z_lo > z_hi:
        raise ValueError("empty z window")
    terms, cutoff = series
    return {k: v for k, v in terms.items() if z_lo <= k[1] <= z_hi}, cutoff


def equal_to_cutoff(a, b, window):
    """True iff a and b agree on every term within ``window`` of their common minimum q."""
    (terms_a, _), (terms_b, _) = a, b
    mins = [min(k[0] for k in terms) for terms in (terms_a, terms_b) if terms]
    if not mins:
        return True
    limit = min(mins) + window
    keys = {k for k in (*terms_a, *terms_b) if k[0] <= limit}
    return all(terms_a.get(k) == terms_b.get(k) for k in keys)


def _exponents(dq, dz, depth: int):
    """q exponents dq + N by N <= depth, z exponents dz + m by offset m.

    The offsets m of the terms up to q-depth ``depth`` lie in [-w-1, w],
    with w the largest m such that m(m+1)/2 <= depth.
    """
    w = (math.isqrt(8 * depth + 1) - 1) // 2
    return [dq + big_n for big_n in range(depth + 1)], {m: dz + m for m in range(-w - 1, w + 1)}


def _offsets(depth: int) -> list:
    """The universal product to q-depth ``depth`` as offsets (N, m, c).

    The package's block keys c by (N, m + w + 1), so that its least key is
    0, with w as in ``_exponents``.
    """
    w = (math.isqrt(8 * depth + 1) - 1) // 2
    return [(big_n, m - w - 1, c) for (big_n, m), c in _universal_product(depth).items()]


def _terms(offsets, qs: list, zs: dict, y) -> dict:
    """The terms (qs[N], zs[m], y): c of the offsets (N, m, c) with N < len(qs)."""
    top = len(qs) - 1
    return {(qs[big_n], zs[m], y): c for big_n, m, c in offsets if big_n <= top}


def weight(n, ehat) -> Fraction:
    """The conformal weight Delta = ehat (n + ehat/2), in Fraction arithmetic."""
    return ehat * (n + ehat / 2)


def verma(n, ehat, q_cutoff):
    """The Verma character at (n, ehat) on Fraction keys, as (terms, cutoff)."""
    n, ehat, q_cutoff = Fraction(n), Fraction(ehat), Fraction(q_cutoff)
    depth = int(q_cutoff)
    qs, zs = _exponents(weight(n, ehat), n, depth)
    return _terms(_offsets(depth), qs, zs, ehat), q_cutoff


def atypical0(n, q_cutoff, z_window):
    """The atypical ell = 0 character on Fraction keys, telescoped as the package does."""
    n, q_cutoff = Fraction(n), Fraction(q_cutoff)
    depth = int(q_cutoff)
    centre = n - Fraction(1, 2)
    k_lo, k_hi = math.ceil(z_window[0] - centre), math.floor(z_window[1] - centre)
    rows: dict = {}
    for big_n, j, c in _offsets(depth):
        rows.setdefault(big_n, {})[j] = c
    sums = []
    for big_n, row in rows.items():
        total = 0
        for k in range(max(row), min(row) - 1, -1):
            total = row[k] - total
            if total and k_lo <= k <= k_hi:
                sums.append((big_n, k, total))
    qs, zs = _exponents(Fraction(0), centre, depth)
    return _terms(sums, qs, zs, Fraction(0)), q_cutoff


def induced_typical(n, ehat, m_range: int, q_cutoff):
    """Both sides of the induced identity on Fraction keys, as two (terms, cutoff) pairs."""
    n, ehat, q_cutoff = Fraction(n), Fraction(ehat), Fraction(q_cutoff)
    shift = 2 * n + ehat
    depth = q_cutoff + m_range * abs(shift)
    if depth < 0:  # int() would truncate -1 < depth < 0 to 0
        raise ValueError("q_cutoff must be nonnegative")
    offsets = _offsets(int(depth))
    delta = weight(n, ehat)
    bound = delta - m_range * abs(shift) + depth
    lhs: dict = {}
    rhs: dict = {}
    qs, zs = _exponents(delta, n, int(depth))
    for m in range(-m_range, m_range + 1):
        y = ehat - 2 * m
        delta_m = weight(n + m, y)
        top = math.floor(bound - delta_m)
        if top >= 0:
            lhs.update(_terms(offsets, *_exponents(delta_m, n + m, top), y))
        qs_m = [q - m * shift for q in qs]
        qs_m = [q for q in qs_m if q <= bound]  # increasing, so a prefix
        zs_m = {j: z + m for j, z in zs.items()}
        rhs.update(_terms(offsets, qs_m, zs_m, y))
    return (lhs, depth), (rhs, depth)


def split(x: Fraction):
    """x as (x0, N) with x = x0 + N, N = floor(x) and 0 <= x0 < 1."""
    whole, rest = divmod(x.numerator, x.denominator)
    return Fraction(rest, x.denominator), whole


def below_by_fractions(classes: dict, limit: Fraction) -> dict:
    """The Fraction-keyed classes cut to their terms at q <= limit, empty ones dropped."""
    l0, whole = split(limit)
    out = classes.copy()
    for key, (dq, dz, n_top, block) in classes.items():
        top = whole - (key[0] > l0) - dq  # floor(limit - q0) - dq, so q0 + dq + N <= limit
        if top < 0:
            del out[key]
        elif top < n_top:  # the block holds N = 0, so the cut is not empty
            out[key] = _canon({k: c for k, c in block.items() if k[0] <= top}, dq, dz)
    return out


def min_q_by_fractions(classes: dict):
    """The least q exponent of the Fraction-keyed classes, None if there are none."""
    low = min(((value[0], key[0]) for key, value in classes.items()), default=None)
    return None if low is None else low[0] + low[1]  # (dq, q0) orders as q0 + dq


def classes_by_fractions(terms: dict, q_cutoff=None) -> dict:
    """The Fraction-keyed classes of terms {(q, z, y): c}, cut q_cutoff above their least q."""
    cutoff = None if q_cutoff is None else Fraction(q_cutoff)
    classes: dict = {}
    for (q, z, y), v in terms.items():
        v = _int(v)
        if v:
            (q0, n), (z0, m) = split(_f(q)), split(_f(z))
            classes.setdefault((q0, z0, _f(y)), {})[(n, m)] = v
    classes = {key: _canon(offsets) for key, offsets in classes.items()}
    if cutoff is not None and classes:
        classes = below_by_fractions(classes, min_q_by_fractions(classes) + cutoff)
    return classes


def equal_by_fractions(a, b, window) -> bool:
    """The former ``jacobi_equal_to_cutoff`` on (Fraction-keyed classes, cutoff) pairs."""
    window = Fraction(window)
    if window < 0:
        raise ValueError("comparison window must be nonnegative")
    for _, cutoff in (a, b):
        if cutoff is not None and window > cutoff:
            raise ValueError("comparison window exceeds a series cutoff")
    mins = [m for m in (min_q_by_fractions(a[0]), min_q_by_fractions(b[0])) if m is not None]
    if not mins:
        return True
    limit = min(mins) + window
    return below_by_fractions(a[0], limit) == below_by_fractions(b[0], limit)


def canonical(key) -> bool:
    """Is an int class key (q0, z0, y, den) reduced, with 0 <= q0, z0 < den?"""
    q0, z0, y, den = key
    return 0 <= q0 < den and 0 <= z0 < den and math.gcd(q0, z0, y, den) == 1


def fraction_keys(classes: dict) -> dict:
    """Int-keyed classes {(q0, z0, y, den): value} re-keyed by (q0/den, z0/den, y/den)."""
    return {(Fraction(q0, den), Fraction(z0, den), Fraction(y, den)): v for (q0, z0, y, den), v in classes.items()}
