"""Plain-dict series arithmetic, the oracle of the character tests.

A series here is a pair (terms, cutoff): terms maps (q, z, y) exponent
triples to nonzero ints, and cutoff is how far above the lowest q exponent
the terms are known, None for an exact series.  Like
``brute_product_slices``, nothing here uses the package's series type.
"""


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
