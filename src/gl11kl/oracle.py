"""Finite-dimensional gl(1|1) matrix modules and a tensor-decomposition oracle.

The Lie superalgebra gl(1|1) has basis N, E (even) and psi+, psi- (odd) with
nonzero brackets [N, psi+-] = +-psi+- and {psi+, psi-} = E.  This module
realizes the three standard families of finite-dimensional modules as exact
rational matrices, forms graded tensor products with Koszul signs, and
decomposes modules back into the standard families by matching exact
spectral statistics.

Every module here lies in the category where the Cartan subalgebra acts
semisimply, and is stored in a weight basis: basis vector i carries its
weight (e, n), the eigenvalues of E and N, and only psi+ and psi- are
stored, each as a map ``{(row, col): value}`` of its nonzero entries.
Nearly every entry is zero: a realized P(n) has 4 nonzero psi+- entries in
32 slots, and in a tensor product of realized modules each odd operator has
at most one nonzero entry per column and tensor factor.  Products
(:func:`mul`), tensor products and the weight checks visit nonzero entries
only, and the relations check groups each odd operator by row once for all
four of its products.  One fraction-free elimination takes every rank: on
the small int blocks between neighbouring weight spaces that
:func:`decompose` slices out, as they are, and through :func:`mat_rank`,
which first scales rows of Fractions to ints.

A module stores all of this on ints over one scale d, a common
denominator of its weights and entries: each weight as the key (e d, n d),
and psi+- times d.  Realizing, tensoring and checking build no Fraction,
and decomposing builds only those of the labels it returns.  The Fraction-valued
``weights``, ``psi_p`` and ``psi_m`` of a module are views of its ints,
built anew on each read and kept nowhere.

Everything is independent of the label arithmetic in :mod:`gl11kl.fusion`,
which is the point: it is the cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import OracleError
from .frozen import Frozen
from .labels import AtypicalA, ProjectiveP, TypicalV, VermaV0, _f

Matrix = tuple  # sequence of rows of ints or Fractions
Entries = dict  # {(row, col): int or Fraction}, nonzero entries only
EVEN, ODD = 0, 1
_ZERO, _HALF = Fraction(0), Fraction(1, 2)


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------


def _by_row(x: Entries) -> dict[int, list]:
    """The entries of x grouped by row, ``{row: [(col, value), ...]}``."""
    rows: dict[int, list] = {}
    for (k, j), y in x.items():
        rows.setdefault(k, []).append((j, y))
    return rows


def _add_product(out: Entries, a: Entries, b_rows: dict) -> Entries:
    """Add a b into out in place and return out; b is given by row, zero sums stay."""
    for (i, k), x in a.items():
        for j, y in b_rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + x * y
    return out


def mul(a: Entries, b: Entries) -> Entries:
    """Product a b of two entry maps; zero sums are dropped."""
    return {key: v for key, v in _add_product({}, a, _by_row(b)).items() if v}


def mat_rank(a: Matrix) -> int:
    """Rank over Q of a matrix of ints or Fractions, given as a sequence of rows.

    Rows of unequal length raise ValueError.  Each row is scaled to ints by
    the lcm of its denominators, and :func:`_rank` eliminates the result.
    """
    rows = []
    for row in a:
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    if len(lengths := {len(row) for row in rows}) > 1:
        raise ValueError(f"matrix rows must have one length, not {sorted(lengths)}")
    return _rank(rows)


def _rank(rows: list) -> int:
    """Rank over Q of a list of int rows of one length, which it overwrites.

    A block with at most one row or one column has rank 1 if any entry is
    nonzero, else 0.  Otherwise the rows below each pivot are eliminated
    without division; each reduced row is divided by the gcd of its
    entries, which keeps the entries small.
    """
    if len(rows) < 2 or len(rows[0]) < 2:
        return int(any(map(any, rows)))
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        pv = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                row = [pv * v - f * w for v, w in zip(rows[r], top)]
                g = gcd(*row)
                rows[r] = [v // g for v in row] if g > 1 else row
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# labels and modules
# ---------------------------------------------------------------------------


class FinLabel(Frozen):
    """Base class for names of finite-dimensional gl(1|1)-modules."""

    __slots__ = ()

    def __repr__(self):
        """The class's initial and its fields, V(n;e), A(n) or P(n), as the CLI reads them."""
        return f"{type(self).__name__[0]}({';'.join(map(str, self._values()))})"


class Verma(FinLabel):
    """Two-dimensional module V_{n,e}; n is the average of the N-eigenvalues."""

    __slots__ = ("n", "e")

    def __init__(self, n: Fraction, e: Fraction):
        object.__setattr__(self, "n", _f(n))
        object.__setattr__(self, "e", _f(e))


class Atypical(FinLabel):
    """One-dimensional module A_n with N acting by n and E, psi+- by zero."""

    __slots__ = ("n",)

    def __init__(self, n: Fraction):
        object.__setattr__(self, "n", _f(n))


class Projective(FinLabel):
    """Four-dimensional projective cover P_n of A_n."""

    __slots__ = ("n",)
    __init__ = Atypical.__init__


class Gl11MatrixModule(Frozen):
    """Matrix realization of a finite-dimensional gl(1|1)-module in a weight basis.

    Basis vector i has parity ``parity[i]`` (0 even, 1 odd) and weight
    ``weights[i] = (e, n)``: E acts on it by e and N by n.  ``psi_p`` and
    ``psi_m`` map (row, col) to the nonzero entries of psi+ and psi-.

    A module stores the integer form that :func:`decompose` and
    :meth:`validate` read: ``parity`` as a tuple of 0/1; one scale d, a
    common denominator of every weight and entry; the int key (e d, n d)
    of each basis vector in ``_keys``; and ``_p = d psi+`` and
    ``_q = d psi-`` as int entry maps of the nonzero entries.  ``weights``,
    ``psi_p`` and ``psi_m`` are Fraction views of that form, built anew on
    each read and kept nowhere, so a write into a returned dict changes
    that copy only, never the module.  d is a common denominator, not
    always the least one (a tensor product takes the lcm of its factors'
    scales, and its sums may need less), so the int form is not canonical:
    equality compares the fields, parity and the three views.  Their dicts
    make modules unhashable.

    The constructor is public API.  It converts weights and entries to
    Fraction, drops zero entries, and raises :class:`OracleError` unless
    every parity is 0 or 1, ``weights`` has ``dim = len(parity)`` entries
    and every key lies in ``range(dim)``; it then scales to ints by the
    least d.  It stores them through ``_trusted``, which
    :func:`realize` and :func:`tensor` call with an int form they built.
    Nothing marks a module as valid: :func:`decompose` checks every input.
    """

    __slots__ = ("parity", "_d", "_keys", "_p", "_q")
    _fields = ("parity", "weights", "psi_p", "psi_m")
    __hash__ = None

    def __new__(cls, parity, weights, psi_p, psi_m):
        dim = len(parity)
        if any(p not in (EVEN, ODD) for p in parity):
            raise OracleError("parity entries must be 0 or 1")
        if len(weights) != dim:
            raise OracleError(f"weights has {len(weights)} entries, not dim = {dim}")
        weights = [(_f(e), _f(n)) for e, n in weights]
        maps = []
        for name, entries in (("psi_p", psi_p), ("psi_m", psi_m)):
            kept = {}
            for (r, c), v in entries.items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise OracleError(f"{name} entry ({r}, {c}) lies outside a {dim}-dim module")
                v = _f(v)
                if v:
                    kept[r, c] = v
            maps.append(kept)
        d = lcm(*(x.denominator for w in weights for x in w), *(v.denominator for x in maps for v in x.values()))
        keys = tuple((e.numerator * (d // e.denominator), n.numerator * (d // n.denominator)) for e, n in weights)
        p, q = ({key: v.numerator * (d // v.denominator) for key, v in x.items()} for x in maps)
        return cls._trusted(tuple(parity), d, keys, p, q)

    @classmethod
    def _trusted(cls, parity: tuple, d: int, keys: tuple, p: Entries, q: Entries) -> "Gl11MatrixModule":
        """Store an int form as given, without converting or checking.

        The caller guarantees: ``parity`` is a tuple of 0/1, d > 0 and
        ``keys`` a tuple of ``len(parity)`` int pairs (e d, n d); ``p`` and
        ``q`` are the nonzero entries of d psi+ and d psi- as ints, in
        dicts of their own, shared with no other module, whose keys lie in
        ``range(dim)``.
        """
        module = object.__new__(cls)
        _set = object.__setattr__
        _set(module, "parity", parity)
        _set(module, "_d", d)
        _set(module, "_keys", keys)
        _set(module, "_p", p)
        _set(module, "_q", q)
        return module

    weights = property(lambda self: tuple((Fraction(e, self._d), Fraction(n, self._d)) for e, n in self._keys),
                       doc="Each basis vector's weight (e, n), as Fractions built on each read.")
    psi_p = property(lambda self: {key: Fraction(v, self._d) for key, v in self._p.items()},
                     doc="The nonzero entries of psi+, as Fractions built on each read.")
    psi_m = property(lambda self: {key: Fraction(v, self._d) for key, v in self._q.items()},
                     doc="The nonzero entries of psi-, as Fractions built on each read.")

    @property
    def dim(self) -> int:
        return len(self.parity)

    def validate(self) -> None:
        """Check the relations that a weight basis leaves open.

        N and E are diagonal, so they commute, keep parity, and their
        brackets with psi+- reduce to the weight step: each nonzero psi+-
        entry maps weight (e, n) into (e, n +- 1).  Beyond that, psi+- must
        swap parity, psi+^2 = psi-^2 = 0 and psi+ psi- + psi- psi+ = E.
        Raises :class:`OracleError` on the first failure.
        """
        _relations(self)


def _relations(m: Gl11MatrixModule) -> tuple:
    """The checks of :meth:`Gl11MatrixModule.validate`, on the stored ints.

    Weight (e, n) is the key (e d, n d), psi+- are p = d psi+ and q = d psi-,
    and E = pq + qp reads e d^2, the key's e d times d, on the diagonal.
    p and q are each grouped by row once, and the four products p^2, q^2,
    pq and qp read those groups; qp is added into a copy of pq in place.
    Returns (d, keys, p, q, pq), keys in basis order, pq = p q with its
    zero sums kept.
    """
    d, keys, p, q = m._d, m._keys, m._p, m._q
    for x, step in ((p, d), (q, -d)):
        for r, c in x:
            e, n = keys[c]
            if keys[r] != (e, n + step):
                raise OracleError("psi+- must map weight (e, n) into (e, n +- 1)")
    parity = m.parity
    p_rows, q_rows = _by_row(p), _by_row(q)
    for name, x, x_rows in (("psi+", p, p_rows), ("psi-", q, q_rows)):
        if any(parity[i] == parity[j] for i, j in x):
            raise OracleError(f"{name} breaks the parity of the module")
        if any(_add_product({}, x, x_rows).values()):
            raise OracleError(f"{name} squared is not zero")
    pq = _add_product({}, p, q_rows)
    anti = _add_product(dict(pq), q, p_rows)
    if {key: v for key, v in anti.items() if v} != {(i, i): e * d for i, (e, _) in enumerate(keys) if e}:
        raise OracleError("[psi+, psi-] does not act as E")
    return d, keys, p, q, pq


def realize(label: FinLabel) -> Gl11MatrixModule:
    """Standard matrix realization of a labelled module, built on ints.

    Basis conventions: Verma (v, psi- v) with psi- acting by coefficient 1;
    Projective (v, psi+ v, psi- v, psi+ psi- v).  With n = a/b, the scale
    is b, or lcm(2b, the denominator of e) for a Verma.
    """
    a, b = label.n.numerator, label.n.denominator
    if isinstance(label, Verma):
        c, g = label.e.numerator, label.e.denominator
        d = lcm(2 * b, g)
        e, h = c * (d // g), d // (2 * b)
        psi_p = {(0, 1): e} if e else {}  # no entry at e = 0
        return Gl11MatrixModule._trusted((EVEN, ODD), d, ((e, (2 * a + b) * h), (e, (2 * a - b) * h)), psi_p, {(1, 0): d})
    if isinstance(label, Atypical):
        return Gl11MatrixModule._trusted((EVEN,), b, ((0, a),), {}, {})
    if isinstance(label, Projective):
        # basis v, psi+ v, psi- v, psi+ psi- v; note psi- psi+ v = -psi+ psi- v
        keys = ((0, a), (0, a + b), (0, a - b), (0, a))
        return Gl11MatrixModule._trusted((EVEN, ODD, ODD, EVEN), b, keys, {(1, 0): b, (3, 2): b}, {(2, 0): b, (3, 1): -b})
    raise TypeError(f"unknown label {label!r}")


def tensor(a: Gl11MatrixModule, b: Gl11MatrixModule) -> Gl11MatrixModule:
    """Graded tensor product with the coproduct action X -> X(x)1 + 1(x)X.

    Basis vector v_i (x) w_j has index i * b.dim + j, and its weight is the
    sum of the weights of v_i and w_j.  For psi+- the second term carries
    the Koszul sign (-1)^{|v_i|}, so the identity factor is replaced by the
    parity sign of the first tensor leg.  Keys and entries are rescaled to
    the lcm of the two scales; only nonzero entries of the factors are
    visited, and a sum that cancels is dropped.
    """
    bd = b.dim
    d = lcm(a._d, b._d)
    fa, fb = d // a._d, d // b._d

    def build(xa: Entries, xb: Entries) -> Entries:
        out = {(k * bd + j, i * bd + j): v * fa for (k, i), v in xa.items() for j in range(bd)}
        even = [(l, j, v * fb) for (l, j), v in xb.items()]
        odd = [(l, j, -v) for l, j, v in even]  # the Koszul sign
        for i, p in enumerate(a.parity):
            base = i * bd
            for l, j, v in odd if p else even:
                key = (base + l, base + j)
                # only a diagonal psi entry in both factors lands on a key twice
                if key in out:
                    v += out.pop(key)
                    if not v:
                        continue
                out[key] = v
        return out

    parity = tuple((p + q) % 2 for p in a.parity for q in b.parity)
    b_keys = [(e * fb, n * fb) for e, n in b._keys]
    keys = tuple([(e * fa + eb, n * fa + nb) for e, n in a._keys for eb, nb in b_keys])
    return Gl11MatrixModule._trusted(parity, d, keys, build(a._p, b._p), build(a._q, b._q))


def l0_top_matrix(m: Gl11MatrixModule, k) -> Entries:
    """Zero-mode Virasoro action (1/k)(N E - psi+ psi-) + E/(2k) + E^2/(2k^2).

    N and E are diagonal, so every term but psi+ psi- is the diagonal
    (e/k)(n + 1/2 + e/(2k)), read off the weights; zero sums are dropped.
    """
    k = _f(k)
    if k == 0:
        raise ValueError("level k must be nonzero")
    out = {(i, i): e / k * (n + _HALF + _HALF * e / k) for i, (e, n) in enumerate(m.weights)}
    for key, v in mul(m.psi_p, m.psi_m).items():
        out[key] = out.get(key, 0) - v / k
    return {key: v for key, v in out.items() if v}


def fin_label_of(label) -> FinLabel:
    """Finite-dimensional shadow of a category label, at level 1.

    Typical labels map to the Verma at (n, e = ehat); atypical and
    projective labels need ell = 0 to have a finite analog.
    """
    if isinstance(label, TypicalV):
        return Verma(label.n, label.ehat)
    if isinstance(label, VermaV0) and label.ell == 0:
        return Verma(label.n, _ZERO)
    if isinstance(label, AtypicalA) and label.ell == 0:
        return Atypical(label.n)
    if isinstance(label, ProjectiveP) and label.ell == 0:
        return Projective(label.n)
    raise ValueError(f"{label!r} has no finite-dimensional shadow")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose(m: Gl11MatrixModule) -> dict[FinLabel, int]:
    """Decompose into Verma / Atypical / Projective labels with multiplicity.

    The module is first held to every relation that
    :meth:`Gl11MatrixModule.validate` checks, and a failure raises
    :class:`OracleError` with validate's text.  The rest runs on that check's
    integers: weights and psi+- scaled by the module's one scale d.
    Basis vectors are grouped by e and then by n.  On an e != 0 block psi-
    maps the Verma tops at n one-to-one into weight n - 1, so from the top
    down the N-spectrum pairs into (c + 1/2, c - 1/2).  On the e = 0 block
    each rank is the rank of a small block between weight spaces: psi+ from
    n to n+1, psi- from n to n-1, and the weight-n block of psi+ psi-.  The
    Projective count at n is rank(psi+ psi- | N=n), and unless each psi+ rank
    is the sum those counts predict, :class:`OracleError` is raised; the
    Verma and Atypical counts are what the psi- ranks and the N-spectrum
    leave.
    """
    d, keys, p, q, pq = _relations(m)
    spaces: dict[int, dict[int, list[int]]] = {}
    for i, (e, n) in enumerate(keys):
        spaces.setdefault(e, {}).setdefault(n, []).append(i)
    tops: dict[tuple[int, int], int] = {}  # (e, top n) of each Verma, scaled by d
    proj, atyp = {}, {}
    for e, n_bases in spaces.items():
        if e:
            spectrum = {n: len(b) for n, b in n_bases.items()}
            for top in sorted(spectrum, reverse=True):
                if spectrum[top]:
                    tops[e, top] = spectrum[top]
                    spectrum[top - d] -= spectrum[top]
        else:
            proj, atyp = _zero_block(d, n_bases, p, q, pq, tops)
    result: dict[FinLabel, int] = {Projective(Fraction(n, d)): c for n, c in proj.items()}
    result.update((Verma(Fraction(2 * t - d, 2 * d), Fraction(e, d)), c) for (e, t), c in tops.items())
    result.update((Atypical(Fraction(n, d)), c) for n, c in atyp.items())
    return result


def _zero_block(d, n_bases, p, q, pq, tops) -> tuple[dict, dict]:
    """Projective and Atypical counts by n key; Verma counts go into tops.

    For a module (pq + qp = 0, q^2 = 0) the psi- rank at n is at least the
    Projective counts at n and n - 1, and the N-spectrum left after the
    Projectives and Vermas is the homology of psi-, so no count below can
    go negative.
    """

    def rank(x: Entries, n_to, n_from) -> int:
        cols = n_bases[n_from]
        return _rank([[x.get((r, c), 0) for c in cols] for r in n_bases.get(n_to, ())])

    proj = {n: r for n in n_bases if (r := rank(pq, n, n))}
    for n in n_bases:
        if rank(p, n + d, n) != proj.get(n, 0) + proj.get(n + d, 0):
            raise OracleError("psi+ rank statistics infeasible on the E=0 block")
    rest = {n: len(b) for n, b in n_bases.items()}
    for n, c in proj.items():
        for k, share in ((n, 2), (n + d, 1), (n - d, 1)):
            rest[k] -= share * c
    for n in n_bases:
        v = rank(q, n - d, n) - proj.get(n, 0) - proj.get(n - d, 0)
        if v:
            tops[0, n] = v
            rest[n] -= v
            rest[n - d] -= v
    return proj, {n: a for n, a in rest.items() if a}
