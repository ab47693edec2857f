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
stored, each as a map ``{(row, col): Fraction}`` of its nonzero entries.
Nearly every entry is zero: a realized P(n) has 4 nonzero psi+- entries in
32 slots, and in a tensor product of realized modules each odd operator has
at most one nonzero entry per column and tensor factor.  Products
(:func:`mul`), linear combinations (:func:`combine`), tensor products and the
weight checks visit nonzero entries only; :func:`mat_rank` works on the
small dense blocks between neighbouring weight spaces that :func:`decompose`
slices out.

:func:`decompose` checks only the weight steps: every nonzero entry of psi+-
must map weight (e, n) into (e, n +- 1), or it raises
:class:`~gl11kl.errors.OracleError`.  It does not check parity, psi+^2 =
psi-^2 = 0 or {psi+, psi-} = E; :meth:`Gl11MatrixModule.validate` does, and
a module that breaks them may still come back decomposed.  :func:`realize`
and :func:`tensor` always produce modules.  In a weight basis every rank
:func:`decompose` needs is the rank of a small block between neighbouring
weight spaces, never of a full-dimensional matrix.  Everything is
independent of the label arithmetic in :mod:`gl11kl.fusion`, which is the
point: it is the cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OracleError
from .frozen import Frozen
from .labels import _f

Matrix = tuple  # tuple of row tuples of Fraction
Entries = dict  # {(row, col): Fraction}, nonzero entries only
EVEN, ODD = 0, 1


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------


_ZERO = Fraction(0)


def mul(a: Entries, b: Entries) -> Entries:
    """Product a b of two entry maps; zero sums are dropped."""
    b_rows: dict[int, list] = {}
    for (k, j), y in b.items():
        b_rows.setdefault(k, []).append((j, y))
    out: Entries = {}
    for (i, k), x in a.items():
        for j, y in b_rows.get(k, ()):
            out[i, j] = out.get((i, j), _ZERO) + x * y
    return {key: v for key, v in out.items() if v}


def combine(terms) -> Entries:
    """Linear combination sum c X over (c, X) pairs; zero sums are dropped."""
    out: Entries = {}
    for c, x in terms:
        c = _f(c)
        if not c:
            continue
        for key, v in x.items():
            out[key] = out.get(key, _ZERO) + c * v
    return {key: v for key, v in out.items() if v}


def mat_rank(a: Matrix) -> int:
    rows = [list(r) for r in a]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w if w else v for v, w in zip(rows[r], rows[rank])]
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


class Verma(FinLabel):
    """Two-dimensional module V_{n,e}; n is the average of the N-eigenvalues."""

    __slots__ = ("n", "e")

    def __init__(self, n: Fraction, e: Fraction):
        object.__setattr__(self, "n", _f(n))
        object.__setattr__(self, "e", _f(e))

    def __repr__(self):
        return f"V({self.n};{self.e})"


class Atypical(FinLabel):
    """One-dimensional module A_n with N acting by n and E, psi+- by zero."""

    __slots__ = ("n",)

    def __init__(self, n: Fraction):
        object.__setattr__(self, "n", _f(n))

    def __repr__(self):
        return f"A({self.n})"


class Projective(FinLabel):
    """Four-dimensional projective cover P_n of A_n."""

    __slots__ = ("n",)
    __init__ = Atypical.__init__

    def __repr__(self):
        return f"P({self.n})"


class Gl11MatrixModule(Frozen):
    """Matrix realization of a finite-dimensional gl(1|1)-module in a weight basis.

    Basis vector i has parity ``parity[i]`` (0 even, 1 odd) and weight
    ``weights[i] = (e, n)``: E acts on it by e and N by n.  ``psi_p`` and
    ``psi_m`` map (row, col) to the nonzero entries of psi+ and psi-.  The
    constructor converts weights and entries to Fraction and drops zero
    entries, so a stored zero equals an absent entry.  It raises
    :class:`OracleError` unless every parity is 0 or 1, ``weights`` has
    ``dim = len(parity)`` entries and every key lies in ``range(dim)``.
    """

    __slots__ = ("parity", "weights", "psi_p", "psi_m")

    def __init__(self, parity, weights, psi_p, psi_m):
        dim = len(parity)
        if any(p not in (EVEN, ODD) for p in parity):
            raise OracleError("parity entries must be 0 or 1")
        if len(weights) != dim:
            raise OracleError(f"weights has {len(weights)} entries, not dim = {dim}")
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "weights", tuple((_f(e), _f(n)) for e, n in weights))
        for name, entries in (("psi_p", psi_p), ("psi_m", psi_m)):
            kept = {}
            for (r, c), v in entries.items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise OracleError(f"{name} entry ({r}, {c}) lies outside a {dim}-dim module")
                v = _f(v)
                if v:
                    kept[r, c] = v
            object.__setattr__(self, name, kept)

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
        _check_weight_steps(self)
        for name, x in (("psi+", self.psi_p), ("psi-", self.psi_m)):
            if any(self.parity[i] == self.parity[j] for i, j in x):
                raise OracleError(f"{name} breaks the parity of the module")
            if mul(x, x):
                raise OracleError(f"{name} squared is not zero")
        e_diag = {(i, i): e for i, (e, _) in enumerate(self.weights) if e}
        if combine(((1, mul(self.psi_p, self.psi_m)), (1, mul(self.psi_m, self.psi_p)))) != e_diag:
            raise OracleError("[psi+, psi-] does not act as E")


def _check_weight_steps(m: Gl11MatrixModule) -> None:
    """OracleError unless every psi+- entry maps weight (e, n) into (e, n +- 1)."""
    weights = m.weights
    for a, step in ((m.psi_p, 1), (m.psi_m, -1)):
        for r, c in a:
            e_val, n_val = weights[r]
            if weights[c] != (e_val, n_val - step):
                raise OracleError("psi+- must map weight (e, n) into (e, n +- 1)")


def realize(label: FinLabel) -> Gl11MatrixModule:
    """Standard matrix realization of a labelled module.

    Basis conventions: Verma (v, psi- v) with psi- acting by coefficient 1;
    Projective (v, psi+ v, psi- v, psi+ psi- v).
    """
    if isinstance(label, Verma):
        n, e = label.n, label.e
        half = Fraction(1, 2)
        return Gl11MatrixModule((EVEN, ODD), ((e, n + half), (e, n - half)), {(0, 1): e}, {(1, 0): 1})
    if isinstance(label, Atypical):
        return Gl11MatrixModule((EVEN,), ((0, label.n),), {}, {})
    if isinstance(label, Projective):
        n = label.n
        # basis v, psi+ v, psi- v, psi+ psi- v; note psi- psi+ v = -psi+ psi- v
        return Gl11MatrixModule(
            (EVEN, ODD, ODD, EVEN),
            ((0, n), (0, n + 1), (0, n - 1), (0, n)),
            {(1, 0): 1, (3, 2): 1},
            {(2, 0): 1, (3, 1): -1},
        )
    raise TypeError(f"unknown label {label!r}")


def tensor(a: Gl11MatrixModule, b: Gl11MatrixModule) -> Gl11MatrixModule:
    """Graded tensor product with the coproduct action X -> X(x)1 + 1(x)X.

    Basis vector v_i (x) w_j has index i * b.dim + j, and its weight is the
    sum of the weights of v_i and w_j.  For psi+- the second term carries
    the Koszul sign (-1)^{|v_i|}, so the identity factor is replaced by the
    parity sign of the first tensor leg.  Only nonzero entries of the
    factors are visited.
    """
    bd = b.dim

    def build(xa: Entries, xb: Entries) -> Entries:
        out = {(k * bd + j, i * bd + j): v for (k, i), v in xa.items() for j in range(bd)}
        for i, p in enumerate(a.parity):
            for (l, j), v in xb.items():
                key = (i * bd + l, i * bd + j)
                v = -v if p == ODD else v
                # only a diagonal psi entry in both factors lands on a key twice
                out[key] = out[key] + v if key in out else v
        return out

    parity = tuple((p + q) % 2 for p in a.parity for q in b.parity)
    weights = tuple((ea + eb, na + nb) for ea, na in a.weights for eb, nb in b.weights)
    return Gl11MatrixModule(parity, weights, build(a.psi_p, b.psi_p), build(a.psi_m, b.psi_m))


def l0_top_matrix(m: Gl11MatrixModule, k) -> Entries:
    """Zero-mode Virasoro action (1/k)(N E - psi+ psi-) + E/(2k) + E^2/(2k^2).

    N and E are diagonal, so every term but psi+ psi- is the diagonal
    (e/k)(n + 1/2 + e/(2k)), read off the weights.
    """
    k = _f(k)
    if k == 0:
        raise ValueError("level k must be nonzero")
    half = Fraction(1, 2)
    diagonal = {(i, i): e / k * (n + half + half * e / k) for i, (e, n) in enumerate(m.weights)}
    return combine(((1, diagonal), (-1 / k, mul(m.psi_p, m.psi_m))))


def fin_label_of(label) -> FinLabel:
    """Finite-dimensional shadow of a category label, at level 1.

    Typical labels map to the Verma at (n, e = ehat); atypical and
    projective labels need ell = 0 to have a finite analog.
    """
    from .labels import AtypicalA, ProjectiveP, TypicalV, VermaV0

    if isinstance(label, TypicalV):
        return Verma(label.n, label.ehat)
    if isinstance(label, VermaV0) and label.ell == 0:
        return Verma(label.n, Fraction(0))
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

    Every nonzero entry of psi+- must map weight (e, n) into (e, n +- 1), or
    :class:`OracleError` is raised.  Parity and the odd relations (psi+^2 =
    psi-^2 = 0, {psi+, psi-} = E) are not checked here; call
    :meth:`Gl11MatrixModule.validate` for them.  Basis vectors are grouped by
    e and then by n.  On an e != 0 block the N-spectrum is matched greedily
    into pairs (c + 1/2, c - 1/2) giving Verma multiplicities.  On the e = 0
    block each rank is the rank of a small block between weight spaces: psi+
    from n to n+1, psi- from n to n-1, and the weight-n block of the product
    psi+ psi-, which passes through weight n-1.  The Projective count at
    n is rank(psi+ psi- | N=n); the Verma and Atypical multiplicities are
    solved from the N-spectrum and the psi+- ranks, and any statistic
    mismatch raises :class:`OracleError`.
    """
    _check_weight_steps(m)
    spaces: dict[Fraction, dict[Fraction, list[int]]] = {}
    for i, (e_val, n_val) in enumerate(m.weights):
        spaces.setdefault(e_val, {}).setdefault(n_val, []).append(i)
    result: dict[FinLabel, int] = {}
    for e_val, n_bases in sorted(spaces.items()):
        if e_val != 0:
            _decompose_typical_block(e_val, n_bases, result)
        else:
            _decompose_zero_block(m, n_bases, result)
    return result


def _decompose_typical_block(e_val, n_bases, result) -> None:
    spectrum: dict[Fraction, int] = {n: len(b) for n, b in n_bases.items()}
    while spectrum:
        top = max(spectrum)
        below = top - 1
        if spectrum.get(below, 0) < 1:
            raise OracleError("N-spectrum on a typical block does not pair up")
        label = Verma(top - Fraction(1, 2), e_val)
        result[label] = result.get(label, 0) + 1
        for key in (top, below):
            spectrum[key] -= 1
            if spectrum[key] == 0:
                del spectrum[key]


def _decompose_zero_block(m, n_bases, result) -> None:
    def block(a: Entries, n_to, n_from) -> Matrix:
        cols = n_bases[n_from]
        return tuple(tuple(a.get((r, c), _ZERO) for c in cols) for r in n_bases.get(n_to, ()))

    # psi- lowers n by one and psi+ raises it, so the weight-n block of
    # psi+ psi- is the product of the blocks through weight n - 1
    ppm = mul(m.psi_p, m.psi_m)
    proj = {}
    for n_val in n_bases:
        r = mat_rank(block(ppm, n_val, n_val))
        if r:
            proj[n_val] = r
    rank_p = {n: mat_rank(block(m.psi_p, n + 1, n)) for n in n_bases}
    rank_m = {n: mat_rank(block(m.psi_m, n - 1, n)) for n in n_bases}
    # psi+ ranks are determined by the projective counts alone
    for n_val in set(n_bases) | set(proj):
        expect = proj.get(n_val, 0) + proj.get(n_val + 1, 0)
        if rank_p.get(n_val, 0) != expect:
            raise OracleError("psi+ rank statistics infeasible on the E=0 block")
    # Verma(c, 0) count from psi- ranks after removing projective contributions
    verma = {}
    for n_val in set(rank_m) | set(proj):
        v = rank_m.get(n_val, 0) - proj.get(n_val, 0) - proj.get(n_val - 1, 0)
        if v < 0:
            raise OracleError("psi- rank statistics infeasible on the E=0 block")
        if v:
            verma[n_val - Fraction(1, 2)] = v
    # atypicals: what the realized candidates' N-spectra leave of the block's
    # N-multiset
    found = [(Projective(n), p) for n, p in proj.items()]
    found += [(Verma(c, Fraction(0)), v) for c, v in verma.items()]
    rest = {n: len(b) for n, b in n_bases.items()}
    for label, count in found:
        for _, n_val in realize(label).weights:
            rest[n_val] = rest.get(n_val, 0) - count
    if any(a < 0 for a in rest.values()):
        raise OracleError("N-spectrum statistics infeasible on the E=0 block")
    found += [(Atypical(n), a) for n, a in rest.items() if a]
    for label, count in found:
        result[label] = result.get(label, 0) + count
