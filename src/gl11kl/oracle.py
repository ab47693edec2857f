"""Finite-dimensional gl(1|1) matrix modules and a tensor-decomposition oracle.

The Lie superalgebra gl(1|1) has basis N, E (even) and psi+, psi- (odd) with
nonzero brackets [N, psi+-] = +-psi+- and {psi+, psi-} = E, held by two
constants: :data:`PARITY`, and :data:`BRACKETS`, the sparse table of the six
nonzero superbrackets that :meth:`Gl11MatrixModule.validate` checks modules
against.  The invariant forms kappa and kappa2 are not kept: nothing here
reads them, and an affine Shapovalov form would bring kappa back with its use.
This module realizes the three standard families of finite-dimensional
modules as exact rational matrices, forms graded tensor products with Koszul
signs, and decomposes modules back into the standard families by matching
exact spectral statistics.

A module stores each operator as a map ``{(row, col): Fraction}`` of its
nonzero entries.  Nearly every entry is zero: a realized P(n) has 4 nonzero
psi+- entries in 32 slots, and in a tensor product of realized modules each
operator has at most one nonzero entry per column and tensor factor.
Products (:func:`mul`), linear combinations (:func:`combine`), tensor
products and the weight checks visit nonzero entries only; :func:`mat_rank`
works on the small dense blocks between neighbouring weight spaces that
:func:`decompose` slices out.

:func:`decompose` takes modules in a weight basis, which is what
:func:`realize` and :func:`tensor` always produce: N and E diagonal, and psi+-
moving weight (e, n) to (e, n +- 1).  It rejects any other input with
:class:`~gl11kl.errors.OracleError`.  In a weight basis every rank it needs is
the rank of a small block between neighbouring weight spaces, never of a
full-dimensional matrix.  Everything is independent of the label arithmetic
in :mod:`gl11kl.fusion`, which is the point: it is the cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OracleError
from .frozen import Frozen
from .labels import _f

Matrix = tuple  # tuple of row tuples of Fraction
Entries = dict  # {(row, col): Fraction}, nonzero entries only


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
# the algebra itself
# ---------------------------------------------------------------------------

BASIS = ("N", "E", "psi+", "psi-")
EVEN, ODD = 0, 1
#: parity of each basis element, in the order of BASIS
PARITY = (EVEN, EVEN, ODD, ODD)
#: the six nonzero superbrackets [b_i, b_j] = sum_t c b_t as {(i, j): {t: c}}:
#: [N, psi+-] = +-psi+- and {psi+, psi-} = E; every other bracket is zero
BRACKETS = {(0, 2): {2: 1}, (2, 0): {2: -1}, (0, 3): {3: -1}, (3, 0): {3: 1},
            (2, 3): {1: 1}, (3, 2): {1: 1}}


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
    """Matrix realization of a finite-dimensional gl(1|1)-module.

    ``N``, ``E``, ``psi_p`` and ``psi_m`` map (row, col) to the nonzero
    entries of each operator; the constructor converts values to Fraction and
    drops zeros, so a stored zero equals an absent entry.  It raises
    :class:`OracleError` unless ``parity`` has ``dim`` entries and every key
    lies in ``range(dim)``.
    """

    __slots__ = ("dim", "parity", "N", "E", "psi_p", "psi_m")

    def __init__(self, dim, parity, N, E, psi_p, psi_m):
        if len(parity) != dim:
            raise OracleError(f"parity has {len(parity)} entries, not dim = {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "parity", parity)
        for name, entries in zip(self.__slots__[2:], (N, E, psi_p, psi_m)):
            kept = {}
            for (r, c), v in entries.items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise OracleError(f"{name} entry ({r}, {c}) lies outside a {dim}-dim module")
                v = _f(v)
                if v:
                    kept[r, c] = v
            object.__setattr__(self, name, kept)

    def validate(self) -> None:
        """Check every superbracket of :data:`BRACKETS` and parity of :data:`PARITY`.

        For basis elements X, Y the module must satisfy
        XY - (-1)^{|X||Y|} YX = sum_t c_t X_t with c = ``BRACKETS[X, Y]``
        (zero where absent), and an odd X must swap the parity of a basis
        vector, an even one keep it.  Raises :class:`OracleError` on the first failure.
        """
        ops = (self.N, self.E, self.psi_p, self.psi_m)
        for name, x, parity in zip(BASIS, ops, PARITY):
            for i, j in x:
                if (self.parity[i] != self.parity[j]) != (parity == ODD):
                    raise OracleError(f"{name} breaks the parity of the module")
        for i, x in enumerate(ops):
            for j, y in enumerate(ops):
                sign = -1 if PARITY[i] == PARITY[j] == ODD else 1
                lhs = combine(((1, mul(x, y)), (-sign, mul(y, x))))
                if lhs != combine((c, ops[t]) for t, c in BRACKETS.get((i, j), {}).items()):
                    raise OracleError(f"[{BASIS[i]}, {BASIS[j]}] does not act as BRACKETS says")


def realize(label: FinLabel) -> Gl11MatrixModule:
    """Standard matrix realization of a labelled module.

    Basis conventions: Verma (v, psi- v) with psi- acting by coefficient 1;
    Projective (v, psi+ v, psi- v, psi+ psi- v).
    """
    if isinstance(label, Verma):
        n, e = label.n, label.e
        half = Fraction(1, 2)
        n_diag, e_diag = {(0, 0): n + half, (1, 1): n - half}, {(0, 0): e, (1, 1): e}
        return Gl11MatrixModule(2, (EVEN, ODD), n_diag, e_diag, {(0, 1): e}, {(1, 0): 1})
    if isinstance(label, Atypical):
        return Gl11MatrixModule(1, (EVEN,), {(0, 0): label.n}, {}, {}, {})
    if isinstance(label, Projective):
        n = label.n
        # basis v, psi+ v, psi- v, psi+ psi- v; note psi- psi+ v = -psi+ psi- v
        return Gl11MatrixModule(
            4,
            (EVEN, ODD, ODD, EVEN),
            {(0, 0): n, (1, 1): n + 1, (2, 2): n - 1, (3, 3): n},
            {},
            {(1, 0): 1, (3, 2): 1},
            {(2, 0): 1, (3, 1): -1},
        )
    raise TypeError(f"unknown label {label!r}")


def tensor(a: Gl11MatrixModule, b: Gl11MatrixModule) -> Gl11MatrixModule:
    """Graded tensor product with the coproduct action X -> X(x)1 + 1(x)X.

    Basis vector v_i (x) w_j has index i * b.dim + j.  On it the second term
    carries the Koszul sign (-1)^{|X||v_i|}, so for the odd generators the
    identity factor is replaced by the parity sign of the first tensor leg.
    Only nonzero entries of the factors are visited.
    """
    bd = b.dim

    def build(xa: Entries, xb: Entries, odd: bool) -> Entries:
        out = {(k * bd + j, i * bd + j): v for (k, i), v in xa.items() for j in range(bd)}
        for i in range(a.dim):
            negate = odd and a.parity[i] == ODD
            for (l, j), v in xb.items():
                key = (i * bd + l, i * bd + j)
                out[key] = out.get(key, _ZERO) + (-v if negate else v)
        return out

    parity = tuple((p + q) % 2 for p in a.parity for q in b.parity)
    return Gl11MatrixModule(
        a.dim * bd,
        parity,
        build(a.N, b.N, odd=False),
        build(a.E, b.E, odd=False),
        build(a.psi_p, b.psi_p, odd=True),
        build(a.psi_m, b.psi_m, odd=True),
    )


def l0_top_matrix(m: Gl11MatrixModule, k) -> Entries:
    """Zero-mode Virasoro action (1/k)(N E - psi+ psi-) + E/(2k) + E^2/(2k^2)."""
    k = _f(k)
    if k == 0:
        raise ValueError("level k must be nonzero")
    return combine(
        (
            (1 / k, mul(m.N, m.E)),
            (-1 / k, mul(m.psi_p, m.psi_m)),
            (Fraction(1, 2) / k, m.E),
            (Fraction(1, 2) / (k * k), mul(m.E, m.E)),
        )
    )


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

    The module must be given in a weight basis: N and E diagonal, so basis
    vector i has weight (e, n) = (E[i, i], N[i, i]), and every nonzero entry
    of psi+- maps weight (e, n) into (e, n +- 1).  Anything else raises
    :class:`OracleError`.  Basis vectors are grouped by e and then by n.  On
    an e != 0 block the N-spectrum is matched greedily into pairs
    (c + 1/2, c - 1/2) giving Verma multiplicities.  On the e = 0 block each
    rank is the rank of a small block between weight spaces: psi+ from n to
    n+1, psi- from n to n-1, and the weight-n block of the product psi+ psi-,
    which passes through weight n-1.  The Projective count at
    n is rank(psi+ psi- | N=n); the Verma and Atypical multiplicities are
    solved from the N-spectrum and the psi+- ranks, and any statistic
    mismatch raises :class:`OracleError`.
    """
    spaces: dict[Fraction, dict[Fraction, list[int]]] = {}
    for i, (e_val, n_val) in enumerate(_weights(m)):
        spaces.setdefault(e_val, {}).setdefault(n_val, []).append(i)
    result: dict[FinLabel, int] = {}
    for e_val, n_bases in sorted(spaces.items()):
        if e_val != 0:
            _decompose_typical_block(e_val, n_bases, result)
        else:
            _decompose_zero_block(m, n_bases, result)
    return result


def _weights(m: Gl11MatrixModule) -> list[tuple[Fraction, Fraction]]:
    """Weight (e, n) of each basis vector; OracleError unless a weight basis."""
    if any(r != c for r, c in m.N) or any(r != c for r, c in m.E):
        raise OracleError("N and E must be diagonal (a weight basis)")
    weights = [(m.E.get((i, i), _ZERO), m.N.get((i, i), _ZERO)) for i in range(m.dim)]
    for a, step in ((m.psi_p, 1), (m.psi_m, -1)):
        for r, c in a:
            e_val, n_val = weights[r]
            if weights[c] != (e_val, n_val - step):
                raise OracleError("psi+- must map weight (e, n) into (e, n +- 1)")
    return weights


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
        candidate = realize(label)
        for i in range(candidate.dim):
            n_val = candidate.N.get((i, i), _ZERO)
            rest[n_val] = rest.get(n_val, 0) - count
    if any(a < 0 for a in rest.values()):
        raise OracleError("N-spectrum statistics infeasible on the E=0 block")
    found += [(Atypical(n), a) for n, a in rest.items() if a]
    for label, count in found:
        result[label] = result.get(label, 0) + count
