"""Duals, coevaluations and evaluations of the matrix oracle's modules: the tests' rigidity check.

The dual M* of a module M has the dual basis e^i, of the parity of e_i and
the negated weight, and each odd operator acts by
(psi f)(v) = -(-1)^{|f|} f(psi v), that is psi*_ij = -(-1)^{|j|} psi_ji.
The naive -psi^T breaks {psi+, psi-} = E on a Verma module, so
``Gl11MatrixModule.validate`` alone tells the two apart.

Under the Koszul sign of the oracle's ``tensor``, which puts (-1)^{|v|} on
v (x) psi w, the coevaluation sends 1 to sum_i e_i (x) e^i in M (x) M*, and
its mirror sends 1 to sum_i (-1)^{|i|} e^i (x) e_i in M* (x) M, the sign
of moving e^i past e_i.  Each is basis vector i * dim + i of its product,
and each is invariant, of weight zero and killed by psi+-, only with its
own sign: an odd psi joins basis vectors of opposite parity, so the
unsigned and the signed sums cannot both be killed.  (The negated dual,
psi*_ij = -(-1)^{|i|} psi_ji, is isomorphic to this one and swaps the two
signs.)

The evaluations are the functionals that pair these: ev on M* (x) M sends
e^i (x) e_j to delta_ij, and its mirror on M (x) M* sends e_i (x) e^j to
(-1)^{|i|} delta_ij.  A functional f on a module is invariant when f psi = 0
for psi+- and f vanishes off weight zero.  All four maps are even, so
id (x) ev takes no Koszul sign (-1)^{|ev| |e_a|}, and each zig-zag,
(id (x) ev)(coev (x) id) on M and its mirror on M*, is one sum over the
middle index of the triple product.

All are built from the package's public Fraction views and constructor
only.  Pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

from gl11kl.oracle import Gl11MatrixModule


def dual(m: Gl11MatrixModule) -> Gl11MatrixModule:
    """M*, through the public constructor: weights negated, psi*_ij = -(-1)^{|j|} psi_ji."""
    parity = m.parity

    def transpose(psi: dict) -> dict:
        return {(c, r): -(-1) ** parity[r] * v for (r, c), v in psi.items()}

    weights = [(-e, -n) for e, n in m.weights]
    return Gl11MatrixModule(parity, weights, transpose(m.psi_p), transpose(m.psi_m))


def coevaluation(m: Gl11MatrixModule) -> dict:
    """sum_i e_i (x) e^i, the image of 1 in M (x) M*, as {basis index of the product: coefficient}."""
    return {i * m.dim + i: 1 for i in range(m.dim)}


def coevaluation_mirror(m: Gl11MatrixModule) -> dict:
    """sum_i (-1)^{|i|} e^i (x) e_i, the image of 1 in M* (x) M, as {basis index: coefficient}."""
    return {i * m.dim + i: (-1) ** p for i, p in enumerate(m.parity)}


def act(psi: dict, vector: dict) -> dict:
    """psi applied to a vector {index: coefficient}; zero sums are dropped."""
    out: dict = {}
    for (r, c), v in psi.items():
        if c in vector:
            out[r] = out.get(r, 0) + v * vector[c]
    return {r: v for r, v in out.items() if v}


def evaluation(m: Gl11MatrixModule) -> dict:
    """ev: e^i (x) e_j -> delta_ij on M* (x) M, as {basis index of the product: value}; zeros are left out."""
    return {i * m.dim + j: 1 for i in range(m.dim) for j in range(m.dim) if i == j}


def evaluation_mirror(m: Gl11MatrixModule) -> dict:
    """e_i (x) e^j -> (-1)^{|i|} delta_ij on M (x) M*, as {basis index of the product: value}."""
    return {i * m.dim + j: (-1) ** m.parity[i] for i in range(m.dim) for j in range(m.dim) if i == j}


def coact(psi: dict, functional: dict) -> dict:
    """The functional f psi, for f given as {index: value}: psi transposed applied to f."""
    return act({(c, r): v for (r, c), v in psi.items()}, functional)


def zigzag(unit: dict, counit: dict, dim: int) -> dict:
    """(id (x) counit)(unit (x) id) on a module of dimension dim, as {(row, column): entry}.

    unit is a vector of a product A (x) B and counit a functional on
    B (x) A, each keyed by the product's basis index a * dim + b: the
    composite sends e_k to the sum over a, b of unit[a, b] counit[b, k] e_a.
    """
    out: dict = {}
    for x, u in unit.items():
        a, b = divmod(x, dim)
        for k in range(dim):
            v = counit.get(b * dim + k, 0)
            if v:
                out[a, k] = out.get((a, k), 0) + u * v
    return {key: v for key, v in out.items() if v}
