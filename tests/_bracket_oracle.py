"""The gl(1|1) bracket table and the full relations check: the oracle of the oracle tests.

``BASIS``, ``PARITY`` and ``BRACKETS`` are the former constants of
``gl11kl.oracle``, unchanged, and :func:`check_brackets` is the former body
of ``Gl11MatrixModule.validate``: it checks all sixteen superbrackets of the
table and the parity of all four basis elements.  The package stores a
weight per basis vector instead of N and E, and its ``validate`` checks only
the relations that a weight basis leaves open; the tests hold it to this
check, run on N and E rebuilt as diagonal entry maps by :func:`operators`.
:func:`mul` and :func:`combine` are this file's own entry-map arithmetic, so
the references share no code with the package's relations check.
"""

from __future__ import annotations

from gl11kl.errors import OracleError
from gl11kl.oracle import EVEN, ODD

BASIS = ("N", "E", "psi+", "psi-")
#: parity of each basis element, in the order of BASIS
PARITY = (EVEN, EVEN, ODD, ODD)
#: the six nonzero superbrackets [b_i, b_j] = sum_t c b_t as {(i, j): {t: c}}:
#: [N, psi+-] = +-psi+- and {psi+, psi-} = E; every other bracket is zero
BRACKETS = {(0, 2): {2: 1}, (2, 0): {2: -1}, (0, 3): {3: -1}, (3, 0): {3: 1},
            (2, 3): {1: 1}, (3, 2): {1: 1}}


def mul(a: dict, b: dict) -> dict:
    """Product a b of two entry maps {(row, col): value}; zero sums are dropped."""
    out: dict = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[i, j] = out.get((i, j), 0) + x * y
    return {key: v for key, v in out.items() if v}


def combine(terms) -> dict:
    """Linear combination sum c X over (c, X) pairs, X an entry map; zero sums are dropped."""
    out: dict = {}
    for c, x in terms:
        for key, v in x.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def cartan(m) -> tuple:
    """(N, E) of a module as diagonal entry maps, zero entries left out."""
    n = {(i, i): v for i, (_, v) in enumerate(m.weights) if v}
    e = {(i, i): v for i, (v, _) in enumerate(m.weights) if v}
    return n, e


def operators(m) -> tuple:
    """(N, E, psi+, psi-) of a module as entry maps, in the order of BASIS."""
    return (*cartan(m), m.psi_p, m.psi_m)


def check_brackets(m) -> None:
    """Check every superbracket of BRACKETS and parity of PARITY on m.

    For basis elements X, Y the module must satisfy
    XY - (-1)^{|X||Y|} YX = sum_t c_t X_t with c = ``BRACKETS[X, Y]``
    (zero where absent), and an odd X must swap the parity of a basis
    vector, an even one keep it.  Raises :class:`OracleError` on the first failure.
    """
    ops = operators(m)
    for name, x, parity in zip(BASIS, ops, PARITY):
        for i, j in x:
            if (m.parity[i] != m.parity[j]) != (parity == ODD):
                raise OracleError(f"{name} breaks the parity of the module")
    for i, x in enumerate(ops):
        for j, y in enumerate(ops):
            sign = -1 if PARITY[i] == PARITY[j] == ODD else 1
            lhs = combine(((1, mul(x, y)), (-sign, mul(y, x))))
            if lhs != combine((c, ops[t]) for t, c in BRACKETS.get((i, j), {}).items()):
                raise OracleError(f"[{BASIS[i]}, {BASIS[j]}] does not act as BRACKETS says")
