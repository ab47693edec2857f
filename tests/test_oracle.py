"""Matrix realizations, tensor products and the decomposition oracle."""

import re
from fractions import Fraction
from random import Random

import pytest

from gl11kl import oracle as o
from gl11kl.errors import OracleError
from gl11kl.fusion import fuse, fuse_formal
from gl11kl.labels import AtypicalA, FormalSum, ProjectiveP, TypicalV

import _draws

F = Fraction


def apply_automorphism(lam, mu, element) -> tuple:
    """Apply the automorphism N -> N + lam*E, psi+- -> mu*psi+-, E -> mu^2*E."""
    mu = F(mu)
    if mu == 0:
        raise ValueError("automorphism requires mu != 0")
    lam = F(lam)
    n, e, pp, pm = (F(v) for v in element)
    return (n, e * mu**2 + n * lam, pp * mu, pm * mu)


def test_automorphism_identity():
    for vec in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        assert apply_automorphism(0, 1, vec) == tuple(F(v) for v in vec)


def bracket(a, b) -> tuple:
    """Bilinear extension of the sparse basis superbracket table BRACKETS."""
    out = [F(0)] * 4
    for (i, j), terms in o.BRACKETS.items():
        for t, c in terms.items():
            out[t] += F(a[i]) * F(b[j]) * c
    return tuple(out)


def test_automorphism_preserves_brackets():
    lam, mu = F(3), F(1, 2)
    basis = [tuple(F(1) if t == i else F(0) for t in range(4)) for i in range(4)]
    for a in basis:
        for b in basis:
            lhs = apply_automorphism(lam, mu, bracket(a, b))
            rhs = bracket(apply_automorphism(lam, mu, a), apply_automorphism(lam, mu, b))
            assert lhs == rhs


def test_automorphism_rejects_mu_zero():
    with pytest.raises(ValueError):
        apply_automorphism(1, 0, (1, 0, 0, 0))


def test_realize_atypical_trivial():
    m = o.realize(o.Atypical(0))
    assert m.dim == 1
    assert not m.N and not m.E
    assert not m.psi_p and not m.psi_m


def test_realize_verma_half_one():
    m = o.realize(o.Verma(F(1, 2), 1))
    assert m.N == {(0, 0): 1}
    assert m.E == {(0, 0): 1, (1, 1): 1}
    # psi+ applied to psi- v gives v back
    assert o.mul(m.psi_p, m.psi_m)[0, 0] == 1


def test_realize_projective_zero():
    m = o.realize(o.Projective(0))
    assert sorted(m.N.get((i, i), 0) for i in range(4)) == [-1, 0, 0, 1]
    assert not m.E


def test_realized_modules_satisfy_brackets():
    rng = Random(11)
    for _ in range(100):
        n = F(rng.randint(-12, 12), rng.randint(1, 4))
        e = F(rng.randint(-12, 12), rng.randint(1, 4))
        kind = rng.choice(("V", "A", "P"))
        if kind == "V":
            label = o.Verma(n, e)
        elif kind == "A":
            label = o.Atypical(n)
        else:
            label = o.Projective(n)
        o.realize(label).validate()


def _module(parity, n, e, psi_p, psi_m):
    """A module from dense rows, stored as entry maps."""
    return o.Gl11MatrixModule(len(parity), tuple(parity), *(_entries(x) for x in (n, e, psi_p, psi_m)))


def _entries(rows) -> dict:
    return {(i, j): F(v) for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def _dense(entries: dict, dim: int) -> tuple:
    return tuple(tuple(entries.get((i, j), F(0)) for j in range(dim)) for i in range(dim))


def test_constructor_rejects_parity_of_wrong_length():
    with pytest.raises(OracleError, match="parity has 1 entries, not dim = 2"):
        o.Gl11MatrixModule(2, (0,), {}, {}, {}, {})


def test_constructor_rejects_key_outside_dim():
    with pytest.raises(OracleError, match=re.escape("psi_m entry (2, 0) lies outside a 2-dim module")):
        o.Gl11MatrixModule(2, (0, 1), {}, {}, {}, {(2, 0): 1})
    with pytest.raises(OracleError, match=re.escape("N entry (0, -1) lies outside")):
        o.Gl11MatrixModule(2, (0, 1), {(0, -1): 1}, {}, {}, {})


def test_zero_entries_are_dropped():
    m = o.Gl11MatrixModule(2, (0, 1), {(0, 0): "1/2", (1, 1): 0}, {(0, 1): F(0)}, {}, {(1, 0): 1})
    assert m.N == {(0, 0): F(1, 2)} and type(m.N[0, 0]) is F
    assert m == o.Gl11MatrixModule(2, (0, 1), {(0, 0): F(1, 2)}, {}, {}, {(1, 0): F(1)})
    # sums that cancel leave no entry behind
    assert o.mul({(0, 0): 1, (0, 1): 1}, {(0, 0): F(1), (1, 0): F(-1), (1, 1): F(2)}) == {(0, 1): 2}
    assert o.combine([(1, m.N), (-1, m.N), (0, m.psi_m)]) == {}


def test_validate_rejects_broken_modules():
    v = o.realize(o.Verma(F(1, 2), 1))
    broken = {
        # psi- doubled: {psi+, psi-} = 2E, every other relation holds
        "[psi+, psi-]": o.Gl11MatrixModule(2, v.parity, v.N, v.E, v.psi_p, o.combine([(2, v.psi_m)])),
        # E does not commute with N
        "[N, E]": _module((0, 0), [[0, 0], [0, 1]], [[0, 1], [0, 0]], [], []),
        # brackets all hold, but N joins an even and an odd vector
        "N breaks": _module((0, 1), [[0, 1], [0, 0]], [], [], []),
        # the Verma's own matrices on two even vectors: psi+- keep parity
        "psi+ breaks": o.Gl11MatrixModule(2, (0, 0), v.N, v.E, v.psi_p, v.psi_m),
    }
    for where, m in broken.items():
        with pytest.raises(OracleError, match=re.escape(where)):
            m.validate()


def test_tensor_with_unit_is_isomorphic():
    unit = o.realize(o.Atypical(0))
    m = o.realize(o.Verma(F(3, 4), F(2, 5)))
    t = o.tensor(unit, m)
    assert (t.N, t.E, t.psi_p, t.psi_m) == (m.N, m.E, m.psi_p, m.psi_m)
    t2 = o.tensor(m, unit)
    assert o.decompose(t2) == {o.Verma(F(3, 4), F(2, 5)): 1}


def test_tensor_is_a_module_map():
    rng = Random(5)
    for _ in range(25):
        a = o.realize(o.Verma(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 3)))
        b = o.realize(rng.choice((o.Projective(F(rng.randint(-3, 3))), o.Atypical(F(rng.randint(-3, 3), 2)))))
        o.tensor(a, b).validate()
        o.tensor(b, a).validate()


def test_tensor_verma_verma_spectrum():
    # direct 4x4 expectation: N eigenvalues are sums of factor eigenvalues
    a = o.realize(o.Verma(F(1, 2), 1))
    t = o.tensor(a, a)
    assert sorted(t.N.get((i, i), 0) for i in range(4)) == [0, 1, 1, 2]
    assert t.E == {(i, i): 2 for i in range(4)}


def test_decompose_realize_roundtrip():
    rng = Random(23)
    for _ in range(100):
        n = F(rng.randint(-12, 12), rng.randint(1, 4))
        kind = rng.random()
        if kind < 0.4:
            e = F(rng.randint(1, 12), rng.randint(1, 4)) * rng.choice((1, -1))
            label = o.Verma(n, e)
        elif kind < 0.6:
            label = o.Verma(n, F(0))
        elif kind < 0.8:
            label = o.Atypical(n)
        else:
            label = o.Projective(n)
        assert o.decompose(o.realize(label)) == {label: 1}
    # n = 0 and e = 0: the N, E and psi+ entries that vanish are left out of the maps
    for label in (o.Atypical(0), o.Projective(0), o.Verma(F(1, 2), 0), o.Verma(F(-1, 2), 0), o.Verma(0, 1)):
        assert o.decompose(o.realize(label)) == {label: 1}


def test_decompose_typical_pair():
    t = o.tensor(o.realize(o.Verma(F(1, 2), 1)), o.realize(o.Verma(F(1, 2), 1)))
    assert o.decompose(t) == {o.Verma(F(3, 2), 2): 1, o.Verma(F(1, 2), 2): 1}


def test_decompose_tensor_families():
    # Verma x Verma: two Vermas when e + e' != 0, one projective when it is
    # (unless e = e' = 0); tensoring with an atypical shifts; atypicals multiply
    rng = Random(24)
    for _ in range(40):
        n, n2 = F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 3)
        e, e2 = F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 2)
        va, vb = o.realize(o.Verma(n, e)), o.realize(o.Verma(n2, e2))
        got = o.decompose(o.tensor(va, vb))
        if e + e2 != 0 or e == 0:  # at e = e' = 0 psi+ vanishes: no projective
            want = {o.Verma(n + n2 + F(1, 2), e + e2): 1, o.Verma(n + n2 - F(1, 2), e + e2): 1}
        else:
            want = {o.Projective(n + n2): 1}
        assert got == want
        at = o.realize(o.Atypical(n2))
        assert o.decompose(o.tensor(at, va)) == {o.Verma(n + n2, e): 1}
        assert o.decompose(o.tensor(at, o.realize(o.Atypical(n)))) == {o.Atypical(n + n2): 1}
    # n = 0 and e = 0, where the N, E and psi+ entries vanish
    zero_e = o.tensor(o.realize(o.Verma(F(1, 2), 0)), o.realize(o.Verma(F(-1, 2), 0)))
    zero_e.validate()
    assert o.decompose(zero_e) == {o.Verma(F(1, 2), 0): 1, o.Verma(F(-1, 2), 0): 1}
    assert o.decompose(o.tensor(o.realize(o.Atypical(0)), o.realize(o.Projective(0)))) == {o.Projective(0): 1}


def test_decompose_dual_pair_gives_projective():
    n, e = F(2, 3), F(5, 7)
    t = o.tensor(o.realize(o.Verma(n, e)), o.realize(o.Verma(-n, -e)))
    assert o.decompose(t) == {o.Projective(0): 1}


def test_decompose_rejects_lowest_weight_type():
    # a 2-dim module with psi+ raising and psi- zero satisfies all brackets
    # (E = 0) but is none of the three families; the psi+ rank statistics
    # cannot be explained by projectives, so decomposition must refuse
    m = o.Gl11MatrixModule(dim=2, parity=(0, 1), N={(1, 1): 1}, E={}, psi_p={(1, 0): 1}, psi_m={})
    m.validate()
    with pytest.raises(OracleError):
        o.decompose(m)


def test_decompose_rejects_overused_weight():
    # psi- chains weights 1 -> 0 -> -1 through one vector at 0 (psi- squared
    # is not zero): the ranks ask for Vermas at 1/2 and -1/2, which would
    # both use that vector, and psi+ = 0 passes every rank check
    m = _module((0, 1, 0), [[1, 0, 0], [0, 0, 0], [0, 0, -1]], [], [], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(OracleError, match="N-spectrum"):
        o.decompose(m)


def test_decompose_rejects_non_semisimple():
    m = o.Gl11MatrixModule(dim=2, parity=(0, 0), N={(0, 1): 1}, E={}, psi_p={}, psi_m={})
    with pytest.raises(OracleError):
        o.decompose(m)
    # the same Jordan block in E, with N diagonal
    m = o.Gl11MatrixModule(dim=2, parity=(0, 0), N={}, E={(0, 1): 1}, psi_p={}, psi_m={})
    with pytest.raises(OracleError, match="N and E must be diagonal"):
        o.decompose(m)


def test_decompose_rejects_non_weight_basis():
    # V(1/2;1) conjugated by S = [[1, 1], [0, 1]]: N stays semisimple with
    # eigenvalues 1 and 0 and the brackets survive, but N is no longer diagonal
    s, s_inv = _entries([[1, 1], [0, 1]]), _entries([[1, -1], [0, 1]])
    v = o.realize(o.Verma(F(1, 2), 1))
    conj = [o.mul(o.mul(s, x), s_inv) for x in (v.N, v.E, v.psi_p, v.psi_m)]
    m = o.Gl11MatrixModule(2, v.parity, *conj)
    assert o.combine([(1, o.mul(m.N, m.psi_m)), (-1, o.mul(m.psi_m, m.N))]) == o.combine([(-1, m.psi_m)])
    assert o.combine([(1, o.mul(m.psi_p, m.psi_m)), (1, o.mul(m.psi_m, m.psi_p))]) == m.E
    assert m.N[0, 1] != 0
    with pytest.raises(OracleError):
        o.decompose(m)


def test_decompose_rejects_psi_off_weight_step():
    # psi+ joins N-weights 0 and 2 (a step of 2, not 1)
    m = o.Gl11MatrixModule(dim=2, parity=(0, 1), N={(1, 1): 2}, E={}, psi_p={(1, 0): 1}, psi_m={})
    with pytest.raises(OracleError):
        o.decompose(m)


def _fin_triple(rng, kinds):
    """Labels of the given kinds ("V", "A", "P" at ell = 0) and their fusion."""
    while True:
        labels = []
        for kind in kinds:
            n = _draws.rational(rng)
            if kind == "V":
                labels.append(TypicalV(n, _draws.nonintegral(rng)))
            else:
                labels.append(AtypicalA(n, 0) if kind == "A" else ProjectiveP(n, 0))
        if kinds.count("V") >= 2 and rng.random() < 0.5:
            # an ehat sum of 0 puts a projective into the product
            i, j = [k for k, kind in enumerate(kinds) if kind == "V"][:2]
            labels[j] = TypicalV(labels[j].n, -labels[i].ehat)
        total = fuse_formal(fuse(labels[0], labels[1]), FormalSum(labels[2]))
        try:
            return labels, {o.fin_label_of(lbl): mult for lbl, mult in total.items()}
        except ValueError:  # an ehat sum hit a nonzero integer: no finite shadow
            continue


def test_decompose_triple_products_match_fusion():
    rng = Random(41)
    shapes = ["PPP"] + [rng.choice(("VVV", "VVA", "VAP", "AAP", "VVP", "APP", "VPP", "PPP")) for _ in range(30)]
    cases = [_fin_triple(rng, kinds) for kinds in shapes]
    # four-fold products: P(0)^4 (256 dims) and P(0)^3 V (128 dims)
    p = ProjectiveP(0, 0)
    for last in (p, TypicalV(_draws.rational(rng), _draws.nonintegral(rng))):
        labels = [p, p, p, last]
        total = FormalSum(p)
        for lbl in labels[1:]:
            total = fuse_formal(total, FormalSum(lbl))
        cases.append((labels, {o.fin_label_of(lbl): mult for lbl, mult in total.items()}))
    binomial = {0: 20, 1: 15, 2: 6, 3: 1}
    assert cases[-2][1] == {o.Projective(n): binomial[abs(n)] for n in range(-3, 4)}
    for labels, want in cases:
        module = o.realize(o.fin_label_of(labels[0]))
        for lbl in labels[1:]:
            module = o.tensor(module, o.realize(o.fin_label_of(lbl)))
        module.validate()
        assert o.decompose(module) == want, labels


def _direct_sum(parts: dict) -> o.Gl11MatrixModule:
    mods = [o.realize(lbl) for lbl, mult in parts.items() for _ in range(mult)]
    offsets = [sum(x.dim for x in mods[:i]) for i in range(len(mods) + 1)]

    def block_diagonal(name):
        return {(off + i, off + j): v for x, off in zip(mods, offsets) for (i, j), v in getattr(x, name).items()}

    parity = tuple(p for x in mods for p in x.parity)
    return o.Gl11MatrixModule(offsets[-1], parity, *(block_diagonal(x) for x in ("N", "E", "psi_p", "psi_m")))


def _dense_invariants(m, n_values, e_values):
    """dim, N- and E-spectra, rank psi+, psi- and psi+ psi- of the whole module.

    Every operator is densified to its full dim x dim table here, and every
    rank is of a full-dimensional matrix.  The spectra are eigenvalue
    multiplicities dim - rank(X - lam) over the candidate eigenvalues; they
    add up to dim only if the candidates exhaust a semisimple spectrum.  No
    weight basis is assumed.
    """
    n, e, psi_p, psi_m = (_dense(x, m.dim) for x in (m.N, m.E, m.psi_p, m.psi_m))

    def spectrum(x, candidates):
        def shifted(lam):
            return [[v - lam if i == j else v for j, v in enumerate(row)] for i, row in enumerate(x)]

        mults = {lam: m.dim - o.mat_rank(shifted(lam)) for lam in candidates}
        return {lam: k for lam, k in mults.items() if k}

    product = [[sum((a * b for a, b in zip(row, col) if a and b), F(0)) for col in zip(*psi_m)] for row in psi_p]
    return (
        m.dim,
        spectrum(n, n_values),
        spectrum(e, e_values),
        o.mat_rank(psi_p),
        o.mat_rank(psi_m),
        o.mat_rank(product),
    )


def test_decompose_matches_dense_invariants():
    # full-dimensional dense ranks, independent of the weight-space blocks
    rng = Random(42)
    checked = 0
    while checked < 40:
        labels = [
            rng.choice(
                (
                    o.Verma(_draws.rational(rng), rng.choice((F(0), _draws.rational(rng)))),
                    o.Atypical(_draws.rational(rng)),
                    o.Projective(F(rng.randint(-3, 3))),
                )
            )
            for _ in range(rng.choice((2, 3)))
        ]
        module = o.realize(labels[0])
        for lbl in labels[1:]:
            module = o.tensor(module, o.realize(lbl))
        if module.dim > 32:
            continue
        ref = _direct_sum(o.decompose(module))
        n_values = {ref.N.get((i, i), F(0)) for i in range(ref.dim)}
        e_values = {ref.E.get((i, i), F(0)) for i in range(ref.dim)}
        assert _dense_invariants(module, n_values, e_values) == _dense_invariants(ref, n_values, e_values), labels
        checked += 1


def test_l0_scalar_on_verma():
    for k in (F(1), F(2), F(-1, 2)):
        n, e = F(5, 4), F(3, 2)
        m = o.realize(o.Verma(n, e))
        want = (e / k) * (n + e / (2 * k))
        assert o.l0_top_matrix(m, k) == {(0, 0): want, (1, 1): want}


def test_l0_nilpotent_on_projective():
    m = o.realize(o.Projective(0))
    l0 = o.l0_top_matrix(m, 1)
    assert l0
    assert not o.mul(l0, l0)
    assert o.mat_rank(_dense(l0, m.dim)) == 1  # a single size-2 block


def test_l0_zero_on_atypical():
    m = o.realize(o.Atypical(F(7, 3)))
    assert not o.l0_top_matrix(m, 1)


def test_l0_rejects_zero_level():
    with pytest.raises(ValueError):
        o.l0_top_matrix(o.realize(o.Atypical(0)), 0)


def test_l0_commutes_with_cartan():
    rng = Random(3)
    for _ in range(20):
        label = rng.choice(
            (
                o.Verma(F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 2)),
                o.Projective(F(rng.randint(-4, 4), 2)),
                o.Atypical(F(rng.randint(-4, 4), 3)),
            )
        )
        m = o.realize(label)
        l0 = o.l0_top_matrix(m, F(3, 2))
        assert o.mul(l0, m.N) == o.mul(m.N, l0)
        assert o.mul(l0, m.E) == o.mul(m.E, l0)
