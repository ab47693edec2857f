"""Matrix realizations, tensor products and the decomposition oracle."""

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from gl11kl import oracle as o
from gl11kl.errors import OracleError
from gl11kl.fusion import fuse, fuse_formal
from gl11kl.labels import AtypicalA, FormalSum, ProjectiveP, TypicalV, VermaV0

import _bracket_oracle as ref
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
    """Bilinear extension of the tests' sparse basis superbracket table BRACKETS."""
    out = [F(0)] * 4
    for (i, j), terms in ref.BRACKETS.items():
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
    assert m.weights == ((0, 0),) and m.parity == (0,)
    assert not m.psi_p and not m.psi_m


def test_realize_verma_half_one():
    m = o.realize(o.Verma(F(1, 2), 1))
    assert m.weights == ((1, 1), (1, 0))
    assert ref.cartan(m) == ({(0, 0): 1}, {(0, 0): 1, (1, 1): 1})
    # psi+ applied to psi- v gives v back
    assert o.mul(m.psi_p, m.psi_m)[0, 0] == 1


def test_realize_projective_zero():
    m = o.realize(o.Projective(0))
    assert sorted(n for _, n in m.weights) == [-1, 0, 0, 1]
    assert all(e == 0 for e, _ in m.weights)


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
        ref.check_brackets(o.realize(label))
    shadow = o.fin_label_of(VermaV0(F(-5, 2), 0))
    assert shadow == o.Verma(F(-5, 2), 0)
    ref.check_brackets(o.realize(shadow))
    with pytest.raises(TypeError, match="unknown label"):
        o.realize(AtypicalA(0, 0))  # a category label, not its finite shadow


def _module(parity, n, psi_p, psi_m, e=None):
    """A module from its N-weights (E = e, default 0) and dense psi+- rows."""
    weights = tuple(zip(e or [0] * len(n), n))
    return o.Gl11MatrixModule(tuple(parity), weights, _entries(psi_p), _entries(psi_m))


def _entries(rows) -> dict:
    return {(i, j): F(v) for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def _dense(entries: dict, dim: int) -> tuple:
    return tuple(tuple(entries.get((i, j), F(0)) for j in range(dim)) for i in range(dim))


def test_constructor_rejects_parity_of_wrong_length():
    # dim is len(parity), so a parity one short of the weights is caught there
    with pytest.raises(OracleError, match="weights has 2 entries, not dim = 1"):
        o.Gl11MatrixModule((0,), ((0, 0), (0, 1)), {}, {})
    assert o.Gl11MatrixModule((0, 1), ((0, 0), (0, 1)), {}, {}).dim == 2


def test_constructor_rejects_parity_other_than_0_or_1():
    # parity 2 on V(1/2;1)'s matrices once passed validate and decomposed,
    # and only its tensor products (which reduce parity mod 2) failed
    v = o.realize(o.Verma(F(1, 2), 1))
    for parity in ((0, 2), (0, -1), (F(1, 2), 1), ("0", 1)):
        with pytest.raises(OracleError, match="parity entries must be 0 or 1"):
            o.Gl11MatrixModule(parity, v.weights, v.psi_p, v.psi_m)


def test_constructor_rejects_key_outside_dim():
    with pytest.raises(OracleError, match=re.escape("psi_m entry (2, 0) lies outside a 2-dim module")):
        o.Gl11MatrixModule((0, 1), ((0, 0), (0, 0)), {}, {(2, 0): 1})
    with pytest.raises(OracleError, match=re.escape("psi_p entry (0, -1) lies outside")):
        o.Gl11MatrixModule((0, 1), ((0, 0), (0, 0)), {(0, -1): 1}, {})


def test_zero_entries_are_dropped():
    m = o.Gl11MatrixModule((0, 1), (("1/2", 1), (0, F(0))), {(0, 1): F(0)}, {(1, 0): 1, (0, 1): "0"})
    assert m.weights == ((F(1, 2), 1), (0, 0)) and all(type(x) is F for w in m.weights for x in w)
    assert m.psi_p == {} and m.psi_m == {(1, 0): 1} and type(m.psi_m[1, 0]) is F
    assert m == o.Gl11MatrixModule((0, 1), [(F(1, 2), F(1)), (F(0), F(0))], {}, {(1, 0): F(1)})
    # sums that cancel leave no entry behind
    assert o.mul({(0, 0): 1, (0, 1): 1}, {(0, 0): F(1), (1, 0): F(-1), (1, 1): F(2)}) == {(0, 1): 2}
    # at n = -e/2k the L0 diagonal cancels psi+ psi- / k, and no entry is left
    assert o.l0_top_matrix(o.realize(o.Verma(F(-1, 2), 1)), 1) == {}


def test_validate_rejects_broken_modules():
    v = o.realize(o.Verma(F(1, 2), 1))
    broken = [
        # psi- doubled: {psi+, psi-} = 2E, every other relation holds
        ("[psi+, psi-]", o.Gl11MatrixModule(v.parity, v.weights, v.psi_p, ref.combine([(2, v.psi_m)]))),
        # the Verma's own matrices on two even vectors: psi+- keep parity
        ("psi+ breaks", o.Gl11MatrixModule((0, 0), v.weights, v.psi_p, v.psi_m)),
        # psi+ climbs 0 -> 1 -> 2 on E = 0 weights: psi+ psi+ sends the bottom to the top
        ("psi+ squared", _module((0, 1, 0), [0, 1, 2], [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [])),
        # psi+ joins N-weights 0 and 2, a step of 2
        ("psi+- must map weight", _module((0, 1), [0, 2], [[0, 0], [1, 0]], [])),
        # psi+ steps n from 0 to 1 but also moves e from 0 to 1
        ("psi+- must map weight", _module((0, 1), [0, 1], [[0, 0], [1, 0]], [], e=[0, 1])),
    ]
    for where, m in broken:
        with pytest.raises(OracleError, match=re.escape(where)):
            m.validate()
        with pytest.raises(OracleError):
            ref.check_brackets(m)


def _weight_draw(rng, e_values, off_step=0, flip=0) -> o.Gl11MatrixModule:
    """A random weight-basis matrix module; many draws are not gl(1|1)-modules.

    N-weights are integers n with parity n mod 2, flipped with probability
    flip, and E-weights come from e_values.  Each psi+- slot that steps n by
    +-1 at equal e holds a small integer half the time, and any other slot
    does so with probability off_step.
    """
    dim = rng.randint(1, 5)
    n = [rng.randint(-2, 2) for _ in range(dim)]
    e = [rng.choice(e_values) for _ in range(dim)]
    maps = [
        {
            (r, c): rng.randint(-2, 2)
            for r in range(dim)
            for c in range(dim)
            if (n[r] == n[c] + step and e[r] == e[c] or rng.random() < off_step) and rng.random() < 0.5
        }
        for step in (1, -1)
    ]
    parity = tuple((x + (rng.random() < flip)) % 2 for x in n)
    return o.Gl11MatrixModule(parity, tuple(zip(e, n)), *maps)


def _perturbed_product(rng) -> o.Gl11MatrixModule:
    """A product of one or two realized modules, with one psi+- entry changed half the time."""
    labels = [o.Verma(rng.randint(-2, 2), rng.choice((0, 1, F(-1, 2)))), o.Projective(rng.randint(-1, 1))]
    m = o.realize(rng.choice(labels))
    if rng.random() < 0.5:
        m = o.tensor(m, o.realize(rng.choice(labels)))
    maps = {"psi_p": m.psi_p, "psi_m": m.psi_m}
    which = rng.choice(sorted(maps))
    if maps[which] and rng.random() < 0.5:
        psi = maps[which] = dict(maps[which])
        psi[rng.choice(sorted(psi))] += rng.choice((-1, 1))
        m = o.Gl11MatrixModule(m.parity, m.weights, **maps)
    return m


def _draw_families(rng) -> dict:
    """Seeded weight-basis draws and perturbed products; many are not modules."""
    return {
        "E = 0": [_weight_draw(rng, (0,)) for _ in range(1200)],
        "e != 0": [_weight_draw(rng, (0, 1, F(-1, 2))) for _ in range(300)],
        "off-step": [_weight_draw(rng, (0, 1), off_step=0.2) for _ in range(300)],
        "parity": [_weight_draw(rng, (0,), flip=0.2) for _ in range(300)],
        "products": [_perturbed_product(rng) for _ in range(200)],
    }


def _passes(check, m) -> bool:
    try:
        check(m)
    except OracleError:
        return False
    return True


def test_validate_agrees_with_bracket_reference():
    # validate checks four relations; the reference checks all sixteen
    # brackets and the parity of all four basis elements
    for family, draws in _draw_families(Random(61)).items():
        verdicts = set()
        for m in draws:
            verdict = _passes(o.Gl11MatrixModule.validate, m)
            assert verdict == _passes(ref.check_brackets, m), (family, m)
            verdicts.add(verdict)
        assert verdicts == {True, False}, family


def test_tensor_with_unit_is_isomorphic():
    unit = o.realize(o.Atypical(0))
    m = o.realize(o.Verma(F(3, 4), F(2, 5)))
    t = o.tensor(unit, m)
    assert t == m
    t2 = o.tensor(m, unit)
    assert o.decompose(t2) == {o.Verma(F(3, 4), F(2, 5)): 1}


def test_tensor_is_a_module_map():
    rng = Random(5)
    for _ in range(25):
        a = o.realize(o.Verma(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 3)))
        b = o.realize(rng.choice((o.Projective(F(rng.randint(-3, 3))), o.Atypical(F(rng.randint(-3, 3), 2)))))
        o.tensor(a, b).validate()
        o.tensor(b, a).validate()


def tensor_by_zero_adds(a, b):
    """The former tensor: each second-leg psi entry is added onto the map, from zero if absent."""
    bd = b.dim

    def build(xa, xb):
        out = {(k * bd + j, i * bd + j): v for (k, i), v in xa.items() for j in range(bd)}
        for i, p in enumerate(a.parity):
            for (l, j), v in xb.items():
                key = (i * bd + l, i * bd + j)
                out[key] = out.get(key, F(0)) + (-v if p == o.ODD else v)
        return out

    parity = tuple((p + q) % 2 for p in a.parity for q in b.parity)
    weights = tuple((ea + eb, na + nb) for ea, na in a.weights for eb, nb in b.weights)
    return o.Gl11MatrixModule(parity, weights, build(a.psi_p, b.psi_p), build(a.psi_m, b.psi_m))


def test_tensor_matches_zero_adds():
    # no module has a diagonal psi entry, so a key is hit twice only on these
    # hand-built inputs: the sums include v + v, v - v (dropped) and -v + v
    diagonal = _module([0, 1], [0, 1], [[2, 1], [0, 2]], [[1, 0], [3, -1]])
    other = _module([1, 0], [0, 0], [[2, 0], [1, 1]], [[0, 0], [0, 1]])
    cases = [(diagonal, diagonal), (diagonal, other), (other, diagonal), (other, other)]
    cases += [(o.realize(o.Projective(0)), o.realize(o.Verma(F(1, 2), F(1, 3)))),
              (o.realize(o.Atypical(F(1, 2))), o.realize(o.Projective(1)))]
    for a, b in cases:
        assert o.tensor(a, b) == tensor_by_zero_adds(a, b), (a, b)
    square = o.tensor(diagonal, diagonal).psi_p
    assert square[0, 0] == 4 and (3, 3) not in square  # 2 + 2, and 2 - 2 dropped


def test_tensor_verma_verma_spectrum():
    # direct 4x4 expectation: N eigenvalues are sums of factor eigenvalues
    a = o.realize(o.Verma(F(1, 2), 1))
    t = o.tensor(a, a)
    n, e = ref.cartan(t)
    assert sorted(n.get((i, i), 0) for i in range(4)) == [0, 1, 1, 2]
    assert e == {(i, i): 2 for i in range(4)}


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
    # n = 0 and e = 0: zero weights, and a psi+ entry that vanishes and is left out
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
    m = o.Gl11MatrixModule(parity=(0, 1), weights=((0, 0), (0, 1)), psi_p={(1, 0): 1}, psi_m={})
    m.validate()
    ref.check_brackets(m)
    with pytest.raises(OracleError, match="psi\\+ rank statistics infeasible"):
        o.decompose(m)


def test_decompose_rejects_overused_weight():
    # psi- chains weights 1 -> 0 -> -1 through one vector at 0, so psi-
    # squared is not zero and the relation check refuses the module before
    # any rank is taken; the former decompose, which skipped that check, got
    # past its ranks (Vermas at 1/2 and -1/2, both using the vector at 0) and
    # refused it only on the N-spectrum
    m = _module((0, 1, 0), [1, 0, -1], [], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(OracleError, match="psi- squared is not zero"):
        o.decompose(m)
    with pytest.raises(OracleError, match="N-spectrum"):
        decompose_by_fractions(m)


def test_decompose_rejects_psi_off_weight_step():
    # psi+ joins N-weights 0 and 2 (a step of 2, not 1)
    m = o.Gl11MatrixModule(parity=(0, 1), weights=((0, 0), (0, 2)), psi_p={(1, 0): 1}, psi_m={})
    with pytest.raises(OracleError, match="psi"):
        o.decompose(m)
    # psi- from e = 1 to e = 0, with the right step in n
    m = o.Gl11MatrixModule(parity=(0, 1), weights=((1, 1), (0, 0)), psi_p={}, psi_m={(1, 0): 1})
    with pytest.raises(OracleError, match="psi"):
        o.decompose(m)


def validate_by_fractions(m) -> None:
    """The former ``Gl11MatrixModule.validate``: the relations on Fraction entry maps."""
    _weight_steps_by_fractions(m)
    for name, x in (("psi+", m.psi_p), ("psi-", m.psi_m)):
        if any(m.parity[i] == m.parity[j] for i, j in x):
            raise OracleError(f"{name} breaks the parity of the module")
        if ref.mul(x, x):
            raise OracleError(f"{name} squared is not zero")
    e_diag = {(i, i): e for i, (e, _) in enumerate(m.weights) if e}
    if ref.combine(((1, ref.mul(m.psi_p, m.psi_m)), (1, ref.mul(m.psi_m, m.psi_p)))) != e_diag:
        raise OracleError("[psi+, psi-] does not act as E")


def _weight_steps_by_fractions(m) -> None:
    for a, step in ((m.psi_p, 1), (m.psi_m, -1)):
        for r, c in a:
            e_val, n_val = m.weights[r]
            if m.weights[c] != (e_val, n_val - step):
                raise OracleError("psi+- must map weight (e, n) into (e, n +- 1)")


def rank_by_division(a) -> int:
    """The former ``mat_rank``: Gauss-Jordan elimination over Fraction, dividing by each pivot."""
    rows = [[F(v) for v in r] for r in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
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


def _rank_blocks(rng) -> dict:
    """Seeded int blocks by shape: 0 rows or columns, 1 x k, k x 1, all-zero, proportional rows, huge entries."""

    def small():
        return rng.choice((0, 0, 1, -1, rng.randint(-9, 9)))

    def huge():
        return rng.choice((0, 1, -1)) * rng.randint(2**64, 2**80)

    def block(rows, cols, entry):
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    def proportional(rows, cols, entry):
        top = [entry() or 1 for _ in range(cols)]
        return [[c * v for v in top] for c in rng.choices((-3, -1, 1, 2, 5), k=rows)]

    sizes = [(rng.randint(2, 6), rng.randint(2, 6)) for _ in range(30)]
    return {
        "empty": [[], [[]], [[], [], []]],
        "one row": [block(1, k, entry) for k in range(1, 7) for entry in (small, huge, int)],
        "one column": [block(k, 1, entry) for k in range(1, 7) for entry in (small, huge, int)],
        "all zero": [block(r, c, int) for r, c in sizes],
        "proportional": [proportional(r, c, entry) for r, c in sizes for entry in (small, huge)],
        "dense": [block(r, c, small) for r, c in sizes],
        "huge": [block(r, c, huge) for r, c in sizes],
    }


def _sparse(block) -> list:
    """A block's rows as the ``{col: value}`` maps of their nonzero entries, which ``o._rank`` takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in block]


def _sparse_blocks(rng) -> dict:
    """Seeded sparse int blocks up to 40 x 40: 1-3 nonzeros per column, duplicated rows, rows that reduce to zero."""

    def small():
        return rng.choice((1, -1, 2, -3, rng.randint(1, 9)))

    def huge():
        return rng.choice((1, -1)) * rng.randint(2**64, 2**80)

    def permutation_like(rows, cols, entry):
        block = [[0] * cols for _ in range(rows)]
        for c in range(cols):
            for r in rng.sample(range(rows), min(rows, rng.randint(1, 3))):
                block[r][c] = entry()
        return block

    def duplicated(block):
        return [list(row) for row in block + rng.choices(block, k=rng.randint(1, len(block)))]

    def reducing(block):
        # rows that are int combinations of two others, so that each reduces to zero
        extra = []
        for _ in range(rng.randint(1, len(block))):
            a, b = rng.choice(block), rng.choice(block)
            x, y = rng.choice((-2, -1, 1, 3)), rng.choice((-1, 1, 2))
            extra.append([x * u + y * v for u, v in zip(a, b)])
        rows = block + extra
        rng.shuffle(rows)
        return rows

    sizes = [(40, 40), (40, 1), (1, 40)] + [(rng.randint(2, 40), rng.randint(2, 40)) for _ in range(9)]
    base = [permutation_like(r, c, entry) for r, c in sizes for entry in (small, huge)]
    return {
        "permutation-like": base,
        "duplicated rows": [duplicated(block) for block in base],
        "rows reducing to zero": [reducing(block) for block in base],
    }


def test_rank_matches_division_reference():
    # the sparse elimination on the nonzero entries of each block, and
    # mat_rank on the same blocks as ints and as Fractions, against
    # Gauss-Jordan elimination over Fraction
    rng = Random(43)
    ranks = set()
    for kind, blocks in (_rank_blocks(rng) | _sparse_blocks(rng)).items():
        for block in blocks:
            want = rank_by_division(block)
            assert o._rank(_sparse(block)) == o.mat_rank(block) == want, (kind, block)
            fractions = [[F(v, rng.randint(1, 9)) for v in row] for row in block]
            assert o.mat_rank(fractions) == rank_by_division(fractions), (kind, fractions)
            if kind == "proportional":
                assert want == 1, block
            if kind in ("duplicated rows", "rows reducing to zero"):
                assert want < len(block), block
            ranks.add(want)
    assert set(range(6)) <= ranks and max(ranks) >= 30


def test_mat_rank_rejects_ragged_rows():
    for rows in ([[1], [2, 3]], [[1, 2], [3]], [[F(1, 2), 0], [F(1, 3)]]):
        with pytest.raises(ValueError, match=re.escape("matrix rows must have one length, not [1, 2]")):
            o.mat_rank(rows)
    assert o.mat_rank([]) == o.mat_rank([[]]) == o.mat_rank([[], []]) == 0


def decompose_by_fractions(m) -> dict:
    """The former ``decompose``: Fraction weights and ranks, and only the weight steps checked.

    It returns labels for some inputs that are not modules, which is why the
    tests compare with it only on modules, and on non-modules only to show
    that it let them through.
    """
    _weight_steps_by_fractions(m)
    spaces = {}
    for i, (e_val, n_val) in enumerate(m.weights):
        spaces.setdefault(e_val, {}).setdefault(n_val, []).append(i)
    result = {}
    for e_val, n_bases in sorted(spaces.items()):
        if e_val == 0:
            _zero_block_by_fractions(m, n_bases, result)
            continue
        spectrum = {n: len(b) for n, b in n_bases.items()}
        while spectrum:
            top = max(spectrum)
            if spectrum.get(top - 1, 0) < 1:
                raise OracleError("N-spectrum on a typical block does not pair up")
            label = o.Verma(top - F(1, 2), e_val)
            result[label] = result.get(label, 0) + 1
            for key in (top, top - 1):
                spectrum[key] -= 1
                if spectrum[key] == 0:
                    del spectrum[key]
    return result


def _zero_block_by_fractions(m, n_bases, result) -> None:
    def block(a, n_to, n_from):
        return [[a.get((r, c), F(0)) for c in n_bases[n_from]] for r in n_bases.get(n_to, ())]

    ppm = ref.mul(m.psi_p, m.psi_m)
    proj = {n: r for n in n_bases if (r := rank_by_division(block(ppm, n, n)))}
    rank_p = {n: rank_by_division(block(m.psi_p, n + 1, n)) for n in n_bases}
    rank_m = {n: rank_by_division(block(m.psi_m, n - 1, n)) for n in n_bases}
    for n_val in n_bases:
        if rank_p[n_val] != proj.get(n_val, 0) + proj.get(n_val + 1, 0):
            raise OracleError("psi+ rank statistics infeasible on the E=0 block")
    verma = {}
    for n_val in n_bases:
        v = rank_m[n_val] - proj.get(n_val, 0) - proj.get(n_val - 1, 0)
        if v < 0:
            raise OracleError("psi- rank statistics infeasible on the E=0 block")
        if v:
            verma[n_val - F(1, 2)] = v
    found = [(o.Projective(n), p) for n, p in proj.items()]
    found += [(o.Verma(c, F(0)), v) for c, v in verma.items()]
    rest = {n: len(b) for n, b in n_bases.items()}
    for label, count in found:
        for _, n_val in realize_by_fractions(label).weights:
            rest[n_val] = rest.get(n_val, 0) - count
    if any(a < 0 for a in rest.values()):
        raise OracleError("N-spectrum statistics infeasible on the E=0 block")
    found += [(o.Atypical(n), a) for n, a in rest.items() if a]
    for label, count in found:
        result[label] = result.get(label, 0) + count


class Fields(namedtuple("Fields", "parity weights psi_p psi_m")):
    """A module's four fields as the former constructor stored them: Fraction weights and entries."""

    @property
    def dim(self) -> int:
        return len(self.parity)


def construct_by_fractions(parity, weights, psi_p, psi_m) -> Fields:
    """The former ``Gl11MatrixModule`` constructor: its checks, texts and Fraction-valued fields."""
    dim = len(parity)
    if any(p not in (o.EVEN, o.ODD) for p in parity):
        raise OracleError("parity entries must be 0 or 1")
    if len(weights) != dim:
        raise OracleError(f"weights has {len(weights)} entries, not dim = {dim}")
    weights = tuple((F(e), F(n)) for e, n in weights)
    maps = []
    for name, entries in (("psi_p", psi_p), ("psi_m", psi_m)):
        kept = {}
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise OracleError(f"{name} entry ({r}, {c}) lies outside a {dim}-dim module")
            v = F(v)
            if v:
                kept[r, c] = v
        maps.append(kept)
    return Fields(tuple(parity), weights, *maps)


def realize_by_fractions(label) -> Fields:
    """The former ``realize``: Fraction weights n +- 1/2 or n +- 1, and Fraction entries."""
    zero, half, one = F(0), F(1, 2), F(1)
    if isinstance(label, o.Verma):
        n, e = label.n, label.e
        psi_p = {(0, 1): e} if e else {}
        return Fields((0, 1), ((e, n + half), (e, n - half)), psi_p, {(1, 0): one})
    if isinstance(label, o.Atypical):
        return Fields((0,), ((zero, label.n),), {}, {})
    n = label.n
    weights = ((zero, n), (zero, n + 1), (zero, n - 1), (zero, n))
    return Fields((0, 1, 1, 0), weights, {(1, 0): one, (3, 2): one}, {(2, 0): one, (3, 1): -one})


def tensor_by_fractions(a, b) -> Fields:
    """The former ``tensor``: weights added as Fractions, and the Koszul sign on Fraction entries."""
    bd = b.dim

    def build(xa, xb):
        out = {(k * bd + j, i * bd + j): v for (k, i), v in xa.items() for j in range(bd)}
        for i, p in enumerate(a.parity):
            for (l, j), v in xb.items():
                key = (i * bd + l, i * bd + j)
                v = -v if p == o.ODD else v
                if key in out:
                    v += out.pop(key)
                    if not v:
                        continue
                out[key] = v
        return out

    parity = tuple((p + q) % 2 for p in a.parity for q in b.parity)
    weights = tuple((ea + eb, na + nb) for ea, na in a.weights for eb, nb in b.weights)
    return Fields(parity, weights, build(a.psi_p, b.psi_p), build(a.psi_m, b.psi_m))


def _assert_views(m, want: Fields) -> None:
    """m's fields are want's, value for value, with the types the former constructor stored."""
    assert Fields(*m._values()) == want, (m, want)
    _assert_as_constructed(m)


def _outcome(fn, m):
    """fn(m), or the text of the OracleError it raises."""
    try:
        return fn(m)
    except OracleError as exc:
        return str(exc)


def _products(rng, count):
    """Seeded tensor products of one to three realized modules, up to 64 dims."""
    for _ in range(count):
        labels = [
            rng.choice(
                (
                    o.Verma(_draws.rational(rng), rng.choice((F(0), _draws.rational(rng)))),
                    o.Atypical(_draws.rational(rng)),
                    o.Projective(F(rng.randint(-3, 3), rng.choice((1, 2)))),
                )
            )
            for _ in range(rng.randint(1, 3))
        ]
        module = o.realize(labels[0])
        for lbl in labels[1:]:
            module = o.tensor(module, o.realize(lbl))
        yield module


def test_validate_texts_match_fraction_reference():
    # the same verdict and the same first failure, in the former order
    texts = set()
    for draws in _draw_families(Random(71)).values():
        for m in draws:
            want = _outcome(validate_by_fractions, m)
            assert _outcome(o.Gl11MatrixModule.validate, m) == want, m
            texts.add(want)
    assert texts == {
        None,
        "psi+- must map weight (e, n) into (e, n +- 1)",
        "psi+ breaks the parity of the module",
        "psi- breaks the parity of the module",
        "psi+ squared is not zero",
        "psi- squared is not zero",
        "[psi+, psi-] does not act as E",
    }


def test_decompose_matches_fraction_reference_on_products():
    outcomes = set()
    for m in _products(Random(72), 300):
        want = decompose_by_fractions(m)
        assert o.decompose(m) == want, m
        outcomes.add(frozenset(type(lbl) for lbl in want))
    assert {o.Verma, o.Atypical, o.Projective} == set().union(*outcomes)


def test_decompose_matches_fraction_reference_on_modules():
    # on draws that validate accepts, the same labels or the same error text;
    # the only error the former decompose raised on a module is the psi+
    # ranks', so its psi- rank, E = 0 N-spectrum and typical pairing errors,
    # gone from decompose, never fired on one
    errors, decomposed = set(), 0
    for draws in _draw_families(Random(73)).values():
        for m in draws:
            if not _passes(o.Gl11MatrixModule.validate, m):
                continue
            want = _outcome(decompose_by_fractions, m)
            assert _outcome(o.decompose, m) == want, m
            if isinstance(want, str):
                errors.add(want)
            else:
                decomposed += 1
    assert errors == {"psi+ rank statistics infeasible on the E=0 block"}
    assert decomposed > 1000


def test_decompose_refuses_every_non_module():
    # the recipe of the draws that found the former decompose returning labels
    # for non-modules: E = 0, integer N, parity n mod 2, plus the other
    # families; decompose now raises validate's text on each of them
    rng = Random(74)
    families = {"recipe": [_weight_draw(rng, (0,)) for _ in range(4000)], **_draw_families(rng)}
    for family, draws in families.items():
        rejected = let_through = 0
        for m in draws:
            text = _outcome(o.Gl11MatrixModule.validate, m)
            if text is None:
                continue
            rejected += 1
            assert _outcome(o.decompose, m) == text, (family, m)
            let_through += not isinstance(_outcome(decompose_by_fractions, m), str)
        # the former decompose returned labels for some of each family
        assert rejected > 80 and let_through >= 4, (family, rejected, let_through)


def test_hand_built_copy_decomposes_like_realize():
    # no mark on realize or tensor output: a module built by hand from the
    # same data, given as ints and strings and its parity as a tuple or a
    # list, is the same module
    v, p = o.Verma(F(2, 3), F(5, 7)), o.Projective(F(1, 2))
    for labels in ([v], [p], [o.Atypical(F(-3, 4))], [p, v], [v, o.Verma(F(-2, 3), F(-5, 7))], [p, p, v]):
        m = o.realize(labels[0])
        for lbl in labels[1:]:
            m = o.tensor(m, o.realize(lbl))
        for parity in (tuple, list):
            copy = o.Gl11MatrixModule(
                parity(int(x) for x in m.parity),
                [(str(e), str(n)) for e, n in m.weights],
                {key: int(x) if x.denominator == 1 else str(x) for key, x in m.psi_p.items()},
                {key: str(x) for key, x in m.psi_m.items()},
            )
            assert copy == m and copy is not m
            assert o.decompose(copy) == o.decompose(m) == decompose_by_fractions(m), labels
    assert o.Gl11MatrixModule(m.parity, m.weights, m.psi_p, m.psi_m).parity is m.parity


def test_modules_are_unhashable_and_compare_by_fields():
    # the psi+- maps are dicts, so the field tuple cannot hash: the error
    # names the class, and equality still reads the fields
    m = o.realize(o.Projective(0))
    with pytest.raises(TypeError, match="unhashable type: 'Gl11MatrixModule'"):
        hash(m)
    with pytest.raises(TypeError, match="unhashable"):
        {m}
    same = o.Gl11MatrixModule(list(m.parity), m.weights, dict(m.psi_p), dict(m.psi_m))
    assert same == m and not same != m and same is not m
    assert o.realize(o.Projective(1)) != m and m.__eq__(m.weights) is NotImplemented


def test_a_write_into_a_view_leaves_the_module_as_it_was():
    # each read builds fresh views, so a write into one changes that copy
    # only: the module reads, prints, compares and rebuilds as before, and
    # the rebuilt module validates and decomposes as the module does
    p, v = o.realize(o.Projective(F(1, 3))), o.realize(o.Verma(F(1, 2), 1))
    modules = [v, p, o.realize(o.Atypical(F(-2))), o.tensor(p, v), o.tensor(v, v)]
    for m in modules:
        before = (m.weights, m.psi_p, m.psi_m, repr(m), o.l0_top_matrix(m, 3), o.decompose(m))
        for view in (m.psi_p, m.psi_m):
            for key in view:
                view[key] += 1
            view[0, 0] = F(5)  # a key outside the weight steps
        assert (m.weights, m.psi_p, m.psi_m, repr(m), o.l0_top_matrix(m, 3)) == before[:5]
        copy = o.Gl11MatrixModule(m.parity, m.weights, m.psi_p, m.psi_m)
        assert m == copy
        copy.validate()
        assert o.decompose(copy) == o.decompose(m) == before[5]
    # the reproduction that drifted when the views were kept
    m = o.realize(o.Verma(F(1, 2), 1))
    m.psi_m[1, 0] = 2
    copy = o.Gl11MatrixModule(m.parity, m.weights, m.psi_p, m.psi_m)
    assert m.psi_m == {(1, 0): 1} and m == copy
    copy.validate()
    assert o.decompose(copy) == {o.Verma(F(1, 2), 1): 1}


def _assert_as_constructed(m) -> None:
    """m equals the public constructor's module on its own data, field by field and type by type."""
    twin = o.Gl11MatrixModule(m.parity, m.weights, m.psi_p, m.psi_m)
    for name in o.Gl11MatrixModule._fields:
        assert getattr(m, name) == getattr(twin, name), name
    assert type(m.parity) is tuple and all(type(p) is int and p in (0, 1) for p in m.parity)
    assert type(m.weights) is tuple and all(type(w) is tuple and len(w) == 2 for w in m.weights)
    assert all(type(x) is F for w in m.weights for x in w)
    for x in (m.psi_p, m.psi_m):
        assert type(x) is dict and all(type(v) is F and v != 0 for v in x.values())


def _assert_no_shared_dicts(modules) -> None:
    """No two modules share a stored psi map, and none is a module-level dict of the oracle.

    The stored int maps ``_p`` and ``_q`` are read: the views are built on
    each read, and a dropped view's id may be handed to the next one.
    """
    ids = [id(getattr(m, name)) for m in modules for name in ("_p", "_q")]
    assert len(set(ids)) == len(ids)
    assert not set(ids) & {id(v) for v in vars(o).values() if isinstance(v, dict)}


def test_realize_builds_what_the_constructor_builds():
    # realize stores through the trusted builder: the same fields and types
    # as the checked constructor, with the zero psi+ entry of a Verma at
    # e = 0 left out, and fresh dicts on every call
    rng = Random(31)
    labels = [o.fin_label_of(VermaV0(F(-5, 2), 0)), o.Verma(F(1, 2), 0), o.Verma(0, 1)]
    labels += [o.Atypical(0), o.Projective(0)]
    for _ in range(60):
        n = _draws.rational(rng)
        labels.append(rng.choice((o.Verma(n, _draws.rational(rng)), o.Verma(n, 0), o.Atypical(n), o.Projective(n))))
    modules = []
    for label in labels:
        for _ in range(2):
            m = o.realize(label)
            _assert_as_constructed(m)
            modules.append(m)
    assert o.realize(labels[0]).psi_p == {}  # VermaV0(n; 0) maps to the Verma at e = 0
    _assert_no_shared_dicts(modules)


def test_tensor_builds_what_the_constructor_builds():
    # seeded products of one to three factors, with each partial product:
    # every module as the constructor would store it, and no dict shared
    # with a factor, another product or the oracle module
    rng = Random(32)
    modules = []
    for _ in range(40):
        factors = [
            rng.choice((o.Verma(_draws.rational(rng), rng.choice((F(0), _draws.rational(rng)))),
                        o.Atypical(_draws.rational(rng)), o.Projective(F(rng.randint(-3, 3), rng.choice((1, 2))))))
            for _ in range(rng.randint(1, 3))
        ]
        module = o.realize(factors[0])
        modules.append(module)
        for label in factors[1:]:
            factor = o.realize(label)
            module = o.tensor(module, factor)
            modules += [factor, module]
    for m in modules:
        _assert_as_constructed(m)
    _assert_no_shared_dicts(modules)
    # hand-built factors with diagonal entries, where tensor sums a key twice
    diagonal = _module([0, 1], [0, 1], [[2, 1], [0, 2]], [[1, 0], [3, -1]])
    products = [o.tensor(diagonal, diagonal), o.tensor(diagonal, modules[0]), o.tensor(modules[0], diagonal)]
    for m in products:
        _assert_as_constructed(m)
    _assert_no_shared_dicts([diagonal, *modules, *products])


def _rescaled(m, mu) -> o.Gl11MatrixModule:
    """m with psi+ times mu and psi- over mu, through the constructor: still a module when m is.

    Its entry denominators need not divide the weights' denominator, so its
    one scale d can exceed the lcm of its weight denominators, as no realized
    module's or product's does.
    """
    return o.Gl11MatrixModule(
        m.parity, m.weights, {k: v * mu for k, v in m.psi_p.items()}, {k: v / mu for k, v in m.psi_m.items()}
    )


def test_views_and_decompose_match_fraction_references():
    # seeded products of one to three factors, each partial product built by
    # realize and tensor on ints and by the former Fraction bodies: the same
    # fields, and decompose gives the former decompose's labels
    rng = Random(33)
    kinds, modules = set(), []
    for _ in range(60):
        factors = [
            rng.choice((o.Verma(_draws.rational(rng), rng.choice((F(0), _draws.rational(rng)))),
                        o.Atypical(_draws.rational(rng)), o.Projective(F(rng.randint(-3, 3), rng.choice((1, 2, 3))))))
            for _ in range(rng.randint(1, 3))
        ]
        module, want = o.realize(factors[0]), realize_by_fractions(factors[0])
        _assert_views(module, want)
        for label in factors[1:]:
            factor, factor_want = o.realize(label), realize_by_fractions(label)
            _assert_views(factor, factor_want)
            modules.append(factor)
            module, want = o.tensor(module, factor), tensor_by_fractions(want, factor_want)
            _assert_views(module, want)
        modules.append(module)
        labels = o.decompose(module)
        assert labels == decompose_by_fractions(want), factors
        kinds.update(type(x) for x in labels)
    assert kinds == {o.Verma, o.Atypical, o.Projective}
    _assert_no_shared_dicts(modules)


def test_rescaled_modules_match_fraction_references():
    # modules whose scale comes from their entries, not their weights, from
    # the public constructor, alone and in products with realized modules on
    # either side
    rng = Random(34)
    apart = 0
    for _ in range(40):
        label = rng.choice((o.Verma(_draws.rational(rng), _draws.rational(rng)), o.Projective(_draws.rational(rng))))
        mu = rng.choice((F(1, 3), F(2, 5), F(-7), F(5, 4)))
        m = _rescaled(o.realize(label), mu)
        want = realize_by_fractions(label)
        want = Fields(want.parity, want.weights, {k: v * mu for k, v in want.psi_p.items()},
                      {k: v / mu for k, v in want.psi_m.items()})
        _assert_views(m, want)
        apart += m._d != lcm(*(x.denominator for w in m.weights for x in w))
        other = rng.choice((o.Verma(_draws.rational(rng), _draws.rational(rng)), o.Atypical(_draws.rational(rng))))
        o_m, o_want = o.realize(other), realize_by_fractions(other)
        for a, b, a_want, b_want in ((m, o_m, want, o_want), (o_m, m, o_want, want), (m, m, want, want)):
            product = o.tensor(a, b)
            product_want = tensor_by_fractions(a_want, b_want)
            _assert_views(product, product_want)
            assert o.decompose(product) == decompose_by_fractions(product_want)
    assert apart >= 20


def test_constructor_matches_fraction_reference():
    # the same fields, or the same error text, on the draws of the validate
    # tests given as Fractions and as strings, and with a bad parity or key
    draws = [m for family in _draw_families(Random(75)).values() for m in family[:100]]
    for m in draws:
        for convert in (F, str):
            weights = [(convert(e), convert(n)) for e, n in m.weights]
            psi_p, psi_m = ({k: convert(v) for k, v in x.items()} for x in (m.psi_p, m.psi_m))
            cases = [(m.parity, weights, psi_p, psi_m), ((2, *m.parity[1:]), weights, psi_p, psi_m),
                     (m.parity, weights[1:], psi_p, psi_m), (m.parity, weights, psi_p, {**psi_m, (0, m.dim): 1})]
            for args in cases:
                want = _outcome(lambda a: construct_by_fractions(*a), args)
                got = _outcome(lambda a: o.Gl11MatrixModule(*a), args)
                if isinstance(want, str):
                    assert got == want, args
                else:
                    _assert_views(got, want)


def _fin_product(rng, kinds):
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
        total = fuse(labels[0], labels[1])
        for lbl in labels[2:]:
            total = fuse_formal(total, FormalSum(lbl))
        try:
            return labels, {o.fin_label_of(lbl): mult for lbl, mult in total.items()}
        except ValueError:  # an ehat sum hit a nonzero integer: no finite shadow
            continue


def test_decompose_triple_products_match_fusion():
    rng = Random(41)
    shapes = ["PPP"] + [rng.choice(("VVV", "VVA", "VAP", "AAP", "VVP", "APP", "VPP", "PPP")) for _ in range(30)]
    cases = [_fin_product(rng, kinds) for kinds in shapes]
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


def test_decompose_four_factor_products_match_fusion():
    # seeded four-fold products of V, A(n;0) and P(n;0), from 16 to 256 dims,
    # against fusion and against Fraction weights and division ranks
    rng = Random(44)
    shapes = ["PPPP", "VVVV", "AAAA"] + ["".join(rng.choice("VAP") for _ in range(4)) for _ in range(45)]
    dims, kinds = set(), set()
    for labels, want in [_fin_product(rng, shape) for shape in shapes]:
        module = o.realize(o.fin_label_of(labels[0]))
        for lbl in labels[1:]:
            module = o.tensor(module, o.realize(o.fin_label_of(lbl)))
        assert o.decompose(module) == want == decompose_by_fractions(module), labels
        dims.add(module.dim)
        kinds.update(map(type, want))
    assert max(dims) == 256 and min(dims) == 1
    assert kinds == {o.Verma, o.Atypical, o.Projective}


def test_decompose_five_factor_products_match_fusion():
    # P(0)^5 (1,024 dims) and P P V V V (128 dims) against fusion
    rng = Random(45)
    p = ProjectiveP(0, 0)
    total = FormalSum(p)
    for _ in range(4):
        total = fuse_formal(total, FormalSum(p))
    cases = [([p] * 5, {o.fin_label_of(lbl): mult for lbl, mult in total.items()}), _fin_product(rng, "PPVVV")]
    dims = []
    for labels, want in cases:
        module = o.realize(o.fin_label_of(labels[0]))
        for lbl in labels[1:]:
            module = o.tensor(module, o.realize(o.fin_label_of(lbl)))
        assert o.decompose(module) == want, labels
        dims.append(module.dim)
    assert dims == [1024, 128]


def test_decompose_ranks_only_the_nonzero_e0_entries(monkeypatch):
    # the rank kernel receives exactly the nonzero E = 0 entries of psi+ psi-,
    # psi+ and psi-, one call per weight-space pair that holds any, and no
    # call for a pair that holds none
    calls = []
    rank = o._rank

    def counted(rows):
        calls.append(sum(map(len, rows)))
        return rank(rows)

    monkeypatch.setattr(o, "_rank", counted)
    p = o.realize(o.Projective(0))
    module = o.tensor(p, p)
    for _ in range(2):
        module = o.tensor(module, p)
        calls.clear()
        o.decompose(module)
        w = module.weights
        pairs, entries = set(), 0
        for name, x in (("pq", o.mul(module.psi_p, module.psi_m)), ("p", module.psi_p), ("q", module.psi_m)):
            for r, c in x:
                if w[c][0] == 0:
                    pairs.add((name, w[r][1], w[c][1]))
                    entries += 1
        assert sum(calls) == entries and len(calls) == len(pairs) and 0 not in calls, (module.dim, calls)
    assert module.dim == 256 and entries == 2048


def _direct_sum(parts: dict) -> o.Gl11MatrixModule:
    mods = [o.realize(lbl) for lbl, mult in parts.items() for _ in range(mult)]
    offsets = [sum(x.dim for x in mods[:i]) for i in range(len(mods) + 1)]

    def block_diagonal(name):
        return {(off + i, off + j): v for x, off in zip(mods, offsets) for (i, j), v in getattr(x, name).items()}

    parity = tuple(p for x in mods for p in x.parity)
    weights = tuple(w for x in mods for w in x.weights)
    return o.Gl11MatrixModule(parity, weights, block_diagonal("psi_p"), block_diagonal("psi_m"))


def _dense_invariants(m, n_values, e_values):
    """dim, N- and E-spectra, rank psi+, psi- and psi+ psi- of the whole module.

    Every operator is densified to its full dim x dim table here, and every
    rank is of a full-dimensional matrix.  The spectra are eigenvalue
    multiplicities dim - rank(X - lam) over the candidate eigenvalues; they
    add up to dim only if the candidates exhaust a semisimple spectrum.  No
    weight basis is assumed.
    """
    n, e, psi_p, psi_m = (_dense(x, m.dim) for x in ref.operators(m))

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
        direct = _direct_sum(o.decompose(module))
        e_values = {e for e, _ in direct.weights}
        n_values = {n for _, n in direct.weights}
        assert _dense_invariants(module, n_values, e_values) == _dense_invariants(direct, n_values, e_values), labels
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
        for x in ref.cartan(m):
            assert o.mul(l0, x) == o.mul(x, l0)
