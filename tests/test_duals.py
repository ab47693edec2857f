"""Duals, coevaluations and evaluations in the matrix oracle, against the label layer's contragredient."""

from fractions import Fraction
from random import Random

from gl11kl import oracle as o
from gl11kl.labels import AtypicalA, ProjectiveP, TypicalV, contragredient

import _draws
from _dual_oracle import act, coact, coevaluation, coevaluation_mirror, dual, evaluation, evaluation_mirror, zigzag

F = Fraction


def _labels(rng: Random, count: int) -> list:
    """Seeded V, A(n;0) and P(n;0), in turn: the labels with a finite-dimensional shadow and a contragredient."""
    kinds = (TypicalV, AtypicalA, ProjectiveP)
    return [_draws.typical(rng) if i % 3 == 0 else kinds[i % 3](_draws.rational(rng), 0) for i in range(count)]


def _is_invariant(product: o.Gl11MatrixModule, vector: dict, apply=act) -> bool:
    """Is vector of weight zero and killed by psi+ and psi- of the product, as apply acts?

    ``act`` tests a vector, and ``coact`` a functional.
    """
    zero = (F(0), F(0))
    weights = product.weights
    return all(weights[i] == zero for i in vector) and not apply(product.psi_p, vector) and not apply(product.psi_m, vector)


def _modules(seed: int) -> list:
    """Seeded shadows of V, A(n;0) and P(n;0), and one product, V (x) P, of 8 dims."""
    modules = [o.realize(o.fin_label_of(x)) for x in _labels(Random(seed), 24)]
    return modules + [o.tensor(modules[0], modules[2])]


def test_dual_realizes_the_contragredient():
    # the dual of each shadow is a module, decomposes as the shadow of the
    # label's contragredient, and its own dual decomposes as the shadow
    labels = [TypicalV(F(1, 4), F(1, 2)), TypicalV(F(-2, 3), F(1, 3)), AtypicalA(F(1, 2), 0), ProjectiveP(F(1, 3), 0)]
    labels += _labels(Random(41), 45)
    for x in labels:
        m = o.realize(o.fin_label_of(x))
        d = dual(m)
        d.validate()
        assert o.decompose(d) == {o.fin_label_of(contragredient(x)): 1}, x
        assert o.decompose(dual(d)) == o.decompose(m), x


def test_dual_of_a_product_is_the_reversed_product_of_duals():
    rng = Random(43)
    labels = _labels(rng, 30)
    rng.shuffle(labels)
    for a, b in zip(labels[::2], labels[1::2]):
        ma, mb = o.realize(o.fin_label_of(a)), o.realize(o.fin_label_of(b))
        got = o.decompose(dual(o.tensor(ma, mb)))
        assert got == o.decompose(o.tensor(dual(mb), dual(ma))), (a, b)


def test_coevaluations_are_invariant_with_their_own_signs():
    # each sum is killed by psi+- in its product, and the other sign is not
    # on a module with a nonzero odd operator, so a sign slip shows
    for m in _modules(44):
        d = dual(m)
        right, left = o.tensor(m, d), o.tensor(d, m)
        assert _is_invariant(right, coevaluation(m)), m
        assert _is_invariant(left, coevaluation_mirror(m)), m
        if m.psi_p or m.psi_m:
            assert not _is_invariant(right, coevaluation_mirror(m)), m
            assert not _is_invariant(left, coevaluation(m)), m


def test_evaluations_are_invariant_with_their_own_signs():
    # ev on M* (x) M unsigned, its mirror on M (x) M* signed; the other
    # sign fails on a module with a nonzero odd operator
    for m in _modules(45):
        d = dual(m)
        left, right = o.tensor(d, m), o.tensor(m, d)
        assert _is_invariant(left, evaluation(m), coact), m
        assert _is_invariant(right, evaluation_mirror(m), coact), m
        if m.psi_p or m.psi_m:
            assert not _is_invariant(left, evaluation_mirror(m), coact), m
            assert not _is_invariant(right, evaluation(m), coact), m


def test_zigzag_identities():
    # (id (x) ev)(coev (x) id) = id on M, and the mirror pair's on M*: the
    # mirror's two signs (-1)^{|i|} cancel, and a slip in either shows on
    # the odd basis vectors, which all but the 1-dim A(n;0) have
    modules = _modules(46)
    assert sum(any(m.parity) for m in modules) >= 16
    for m in modules:
        identity = {(k, k): 1 for k in range(m.dim)}
        assert zigzag(coevaluation(m), evaluation(m), m.dim) == identity, m
        assert zigzag(coevaluation_mirror(m), evaluation_mirror(m), m.dim) == identity, m
