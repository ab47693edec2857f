"""Duals and coevaluations in the matrix oracle, against the label layer's contragredient."""

from fractions import Fraction
from random import Random

from gl11kl import oracle as o
from gl11kl.labels import AtypicalA, ProjectiveP, TypicalV, contragredient

import _draws
from _dual_oracle import act, coevaluation, coevaluation_mirror, dual

F = Fraction


def _labels(rng: Random, count: int) -> list:
    """Seeded V, A(n;0) and P(n;0), in turn: the labels with a finite-dimensional shadow and a contragredient."""
    kinds = (TypicalV, AtypicalA, ProjectiveP)
    return [_draws.typical(rng) if i % 3 == 0 else kinds[i % 3](_draws.rational(rng), 0) for i in range(count)]


def _is_invariant(product: o.Gl11MatrixModule, vector: dict) -> bool:
    """Is vector of weight zero and killed by psi+ and psi- of the product?"""
    zero = (F(0), F(0))
    weights = product.weights
    return all(weights[i] == zero for i in vector) and not act(product.psi_p, vector) and not act(product.psi_m, vector)


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
    rng = Random(44)
    modules = [o.realize(o.fin_label_of(x)) for x in _labels(rng, 24)]
    modules.append(o.tensor(modules[0], modules[2]))  # V (x) P, 8 dims
    for m in modules:
        d = dual(m)
        right, left = o.tensor(m, d), o.tensor(d, m)
        assert _is_invariant(right, coevaluation(m)), m
        assert _is_invariant(left, coevaluation_mirror(m)), m
        if m.psi_p or m.psi_m:
            assert not _is_invariant(right, coevaluation_mirror(m)), m
            assert not _is_invariant(left, coevaluation(m)), m
