"""Laws that tie fusion, monodromy and induction to one another.

Each closed form in the package is also checked against its own former body
(``fuse_nine_cases``, ``monodromy_by_fusion``, ``summand_by_fusion``); a
convention error made in both the new and the old body passes those checks.
The laws below hold in any braided tensor category with a simple-current
extension, so they check the layers against each other instead:

(a) monodromy against a simple current grades fusion,
(b) inducing along an extension commutes with fusing,
(c) local modules are closed under fusion, the label-level form of "local
    modules form a braided tensor subcategory" (Creutzig, Kanade and McRae,
    arXiv:1705.05017), which the sl(2|1) categories rest on.
"""

from random import Random

from gl11kl import extensions as ex
from gl11kl.fusion import fuse
from gl11kl.labels import AtypicalA, FormalSum, TypicalV, k_decompose

import _draws

NAMED = (ex.SL21_MINUS_HALF, ex.SL21_LEVEL1)


def _custom(rng):
    return ex.ExtensionSpec("custom", _draws.rational(rng), rng.randint(-4, 4))


def _factors(total):
    """Every composition factor of every summand of a formal sum."""
    return [f for label in total.labels() for f in k_decompose(label).labels()]


def test_monodromy_grades_fusion():
    rng = Random(3)
    checked = 0
    for _ in range(150):
        s, t = _draws.simple(rng), _draws.simple(rng)
        factors = _factors(fuse(s, t))
        for ext in NAMED + (_custom(rng), _custom(rng)):
            for m in (1, -1):
                c = ext.generator_of(m)
                base = ex.monodromy_exponent(s, c) + ex.monodromy_exponent(t, c)
                for f in factors:
                    grade = ex.monodromy_exponent(f, c) - base
                    assert grade.denominator == 1, (s, t, f, c)
                    checked += 1
    assert checked > 1000


def test_induction_commutes_with_fusion():
    rng = Random(4)
    for _ in range(60):
        s, t = _draws.simple(rng), _draws.simple(rng)
        product = fuse(s, t)
        for ext in NAMED + (_custom(rng), _custom(rng)):
            for m in (1, -1, 2, -2):  # summand m is at index 2 + m of the window
                lhs = fuse(ex.induce(s, ext, 2)[2 + m], t)
                rhs = FormalSum([(ex.induce(u, ext, 2)[2 + m], mult) for u, mult in product.items()])
                assert lhs == rhs, (s, t, ext, m)


def _local_labels(rng, ext, count):
    out = []
    while len(out) < count:
        s = _draws.simple(rng)
        if ex.is_local(s, ext):
            out.append(s)
    return out


def test_locality_is_closed_under_fusion():
    rng = Random(5)
    checked = 0
    for ext in NAMED:
        local = _local_labels(rng, ext, 36)
        assert {type(s) for s in local} == {TypicalV, AtypicalA}
        for i, s in enumerate(local):
            for t in local[i:]:
                for f in _factors(fuse(s, t)):
                    assert ex.is_local(f, ext), (s, t, f, ext.name)
                    checked += 1
    assert checked > 1000
