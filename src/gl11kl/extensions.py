"""Simple-current extension analysis: monodromy, locality, induction.

An extension is generated under fusion by a single atypical simple; the m-th
summand of the extension algebra is the m-th fusion power of the generator.
The two named extensions are the level -1/2 and level 1 realizations used
for sl(2|1):

* ``SL21_MINUS_HALF``: generator steps (a, b) = (1/2, -2), summands
  A(m - eps(m); -2m).
* ``SL21_LEVEL1``: generator steps (a, b) = (1/2, 1), summands A(eps(m); m).

Induction is fusion rule 1 applied to the generator powers.  Induction,
monodromy, locality and weight growth run on int keys or int pairs, and
each function's docstring states its closed form.  The monodromy exponent
is affine in m modulo the integers, which ``is_local`` relies on and the
additivity property test certifies.
``induced_equivalent`` and ``induced_projective_cover`` are library API like
``induce`` and ``is_local``, though nothing in the package calls them: they
state the paper's results on equivalent inductions and on projective covers.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import lcm

from .errors import Gl11Error
from .frozen import Frozen
from .fusion import _RULE_ORDER, _checked, _key, _label, _rules, fuse
from .labels import (
    _SIMPLE,
    AtypicalA,
    _new,
    ModuleLabel,
    TypicalV,
    _f,
    _int,
    _sign,
    _twice_epsilon2,
    delta,
    ehat,
    epsilon,
    is_simple,
    projective_cover,
    strip_parity,
)


class ExtensionSpec(Frozen):
    """A fusion group of atypical simple currents indexed by the integers.

    The m = 1 generator is A(a; b).  The numerator and denominator of a are
    also kept as ints, for the closed forms below.
    """

    __slots__ = ("name", "a", "b", "_ap", "_aq")

    def __init__(self, name: str, a: Fraction, b: int):
        a = _f(a)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", _int(b))
        object.__setattr__(self, "_ap", a.numerator)
        object.__setattr__(self, "_aq", a.denominator)

    @property
    def step(self) -> Fraction:
        """a - eps(b): the n-offset per unit of m, up to the eps terms."""
        return self.a - epsilon(self.b)

    def generator_of(self, m: int) -> AtypicalA:
        """The m-th summand: the m-th fusion power of the base generator.

        That is A(m step + eps(m b); m b), with n = _numerator / 2q for a = p/q.
        """
        m = _int(m)
        return _new(AtypicalA, _numerator(self, m), 2 * self._aq, m * self.b, 1)

    @classmethod
    def custom(cls, a, b) -> "ExtensionSpec":
        """Custom generator A(a; b); admissibility is advisory only.

        Warns when the generator violates the weight bound |b| <= 2*Delta or
        the integrality constraint 2(a - 1/2) b, which the named extensions
        satisfy; the label arithmetic is well defined regardless.
        """
        a, b = _f(a), _int(b)
        gen = AtypicalA(a, b)
        if abs(b) > 2 * delta(gen):
            warnings.warn(
                f"custom generator A({a};{b}) violates |ell| <= 2*Delta", stacklevel=2
            )
        if (2 * (a - Fraction(1, 2)) * b).denominator != 1:
            warnings.warn(
                f"custom generator A({a};{b}) violates the 2n*ell integrality constraint",
                stacklevel=2,
            )
        return cls(f"custom:{a},{b}", a, b)


SL21_MINUS_HALF = ExtensionSpec("sl21-neg-half", Fraction(1, 2), -2)
SL21_LEVEL1 = ExtensionSpec("sl21-level1", Fraction(1, 2), 1)


def _numerator(ext: ExtensionSpec, m: int) -> int:
    """2q n(generator_of(m)) for a = p/q: 2mp + sign(b)(sign(m) - m)q."""
    return 2 * m * ext._ap + _sign(ext.b) * (_sign(m) - m) * ext._aq


def _summands(base: ModuleLabel, ext: ExtensionSpec, ms) -> list:
    """fuse(base, ext.generator_of(m)).single() for each m in ms.

    Base and every generator power have int keys at d = lcm(2q, the
    denominators of base), for a = p/q, and rule 1 gives one key each.
    """
    if type(base) not in _RULE_ORDER:
        _checked(base, ext.generator_of(ms[0]))  # raises as fuse does
    q2 = 2 * ext._aq
    d = lcm(q2, base._nq, base._eq)
    key, r, b = _key(base, d), d // q2, ext.b
    return [_label(*_rules(key, (AtypicalA, _numerator(ext, m) * r, m * b), d), d) for m in ms]


def _monodromy(s: ModuleLabel, cp: int, cq: int, ell: int) -> tuple[int, int]:
    """The monodromy exponent of a simple s against c = A(cp/cq; l) as an unreduced (num, den) pair.

    With x = ehat(s) it is x (c.n + l - kappa) + l (s.n - kappa), with
    kappa = eps(l) for a typical s and eps2(s.ell, l) for an atypical one.
    With x = xp/xq, s.n = sp/sq and k2 = 2 kappa, the numerator of kappa
    (0 or +-1/2), the denominator is 2 xq cq sq; cp/cq need not be reduced.
    """
    xp, xq, sp, sq = s._ep, s._eq, s._np, s._nq  # x = ell over 1 for an atypical s
    k2 = _sign(ell) if type(s) is TypicalV else _twice_epsilon2(xp, ell)
    num = xp * (2 * cp + (2 * ell - k2) * cq) * sq + ell * (2 * sp - k2 * sq) * xq * cq
    return num, 2 * xq * cq * sq


def monodromy_exponent(s: ModuleLabel, c: AtypicalA) -> Fraction:
    """Delta(fuse(s, c)) - Delta(s) - Delta(c) for a simple-current c.

    The monodromy operator is exp(2 pi i <exponent>); triviality is
    integrality of the exponent, whose closed form ``_monodromy`` states.
    A simple s against an atypical c, or an atypical s against a typical c,
    which is that pair swapped; any other pair raises, as no such fusion is
    a single simple label.
    """
    if type(s) is AtypicalA and type(c) is TypicalV:
        s, c = c, s
    if type(c) is not AtypicalA or type(s) not in _SIMPLE:
        fuse(s, c).single()
        raise Gl11Error("monodromy is defined against a simple fusion output")
    return Fraction(*_monodromy(s, c._np, c._nq, c.ell))


def is_local(s: ModuleLabel, ext: ExtensionSpec) -> bool:
    """Trivial monodromy against the whole extension.

    The exponent against generator_of(m) is affine in m modulo the integers,
    so integrality at m = +-1 decides every m.  generator_of(m) is
    A(_numerator / 2q; m b) for a = p/q, and no label of it is built.
    """
    if type(s) not in _SIMPLE:
        monodromy_exponent(s, ext.generator_of(1))  # raises
    q2 = 2 * ext._aq
    for m in (1, -1):
        num, den = _monodromy(s, _numerator(ext, m), q2, m * ext.b)
        if num % den:
            return False
    return True


def induce(s: ModuleLabel, ext: ExtensionSpec, m_range: int) -> list[ModuleLabel]:
    """Summands of the induction for m = -m_range .. m_range, in order."""
    m_range = _int(m_range)
    if m_range < 0:
        raise ValueError(f"m_range must be non-negative, got {m_range}")
    return _summands(s, ext, range(-m_range, m_range + 1))


def induced_equivalent(s: ModuleLabel, s2: ModuleLabel, ext: ExtensionSpec) -> bool:
    """Do two simples induce to the same module?

    Equivalence means s2 = summand(m) for an integer m, and summand(m) moves
    ehat by m b and, for b = 0, n by m step: so m is the ehat offset over b,
    or the n offset over step, and with b = step = 0 every summand is s.
    """
    s, s2 = strip_parity(s), strip_parity(s2)
    if not (is_simple(s) and is_simple(s2)):
        raise ValueError("induced equivalence applies to simple labels")
    if type(s) is not type(s2):
        return False
    if ext.b:
        m = (ehat(s2) - ehat(s)) / ext.b
    elif ext.step:
        m = (s2.n - s.n) / ext.step
    else:
        return s == s2
    return m.denominator == 1 and _summands(s, ext, (int(m),))[0] == s2


def induced_projective_cover(
    s: ModuleLabel, ext: ExtensionSpec, m_range: int
) -> list[ModuleLabel]:
    """Summands of the projective cover of the induction of a local simple."""
    if not is_local(s, ext):
        raise Gl11Error("projective covers of inductions require a local base")
    return induce(projective_cover(s), ext, m_range)


class WeightGrowth(Frozen):
    """Exact growth law of the summand weights Delta(summand(m)) in m."""

    __slots__ = ("quadratic_coeff", "linear_coeff", "classification")


def weight_growth(s: ModuleLabel, ext: ExtensionSpec) -> WeightGrowth:
    """Delta(summand(m)) as an exact polynomial of degree <= 2 in m.

    With step = a - eps(b) and rate = step + b/2, the weights grow with
    quad = b rate.  A typical base V(n;ehat) follows one polynomial for every
    m, with linear coefficient b n + ehat (rate + b/2).  An atypical base
    A(n;l) has weights quad m^2 + lin m + const + |l + m b|/2, lin =
    l rate + b (n - eps(l) + l/2), so lin+- = lin +- |b|/2 as m -> +-inf.
    The linear coefficient reported is the one of m = -1..2: lin- when all
    four points lie on the m -> -inf side of the kink of |l + m b|, that is
    when b (l + 2b) <= 0, and lin+ otherwise; quad is always reported, even
    at 2l + b = 0, where those four points also lie on a parabola of
    coefficient quad + |b|/4 that the weights do not follow.
    The classification consults both directions so that flat or falling
    ones are never missed: positive quadratic growth is
    ``lowest_weight``; with no quadratic term, a direction along which the
    weights fall is ``spectral_flow_unbounded`` and an exactly flat
    direction is ``relaxed_flat``.

    On ints, for a = p/q: r = 2q rate = 2p + (b - sign b) q, and lin, lin+-
    are taken at d = lcm(2q g, n.den), g = ehat.den for V and 1 for A; one
    Fraction is built per returned coefficient.
    """
    if not is_simple(s):
        raise ValueError("weight growth applies to simple labels")
    b, p, q = ext.b, ext._ap, ext._aq
    r = 2 * p + (b - _sign(b)) * q
    n, nq = s._np, s._nq
    if isinstance(s, TypicalV):
        e, g = s._ep, s._eq
        d = lcm(2 * q * g, nq)
        lin = lin_pos = lin_neg = b * n * (d // nq) + e * (r + b * q) * (d // (2 * q * g))
    else:
        ell = s.ell
        d = lcm(2 * q, nq)
        h = d // 2
        # b (l/2 - eps(l)) = b (l - sign(l))/2, and b eps(b) = |b|/2
        lin = ell * r * (d // (2 * q)) + b * (n * (d // nq) + (ell - _sign(ell)) * h)
        lin_pos, lin_neg = lin + abs(b) * h, lin - abs(b) * h
        lin = lin_neg if b * (ell + 2 * b) <= 0 else lin_pos
    quad = b * r
    if quad > 0:
        cls = "lowest_weight"
    elif quad < 0:
        raise Gl11Error("summand weights are unbounded above and below")
    elif lin_pos < 0 or lin_neg > 0:
        cls = "spectral_flow_unbounded"
    elif lin_pos == 0 or lin_neg == 0:
        cls = "relaxed_flat"
    else:
        cls = "lowest_weight"
    return WeightGrowth(Fraction(quad, 2 * q), Fraction(lin, d), cls)
