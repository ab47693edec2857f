"""Simple-current extension analysis: monodromy, locality, induction.

An extension is generated under fusion by a single atypical simple; the m-th
summand of the extension algebra is the m-th fusion power of the generator,
which has the closed form A(m a - m eps(b) + eps(m b); m b) when the first
power is A(a; b).  The two named extensions are the level -1/2 and level 1
realizations used for sl(2|1):

* ``SL21_MINUS_HALF``: generator steps (a, b) = (1/2, -2), summands
  A(m - eps(m); -2m).
* ``SL21_LEVEL1``: generator steps (a, b) = (1/2, 1), summands A(eps(m); m).

Induction uses closed forms in place of fusion: with step = a - eps(b),
fusing with the m-th generator moves V(n;ehat) to V(n + m step; ehat + m b)
and A(n;l) or P(n;l) to the same kind at (n + m step - eps(l) + eps(l + m b);
l + m b), so the summand weights grow in m with quadratic coefficient
b (step + b/2).

Locality of an induced module is decided by integrality of the monodromy
exponents against the generators at m = +-1; the exponent is affine in m
modulo the integers, which the additivity property test certifies.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .errors import Gl11Error
from .frozen import Frozen
from .fusion import fuse
from .labels import (
    AtypicalA,
    ModuleLabel,
    ProjectiveP,
    TypicalV,
    _f,
    delta,
    epsilon,
    is_simple,
    projective_cover,
    strip_parity,
)


class ExtensionSpec(Frozen):
    """A fusion group of atypical simple currents indexed by the integers.

    The m = 1 generator is A(a; b).
    """

    __slots__ = ("name", "a", "b")

    def __init__(self, name: str, a: Fraction, b: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "a", _f(a))
        object.__setattr__(self, "b", int(b))

    @property
    def step(self) -> Fraction:
        """a - eps(b): the n-offset per unit of m, up to the eps terms."""
        return self.a - epsilon(self.b)

    def generator_of(self, m: int) -> AtypicalA:
        """The m-th summand: the m-th fusion power of the base generator."""
        m = int(m)
        return AtypicalA(
            m * self.a - m * epsilon(self.b) + epsilon(m * self.b), m * self.b
        )

    @classmethod
    def custom(cls, a, b) -> "ExtensionSpec":
        """Custom generator A(a; b); admissibility is advisory only.

        Warns when the generator violates the weight bound |b| <= 2*Delta or
        the integrality constraint 2(a - 1/2) b, which the named extensions
        satisfy; the label arithmetic is well defined regardless.
        """
        a, b = _f(a), int(b)
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


class InducedModule(Frozen):
    """Lazy view of the induction of a base label along an extension."""

    __slots__ = ("base", "extension")  # a ModuleLabel and an ExtensionSpec

    def summand(self, m: int) -> ModuleLabel:
        """fuse(base, generator_of(m)), always a single label, in closed form.

        With step = a - eps(b) the generator is A(m step + eps(m b); m b), so
        V(n;ehat) goes to V(n + m step; ehat + m b), and A(n;l) and P(n;l) go
        to the same kind at (n + m step - eps(l) + eps(l + m b); l + m b).
        A reducible Verma base raises as :func:`fuse` does.
        """
        base, ext = self.base, self.extension
        m = int(m)
        kind = type(base)
        if kind is TypicalV:
            return TypicalV(base.n + m * ext.step, base.ehat + m * ext.b)
        if kind is AtypicalA or kind is ProjectiveP:
            ell = base.ell + m * ext.b
            return kind(base.n + m * ext.step - epsilon(base.ell) + epsilon(ell), ell)
        return fuse(base, ext.generator_of(m)).single()


def monodromy_exponent(s: ModuleLabel, c: AtypicalA) -> Fraction:
    """Delta(fuse(s, c)) - Delta(s) - Delta(c) for a simple-current c.

    The monodromy operator is exp(2 pi i <exponent>); triviality is
    integrality of the exponent.  Requires the fusion output to be a single
    simple label, which holds whenever c is atypical and s is simple.
    """
    out = fuse(s, c)
    label = out.single()
    if not is_simple(label):
        raise Gl11Error("monodromy is defined against a simple fusion output")
    return delta(label) - delta(s) - delta(c)


def is_local(s: ModuleLabel, ext: ExtensionSpec) -> bool:
    """Trivial monodromy against the whole extension.

    The exponent against generator_of(m) is affine in m modulo the integers,
    so integrality at m = +-1 decides every m.
    """
    s = strip_parity(s)
    for m in (1, -1):
        if monodromy_exponent(s, ext.generator_of(m)).denominator != 1:
            return False
    return True


def induce(s: ModuleLabel, ext: ExtensionSpec, m_range: int) -> list[ModuleLabel]:
    """Summands of the induction for m = -m_range .. m_range, in order."""
    if m_range < 0:
        raise ValueError(f"m_range must be non-negative, got {m_range}")
    ind = InducedModule(strip_parity(s), ext)
    return [ind.summand(m) for m in range(-int(m_range), int(m_range) + 1)]


def induced_equivalent(s: ModuleLabel, s2: ModuleLabel, ext: ExtensionSpec) -> bool:
    """Do two simples induce to the same module?

    Solved in closed form: equivalence means s2 = fuse(s, generator_of(m))
    for some integer m, and the candidate m is pinned down by the ell (or,
    for a degenerate extension, the n) offset.
    """
    s, s2 = strip_parity(s), strip_parity(s2)
    if not (is_simple(s) and is_simple(s2)):
        raise ValueError("induced equivalence applies to simple labels")
    if type(s) is not type(s2):
        return False
    if ext.b != 0:
        if isinstance(s, TypicalV):
            offset = s2.ehat - s.ehat
        else:
            offset = Fraction(s2.ell - s.ell)
        ratio = offset / ext.b
        if ratio.denominator != 1:
            return False
        return InducedModule(s, ext).summand(int(ratio)) == s2
    # degenerate custom extension with no ell motion
    if ext.a == 0:
        return s == s2
    if isinstance(s, TypicalV) and s.ehat != s2.ehat:
        return False
    if isinstance(s, AtypicalA) and s.ell != s2.ell:
        return False
    offset = s2.n - s.n
    if (offset / ext.a).denominator != 1:
        return False
    m = int(offset / ext.a)
    return InducedModule(s, ext).summand(m) == s2


def induced_projective_cover(
    s: ModuleLabel, ext: ExtensionSpec, m_range: int
) -> list[ModuleLabel]:
    """Summands of the projective cover of the induction of a local simple."""
    s = strip_parity(s)
    if not is_local(s, ext):
        raise Gl11Error("projective covers of inductions require a local base")
    return induce(projective_cover(s), ext, m_range)


class WeightGrowth(Frozen):
    """Exact growth law of the summand weights Delta(summand(m)) in m."""

    __slots__ = ("quadratic_coeff", "linear_coeff", "classification")


def _fit_quadratic(points: list[tuple[int, Fraction]]):
    """Exact degree <= 2 interpolation through four points, or None."""
    (m0, d0), (m1, d1), (m2, d2), (m3, d3) = points
    # Newton's divided differences on the first three points
    f01 = (d1 - d0) / (m1 - m0)
    f12 = (d2 - d1) / (m2 - m1)
    f012 = (f12 - f01) / (m2 - m0)
    a = f012
    b = f01 - f012 * (m0 + m1)
    c = d0 - m0 * (b + a * m0)
    if a * m3 * m3 + b * m3 + c != d3:
        return None
    return a, b, c


def weight_growth(s: ModuleLabel, ext: ExtensionSpec) -> WeightGrowth:
    """Delta(summand(m)) as an exact polynomial of degree <= 2 in m.

    With step = a - eps(b), the weights grow with quad = b (step + b/2).  A
    typical base V(n;ehat) follows one polynomial for every m, with linear
    coefficient b n + ehat (step + b).  An atypical base A(n;l) follows
    lin+- = l (step + b/2) + b (n - eps(l) + l/2 +- eps(b)) as m -> +-inf,
    but can pick up piecewise-linear corrections near m = 0 from the
    half-integer step function: when the four points m in {-1, 0, 1, 2} lie
    on one polynomial, its coefficients are reported, and otherwise quad and
    lin+.  The classification consults both directions so that flat or
    falling ones are never missed: positive quadratic growth is
    ``lowest_weight``; with no quadratic term, a direction along which the
    weights fall is ``spectral_flow_unbounded`` and an exactly flat
    direction is ``relaxed_flat``.
    """
    s = strip_parity(s)
    if not is_simple(s):
        raise ValueError("weight growth applies to simple labels")
    b, step = ext.b, ext.step
    rate = step + Fraction(b, 2)
    quad = b * rate
    if isinstance(s, TypicalV):
        lin = lin_pos = lin_neg = b * s.n + s.ehat * (step + b)
    else:
        ell = s.ell
        lin_mid = ell * rate + b * (s.n - epsilon(ell) + Fraction(ell, 2))
        lin_pos, lin_neg = lin_mid + b * epsilon(b), lin_mid - b * epsilon(b)
        ind = InducedModule(s, ext)
        fit = _fit_quadratic([(m, delta(ind.summand(m))) for m in (-1, 0, 1, 2)])
        if fit is not None:
            quad, lin, _ = fit
        else:
            lin = lin_pos
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
    return WeightGrowth(quad, lin, cls)


def induced_character(n, ehat, m_range: int, q_cutoff) -> "characters.JacobiSeries":
    """Verified character of a typical induction along the (m, -2m) steps.

    Uses the level-1 normalization (ehat = e).  Expands the direct-sum side
    and the closed-form side of the character identity and returns the
    common value; a mismatch is an internal fault and raises.
    """
    from . import characters
    from .series import jacobi_equal_to_cutoff

    lhs, rhs = characters.char_induced_typical(n, ehat, m_range, q_cutoff)
    window = characters.induced_window(n, ehat, m_range, q_cutoff)
    if not jacobi_equal_to_cutoff(lhs, rhs, window):
        raise RuntimeError("induced character identity failed; implementation fault")
    return lhs
