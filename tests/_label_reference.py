"""The label types and label functions as they stood when labels held Fractions.

Each class stores its fields as Fractions (and an int ell), as the package's
labels did before they stored ints; each function builds its result with
Fraction arithmetic from those fields.  ``tests/test_label_ints.py`` holds
the int path of ``gl11kl.labels`` and ``gl11kl.fusion`` to these, field by
field and in ``repr``, rendering, hashing and pickling.
"""

from __future__ import annotations

from fractions import Fraction

from gl11kl.frozen import Frozen
from gl11kl.labels import _LABEL_RE, _f, _int

_HALF = Fraction(1, 2)


class TypicalV(Frozen):
    __slots__ = ("n", "ehat", "parity_flip")

    def __init__(self, n, ehat, parity_flip=False):
        object.__setattr__(self, "n", _f(n))
        object.__setattr__(self, "ehat", _f(ehat))
        object.__setattr__(self, "parity_flip", parity_flip)
        if self.ehat.denominator == 1:
            raise ValueError("typical label requires ehat not an integer")


class AtypicalA(Frozen):
    __slots__ = ("n", "ell", "parity_flip")

    def __init__(self, n, ell, parity_flip=False):
        object.__setattr__(self, "n", _f(n))
        object.__setattr__(self, "ell", _int(ell))
        object.__setattr__(self, "parity_flip", parity_flip)


class VermaV0(Frozen):
    __slots__ = ("n", "ell", "parity_flip")
    __init__ = AtypicalA.__init__


class ProjectiveP(Frozen):
    __slots__ = ("n", "ell", "parity_flip")
    __init__ = AtypicalA.__init__


KINDS = {cls.__name__: cls for cls in (TypicalV, AtypicalA, VermaV0, ProjectiveP)}
_NAMES = {"TypicalV": "V", "AtypicalA": "A", "VermaV0": "Verma0", "ProjectiveP": "P"}


def like(label):
    """The reference twin of a package label: the same kind and field values."""
    return KINDS[type(label).__name__](*label._values())


def label(key: tuple, d: int):
    """The former ``fusion._label``: one Fraction per scaled coordinate of a key."""
    kind, n, second = key
    kind = KINDS[kind.__name__]
    return kind(Fraction(n, d), Fraction(second, d) if kind is TypicalV else second)


def _second(x):
    return x.ehat if type(x) is TypicalV else x.ell


def render_label(x) -> str:
    body = f"{_NAMES[type(x).__name__]}({x.n};{_second(x)})"
    return ("Pi" + body) if x.parity_flip else body


def parse_label(text: str):
    m = _LABEL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse label {text!r}")
    pi, kind, n_text, second_text = m.groups()
    name = {"v": "TypicalV", "a": "AtypicalA", "p": "ProjectiveP", "verma0": "VermaV0"}[kind.lower()]
    n, second = Fraction(n_text), Fraction(second_text)
    if name == "TypicalV":
        if second.denominator == 1:
            raise ValueError(f"{text!r}: integer ehat is not typical; use A, P or Verma0")
        return TypicalV(n, second, pi is not None)
    if second.denominator != 1:
        raise ValueError(f"{text!r}: {_NAMES[name]} labels need an integer ell")
    return KINDS[name](n, int(second), pi is not None)


def strip_parity(x):
    return type(x)(x.n, _second(x)) if x.parity_flip else x


def _eps(ell: int) -> Fraction:
    return _HALF * ((ell > 0) - (ell < 0))


def delta(x) -> Fraction:
    n, e = x.n, Fraction(_second(x))
    if type(x) is ProjectiveP and x.ell != 0:
        n -= 2 * _eps(x.ell)
    return e * (n + e / 2)


def spectral_flow(x, ell: int):
    """The former spectral flow, on the sources it supports; others return None."""
    if type(x) is VermaV0 and (x.ell == 0 or ell == -x.ell):
        return VermaV0(x.n - ell, x.ell + ell, x.parity_flip)
    if type(x) in (AtypicalA, ProjectiveP) and x.ell == 0 and ell:
        n = x.n - ell - _HALF if ell < 0 else -x.n - ell + _HALF
        return type(x)(n, ell, x.parity_flip)
    return None


def contragredient(x):
    if type(x) is TypicalV:
        return TypicalV(-x.n, -x.ehat, not x.parity_flip)
    if type(x) is AtypicalA or type(x) is ProjectiveP and x.ell == 0:
        return type(x)(-x.n, -x.ell, x.parity_flip)
    return None


def k_decompose(x) -> dict:
    """Composition factors as {reference label: multiplicity}."""
    x = strip_parity(x)
    if type(x) in (TypicalV, AtypicalA):
        return {x: 1}
    if type(x) is VermaV0:
        if x.ell == 0:
            return {AtypicalA(x.n - _HALF, 0): 1, AtypicalA(x.n + _HALF, 0): 1}
        return {AtypicalA(x.n, x.ell): 1, AtypicalA(x.n + (1 if x.ell > 0 else -1), x.ell): 1}
    return {AtypicalA(x.n - 1, x.ell): 1, AtypicalA(x.n, x.ell): 2, AtypicalA(x.n + 1, x.ell): 1}


def generator_of(a: Fraction, b: int, m: int):
    """A(m (a - eps(b)) + eps(m b); m b), the m-th power of the generator A(a; b)."""
    return AtypicalA(m * (a - _eps(b)) + _eps(m * b), m * b)
