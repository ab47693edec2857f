"""Names and exact invariants of the simple, Verma and projective modules.

Labels carry the pair (n, e/k): the level enters every formula only through
the ratio ehat = e/k, so k itself is display metadata.  Atypical directions
are indexed by the integer ell with ehat = ell; typical labels require a
non-integral ehat.  ``parity_flip`` marks the parity-reversed partner; it is
cosmetic except for contragredients of typical labels.  A label stores ints,
n and ehat as numerator and denominator in lowest terms, and nothing else:
its ``n`` and ``ehat`` are exact Fraction views of them, built on each read.
Equality and hash both read the stored ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import NotDeterminedError
from .frozen import Frozen


def _f(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _int(v) -> int:
    if type(v) is int:
        return v
    f = _f(v)
    if f.denominator != 1:
        raise ValueError(f"expected an integer, got {f}")
    return int(f)


class ModuleLabel(Frozen):
    """Base class of the label tagged union: n = _np/_nq and ehat = _ep/_eq, each in lowest terms.

    Equality and hash both read the stored ints and the parity flip, and
    equality also compares the kind.
    """

    __slots__ = ("_np", "_nq", "_ep", "_eq", "parity_flip")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._np, self._nq, self._ep, self._eq, self.parity_flip) == (
                other._np, other._nq, other._ep, other._eq, other.parity_flip)
        return NotImplemented

    def __hash__(self):
        return hash((self._np, self._nq, self._ep, self._eq, self.parity_flip))

    n = property(lambda self: Fraction(self._np, self._nq), doc="n as a Fraction, built on each read.")
    ehat = property(lambda self: Fraction(self._ep, self._eq), doc="e/k as a Fraction, built on each read.")


class TypicalV(ModuleLabel):
    """Simple typical Verma module with ehat = e/k not an integer."""

    __slots__ = ()
    _fields = ("n", "ehat", "parity_flip")

    def __new__(cls, n: Fraction, ehat: Fraction, parity_flip: bool = False):
        n, ehat = _f(n), _f(ehat)
        if ehat.denominator == 1:
            raise ValueError("typical label requires ehat not an integer")
        return _new(cls, n.numerator, n.denominator, ehat.numerator, ehat.denominator, parity_flip)


class _Integral(ModuleLabel):
    """The kinds at an integer ehat = ell, which they store as ell over 1."""

    __slots__ = ()
    _fields = ("n", "ell", "parity_flip")
    ell = property(lambda self: self._ep)

    def __new__(cls, n: Fraction, ell: int, parity_flip: bool = False):
        n = _f(n)
        return _new(cls, n.numerator, n.denominator, _int(ell), 1, parity_flip)


class AtypicalA(_Integral):
    """Simple atypical module at ehat = ell, an integer."""

    __slots__ = ()


class VermaV0(_Integral):
    """Reducible (length-2) Verma module at ehat = ell, an integer."""

    __slots__ = ()


class ProjectiveP(_Integral):
    """Length-4 projective cover of the atypical simple at (n, ell)."""

    __slots__ = ()


_object_new = object.__new__
#: the slots' own setters, which write past ``Frozen.__setattr__`` with no name lookup
_SET_NP, _SET_NQ, _SET_EP, _SET_EQ, _SET_FLIP = (ModuleLabel.__dict__[name].__set__ for name in ModuleLabel.__slots__)
_SIMPLE = (TypicalV, AtypicalA)


def _new(kind, np: int, nq: int, ep: int, eq: int, parity_flip=False) -> ModuleLabel:
    """The label of kind at n = np/nq and ehat = ep/eq, from ints with nq, eq > 0.

    Both are reduced here, and no Fraction is built: ehat's gcd is skipped
    when eq == 1, as for every ell over 1, but an unreduced integral pair
    such as 4/2 is reduced.  A typical's ehat is trusted not to be an
    integer.  Each slot is written through its own descriptor.
    """
    g = gcd(np, nq)
    if eq != 1:
        h = gcd(ep, eq)
        ep, eq = ep // h, eq // h
    label = _object_new(kind)
    _SET_NP(label, np // g)
    _SET_NQ(label, nq // g)
    _SET_EP(label, ep)
    _SET_EQ(label, eq)
    _SET_FLIP(label, parity_flip)
    return label


def is_simple(label: ModuleLabel) -> bool:
    return isinstance(label, _SIMPLE)


def strip_parity(label: ModuleLabel) -> ModuleLabel:
    if not label.parity_flip:
        return label
    return _new(type(label), label._np, label._nq, label._ep, label._eq)


# ---------------------------------------------------------------------------
# scalar invariants
# ---------------------------------------------------------------------------


def _sign(x: int) -> int:
    """The sign of x, as -1, 0 or 1; it is 2 epsilon(x), which the fusion rules and monodromy read."""
    return (x > 0) - (x < 0)


def _twice_epsilon2(ell: int, ell2: int) -> int:
    """2 epsilon2(ell, ell2) = sign(l) + sign(l') - sign(l + l'), which lies in -1..1."""
    return _sign(ell) + _sign(ell2) - _sign(ell + ell2)


def epsilon(ell: int) -> Fraction:
    """The half-integer step function: 1/2, 0, -1/2 for ell >, =, < 0, that is sign(ell)/2."""
    return Fraction(_sign(ell), 2)


def epsilon2(ell: int, ell2: int) -> Fraction:
    """epsilon(l) + epsilon(l') - epsilon(l + l'), read off the three signs as ``_twice_epsilon2`` / 2."""
    return Fraction(_twice_epsilon2(ell, ell2), 2)


def delta(label: ModuleLabel) -> Fraction:
    """Lowest conformal weight, minimized over constituents.

    For a projective label with ell != 0 the minimum over its two Verma
    constituents is Delta_{n - 2*eps(ell), ell}; at ell = 0 the weight is 0.
    Delta_{n, ehat} = ehat (n + ehat/2) is, for n = a/d and ehat = b/g, the
    one Fraction b(2ag + bd) / 2dg^2.
    """
    a, d = label._np, label._nq
    if type(label) is ProjectiveP:  # 2 eps(ell) is the sign of ell
        a -= _sign(label.ell) * d
    b, g = label._ep, label._eq
    return Fraction(b * (2 * a * g + b * d), 2 * d * g * g)


def top_dim(label: ModuleLabel) -> int:
    """Dimension of the lowest conformal weight space."""
    if isinstance(label, AtypicalA):
        return 1 if label.ell == 0 else 2
    if isinstance(label, (TypicalV, VermaV0)):
        return 2
    if isinstance(label, ProjectiveP):
        return 4 if label.ell == 0 else 2
    raise TypeError(f"unknown label {label!r}")


# ---------------------------------------------------------------------------
# functors on labels
# ---------------------------------------------------------------------------


def spectral_flow(label: ModuleLabel, ell: int) -> ModuleLabel:
    """Flow a label by ell units along the atypical direction.

    Supported sources are the ehat = 0 labels; positive flows of atypical and
    projective labels compose with the conjugation automorphism, matching the
    definition of the flowed projective covers.  A reducible Verma away from
    ehat = 0 may only be flowed straight back to ehat = 0 (the inverse flow);
    anything else is rejected as undetermined.  For n = p/q the flowed n is
    an int over q or 2q, and no Fraction is built.
    """
    ell = _int(ell)
    if ell == 0:
        return label
    if isinstance(label, VermaV0):
        if label.ell == 0 or ell == -label.ell:  # n - ell, to ell or back to 0
            p, q = label._np, label._nq
            return _new(VermaV0, p - ell * q, q, label.ell + ell, 1, label.parity_flip)
        raise NotDeterminedError("spectral flow from ehat != 0 is only defined back to ehat = 0")
    if isinstance(label, (AtypicalA, ProjectiveP)):
        if label.ell != 0:
            raise NotDeterminedError("spectral flow of an atypical or projective label requires ehat = 0")
        p, q = label._np, label._nq
        # n - ell - 1/2, and for a positive flow -n - ell + 1/2
        if ell < 0:
            return _new(type(label), 2 * p - (2 * ell + 1) * q, 2 * q, ell, 1, label.parity_flip)
        return _new(type(label), (1 - 2 * ell) * q - 2 * p, 2 * q, ell, 1, label.parity_flip)
    raise NotDeterminedError("spectral flow of a typical label is not defined here")


def contragredient(label: ModuleLabel) -> ModuleLabel:
    """Graded dual: (n, e) -> (-n, -e); typical duals flip parity."""
    kind, flip = type(label), label.parity_flip
    if kind is TypicalV or kind is AtypicalA or kind is ProjectiveP and label.ell == 0:
        return _new(kind, -label._np, label._nq, -label._ep, label._eq, not flip if kind is TypicalV else flip)
    raise NotDeterminedError(
        "contragredient is only defined for simples and ell = 0 projectives"
    )


def projective_cover(label: ModuleLabel) -> ModuleLabel:
    """Typicals cover themselves; the atypical at (n, ell) is covered at (n, ell)."""
    if isinstance(label, TypicalV):
        return label
    if isinstance(label, AtypicalA):
        return _new(ProjectiveP, label._np, label._nq, label.ell, 1, label.parity_flip)
    raise ValueError("projective cover is defined for simple labels only")


# ---------------------------------------------------------------------------
# formal sums and composition series
# ---------------------------------------------------------------------------


class FormalSum:
    """Multiset of labels with positive integer multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """A sum of one label, or of the (label, multiplicity) items of a FormalSum, dict or iterable.

        An iterable may also hold bare labels, each of multiplicity 1.
        """
        if isinstance(terms, ModuleLabel):
            self._terms = {terms: 1}
            return
        acc: dict[ModuleLabel, int] = {}
        for entry in terms.items() if isinstance(terms, (dict, FormalSum)) else terms or ():
            label, mult = (entry, 1) if isinstance(entry, ModuleLabel) else entry
            mult = _int(mult)
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult:
                acc[label] = acc.get(label, 0) + mult
        self._terms = acc

    def items(self):
        return self._terms.items()

    def labels(self):
        return self._terms.keys()

    def multiplicity(self, label: ModuleLabel) -> int:
        return self._terms.get(label, 0)

    def total(self) -> int:
        return sum(self._terms.values())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def single(self) -> ModuleLabel:
        """The unique label of a singleton sum; raises otherwise."""
        if len(self._terms) != 1:
            raise ValueError("formal sum is not a single label")
        (label, mult), = self._terms.items()
        if mult != 1:
            raise ValueError("formal sum is not multiplicity-free")
        return label

    @classmethod
    def _trusted(cls, terms: dict) -> "FormalSum":
        """Wrap a dict that is already clean, without copying or checking.

        The caller guarantees: keys are labels and values are positive ints.
        """
        total = cls.__new__(cls)
        total._terms = terms
        return total

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self._terms)
        for lbl, m in other._terms.items():
            out[lbl] = out.get(lbl, 0) + m
        return FormalSum._trusted(out)

    def __rmul__(self, s: int) -> "FormalSum":
        s = _int(s)
        if s < 0:
            raise ValueError("scaling must be nonnegative")
        if s == 0:
            return FormalSum()
        return FormalSum._trusted({lbl: m * s for lbl, m in self._terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def sorted_items(self):
        return sorted(self._terms.items(), key=lambda kv: label_sort_key(kv[0]))

    def __repr__(self):
        if not self._terms:
            return "0"
        return " + ".join(
            (f"{m}*" if m != 1 else "") + render_label(lbl) for lbl, m in self.sorted_items()
        )


def k_decompose(label: ModuleLabel) -> FormalSum:
    """Composition factors with multiplicity, as a sum of simple labels.

    Simples map to themselves.  A reducible Verma has two atypical factors;
    a projective label has the atypical at its own (n, ell) twice plus the
    two neighbours n +- 1.
    """
    if is_simple(label):
        return FormalSum(strip_parity(label))
    kind = type(label)
    if kind is not VermaV0 and kind is not ProjectiveP:
        raise TypeError(f"unknown label {strip_parity(label)!r}")
    p, q, ell = label._np, label._nq, label.ell
    if kind is ProjectiveP:
        return FormalSum._trusted({_new(AtypicalA, p + i * q, q, ell, 1): 2 - abs(i) for i in (-1, 0, 1)})
    if ell == 0:  # n -+ 1/2
        return FormalSum([_new(AtypicalA, 2 * p - q, 2 * q, 0, 1), _new(AtypicalA, 2 * p + q, 2 * q, 0, 1)])
    return FormalSum([_new(AtypicalA, p, q, ell, 1), _new(AtypicalA, p + _sign(ell) * q, q, ell, 1)])


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------

#: each kind's name, in the order labels sort by
_KIND_NAMES = {AtypicalA: "A", TypicalV: "V", VermaV0: "Verma0", ProjectiveP: "P"}
_KIND_ORDER = {kind: i for i, kind in enumerate(_KIND_NAMES)}
_KIND_BY_NAME = {name.lower(): kind for kind, name in _KIND_NAMES.items()}


def render_label(label: ModuleLabel) -> str:
    """Canonical text form, e.g. ``V(1/4;1/2)``; parity flips prefix ``Pi``."""
    kind = _KIND_NAMES[type(label)]
    body = f"{kind}({_text(label._np, label._nq)};{_text(label._ep, label._eq)})"
    return ("Pi" + body) if label.parity_flip else body


def _text(p: int, q: int) -> str:
    """p/q as ``str(Fraction(p, q))`` writes it, for p/q in lowest terms."""
    return f"{p}/{q}" if q != 1 else str(p)


def label_sort_key(label: ModuleLabel):
    return (_KIND_ORDER[type(label)], label.ehat, label.n, label.parity_flip)


#: most digits per integer in a number; the widest output, a monodromy
#: exponent, then stays near 4,000 digits, under int-to-str's 4,300
MAX_DIGITS = 1000
#: an exact rational in ASCII digits: an integer, or p/q with a nonzero q
_DIGITS = rf"[0-9]{{1,{MAX_DIGITS}}}"
_RATIONAL = rf"-?{_DIGITS}(?:/(?=0*[1-9]){_DIGITS})?"
_RATIONAL_RE = re.compile(_RATIONAL)
_TOO_LONG_RE = re.compile(rf"[0-9]{{{MAX_DIGITS + 1}}}")
_LABEL_RE = re.compile(
    rf"^\s*(Pi)?(Verma0|V|A|P)\s*\(\s*({_RATIONAL})\s*;\s*({_RATIONAL})\s*\)\s*$",
    re.IGNORECASE | re.ASCII,
)
#: the whitespace both label grammars skip: what ``\s`` matches under ``re.ASCII``
WHITESPACE = "".join(c for c in map(chr, range(128)) if re.match(r"\s", c, re.ASCII))


def parse_rational(text: str) -> Fraction:
    """Parse a label parameter: an integer or p/q, with no exponent or decimal point."""
    if not _RATIONAL_RE.fullmatch(text):
        raise _number_error(f"expected an integer or p/q with q > 0, got {text!r}", text)
    return Fraction(text)


def _number_error(message: str, text: str) -> ValueError:
    """A ValueError with message, which names the digit bound if text breaks it."""
    if _TOO_LONG_RE.search(text):
        message += f": integers take at most {MAX_DIGITS} digits"
    return ValueError(message)


def parse_label(text: str) -> ModuleLabel:
    """Parse ``KIND(n;ehat-or-ell)`` with KIND in V/A/P/Verma0 (case-insensitive).

    A ``Pi`` before the kind, also in any case, marks a parity flip, as
    :func:`render_label` writes it.  Typicality is enforced: ``V`` with an
    integer second argument is rejected, as are A/P/Verma0 with a non-integer
    one.
    """
    m = _LABEL_RE.match(text)
    if not m:
        raise _number_error(f"cannot parse label {text!r}", text)
    pi, kind, n_text, second_text = m.groups()
    cls = _KIND_BY_NAME[kind.lower()]
    (np, nq), (ep, eq) = _ints(n_text), _ints(second_text)
    if cls is TypicalV and ep % eq == 0:
        raise ValueError(f"{text!r}: integer ehat is not typical; use A, P or Verma0")
    if cls is not TypicalV and ep % eq:
        raise ValueError(f"{text!r}: {_KIND_NAMES[cls]} labels need an integer ell")
    return _new(cls, np, nq, ep, eq, pi is not None)


def _ints(text: str) -> tuple[int, int]:
    """The numerator and denominator written in a matched ``_RATIONAL``, not reduced."""
    p, _, q = text.partition("/")
    return int(p), int(q or 1)
