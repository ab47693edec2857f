"""Names and exact invariants of the simple, Verma and projective modules.

Labels carry the pair (n, e/k): the level enters every formula only through
the ratio ehat = e/k, so k itself is display metadata.  Atypical directions
are indexed by the integer ell with ehat = ell; typical labels require a
non-integral ehat.  ``parity_flip`` marks the parity-reversed partner; it is
cosmetic except for contragredients of typical labels.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
    """Base class of the label tagged union."""

    __slots__ = ()


class TypicalV(ModuleLabel):
    """Simple typical Verma module with ehat = e/k not an integer."""

    __slots__ = ("n", "ehat", "parity_flip")

    def __init__(self, n: Fraction, ehat: Fraction, parity_flip: bool = False):
        object.__setattr__(self, "n", _f(n))
        object.__setattr__(self, "ehat", _f(ehat))
        object.__setattr__(self, "parity_flip", parity_flip)
        if self.ehat.denominator == 1:
            raise ValueError("typical label requires ehat not an integer")


class AtypicalA(ModuleLabel):
    """Simple atypical module at ehat = ell, an integer."""

    __slots__ = ("n", "ell", "parity_flip")

    def __init__(self, n: Fraction, ell: int, parity_flip: bool = False):
        object.__setattr__(self, "n", _f(n))
        object.__setattr__(self, "ell", _int(ell))
        object.__setattr__(self, "parity_flip", parity_flip)


class VermaV0(ModuleLabel):
    """Reducible (length-2) Verma module at ehat = ell, an integer."""

    __slots__ = ("n", "ell", "parity_flip")
    __init__ = AtypicalA.__init__


class ProjectiveP(ModuleLabel):
    """Length-4 projective cover of the atypical simple at (n, ell)."""

    __slots__ = ("n", "ell", "parity_flip")
    __init__ = AtypicalA.__init__


def is_simple(label: ModuleLabel) -> bool:
    return isinstance(label, (TypicalV, AtypicalA))


def strip_parity(label: ModuleLabel) -> ModuleLabel:
    if not label.parity_flip:
        return label
    return type(label)(label.n, _ehat_or_ell(label), parity_flip=False)


def _ehat_or_ell(label: ModuleLabel):
    return label.ehat if isinstance(label, TypicalV) else label.ell


def ehat(label: ModuleLabel) -> Fraction:
    """The ratio e/k of the label, as an exact rational."""
    return _f(_ehat_or_ell(label))


# ---------------------------------------------------------------------------
# scalar invariants
# ---------------------------------------------------------------------------


_HALF, _ZERO, _MINUS_HALF = Fraction(1, 2), Fraction(0), Fraction(-1, 2)


def epsilon(ell: int) -> Fraction:
    """The half-integer step function: 1/2, 0, -1/2 for ell >, =, < 0."""
    if ell > 0:
        return _HALF
    if ell < 0:
        return _MINUS_HALF
    return _ZERO


def epsilon2(ell: int, ell2: int) -> Fraction:
    """epsilon(l) + epsilon(l') - epsilon(l + l'), read off the three signs.

    Twice the value, sign(l) + sign(l') - sign(l + l'), lies in -1..1, where
    epsilon(t) = t/2: so one of epsilon's shared constants comes back, and no
    Fraction arithmetic is done.
    """
    total = ell + ell2
    return epsilon((ell > 0) - (ell < 0) + (ell2 > 0) - (ell2 < 0) - (total > 0) + (total < 0))


def conformal_weight(n, ehat) -> Fraction:
    """Delta = ehat * (n + ehat/2), for n = a/d and ehat = b/g the one Fraction b(2ag + bd) / 2dg^2."""
    n, ehat = _f(n), _f(ehat)
    a, d, b, g = n.numerator, n.denominator, ehat.numerator, ehat.denominator
    return Fraction(b * (2 * a * g + b * d), 2 * d * g * g)


def delta(label: ModuleLabel) -> Fraction:
    """Lowest conformal weight, minimized over constituents.

    For a projective label with ell != 0 the minimum over its two Verma
    constituents is Delta_{n - 2*eps(ell), ell}; at ell = 0 the weight is 0.
    """
    n = label.n
    if isinstance(label, ProjectiveP) and label.ell != 0:
        n -= 2 * epsilon(label.ell)
    return conformal_weight(n, ehat(label))


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
    built as one Fraction over q or 2q, with no Fraction arithmetic.
    """
    ell = _int(ell)
    if ell == 0:
        return label
    if isinstance(label, VermaV0):
        if label.ell == 0 or ell == -label.ell:  # n - ell, to ell or back to 0
            p, q = label.n.numerator, label.n.denominator
            return VermaV0(Fraction(p - ell * q, q), label.ell + ell, label.parity_flip)
        raise NotDeterminedError("spectral flow from ehat != 0 is only defined back to ehat = 0")
    if isinstance(label, (AtypicalA, ProjectiveP)):
        if label.ell != 0:
            raise NotDeterminedError("spectral flow of an atypical or projective label requires ehat = 0")
        p, q = label.n.numerator, label.n.denominator
        # n - ell - 1/2, and for a positive flow -n - ell + 1/2
        if ell < 0:
            return type(label)(Fraction(2 * p - (2 * ell + 1) * q, 2 * q), ell, label.parity_flip)
        return type(label)(Fraction((1 - 2 * ell) * q - 2 * p, 2 * q), ell, label.parity_flip)
    raise NotDeterminedError("spectral flow of a typical label is not defined here")


def contragredient(label: ModuleLabel) -> ModuleLabel:
    """Graded dual: (n, e) -> (-n, -e); typical duals flip parity."""
    if isinstance(label, AtypicalA):
        return AtypicalA(-label.n, -label.ell, label.parity_flip)
    if isinstance(label, TypicalV):
        return TypicalV(-label.n, -label.ehat, not label.parity_flip)
    if isinstance(label, ProjectiveP) and label.ell == 0:
        return ProjectiveP(-label.n, 0, label.parity_flip)
    raise NotDeterminedError(
        "contragredient is only defined for simples and ell = 0 projectives"
    )


def projective_cover(label: ModuleLabel) -> ModuleLabel:
    """Typicals cover themselves; the atypical at (n, ell) is covered at (n, ell)."""
    if isinstance(label, TypicalV):
        return label
    if isinstance(label, AtypicalA):
        return ProjectiveP(label.n, label.ell, label.parity_flip)
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
    label = strip_parity(label)
    if is_simple(label):
        return FormalSum(label)
    if isinstance(label, VermaV0):
        if label.ell == 0:
            return FormalSum([AtypicalA(label.n - _HALF, 0), AtypicalA(label.n + _HALF, 0)])
        shift = 1 if label.ell > 0 else -1
        return FormalSum(
            [AtypicalA(label.n, label.ell), AtypicalA(label.n + shift, label.ell)]
        )
    if isinstance(label, ProjectiveP):
        n, ell = label.n, label.ell
        return FormalSum._trusted({AtypicalA(n - 1, ell): 1, AtypicalA(n, ell): 2, AtypicalA(n + 1, ell): 1})
    raise TypeError(f"unknown label {label!r}")


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
    body = f"{kind}({label.n};{_ehat_or_ell(label)})"
    return ("Pi" + body) if label.parity_flip else body


def label_sort_key(label: ModuleLabel):
    return (_KIND_ORDER[type(label)], ehat(label), label.n, label.parity_flip)


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
    flip = pi is not None
    n = Fraction(n_text)
    second = Fraction(second_text)
    if cls is TypicalV:
        if second.denominator == 1:
            raise ValueError(f"{text!r}: integer ehat is not typical; use A, P or Verma0")
        return TypicalV(n, second, flip)
    if second.denominator != 1:
        raise ValueError(f"{text!r}: {_KIND_NAMES[cls]} labels need an integer ell")
    return cls(n, int(second), flip)
