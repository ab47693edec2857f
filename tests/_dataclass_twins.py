"""The former ``@dataclass(frozen=True)`` definitions of the value classes.

Each twin keeps the name, fields, defaults and validation of the class it
stood for, and nothing else, so that ``tests/test_frozen.py`` can hold the
slots classes in the package to the dataclass contract: equality, hashing,
``repr``, immutability, construction, copying and pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gl11kl.labels import _f, _int
from gl11kl.errors import OracleError
from gl11kl.oracle import Entries

# labels


@dataclass(frozen=True)
class TypicalV:
    n: Fraction
    ehat: Fraction
    parity_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _f(self.n))
        object.__setattr__(self, "ehat", _f(self.ehat))
        if self.ehat.denominator == 1:
            raise ValueError("typical label requires ehat not an integer")


@dataclass(frozen=True)
class AtypicalA:
    n: Fraction
    ell: int
    parity_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _f(self.n))
        object.__setattr__(self, "ell", _int(self.ell))


@dataclass(frozen=True)
class VermaV0:
    n: Fraction
    ell: int
    parity_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _f(self.n))
        object.__setattr__(self, "ell", _int(self.ell))


@dataclass(frozen=True)
class ProjectiveP:
    n: Fraction
    ell: int
    parity_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _f(self.n))
        object.__setattr__(self, "ell", _int(self.ell))


# extensions


@dataclass(frozen=True)
class ExtensionSpec:
    name: str
    a: Fraction
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", _f(self.a))
        object.__setattr__(self, "b", _int(self.b))


@dataclass(frozen=True)
class WeightGrowth:
    quadratic_coeff: Fraction
    linear_coeff: Fraction
    classification: str


# kz


@dataclass(frozen=True)
class SecondOrderOde:
    a2: tuple
    a1: tuple
    a0: tuple


# oracle


@dataclass(frozen=True)
class Verma:
    n: Fraction
    e: Fraction

    def __post_init__(self):
        object.__setattr__(self, "n", _f(self.n))
        object.__setattr__(self, "e", _f(self.e))

    def __repr__(self):
        return f"V({self.n};{self.e})"


@dataclass(frozen=True)
class Atypical:
    n: Fraction

    def __post_init__(self):
        object.__setattr__(self, "n", _f(self.n))

    def __repr__(self):
        return f"A({self.n})"


@dataclass(frozen=True)
class Projective:
    n: Fraction

    def __post_init__(self):
        object.__setattr__(self, "n", _f(self.n))

    def __repr__(self):
        return f"P({self.n})"


@dataclass(frozen=True)
class Gl11MatrixModule:
    parity: tuple
    weights: tuple
    psi_p: Entries
    psi_m: Entries
    __hash__ = None  # the entry maps are dicts; dataclass keeps an explicit None

    def __post_init__(self):
        dim = len(self.parity)
        if any(p not in (0, 1) for p in self.parity):
            raise OracleError("parity entries must be 0 or 1")
        if len(self.weights) != dim:
            raise OracleError(f"weights has {len(self.weights)} entries, not dim = {dim}")
        object.__setattr__(self, "weights", tuple((_f(e), _f(n)) for e, n in self.weights))
        for name in ("psi_p", "psi_m"):
            kept = {}
            for (r, c), v in getattr(self, name).items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise OracleError(f"{name} entry ({r}, {c}) lies outside a {dim}-dim module")
                if _f(v) != 0:
                    kept[r, c] = _f(v)
            object.__setattr__(self, name, kept)
