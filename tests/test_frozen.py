"""The value classes keep the contract of their former frozen dataclasses.

Each class is compared on seeded draws with its dataclass twin in
``_dataclass_twins``: construction (positional, keyword and defaults, with
the same validation errors), equality within and across classes, hashing,
``repr``, refusal of assignment and deletion, and copy, deepcopy and pickle
round trips.  Labels are the one exception in hashing: a label hashes the
ints it stores, not its twin's fields.
"""

import copy
import pickle
from dataclasses import MISSING, fields
from fractions import Fraction
from random import Random

import pytest

import _dataclass_twins as twins
from gl11kl import extensions, kz, labels, oracle

CLASSES = (
    labels.TypicalV,
    labels.AtypicalA,
    labels.VermaV0,
    labels.ProjectiveP,
    extensions.ExtensionSpec,
    extensions.WeightGrowth,
    kz.SecondOrderOde,
    oracle.Verma,
    oracle.Atypical,
    oracle.Projective,
    oracle.Gl11MatrixModule,
)
F = Fraction
# coefficient values on the kz grid: tuples of Fractions and ints, some equal across types
_COEFFICIENTS = ((), (F(1),), (1,), (F(1, 2), F(-3)), (F(-6), F(2, 3), 4), kz.hypergeometric_ode().a1)
_MODULES = [oracle.realize(x) for x in (oracle.Verma(F(1, 2), 1), oracle.Atypical(0), oracle.Projective(1))]


def _number(rng: Random):
    """A small rational, as a Fraction, an int or a string."""
    v = F(rng.randint(-3, 3), rng.randint(1, 2))
    form = rng.randrange(3)
    if form == 0 and v.denominator == 1:
        return int(v)
    return str(v) if form == 1 else v


def _ell(rng: Random):
    return rng.choice((rng.randint(-2, 2), F(rng.randint(-3, 3), 2), True, "1"))


def _field_values(rng: Random, cls) -> list:
    """Values for each field of cls, some of them invalid."""
    name = cls.__name__
    if name == "TypicalV":
        return [_number(rng), _number(rng), rng.choice((False, True, 0, 1))]
    if name in ("AtypicalA", "VermaV0", "ProjectiveP"):
        return [_number(rng), _ell(rng), rng.choice((False, True))]
    if name == "ExtensionSpec":
        return [rng.choice(("sl21-neg-half", "custom:1/2,1")), _number(rng), rng.choice((1, -2, F(3, 2), "2", "x"))]
    if name == "WeightGrowth":
        return [F(rng.randint(0, 2)), F(rng.randint(-1, 1), 2), rng.choice(("lowest_weight", "relaxed_flat"))]
    if name == "SecondOrderOde":
        return [rng.choice(_COEFFICIENTS) for _ in range(3)]
    if name == "Verma":
        return [_number(rng), _number(rng)]
    if name in ("Atypical", "Projective"):
        return [_number(rng)]
    assert name == "Gl11MatrixModule"
    module = rng.choice(_MODULES)
    parity = list(module.parity)
    if rng.random() < 0.1:
        parity[rng.randrange(len(parity))] = rng.choice((2, -1, "1"))
    weights = [tuple(rng.choice((v, str(v))) for v in w) for w in module.weights]
    if rng.random() < 0.1:
        del weights[rng.randrange(len(weights))]
    entries = (_entries(rng, getattr(module, f), module.dim) for f in cls._fields[2:])
    return [tuple(parity), weights if rng.random() < 0.5 else tuple(weights), *entries]


def _entries(rng: Random, entries: dict, dim: int) -> dict:
    """entries with values as Fraction or str, sometimes with one more entry: zero, or outside range(dim)."""
    out = {key: rng.choice((v, str(v))) for key, v in entries.items()}
    if rng.random() < 0.3:
        out[rng.randrange(dim + 1), rng.randrange(dim)] = _number(rng)
    return out


def _draw(rng: Random, cls):
    """(args, kwargs): a positional prefix, the rest by keyword, defaults sometimes left out."""
    twin = getattr(twins, cls.__name__)
    names = [f.name for f in fields(twin)]
    required = sum(1 for f in fields(twin) if f.default is MISSING)
    values = _field_values(rng, cls)
    k = rng.randint(0, len(names))
    kwargs = dict(zip(names[k:], values[k:]))
    for name in names[max(k, required):]:
        if rng.random() < 0.3:
            del kwargs[name]
    return tuple(values[:k]), kwargs


def _outcome(fn, *args, **kwargs):
    """(result, None), or (None, (error type, text)) when fn raises."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the error itself is what is compared
        return None, (type(exc), str(exc))


def _pairs(seed: int, count: int):
    """(value, twin) pairs of every class, built from the same arguments."""
    rng = Random(seed)
    out = []
    for cls in CLASSES:
        twin = getattr(twins, cls.__name__)
        for _ in range(count):
            args, kwargs = _draw(rng, cls)
            value, error = _outcome(cls, *args, **kwargs)
            twin_value, twin_error = _outcome(twin, *args, **kwargs)
            assert error == twin_error, (cls.__name__, args, kwargs)
            if value is not None:
                out.append((value, twin_value))
    return out


def test_construction_fields_and_repr_match_twin():
    pairs = _pairs(71, 80)
    assert {type(v) for v, _ in pairs} == set(CLASSES)
    for value, twin_value in pairs:
        names = [f.name for f in fields(twin_value)]
        assert list(value._fields) == names
        for name in names:
            got, want = getattr(value, name), getattr(twin_value, name)
            assert type(got) is type(want) and got == want, (value, name)
        assert repr(value) == repr(twin_value)
    for cls in CLASSES:
        twin = getattr(twins, cls.__name__)
        for args in ((), (None,) * (len(cls._fields) + 1)):
            assert _outcome(cls, *args)[1][0] is _outcome(twin, *args)[1][0] is TypeError
        assert _outcome(cls, other=1)[1][0] is TypeError


def test_equality_and_hash_match_twin():
    pairs, again = _pairs(72, 40), _pairs(72, 40)  # equal, not identical
    rng = Random(73)
    for _ in range(3000):
        (a, ta), (b, tb) = rng.choice(pairs), rng.choice(again)
        assert (a == b, a != b) == (ta == tb, ta != tb), (a, b)
        if type(a) is not type(b):
            assert a.__eq__(b) is NotImplemented
        assert a.__eq__(ta) is NotImplemented and a != ta
    for (a, ta), (b, _) in zip(pairs, again):
        assert a is not b and a == b and not a != b
        if isinstance(a, labels.ModuleLabel):
            want = hash((a._np, a._nq, a._ep, a._eq, a.parity_flip)), None
        else:
            want = _outcome(hash, ta)
        assert _outcome(hash, a) == want == _outcome(hash, b), a
    same_fields = [(labels.AtypicalA(0, 0), labels.ProjectiveP(0, 0)), (oracle.Atypical(1), oracle.Projective(1))]
    for a, b in same_fields:
        assert a != b and hash(a) == hash(b)


def test_fields_cannot_be_set_or_deleted():
    for value, twin_value in _pairs(74, 3):
        before = repr(value)
        stored = [name for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())]
        for name in dict.fromkeys([*value._fields, *stored, "other"]):
            with pytest.raises(AttributeError) as got:
                setattr(value, name, 0)
            with pytest.raises(AttributeError) as want:
                setattr(twin_value, name, 0)
            assert str(got.value) == str(want.value)
            with pytest.raises(AttributeError) as got:
                delattr(value, name)
            with pytest.raises(AttributeError) as want:
                delattr(twin_value, name)
            assert str(got.value) == str(want.value)
        assert repr(value) == before


_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, *(lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in _PROTOCOLS)],
    ids=["copy", "deepcopy", *(f"pickle{p}" for p in _PROTOCOLS)],
)
def test_copy_and_pickle_round_trips(round_trip):
    for value, twin_value in _pairs(75, 5):
        again, error = _outcome(round_trip, value)
        assert error == _outcome(round_trip, twin_value)[1], value
        if error is None:
            assert type(again) is type(value) and again == value and repr(again) == repr(value)
            assert _outcome(hash, again) == _outcome(hash, value)
