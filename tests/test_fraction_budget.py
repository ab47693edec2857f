"""Fraction arithmetic budgets of the label, character and oracle layers' hot paths.

Label arithmetic is exact, and a ``Fraction`` operator call costs about a
microsecond, so these paths are written to reuse the values they know.
Each binary arithmetic method of ``Fraction``, forward and reflected, is
wrapped with a counter for the length of a test, and the counts are pinned:
an edit that brings back recomputed Fractions fails here even though every
value stays right.
"""

from fractions import Fraction
from random import Random

import pytest

from gl11kl import characters as ch
from gl11kl import extensions as ex
from gl11kl import oracle as o
from gl11kl.errors import Gl11Error, NotDeterminedError
from gl11kl.fusion import fuse, k_ring_check
from gl11kl.labels import (
    AtypicalA,
    ProjectiveP,
    TypicalV,
    VermaV0,
    epsilon2,
    parse_label,
    render_label,
    spectral_flow,
)
from gl11kl.series import jacobi_equal_to_cutoff

from _draws import nonintegral, rational
from test_characters import conformal_weight
from test_extensions import GRID_NS, _grid_extensions, _grid_labels

_OPS = ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod", "pow")


@pytest.fixture
def fraction_ops(monkeypatch):
    """A one-item list holding the number of Fraction operator calls so far."""
    calls = [0]

    def counted(method):
        def wrapper(*args):
            calls[0] += 1
            return method(*args)

        return wrapper

    for op in _OPS:
        for name in (f"__{op}__", f"__r{op}__"):
            monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    return calls


@pytest.fixture
def fraction_builds(monkeypatch):
    """A one-item list holding the number of Fractions constructed so far."""
    built = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


@pytest.fixture
def fraction_hashes(monkeypatch):
    """A one-item list holding the number of Fraction hashes so far."""
    hashed = [0]
    method = Fraction.__hash__

    def counted(self):
        hashed[0] += 1
        return method(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    return hashed


@pytest.fixture
def fraction_reads(monkeypatch):
    """A one-item list holding the number of Fraction numerator and denominator reads so far."""
    reads = [0]

    def counted(getter):
        def read(self):
            reads[0] += 1
            return getter(self)

        return property(read)

    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name).fget))
    return reads


def test_fraction_reads_counter_sees_both_properties(fraction_reads):
    half = Fraction(1, 2)
    before = fraction_reads[0]
    half.numerator, half.denominator, half.numerator
    assert fraction_reads[0] - before == 3


def test_fraction_hashes_counter_sees_dict_keys(fraction_hashes):
    {Fraction(1, 2): 1}, hash(Fraction(3)), Fraction(1, 3) in {}
    assert fraction_hashes[0] == 3


def test_counter_sees_forward_and_reflected_calls(fraction_ops):
    half = Fraction(1, 2)
    half + half, 1 - half, half * 3, 2 / half, half ** 2, 1 % half
    assert fraction_ops[0] == 6


def test_epsilon2_does_no_fraction_arithmetic(fraction_ops):
    for ell in range(-6, 7):
        for ell2 in range(-6, 7):
            epsilon2(ell, ell2)
    assert fraction_ops[0] == 0


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a raise is an outcome: it must not do arithmetic either
        return type(exc)


def test_fusion_does_no_fraction_arithmetic(fraction_ops):
    # the rules run on int keys; a Fraction is constructed per coordinate of
    # a returned label, and k_ring_check returns none
    labels = _grid_labels()
    outcomes = set()
    for a in labels:
        for b in labels:
            _attempt(fuse, a, b)
            outcomes.add(_attempt(k_ring_check, a, b))
    assert fraction_ops[0] == 0
    assert outcomes == {True, NotDeterminedError}


def test_extension_monodromy_does_no_fraction_arithmetic(fraction_ops):
    # generator_of is a closed form over the ints of a; the exponent is an
    # int pair, reduced once by monodromy_exponent and never by is_local
    labels = _grid_labels()
    for ext in _grid_extensions():
        currents = [ext.generator_of(m) for m in range(-3, 4)]
        for s in labels:
            _attempt(ex.is_local, s, ext)
            for c in currents:
                _attempt(ex.monodromy_exponent, s, c)
                _attempt(ex.monodromy_exponent, c, s)
    for s in labels:
        for c in labels:
            _attempt(ex.monodromy_exponent, s, c)
    assert fraction_ops[0] == 0


def test_induced_equivalent_builds_and_computes_no_fraction(fraction_ops, fraction_builds):
    # each side's orbit normal form is a floor on the stored ints and one
    # summand by rule 1, and the two labels compare by their ints
    simples = [x for x in _grid_labels() if type(x) in (TypicalV, AtypicalA)]
    exts, built, found = _grid_extensions(), fraction_builds[0], 0
    for ext in exts:
        for s in simples:
            for s2 in simples[::3]:
                found += ex.induced_equivalent(s, s2, ext)
    assert found
    assert fraction_ops[0] == fraction_builds[0] - built == 0


def test_induce_does_no_fraction_arithmetic(fraction_ops):
    # each summand is the base's int key translated along the generator
    # orbit at one scale for the call; a Fraction is constructed per
    # coordinate of a returned label, and a base that is not V, A or P
    # raises from fuse before any arithmetic
    labels = _grid_labels()
    outcomes = set()
    for ext in _grid_extensions():
        for base in labels:
            for m_range in range(6):
                got = _attempt(ex.induce, base, ext, m_range)
                outcomes.add(type(got) if isinstance(got, list) else got)
                _attempt(ex.induced_projective_cover, base, ext, m_range)
    assert fraction_ops[0] == 0
    assert outcomes == {list, NotDeterminedError}


def test_weight_growth_does_no_fraction_arithmetic(fraction_ops):
    # a closed form over the ints of a, b and the label, at one scale for
    # the linear coefficients; a raise does no arithmetic either
    outcomes = set()
    for ext in _grid_extensions():
        for s in _grid_labels():
            got = _attempt(ex.weight_growth, s, ext)
            outcomes.add(got if isinstance(got, type) else type(got))
    assert fraction_ops[0] == 0
    assert outcomes == {ex.WeightGrowth, ValueError, Gl11Error}


def test_weight_growth_builds_one_fraction_per_coefficient(fraction_builds):
    # two on a return, none on a raise
    for ext in _grid_extensions():
        for s in _grid_labels():
            before = fraction_builds[0]
            got = _attempt(ex.weight_growth, s, ext)
            assert fraction_builds[0] - before == (2 if type(got) is ex.WeightGrowth else 0), (s, ext)


def test_fraction_builds_counter_sees_constructions(fraction_builds):
    Fraction(1, 2), Fraction(3), Fraction("1/3")
    assert fraction_builds[0] == 3


def test_spectral_flow_does_no_fraction_arithmetic(fraction_ops):
    # every supported source: A, P and Verma0 at ehat = 0, and Verma0 away
    # from it flowed back; each flowed n is one Fraction over q or 2q
    for n in GRID_NS:
        for ell in range(-3, 4):
            for kind in (AtypicalA, ProjectiveP, VermaV0):
                spectral_flow(kind(n, 0), ell)
                spectral_flow(kind(n, 0, True), ell)
            spectral_flow(VermaV0(n, ell), -ell)
    for label in _grid_labels():  # the unsupported ones raise without arithmetic
        for ell in range(-3, 4):
            _attempt(spectral_flow, label, ell)
    assert fraction_ops[0] == 0


@pytest.mark.parametrize("ext", [ex.SL21_MINUS_HALF, ex.SL21_LEVEL1], ids=lambda e: e.name)
def test_induce_adds_once_per_coordinate_per_summand(fraction_ops, ext):
    # the bound the per-summand walk kept: at most one call per coordinate of
    # each summand (V moves two, A and P one) and five more.  Induction on
    # int keys now stays at zero, which test_induce_does_no_fraction_arithmetic
    # pins; this keeps the per-call form of the bound for each base
    for base in _grid_labels():
        if type(base) is VermaV0:
            continue
        coordinates = 2 if type(base) is TypicalV else 1
        for m_range in range(6):
            before = fraction_ops[0]
            out = ex.induce(base, ext, m_range)
            assert fraction_ops[0] - before <= coordinates * len(out) + 5, (base, m_range)


def test_character_exponents_do_no_fraction_arithmetic(fraction_ops):
    # the exponents are scaled integers: a Fraction is constructed for a
    # class key or a cutoff, and none comes from an operator, however many
    # summands the induced identity has
    # (2n + ehat = 0 in the third and fourth)
    draws = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(-1, 3), Fraction(5, 7)), (Fraction(-3, 4), Fraction(3, 2))]
    for n, ehat in draws + [(Fraction(1, 2), -1), (2, 0)]:
        conformal_weight(n, ehat)
        ch.char_verma(n, ehat, Fraction(7, 2))
        for m_range in range(1, 7):
            for q_cutoff in (0, Fraction(3, 4), 2):
                lhs, _ = ch.char_induced_typical(n, ehat, m_range, q_cutoff)
                assert not lhs.is_zero
    assert fraction_ops[0] == 0


def _char_sweep_calls(rng: Random) -> list:
    """(Fractions built, function, args) of one char-sweep block, drawn as it draws them."""
    calls = [(1, ch.char_verma, (rational(rng), rational(rng), depth)) for depth in range(21)]
    for cutoff in range(11):
        lo = rng.randint(-8, 8)
        calls.append((1, ch.char_atypical0, (Fraction(rng.randint(-12, 12), 4), cutoff, (lo, rng.randint(lo, 8)))))
    for m_range in (1, 2, 3, 1, 2, 3, 3):
        while True:
            n, e = rational(rng, 3), nonintegral(rng)
            room = 12 - m_range * abs(2 * n + e)
            if room >= 0:
                break
        args = n, e, m_range, rng.randint(0, int(room))
        calls += [(1, ch.char_induced_typical, args), (1, ch.induced_window, args), (0, jacobi_equal_to_cutoff, args)]
    return calls


def test_char_sweep_ops_compute_and_hash_no_fraction(fraction_ops, fraction_hashes, fraction_builds):
    # every op shape of the char-sweep workload, with the argument types it
    # passes (Fraction labels, int cutoffs and z bounds): the class keys are
    # int tuples and the exponents scaled ints, so no Fraction is computed
    # or hashed, and a call builds one Fraction, its stored cutoff or the
    # window, and the comparison none
    calls = [call for seed in range(20) for call in _char_sweep_calls(Random(seed))]
    ops, hashes = fraction_ops[0], fraction_hashes[0]
    sides = window = None
    for builds, fn, args in calls:
        before = fraction_builds[0]
        if fn is jacobi_equal_to_cutoff:  # the sides and window of the two calls before it
            assert fn(*sides, window) is True, args
        elif fn is ch.induced_window:
            window = fn(*args)
        else:
            sides = fn(*args)
        assert fraction_builds[0] - before == builds, (fn.__name__, args)
    assert fraction_ops[0] == ops and fraction_hashes[0] == hashes


#: the Fractions each label-stream op shape may build: only a public output
#: that is a Fraction, the one monodromy exponent; ``induce`` is per summand
LABEL_STREAM_BUILDS = {
    "parse_label": 0,
    "fuse": 0,
    "k_ring_check": 0,
    "induce": 0,
    "is_local": 0,
    "monodromy_exponent": 1,
    "spectral_flow": 0,
}


def _stream_label(rng: Random, kind: str):
    """A label drawn as label-stream draws it: V, or A or P with ell in [-3, 3], from Fractions."""
    if kind == "V":
        return TypicalV(rational(rng), nonintegral(rng))
    return (AtypicalA if kind == "A" else ProjectiveP)(rational(rng), rng.randint(-3, 3))


def _label_stream_calls(rng: Random) -> list:
    """(function, args) of every op shape of one label-stream block, on its kind pairs."""
    calls = []
    for pair in ("PP", "PV", "VP", "PA", "AP", "VV", "VA", "AV", "AA"):
        a, b = (_stream_label(rng, kind) for kind in pair)
        flow = rng.choice((-3, -2, -1, 1, 2, 3))
        calls += [(parse_label, (render_label(a),)), (parse_label, (render_label(b),))]
        calls += [(fuse, (a, b)), (fuse, (b, a)), (k_ring_check, (a, b))]
        for x in (a, b):
            if type(x) is not TypicalV:
                calls += [(spectral_flow, (type(x)(x.n, 0), flow)), (spectral_flow, (VermaV0(x.n, 0), flow))]
            if type(x) is not ProjectiveP:
                for ext in (ex.SL21_MINUS_HALF, ex.SL21_LEVEL1):
                    calls += [(ex.is_local, (x, ext)), (ex.induce, (x, ext, 3))]
                    calls.append((ex.monodromy_exponent, (x, ext.generator_of(1))))
    return calls


def test_label_stream_ops_build_and_hash_no_fraction(fraction_builds, fraction_hashes):
    # labels store ints: parsing, fusion, induction, locality and spectral
    # flow build no Fraction and hash none, on labels built from Fractions as
    # label-stream builds them; the monodromy exponent builds its own value
    calls = [call for seed in range(20) for call in _label_stream_calls(Random(seed))]
    assert {fn.__name__ for fn, _ in calls} == set(LABEL_STREAM_BUILDS)
    hashes = fraction_hashes[0]
    for fn, args in calls:
        before = fraction_builds[0]
        out = fn(*args)
        per = len(out) if fn is ex.induce else 1
        assert fraction_builds[0] - before == LABEL_STREAM_BUILDS[fn.__name__] * per, (fn.__name__, args)
    assert fraction_hashes[0] == hashes


def test_label_stream_ops_read_no_fraction(fraction_reads):
    # the fusion rules and the monodromy read epsilon's sign as an int, and
    # an extension keeps the ints of its a: no op shape reads a Fraction's
    # numerator or denominator
    calls = [call for seed in range(20) for call in _label_stream_calls(Random(seed))]
    assert {fn.__name__ for fn, _ in calls} >= {"fuse", "k_ring_check", "induce", "is_local", "monodromy_exponent"}
    for fn, args in calls:
        before = fraction_reads[0]
        fn(*args)
        assert fraction_reads[0] == before, (fn.__name__, args)


#: the Fractions ``fin_label_of`` builds for a label of each kind at ell = 0:
#: a label stores ints only, so each view it reads is built, n and a V's ehat
FIN_LABEL_BUILDS = {TypicalV: 2, AtypicalA: 1, ProjectiveP: 1, VermaV0: 1}


def test_fin_label_of_builds_the_views_it_reads(fraction_builds):
    # the same count for a label from a public constructor, a parse or
    # fusion, and parsing and fusing those labels build none
    rng = Random(3)
    labels = [_stream_label(rng, kind) for kind in "VAP" * 20]
    labels = [x if type(x) is TypicalV else type(x)(x.n, 0) for x in labels]
    labels += [VermaV0(x.n, 0) for x in labels[:12]]
    before = fraction_builds[0]
    made = [parse_label(render_label(x)) for x in labels]
    made += [y for a, b in zip(labels[:60], labels[1:60]) for y in fuse(a, b).labels()]
    assert fraction_builds[0] == before
    kinds = set()
    for x in labels + made:
        if type(x) is TypicalV or x.ell == 0:
            before = fraction_builds[0]
            o.fin_label_of(x)
            assert fraction_builds[0] - before == FIN_LABEL_BUILDS[type(x)], x
            kinds.add(type(x))
    assert kinds == set(FIN_LABEL_BUILDS)


def test_realize_builds_no_fraction(fraction_builds):
    # realize reads the label's numerators and denominators and stores ints
    rng = Random(4)
    labels = [o.Verma(rational(rng), e) for e in (Fraction(0), Fraction(1, 3), Fraction(-2))]
    labels += [o.fin_label_of(VermaV0(rational(rng), 0)), o.Atypical(rational(rng)), o.Projective(rational(rng))]
    for label in labels:
        before = fraction_builds[0]
        o.realize(label)
        assert fraction_builds[0] == before, label


def _oracle_products():
    p = o.realize(o.Projective(0))
    v = o.realize(o.Verma(Fraction(1, 2), Fraction(1, 3)))
    return (lambda: o.tensor(p, p), lambda: o.tensor(o.tensor(p, p), v))


def test_oracle_tensor_and_decompose_budgets(fraction_ops):
    # tensor adds int weight keys and copies int entries, rescaled to the lcm
    # of the factors' scales; decompose checks the relations and takes its
    # ranks on the stored ints, and builds Fractions only for the returned
    # labels, with no arithmetic
    counts = []
    for step in _oracle_products():
        before = fraction_ops[0]
        module = step()
        counts.append(fraction_ops[0] - before)
        before = fraction_ops[0]
        o.decompose(module)
        counts.append(fraction_ops[0] - before)
    assert counts == [0, 0, 0, 0]


def test_oracle_validate_does_no_fraction_arithmetic(fraction_ops):
    modules = [step() for step in _oracle_products()]
    before = fraction_ops[0]
    for module in modules:
        module.validate()
    assert fraction_ops[0] == before
