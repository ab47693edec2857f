"""Replayable mutants: each edits a copy of the code, and Tier-1 must fail on it.

Usage, from anywhere::

    python tests/_mutants.py              # every mutant
    python tests/_mutants.py --only ID    # one mutant (repeat --only for more)

For each mutant the runner copies ``src/``, ``tests/``, ``bench/`` (whose
names ``tests/test_surface.py`` reads) and ``pyproject.toml`` into a
temporary directory, replaces the mutant's old text, which must occur
exactly once in its file, and runs the Tier-1 command there with ``-x -q``.
It leaves out ``tests/test_mutants.py``, which checks that every mutant
applies to the unmutated code: in a mutated copy it would fail on the
mutant's own edit, whatever the other tests do.
An unmutated copy runs first, on its own, and must pass, so that a broken
copy cannot count as a caught mutant.  The mutated copies then run in
``os.cpu_count()`` worker threads, each driving its own pytest process in
its own directory; their lines print in list order, and the seconds each
line gives are wall time under that contention.  The survivors are listed,
and the exit status is 1 if there is any, 2 if a mutant does not apply or
the unmutated copy fails.

Pytest does not collect this file: its name does not start with ``test_``.

A mutant is (id, origin, file, old text, new text), where the origin names
the change that first ran it by hand or added it here.  Mutants are added,
never deleted or re-aimed to make the run pass; a survivor is a defect of
the tests.  When the code a mutant edits moves, the mutant follows it with
the same edit, and CHANGES.md says so.  A mutant whose code is gone is
retired from the list, and CHANGES.md names it with the reason, as it
records the hand-run mutants whose code is gone.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py")

EXT = "src/gl11kl/extensions.py"
FUSION = "src/gl11kl/fusion.py"
KZ = "src/gl11kl/kz.py"
ORACLE = "src/gl11kl/oracle.py"
CHARS = "src/gl11kl/characters.py"
SERIES = "src/gl11kl/series.py"
LABELS = "src/gl11kl/labels.py"
FROZEN = "src/gl11kl/frozen.py"
CLI = "src/gl11kl/cli.py"
DUALS = "tests/_dual_oracle.py"

MUTANTS = [
    # followed the sign of m onto labels._sign, and then the generator's
    # numerator into generator_of, m _step + sign(m b) q: the same edit
    # flips its sign term against its m term
    ("generator-numerator-plus-m", "induction-by-rule-1", EXT, "m * _step(self) + _sign(m * self.b)", "m * _step(self) - _sign(m * self.b)"),
    # these two followed the label's denominators onto the ints it stores:
    # the scale still drops 2q, and a V's second coordinate is still not
    # divided by d
    ("summand-scale-without-2q", "induction-by-rule-1", EXT, "d = lcm(q2, base._nq", "d = lcm(2, base._nq"),
    ("label-v-second-undivided", "induction-by-rule-1", FUSION, "d if kind is TypicalV else 1)", "1)"),
    # the fallback now raises through fusion's own input check, not one
    # fusion per m: the mutant drops that line with the same edit
    (
        "summand-other-kinds-unfused",
        "induction-by-rule-1",
        EXT,
        "        _checked(base, ext.generator_of(ms[0]))  # raises as fuse does\n",
        "        pass\n",
    ),
    ("induce-range-short", "induction-by-rule-1", EXT, "range(-m_range, m_range + 1)", "range(-m_range, m_range)"),
    # followed main's one except clause, which UsageError left, with the same edit
    ("cli-value-error-escapes", "induction-by-rule-1", CLI, "except (Gl11Error, ValueError) as exc:", "except Gl11Error as exc:"),
    ("digit-bound-raised", "induction-by-rule-1", LABELS, "MAX_DIGITS = 1000\n", "MAX_DIGITS = 1500\n"),
    ("spread-one-one-one", "fusion-on-keys", FUSION, "key: 2, (kind, n + d, second): 1}", "key: 1, (kind, n + d, second): 1}"),
    ("monodromy-kappa-negated", "fusion-on-keys", EXT, "    num = xp * (2 * cp", "    k2 = -k2\n    num = xp * (2 * cp"),
    # these two checks moved from validate's body into _relations, which
    # validate and decompose share; the mutants drop the same checks there
    # (the square check then followed each operator's one row index, with
    # the same edit)
    (
        "validate-no-psi-square",
        "oracle-weights",
        ORACLE,
        '        if any(_add_product({}, x, x_rows).values()):\n            raise OracleError(f"{name} squared is not zero")\n',
        "",
    ),
    (
        "validate-no-parity",
        "oracle-weights",
        ORACLE,
        '        if any(parity[i] == parity[j] for i, j in x):\n'
        '            raise OracleError(f"{name} breaks the parity of the module")\n',
        "",
    ),
    # followed the Koszul sign onto the int entries tensor builds, with the same edit
    ("tensor-no-koszul-sign", "oracle-weights", ORACLE, "odd = [(l, j, -v) for l, j, v in even]", "odd = [(l, j, v) for l, j, v in even]"),
    ("kz-direct-a0", "kz-grid", KZ, "2 * d * (2 * d - 1) / (1 - z)", "2 * d * (2 * d + 1) / (1 - z)"),
    ("kz-m01-sign", "kz-grid", KZ, "m01 = tuple(-x / (1 - _Jet(z, 1))", "m01 = tuple(x / (1 - _Jet(z, 1))"),
    ("kz-jet-quotient-rule", "kz-grid", KZ, "return _Jet(q, -q * self.d / self.v)", "return _Jet(q, q * self.d / self.v)"),
    ("kz-log-tail-dropped", "kz-numerics", KZ, "    return prod * math.exp(log_tail)", "    return prod"),
    ("kz-euler-maclaurin-fifth", "kz-numerics", KZ, "1.0 / (6 * n**3)", "1.0 / (5 * n**3)"),
    (
        "kz-x-bound-dropped",
        "kz-numerics",
        KZ,
        '    if abs(xf) > _X_MAX:\n        raise ValueError("parameter too large for the z = 1 evaluation")\n',
        "",
    ),
    ("induced-cut-strict", "scaled-int-characters", CHARS, "top = (bound - q) // scale", "top = (bound - q - 1) // scale"),
    ("induced-left-d-times-b", "scaled-int-characters", CHARS, "(2 * g * (a + m * d) + d * e)", "(2 * g * (a + m * d) + d * b)"),
    ("atypical0-telescope-sign", "integer-offset-series", CHARS, "total = row[k] - total", "total = row[k] + total"),
    # the Verma window's ceil moved onto ints, and then into _z_span, which
    # char_atypical0 shares: both mutants make the same ceil-to-floor edit there
    ("verma-window-floor", "integer-offset-series", CHARS, "-((z0 * r - lo * den) // (r * den))", "(lo * den - z0 * r) // (r * den)"),
    ("below-strict", "integer-offset-series", SERIES, "if k[0] <= top}", "if k[0] < top}"),
    # _split is gone: its floor split is the constructor's divmod on ints,
    # and the mutant truncates there instead
    (
        "split-truncates",
        "integer-offset-series",
        SERIES,
        "divmod(x.numerator * den // x.denominator, den)",
        "(int(x), x.numerator * den // x.denominator - int(x) * den)",
    ),
    ("digits-unicode", "src-keeps-what-runs", LABELS, '_DIGITS = rf"[0-9]{{1,{MAX_DIGITS}}}"', '_DIGITS = rf"\\d{{1,{MAX_DIGITS}}}"'),
    ("m-range-plain-int", "src-keeps-what-runs", CLI, '"--m-range", type=_flag_int', '"--m-range", type=int'),
    (
        "unused-definition",
        "src-keeps-what-runs",
        LABELS,
        "def strip_parity(",
        "def _never_called():\n    return None\n\n\ndef strip_parity(",
    ),
    ("monodromy-swap-dropped", "closed-form-extensions", EXT, "    if type(s) is AtypicalA and type(c) is TypicalV:\n        s, c = c, s\n", ""),
    # these two followed weight_growth onto ints, where one sign test picks
    # lin- or lin+: the first flips the half-b spread reported, the second
    # makes the l + 2b test strict.  The former ell - b >= 0 test is gone:
    # it only chose between branches that give the same lin, which is why
    # its > mutant was equivalent.
    ("growth-half-b-sign", "closed-form-extensions", EXT, "lin_neg if b * (ell + 2 * b) <= 0 else lin_pos", "lin_pos if b * (ell + 2 * b) <= 0 else lin_neg"),
    ("growth-one-sign-strict", "closed-form-extensions", EXT, "if b * (ell + 2 * b) <= 0 else", "if b * (ell + 2 * b) < 0 else"),
    # followed epsilon's sign onto the int helpers, then onto _sign, then
    # into fusion._translate, and back into _rules' sign term t, with the same edit
    ("rule1-eps2-as-eps", "three-fusion-rules", FUSION, "else _twice_epsilon2(ell, second)\n", "else _sign(ell)\n"),
    # followed the step check onto the stored int maps, with the same edit
    ("relations-step-one", "oracle-on-ints", ORACLE, "((p, d), (q, -d))", "((p, 1), (q, -1))"),
    (
        "relations-no-anticommutator",
        "oracle-on-ints",
        ORACLE,
        '        raise OracleError("[psi+, psi-] does not act as E")\n',
        "        pass\n",
    ),
    ("zero-block-p-share-one", "oracle-on-ints", ORACLE, "((n, 2), (n + d, 1), (n - d, 1))", "((n, 1), (n + d, 1), (n - d, 1))"),
    ("zero-block-verma-above", "oracle-on-ints", ORACLE, "            rest[n - d] -= v\n", "            rest[n + d] -= v\n"),
    ("typical-pair-step-one", "oracle-on-ints", ORACLE, "spectrum[top - d] -= spectrum[top]", "spectrum[top - 1] -= spectrum[top]"),
    ("rank-no-pivot-scale", "oracle-on-ints", ORACLE, "[pv * v - f * w for v, w", "[v - f * w for v, w"),
    ("growth-spread-b", "label-outputs-on-ints", EXT, "lin + abs(b) * h, lin - abs(b) * h", "lin + b * h, lin - b * h"),
    ("growth-atypical-scale-without-2", "label-outputs-on-ints", EXT, "d = lcm(2 * q, nq)", "d = lcm(q, nq)"),
    ("growth-typical-scale-without-2", "label-outputs-on-ints", EXT, "d = lcm(2 * q * g, nq)", "d = lcm(q * g, nq)"),
    # followed the sign of b onto labels._sign, and then into _step, which
    # r now reads: the same fault, sign(b) q added where it is taken away,
    # is made in weight_growth alone
    ("growth-rate-sign-b-flipped", "label-outputs-on-ints", EXT, "r = _step(ext) + b * q", "r = _step(ext) + (b + 2 * _sign(b)) * q"),
    ("flow-negative-numerator", "label-outputs-on-ints", LABELS, "(2 * ell + 1) * q", "(2 * ell - 1) * q"),
    ("flow-positive-numerator", "label-outputs-on-ints", LABELS, "(1 - 2 * ell) * q - 2 * p", "(1 - 2 * ell) * q + 2 * p"),
    # followed the flowed label onto the int constructor, with the same edit
    ("flow-verma-back-keeps-ell", "label-outputs-on-ints", LABELS, "label.ell + ell, 1, label.parity_flip", "ell, 1, label.parity_flip"),
    # followed the constructor's store into the helper both builders share,
    # and then into its call of the trusted builder, with the same edit
    ("oracle-parity-as-passed", "label-outputs-on-ints", ORACLE, "cls._trusted(tuple(parity), d", "cls._trusted(parity, d"),
    # followed the verdict onto main's one return line, with the same edit
    ("kz-verify-fail-exits-zero", "label-outputs-on-ints", CLI, 'payload.get("all_pass", True) else 1', 'payload.get("all_pass", True) else 0'),
    ("key-no-gcd", "int-class-keys", SERIES, "    g = math.gcd(q0, z0, y, den)\n", "    g = 1\n"),
    ("low-comparison-flipped", "int-class-keys", SERIES, "num * low[1] < low[0] * den", "num * low[1] > low[0] * den"),
    # followed its ceil into _z_span: the statement verma-window-floor edits
    ("atypical0-k-lo-floor", "int-class-keys", CHARS, "-((z0 * r - lo * den) // (r * den))", "(lo * den - z0 * r) // (r * den)"),
    (
        "below-truncates-negative",
        "int-class-keys",
        SERIES,
        "(num * key[3] - key[0] * den) // (den * key[3]) - dq",
        "int((num * key[3] - key[0] * den) / (den * key[3])) - dq",
    ),
    ("module-hash-from-fields", "int-class-keys", ORACLE, "    __hash__ = None\n", ""),
    ("ext-warnings-dropped", "each-thing-once", CLI, '{**out, "warnings": caught} if caught else out', "out"),
    (
        "ext-default-level1",
        "each-thing-once",
        CLI,
        '{"sl21-neg-half": "SL21_MINUS_HALF", "sl21-level1": "SL21_LEVEL1"}',
        '{"sl21-level1": "SL21_LEVEL1", "sl21-neg-half": "SL21_MINUS_HALF"}',
    ),
    ("z-span-hi-ceil", "each-thing-once", CHARS, "(hi * den - z0 * t) // (t * den)", "-((z0 * t - hi * den) // (t * den))"),
    ("residual-without-r1-prime", "each-thing-once", KZ, "float(a2 * (r1.v * r1.v + r1.d))", "float(a2 * (r1.v * r1.v))"),
    (
        "kind-order-a-v-swapped",
        "one-owner-per-rule",
        LABELS,
        '{AtypicalA: "A", TypicalV: "V", VermaV0',
        '{TypicalV: "V", AtypicalA: "A", VermaV0',
    ),
    ("fin-label-repr-comma", "one-owner-per-rule", ORACLE, "({';'.join(map(str, self._values()))})", "({','.join(map(str, self._values()))})"),
    (
        "checked-error-unstripped",
        "one-owner-per-rule",
        FUSION,
        'f"cannot fuse {strip_parity(a)!r} and {strip_parity(b)!r}"',
        'f"cannot fuse {a!r} and {b!r}"',
    ),
    ("report-entry-gt", "one-owner-per-rule", KZ, '"pass" if worst < threshold', '"pass" if worst > threshold'),
    ("residual-tail-loose", "one-owner-per-rule", KZ, "_RESIDUAL_TAIL = 1e-14", "_RESIDUAL_TAIL = 1e-6"),
    ("formal-sum-allows-minus-one", "one-owner-round-3", LABELS, "if mult < 0:", "if mult < -1:"),
    ("cutoff-rejects-zero", "one-owner-round-3", SERIES, "    if q.numerator < 0:\n", "    if q.numerator <= 0:\n"),
    ("z-cut-upper-strict", "one-owner-round-3", CHARS, "if lo <= k[1] <= hi}", "if lo <= k[1] < hi}"),
    ("l0-psi-term-added", "one-owner-round-3", ORACLE, "out.get(key, 0) - v / k", "out.get(key, 0) + v / k"),
    ("fin-label-strips-unicode", "one-owner-round-3", CLI, "body = text.strip(WHITESPACE)", "body = text.strip()"),
    ("fin-label-parts-strip-unicode", "one-owner-round-3", CLI, "[part.strip(WHITESPACE) for part", "[part.strip() for part"),
    # these two followed _new's two gcds apart, where ehat's is taken only
    # when eq != 1, with the same edit
    ("label-n-unreduced", "labels-carry-ints", LABELS, "g = gcd(np, nq)", "g = 1"),
    ("label-ehat-unreduced", "labels-carry-ints", LABELS, "h = gcd(ep, eq)", "h = 1"),
    ("key-scale-off-by-one", "labels-carry-ints", FUSION, "n = x._np * (d // x._nq)", "n = x._np * (d // x._nq + 1)"),
    # these two followed the hash onto the tuple of stored ints, which
    # __eq__ also spells: so each old text starts at "hash(("
    ("label-hash-drops-parity", "labels-carry-ints", LABELS, "hash((self._np, self._nq, self._ep, self._eq, self.parity_flip))", "hash((self._np, self._nq, self._ep, self._eq))"),
    ("label-hash-inverse-negated", "labels-carry-ints", LABELS, "hash((self._np, self._nq", "hash((-self._np, self._nq"),
    ("label-eq-ignores-denominator", "labels-carry-ints", LABELS, "(self._np, self._nq, self._ep, self._eq, self.parity_flip) == (", "(self._np, self._ep, self._eq, self.parity_flip) == ("),
    ("is-local-reads-two", "labels-carry-ints", EXT, "    for m in (1, -1):\n", "    for m in (2, -2):\n"),
    # followed the denominator of a onto the int the extension keeps, and
    # then onto the generators A(+-a; +-b) read as ints: the numerator over
    # half its denominator is the generator's n doubled, as before
    ("is-local-generator-over-q", "labels-carry-ints", EXT, "_monodromy(s, m * ext._ap, ext._aq", "_monodromy(s, 2 * m * ext._ap, ext._aq"),
    ("parse-ell-unchecked", "labels-carry-ints", LABELS, "    if cls is not TypicalV and ep % eq:\n", "    if False:\n"),
    ("render-over-one", "labels-carry-ints", LABELS, 'return f"{p}/{q}" if q != 1 else str(p)', 'return f"{p}/{q}"'),
    ("contragredient-typical-keeps-parity", "labels-carry-ints", LABELS, "not flip if kind is TypicalV else flip)", "flip)"),
    ("scale-skips-typical-ehat", "labels-carry-ints", FUSION, "lcm(2, a._nq, b._nq, a._eq, b._eq)", "lcm(2, a._nq, b._nq)"),
    ("z-window-check-dropped", "labels-carry-ints", CHARS, "    window = None if z_window is None else _window(z_window)\n", "    window = z_window and _window(z_window) if isinstance(label, (TypicalV, VermaV0)) else None\n"),
    ("tensor-keeps-cancelled-sum", "oracle-trusted-builder", ORACLE, "                    if not v:\n                        continue\n", ""),
    ("realize-verma-keeps-zero-psi-p", "oracle-trusted-builder", ORACLE, "psi_p = {(0, 1): e} if e else {}", "psi_p = {(0, 1): e}"),
    # these two followed realize onto the ints it stores, with the same
    # edits, and the second then followed the trusted builder's one scale
    ("realize-projective-psi-m-sign", "oracle-trusted-builder", ORACLE, "(3, 1): -b}", "(3, 1): b}"),
    ("realize-atypical-shares-a-dict", "oracle-trusted-builder", ORACLE, "((0, a),), {}, {})", "((0, a),), *[{}] * 2)"),
    # an atypical's zero e is now an int key, and its Fraction type comes
    # from the weight view: the mutant reads a zero e there as the int 0
    # (it followed the view, now built on each read, with the same edit)
    (
        "realize-atypical-int-weight",
        "oracle-trusted-builder",
        ORACLE,
        "tuple((Fraction(e, self._d), Fraction(n, self._d))",
        "tuple((e and Fraction(e, self._d), Fraction(n, self._d))",
    ),
    # these two followed the sign onto labels._sign, with the same edits
    ("twice-eps2-total-sign", "oracle-trusted-builder", LABELS, "- _sign(ell + ell2)", "+ _sign(ell + ell2)"),
    # extensions no longer imports epsilon, so the mutant reads epsilon's
    # own Fraction, Fraction(sign(l), 2), in place of the call
    (
        "monodromy-reads-epsilon-fraction",
        "oracle-trusted-builder",
        EXT,
        "k2 = _sign(ell) if type(s) is TypicalV",
        "k2 = Fraction(_sign(ell), 2).numerator if type(s) is TypicalV",
    ),
    (
        "atypical-window-checked-twice",
        "oracle-trusted-builder",
        CHARS,
        "return _atypical0(label._np, label._nq, q_cutoff, window)",
        "return char_atypical0(label.n, q_cutoff, z_window)",
    ),
    ("sign-of-zero-is-one", "one-sign-owner", LABELS, "return (x > 0) - (x < 0)", "return (x >= 0) - (x < 0)"),
    ("delta-projective-shift-flipped", "one-sign-owner", LABELS, "a -= _sign(label.ell) * d", "a += _sign(label.ell) * d"),
    ("label-hash-drops-denominator", "one-sign-owner", LABELS, "hash((self._np, self._nq, self._ep", "hash((self._np, self._ep"),
    ("verma-factor-shift-flipped", "one-sign-owner", LABELS, "p + _sign(ell) * q, q, ell, 1)])", "p - _sign(ell) * q, q, ell, 1)])"),
    ("tensor-second-keys-unscaled", "oracle-int-form", ORACLE, "b_keys = [(e * fb, n * fb) for e, n in b._keys]", "b_keys = b._keys"),
    ("tensor-koszul-sign-on-even", "oracle-int-form", ORACLE, "for l, j, v in odd if p else even:", "for l, j, v in even if p else odd:"),
    # followed tensor's one factor pair, which scales keys and entries alike, with the same edit
    ("tensor-first-entries-unscaled", "oracle-int-form", ORACLE, ": v * fa for (k, i)", ": v for (k, i)"),
    ("realize-verma-scale-without-2", "oracle-int-form", ORACLE, "d = lcm(2 * b, g)", "d = lcm(b, g)"),
    # the ehat view moved from TypicalV up to ModuleLabel; this mutant
    # followed it with the same edit
    ("typical-ehat-view-drops-denominator", "views-on-each-read", LABELS, "lambda self: Fraction(self._ep, self._eq)", "lambda self: Fraction(self._ep)"),
    ("n-view-drops-denominator", "views-on-each-read", LABELS, "lambda self: Fraction(self._np, self._nq)", "lambda self: Fraction(self._np)"),
    # labels.ehat() is gone: the sort key reads the view, and the mutant
    # followed it there with the same edit
    ("sort-ehat-drops-denominator", "views-on-each-read", LABELS, "type(label)], label.ehat, label.n", "type(label)], Fraction(label._ep), label.n"),
    ("series-terms-writable", "views-on-each-read", SERIES, "self._terms = MappingProxyType({", "self._terms = dict({"),
    # the tests' dual and coevaluations: a sign slip in either must show
    ("dual-naive-transpose", "views-on-each-read", DUALS, "-(-1) ** parity[r] * v for", "-v for"),
    ("coevaluation-signed", "views-on-each-read", DUALS, ": 1 for i in range(m.dim)}", ": (-1) ** m.parity[i] for i in range(m.dim)}"),
    ("coevaluation-mirror-unsigned", "views-on-each-read", DUALS, "{i * m.dim + i: (-1) ** p for i, p", "{i * m.dim + i: 1 for i, p"),
    ("contragredient-keeps-n", "views-on-each-read", LABELS, "_new(kind, -label._np, label._nq", "_new(kind, label._np, label._nq"),
    # Frozen's one path, and the constructors it no longer writes (the first
    # followed the derived fields, which no longer filter underscored slots,
    # with the same edit)
    ("frozen-slotless-clears-fields", "one-frozen-path", FROZEN, 'if cls.__slots__ and "_fields" not in cls.__dict__:', 'if "_fields" not in cls.__dict__:'),
    ("frozen-eq-false", "one-frozen-path", FROZEN, "        return NotImplemented\n", "        return False\n"),
    ("frozen-hash-drops-first-field", "one-frozen-path", FROZEN, "return hash(self._values())", "return hash(self._values()[1:])"),
    (
        "weight-growth-coefficients-swapped",
        "one-frozen-path",
        EXT,
        'object.__setattr__(self, "quadratic_coeff", quadratic_coeff)\n'
        '        object.__setattr__(self, "linear_coeff", linear_coeff)\n',
        'object.__setattr__(self, "quadratic_coeff", linear_coeff)\n'
        '        object.__setattr__(self, "linear_coeff", quadratic_coeff)\n',
    ),
    ("ode-a1-stored-as-a0", "one-frozen-path", KZ, 'object.__setattr__(self, "a1", a1)', 'object.__setattr__(self, "a1", a0)'),
    ("cli-choices-unquoted", "one-frozen-path", CLI, "(choose from {', '.join(map(repr, action.choices))})", "(choose from {', '.join(map(str, action.choices))})"),
    # a module's one scale: E's diagonal, the constructor's lcm over weights
    # and entries, and the factor that scales b's entries in tensor
    ("relations-e-unscaled", "oracle-one-scale", ORACLE, "e * d for", "e for"),
    (
        "scale-without-entry-denominators",
        "oracle-one-scale",
        ORACLE,
        ", *(v.denominator for x in maps for v in x.values()))",
        ")",
    ),
    ("scale-without-weight-denominators", "oracle-one-scale", ORACLE, "lcm(*(x.denominator for w in weights for x in w), ", "lcm("),
    ("tensor-second-entries-by-fa", "oracle-one-scale", ORACLE, "(l, j, v * fb) for", "(l, j, v * fa) for"),
    # the CLI's one exit rule, monodromy's verdict read from is_local,
    # epsilon without its shared halves, and kz's bound on tol
    ("all-pass-default-false", "one-owner-round-4", CLI, 'payload.get("all_pass", True)', 'payload.get("all_pass", False)'),
    ("monodromy-local-negated", "one-owner-round-4", CLI, '{"exponents": rows, "local": extensions', '{"exponents": rows, "local": not extensions'),
    ("epsilon-sign-flipped", "one-owner-round-4", LABELS, "Fraction(_sign(ell), 2)", "Fraction(-_sign(ell), 2)"),
    ("epsilon2-over-one", "one-owner-round-4", LABELS, "Fraction(_twice_epsilon2(ell, ell2), 2)", "Fraction(_twice_epsilon2(ell, ell2), 1)"),
    (
        "kz-tol-threshold-unbounded",
        "one-owner-round-4",
        KZ,
        '    if 10 * tol == math.inf:\n'
        '        raise ValueError(f"tol {tol!r} is too large: its z = 1 threshold 10 * tol is not a finite float")\n',
        "",
    ),
    # the tests' evaluations: a sign slip in either must show
    ("evaluation-signed", "one-owner-round-4", DUALS, ": 1 for i in range(m.dim) for j", ": (-1) ** m.parity[i] for i in range(m.dim) for j"),
    ("evaluation-mirror-unsigned", "one-owner-round-4", DUALS, ": (-1) ** m.parity[i] for i in range(m.dim) for j", ": 1 for i in range(m.dim) for j"),
    # an orbit's normal form: the floor's sign, the b = 0 branch, a
    # representative one summand off the window, and the two Fraction views
    ("orbit-b-floor-unsigned", "orbit-normal-form", EXT, "m = -(s._ep // (s._eq * ext.b))", "m = s._ep // (s._eq * ext.b)"),
    ("orbit-b0-branch-dropped", "orbit-normal-form", EXT, "    elif ext._ap:\n", "    elif False:\n"),
    ("orbit-b-window-shifted", "orbit-normal-form", EXT, "m = -(s._ep // (s._eq * ext.b))", "m = -(s._ep // (s._eq * ext.b)) + 1"),
    ("orbit-b0-window-shifted", "orbit-normal-form", EXT, "m = -(s._np * ext._aq // (s._nq * ext._ap))", "m = -(s._np * ext._aq // (s._nq * ext._ap)) + 1"),
    ("ehat-view-reads-n", "orbit-normal-form", LABELS, "ehat = property(lambda self: Fraction(self._ep, self._eq)", "ehat = property(lambda self: Fraction(self._np, self._nq)"),
    ("extension-a-view-swapped", "orbit-normal-form", EXT, "lambda self: Fraction(self._ap, self._aq)", "lambda self: Fraction(self._aq, self._ap)"),
    # the int rank's one-row/one-column shortcut, and each operator's one row index
    ("rank-shortcut-counts-rows", "one-row-index", ORACLE, "return int(any(map(any, rows)))", "return int(bool(rows))"),
    ("psi-square-reads-q-rows", "one-row-index", ORACLE, '(("psi+", p, p_rows), ("psi-", q, q_rows))', '(("psi+", p, q_rows), ("psi-", q, q_rows))'),
    ("anticommutator-drops-qp", "one-row-index", ORACLE, "anti = _add_product(dict(pq), q, p_rows)", "anti = dict(pq)"),
    # labels built through the slot setters, and induction as rule 1 in
    # closed form: the gcd skip keyed on the kind (an unreduced integral
    # ehat such as 4/2 stays unreduced), the sign term read at m, the
    # typical shift of d/2 flipped, the sign of b dropped from the step
    # a - eps(b), and a typical base's scale s taken as 1.  When induction
    # became a translation along the orbit, each followed its code with the
    # same edit: the sign term into the A and P branch of _summands, the
    # typical shift back into _rules' t, the step into _step, and the scale
    # s into the V branch's ehat and its denominator
    ("new-gcd-skip-by-kind", "slot-speed-labels", LABELS, "    if eq != 1:\n", "    if kind is TypicalV:\n"),
    ("summand-eps-at-m", "slot-speed-labels", EXT, "(_sign(x + m * b) - t)", "(_sign(x + m) - t)"),
    ("translate-typical-half-flipped", "slot-speed-labels", FUSION, "t = _sign(ell) if other is TypicalV", "t = -_sign(ell) if other is TypicalV"),
    ("step-drops-sign-b", "slot-speed-labels", EXT, "2 * ext._ap - _sign(ext.b) * ext._aq", "2 * ext._ap - ext._aq"),
    ("summand-typical-scale-one", "slot-speed-labels", EXT, "x + m * b * d, d)", "x + m * b, 1)"),
    # induction as a translation along the orbit: _step's sign(b) flipped,
    # the base's sign t dropped, t taken per summand from x + m b (so the
    # A and P correction is always 0), and the V branch's ehat without d
    ("step-sign-b-flipped", "orbit-translation", EXT, "2 * ext._ap - _sign(ext.b) * ext._aq", "2 * ext._ap + _sign(ext.b) * ext._aq"),
    ("summand-drops-t", "orbit-translation", EXT, "(_sign(x + m * b) - t) * half", "_sign(x + m * b) * half"),
    ("summand-t-per-summand", "orbit-translation", EXT, "(_sign(x + m * b) - t) * half", "(_sign(x + m * b) - _sign(x + m * b)) * half"),
    ("summand-typical-without-d", "orbit-translation", EXT, "x + m * b * d, d)", "x + m * b, d)"),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _apply(dest: Path, mutant: tuple) -> None:
    mid, _, file, old, new = mutant
    path = dest / file
    text = path.read_text()
    if text.count(old) != 1:
        print(f"mutant {mid}: its old text occurs {text.count(old)} times in {file}, not once", file=sys.stderr)
        raise SystemExit(2)
    path.write_text(text.replace(old, new))


def _tier1(dest: Path) -> tuple[bool, str]:
    """Did Tier-1 pass in dest, and the first failing test's line if not."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, *TIER1], cwd=dest, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines() or [""]
    return run.returncode == 0, next((x for x in lines if x.startswith(("FAILED", "ERROR"))), lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", metavar="ID", help="run only this mutant")
    args = parser.parse_args(argv)
    known = {m[0]: m for m in MUTANTS}
    if len(known) != len(MUTANTS):
        parser.error("mutant ids must be unique")
    unknown = set(args.only or ()) - set(known)
    if unknown:
        parser.error(f"unknown mutant ids: {sorted(unknown)}")
    chosen = [known[mid] for mid in args.only] if args.only else MUTANTS
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in chosen:  # every old text must match before anything runs
            dest = Path(tmp) / mutant[0]
            dest.mkdir()
            _copy(dest)
            _apply(dest, mutant)
        base = Path(tmp) / "unmutated"
        base.mkdir()
        _copy(base)
        passed, detail = _tier1(base)
        if not passed:
            print(f"the unmutated copy fails Tier-1: {detail}")
            return 2

        def timed(mutant: tuple) -> tuple[bool, str, float]:
            start = time.perf_counter()
            return (*_tier1(Path(tmp) / mutant[0]), time.perf_counter() - start)

        survivors = []
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            for mutant, (passed, detail, took) in zip(chosen, pool.map(timed, chosen)):
                print(f"{'SURVIVED' if passed else 'caught  '} {mutant[0]} ({mutant[1]}, {took:.1f} s) {detail}", flush=True)
                if passed:
                    survivors.append(mutant[0])
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants caught")
    if survivors:
        print("survivors: " + ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
