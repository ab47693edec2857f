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
An unmutated copy runs first and must pass, so that a broken copy cannot
count as a caught mutant.  The survivors are listed, and the exit status is
1 if there is any, 2 if a mutant does not apply or the unmutated copy fails.

Pytest does not collect this file: its name does not start with ``test_``.

A mutant is (id, origin, file, old text, new text), where the origin names
the change that first ran it by hand or added it here.  Mutants are added,
never deleted or re-aimed to make the run pass; a survivor is a defect of
the tests.  When the code a mutant edits moves, the mutant follows it with
the same edit, and CHANGES.md says so.  CHANGES.md records the hand-run
mutants whose code is gone.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
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

MUTANTS = [
    # followed the sign of m onto labels._sign, with the same edit
    ("generator-numerator-plus-m", "induction-by-rule-1", EXT, "(_sign(m) - m)", "(_sign(m) + m)"),
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
    ("cli-value-error-escapes", "induction-by-rule-1", CLI, "except (Gl11Error, UsageError, ValueError) as exc:", "except (Gl11Error, UsageError) as exc:"),
    ("digit-bound-raised", "induction-by-rule-1", LABELS, "MAX_DIGITS = 1000\n", "MAX_DIGITS = 1500\n"),
    ("spread-one-one-one", "fusion-on-keys", FUSION, "key: 2, (kind, n + d, second): 1}", "key: 1, (kind, n + d, second): 1}"),
    ("monodromy-kappa-negated", "fusion-on-keys", EXT, "    num = xp * (2 * cp", "    k2 = -k2\n    num = xp * (2 * cp"),
    # these two checks moved from validate's body into _relations, which
    # validate and decompose share; the mutants drop the same checks there
    (
        "validate-no-psi-square",
        "oracle-weights",
        ORACLE,
        '        if mul(x, x):\n            raise OracleError(f"{name} squared is not zero")\n',
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
    ("tensor-no-koszul-sign", "oracle-weights", ORACLE, "                v = -v if p == ODD else v\n", ""),
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
    ("equivalent-off-by-one", "src-keeps-what-runs", EXT, "_summands(s, ext, (int(m),))", "_summands(s, ext, (int(m) + 1,))"),
    ("monodromy-swap-dropped", "closed-form-extensions", EXT, "    if type(s) is AtypicalA and type(c) is TypicalV:\n        s, c = c, s\n", ""),
    # these two followed weight_growth onto ints, where one sign test picks
    # lin- or lin+: the first flips the half-b spread reported, the second
    # makes the l + 2b test strict.  The former ell - b >= 0 test is gone:
    # it only chose between branches that give the same lin, which is why
    # its > mutant was equivalent.
    ("growth-half-b-sign", "closed-form-extensions", EXT, "lin_neg if b * (ell + 2 * b) <= 0 else lin_pos", "lin_pos if b * (ell + 2 * b) <= 0 else lin_neg"),
    ("growth-one-sign-strict", "closed-form-extensions", EXT, "if b * (ell + 2 * b) <= 0 else", "if b * (ell + 2 * b) < 0 else"),
    ("equivalent-b0-solve", "closed-form-extensions", EXT, "m = (s2.n - s.n) / ext.step", "m = (s2.n - s.n) / (ext.step + 1)"),
    ("equivalent-flat-true", "closed-form-extensions", EXT, "        return s == s2", "        return True"),
    # followed epsilon's sign onto the int helpers, and then onto _sign, with the same edit
    ("rule1-eps2-as-eps", "three-fusion-rules", FUSION, "_twice_epsilon2(ell, second) * half", "_sign(ell) * half"),
    ("relations-e-scale-s", "oracle-on-ints", ORACLE, "e_scale = (s // d) * s", "e_scale = s"),
    ("relations-step-one", "oracle-on-ints", ORACLE, "((m.psi_p, d), (m.psi_m, -d))", "((m.psi_p, 1), (m.psi_m, -1))"),
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
    # followed the sign of b onto labels._sign, with the same edit
    ("growth-rate-sign-b-flipped", "label-outputs-on-ints", EXT, "(b - _sign(b)) * q", "(b + _sign(b)) * q"),
    ("flow-negative-numerator", "label-outputs-on-ints", LABELS, "(2 * ell + 1) * q", "(2 * ell - 1) * q"),
    ("flow-positive-numerator", "label-outputs-on-ints", LABELS, "(1 - 2 * ell) * q - 2 * p", "(1 - 2 * ell) * q + 2 * p"),
    # followed the flowed label onto the int constructor, with the same edit
    ("flow-verma-back-keeps-ell", "label-outputs-on-ints", LABELS, "label.ell + ell, 1, label.parity_flip", "ell, 1, label.parity_flip"),
    # followed the constructor's store into the helper both builders share
    ("oracle-parity-as-passed", "label-outputs-on-ints", ORACLE, "_store(self, tuple(parity), weights", "_store(self, parity, weights"),
    (
        "kz-verify-fail-exits-zero",
        "label-outputs-on-ints",
        CLI,
        'payload.get("all_pass", True):\n        return 1',
        'payload.get("all_pass", True):\n        return 0',
    ),
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
    ("monodromy-local-reads-two", "each-thing-once", CLI, 'if row["m"] in (-1, 1)', 'if row["m"] in (-2, 2)'),
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
    ("label-n-unreduced", "labels-carry-ints", LABELS, "g, h = gcd(np, nq), gcd(ep, eq)", "g, h = 1, gcd(ep, eq)"),
    ("label-ehat-unreduced", "labels-carry-ints", LABELS, "g, h = gcd(np, nq), gcd(ep, eq)", "g, h = gcd(np, nq), 1"),
    ("key-scale-off-by-one", "labels-carry-ints", FUSION, "n = x._np * (d // x._nq)", "n = x._np * (d // x._nq + 1)"),
    # these two followed the hash onto the tuple of stored ints, which
    # __eq__ also spells: so each old text starts at "hash(("
    ("label-hash-drops-parity", "labels-carry-ints", LABELS, "hash((self._np, self._nq, self._ep, self._eq, self.parity_flip))", "hash((self._np, self._nq, self._ep, self._eq))"),
    ("label-hash-inverse-negated", "labels-carry-ints", LABELS, "hash((self._np, self._nq", "hash((-self._np, self._nq"),
    ("label-eq-ignores-denominator", "labels-carry-ints", LABELS, "(self._np, self._nq, self._ep, self._eq, self.parity_flip) == (", "(self._np, self._ep, self._eq, self.parity_flip) == ("),
    ("is-local-reads-two", "labels-carry-ints", EXT, "    for m in (1, -1):\n", "    for m in (2, -2):\n"),
    # followed the denominator of a onto the int the extension keeps
    ("is-local-generator-over-q", "labels-carry-ints", EXT, "    q2 = 2 * ext._aq\n    for m", "    q2 = ext._aq\n    for m"),
    ("parse-ell-unchecked", "labels-carry-ints", LABELS, "    if cls is not TypicalV and ep % eq:\n", "    if False:\n"),
    ("render-over-one", "labels-carry-ints", LABELS, 'return f"{p}/{q}" if q != 1 else str(p)', 'return f"{p}/{q}"'),
    ("view-rebuilds-given-fraction", "labels-carry-ints", LABELS, "return self._n  # the Fraction", "return Fraction(self._np, self._nq)  # the Fraction"),
    ("contragredient-typical-keeps-parity", "labels-carry-ints", LABELS, "not flip if kind is TypicalV else flip)", "flip)"),
    ("scale-skips-typical-ehat", "labels-carry-ints", FUSION, "lcm(2, a._nq, b._nq, a._eq, b._eq)", "lcm(2, a._nq, b._nq)"),
    ("z-window-check-dropped", "labels-carry-ints", CHARS, "    window = None if z_window is None else _window(z_window)\n", "    window = z_window and _window(z_window) if isinstance(label, (TypicalV, VermaV0)) else None\n"),
    ("tensor-keeps-cancelled-sum", "oracle-trusted-builder", ORACLE, "                    if not v:\n                        continue\n", ""),
    ("realize-verma-keeps-zero-psi-p", "oracle-trusted-builder", ORACLE, "psi_p = {(0, 1): e} if e else {}", "psi_p = {(0, 1): e}"),
    ("realize-projective-psi-m-sign", "oracle-trusted-builder", ORACLE, "(3, 1): _MINUS_ONE}", "(3, 1): _ONE}"),
    ("realize-atypical-shares-a-dict", "oracle-trusted-builder", ORACLE, "((_ZERO, label.n),), {}, {})", "((_ZERO, label.n),), *[{}] * 2)"),
    ("realize-atypical-int-weight", "oracle-trusted-builder", ORACLE, "(EVEN,), ((_ZERO, label.n)", "(EVEN,), ((0, label.n)"),
    # these two followed the sign onto labels._sign, with the same edits
    ("twice-eps2-total-sign", "oracle-trusted-builder", LABELS, "- _sign(ell + ell2)", "+ _sign(ell + ell2)"),
    (
        "monodromy-reads-epsilon-fraction",
        "oracle-trusted-builder",
        EXT,
        "k2 = _sign(ell) if type(s) is TypicalV",
        "k2 = epsilon(ell).numerator if type(s) is TypicalV",
    ),
    (
        "atypical-window-checked-twice",
        "oracle-trusted-builder",
        CHARS,
        "return _atypical0(label._np, label._nq, q_cutoff, window)",
        "return char_atypical0(label.n, q_cutoff, z_window)",
    ),
    ("derived-slot-as-field", "oracle-trusted-builder", FROZEN, 'names = tuple(name for name in cls.__slots__ if name[0] != "_")', "names = cls.__slots__"),
    ("sign-of-zero-is-one", "one-sign-owner", LABELS, "return (x > 0) - (x < 0)", "return (x >= 0) - (x < 0)"),
    ("delta-projective-shift-flipped", "one-sign-owner", LABELS, "a -= _sign(label.ell) * d", "a += _sign(label.ell) * d"),
    ("label-hash-drops-denominator", "one-sign-owner", LABELS, "hash((self._np, self._nq, self._ep", "hash((self._np, self._ep"),
    ("verma-factor-shift-flipped", "one-sign-owner", LABELS, "p + _sign(ell) * q, q, ell, 1)])", "p - _sign(ell) * q, q, ell, 1)])"),
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
        survivors = []
        for mutant in chosen:
            start = time.perf_counter()
            passed, detail = _tier1(Path(tmp) / mutant[0])
            took = time.perf_counter() - start
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
