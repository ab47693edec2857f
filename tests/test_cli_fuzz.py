"""A seeded grammar of argv lists through ``cli.main``, held to the README contract.

Every call exits 0, 1 or 2.  Exit 0 writes one JSON object to stdout and
nothing to stderr; exits 1 and 2 write one ``{"error": ...}`` object to
stderr and nothing to stdout, except a failing ``kz verify``, which exits 1
after printing its report.  No call lets an exception escape, shows a
traceback or Python's int-to-str digit limit, or runs past its time budget.
The draws cover labels of every kind, near-miss labels, numbers of 1000 and
1001 digits, non-ASCII digits and spaces, and every flag at and beyond its
bound.  ``--help`` is left out: its usage text on stdout is pinned in
``test_cli.py``.

Tier-1 runs the draws of ``SEED``; :func:`fuzz` runs any seed and count
outside pytest, for a larger run, and :func:`digest` also hashes what each
call wrote, so that two trees can be compared call by call::

    PYTHONPATH=src:tests python -c "import test_cli_fuzz as f; print(f.fuzz(2025, 3000))"
    PYTHONPATH=src:tests python -c "import test_cli_fuzz as f; print(f.digest(2025, 3000))"

Run as a script, it computes the digest that ``fuzz_digest.json`` pins and
exits 1 if the two differ.  A change that alters CLI output on purpose
updates that file and says why::

    PYTHONPATH=src:tests python tests/test_cli_fuzz.py
"""

import hashlib
import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

from gl11kl.cli import MAX_CHAR_CUTOFF, MAX_INDUCE_M_RANGE, main
from gl11kl.labels import MAX_DIGITS

SEED, DRAWS = 2024, 300
#: seconds any one call may take; the slowest draw here takes about 0.3 s, and
#: char at its cutoff bound with 1000-digit numbers takes 1-2 s
CALL_BUDGET = 5.0

WIDE = "9" * MAX_DIGITS
TOO_WIDE = "9" * (MAX_DIGITS + 1)
INTS = ["0", "1", "-1", "2", "-3", "007", WIDE, "-" + WIDE]
ODD = ["٣", "１", "1 ", " 1", "1\u00a0", "1.5", "1e3", "1/0", "1/-2", "--1", "", " ", "x", "½", TOO_WIDE, "1/" + TOO_WIDE]


def _rational(rng, near_miss=0.15):
    if rng.random() < near_miss:
        return rng.choice(ODD)
    if rng.random() < 0.5:
        return rng.choice(INTS)
    return f"{rng.choice(INTS)}/{rng.choice(['2', '3', '7', WIDE])}"


def _nonintegral(rng):
    text = f"{rng.choice(INTS)}/{rng.choice(['2', '3', '7', WIDE])}"
    return text if Fraction(text).denominator != 1 else "1/2"


def _label(rng):
    """A label of any kind, or in a quarter of the draws a near miss."""
    kind = rng.choice(["V", "A", "P", "Verma0", "PiV", "piA", "PIP", "verma0", "v", "a"])
    second = _nonintegral(rng) if kind.lower().endswith("v") else rng.choice(INTS)
    if rng.random() < 0.75:
        return f"{kind}({_rational(rng, 0)};{second})"
    n = _rational(rng, 0.5)
    bad_kind = rng.choice(["X", "Pi", "PiPiV", "VV", "Verma", "V0"])
    return rng.choice(
        [
            f"{kind}({n};{rng.choice(ODD)})",
            f"{kind}({n};{rng.choice(INTS) if kind.lower().endswith('v') else _nonintegral(rng)})",
            f"{bad_kind}({n};{second})",
            f"{kind}({n})",
            f"{kind}({n};{second}",
            f"{kind}({n};{second};1)",
            f" {kind} ( {n} ; {second} ) ",
            f"\u00a0{kind}({n};{second})",
            f"{kind}[{n};{second}]",
            "",
            "()",
            f"{kind}(;)",
        ]
    )


def _fin_label(rng):
    kind = rng.choice(["V", "A", "P", "a", "p", "X"])
    args = [_rational(rng)] + ([_nonintegral(rng)] if kind == "V" or rng.random() < 0.1 else [])
    return f"{kind}({';'.join(args)})" if rng.random() < 0.9 else rng.choice(["V(1/2)", "A()", "P(1;2)", "A(0"])


def _ext(rng):
    a = rng.choice(["0", "1/2", "-2/3", "1/3", WIDE, WIDE + "/7", "-" + WIDE + "/3", _rational(rng)])
    b = rng.choice(["0", "1", "-2", "3", "1/2", WIDE, TOO_WIDE, _rational(rng)])
    return rng.choice(
        ["sl21-neg-half", "sl21-level1", f"custom:{a},{b}", f"custom:{a},{b}", f"custom:{a},0", f"custom:0,{b}"]
        + ["custom:1/2", "custom:", "custom:1,2,3", "nonsense", "SL21-LEVEL1", "custom:٣,1"]
    )


def _bounded(rng, bound):
    """A flag value at and below its bound in half the draws, else beyond it or malformed."""
    if rng.random() < 0.5:
        return rng.choice(["0", "1", "3", str(bound), f"{2 * bound}/2"])
    return rng.choice([str(bound + 1), "-1", "1/2", "٣", "1\u00a0", WIDE, TOO_WIDE, "1e3", ""])


def _argv(rng):
    command = rng.choice(["fuse", "kdec", "char", "induce", "induce", "monodromy", "local", "oracle", "kz", "other"])
    if command == "fuse":
        argv = ["fuse", _label(rng), _label(rng)]
    elif command == "kdec":
        argv = ["kdec", _label(rng)]
    elif command == "char":
        argv = ["char", _label(rng)]
        if rng.random() < 0.7:
            argv += ["--cutoff", _bounded(rng, MAX_CHAR_CUTOFF)]
        if rng.random() < 0.6:
            argv.append(f"--z-window={_rational(rng)},{_rational(rng)}")
    elif command == "induce":
        argv = ["induce", _label(rng)]
        if rng.random() < 0.8:
            argv += ["--ext", _ext(rng)]
        if rng.random() < 0.8:
            argv += ["--m-range", _bounded(rng, MAX_INDUCE_M_RANGE)]
    elif command in ("monodromy", "local"):
        argv = [command, _label(rng)] + (["--ext", _ext(rng)] if rng.random() < 0.8 else [])
    elif command == "oracle":
        argv = ["oracle", _fin_label(rng), _fin_label(rng)]
    elif command == "kz":
        argv = ["kz", rng.choice(["verify", "verify", "check", ""])]
        if rng.random() < 0.7:
            argv += ["--tol", rng.choice(["1e-12", "1e-3", "0.5", "1e-15", "1e-16", "0", "-1", "nan", "inf", "x", WIDE])]
    else:
        argv = rng.choice([[], ["frobnicate"], ["fuse"], ["fuse", "A(0;0)"], ["kdec", "A(0;0)", "A(0;0)"], ["--json"]])
    if rng.random() < 0.05:
        argv.insert(0, "--json")
    if rng.random() < 0.05:
        argv.append(rng.choice(["--bogus", "extra", "--m-range"]))
    return argv


def _draws(seed=SEED, count=DRAWS):
    rng = Random(seed)
    pinned = [
        ["induce", "A(1/3;2)", "--ext", f"custom:{a},{b}", "--m-range", str(m)]
        for a, b in (("2/3", "0"), ("0", "3"), (WIDE + "/7", "-2"))
        for m in (0, MAX_INDUCE_M_RANGE, MAX_INDUCE_M_RANGE + 1)
    ]
    return pinned + [_argv(rng) for _ in range(count)]


def _one_json_object(text):
    assert text.endswith("\n") and text.count("\n") == 1, text[:200]
    value = json.loads(text)
    assert isinstance(value, dict)
    return value


def _call(argv):
    """Exit code and seconds of one ``main`` call; an escaping exception breaks the contract."""
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except Exception as exc:
        raise AssertionError(f"{argv!r} raised {exc!r}") from exc
    return code, time.perf_counter() - start


def _hold(argv, code, took, out, err):
    """Hold one finished call, with what it wrote to stdout and stderr, to the contract."""
    context = (argv, code, out[:200], err[:200])
    assert code in (0, 1, 2), context
    assert took < CALL_BUDGET, (argv, took)
    for text in (out, err):
        assert "Traceback" not in text and "int_max_str_digits" not in text, context
    if code == 0:
        _one_json_object(out)
        assert err == "", context
    elif argv[:2] == ["kz", "verify"] and code == 1 and out:
        assert _one_json_object(out)["all_pass"] is False and err == "", context
    else:
        assert out == "", context
        assert set(_one_json_object(err)) == {"error"}, context


def test_cli_fuzz_keeps_the_contract(capsys):
    codes = set()
    for argv in _draws():
        code, took = _call(argv)
        _hold(argv, code, took, *capsys.readouterr())
        codes.add(code)
    assert codes == {0, 1, 2}


def fuzz(seed, count) -> Counter:
    """The draws of one seed held to the contract outside pytest; the count of each exit code.

    Raises AssertionError on the first call that breaks the contract.
    """
    return digest(seed, count)[1]


def digest(seed, count) -> tuple:
    """(sha256, exit-code counts) of the draws of one seed, each held to the contract.

    The sha256 is over one ``json.dumps([argv, code, stdout, stderr])`` line
    per call, each ended by a newline, in draw order.
    """
    codes, sha = Counter(), hashlib.sha256()
    for argv in _draws(seed, count):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code, took = _call(argv)
        _hold(argv, code, took, out.getvalue(), err.getvalue())
        codes[code] += 1
        sha.update((json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n").encode())
    return sha.hexdigest(), codes


def check_pinned(path=Path(__file__).with_name("fuzz_digest.json")) -> bool:
    """Print the digest of the pinned seed and count; is it the pinned one?"""
    pinned = json.loads(path.read_text())
    sha, codes = digest(pinned["seed"], pinned["count"])
    got = {"sha256": sha, "exits": {str(code): codes[code] for code in sorted(codes)}}
    print(f"CLI fuzz digest({pinned['seed']}, {pinned['count']}): {got['sha256']}, exits {got['exits']}")
    same = got == {"sha256": pinned["sha256"], "exits": pinned["exits"]}
    if not same:
        print(f"{path.name} pins {pinned['sha256']}, exits {pinned['exits']}")
    return same


if __name__ == "__main__":
    sys.exit(0 if check_pinned() else 1)
