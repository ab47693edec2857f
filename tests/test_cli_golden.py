"""Golden CLI transcripts: exit code, stdout and stderr of ``main(argv)``.

Each entry of ``cli_golden.json`` is one argv list with the exact output it
produced when the fixture was written.  A change that alters CLI output on
purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and lists the entries whose output changed.  A passing ``kz verify`` is
left out, as its floats come from the platform's libm; only a ``tol`` it
rejects is pinned.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from gl11kl.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")
_SEVENS = "7" * 3000  # wider than the 1000 digits an integer may have

ARGVS = [
    # fuse: every kind pair, case-insensitive kinds, scope and usage errors
    ["fuse", "A(1;0)", "A(2;0)"],
    ["fuse", "A(1/2;-2)", "A(1/3;3)"],
    ["fuse", "V(1/4;1/2)", "V(1/4;1/2)"],
    ["fuse", "V(1/4;1/3)", "V(1/2;1/3)"],
    ["fuse", "A(1/2;-2)", "V(1/4;1/2)"],
    ["fuse", "A(0;1)", "P(1/2;-1)"],
    ["fuse", "V(0;1/2)", "P(0;0)"],
    ["fuse", "P(0;1)", "P(1;-1)"],
    ["fuse", "a(1;0)", "v(0;1/2)"],
    ["fuse", "PiV(-1/4;-1/2)", "V(1/4;1/2)"],
    ["fuse", "piv(-1/4;-1/2)", "V(1/4;1/2)"],
    ["fuse", "PIV(-1/4;-1/2)", "V(1/4;1/2)"],
    ["--json", "fuse", "A(0;0)", "A(0;0)"],
    ["fuse", "Verma0(0;1)", "V(0;1/2)"],
    ["fuse", "V(0;2)", "V(0;1/2)"],
    ["fuse", "A(0;1/2)", "A(0;0)"],
    ["fuse", "A(1e3;0)", "A(0;0)"],
    ["fuse", "A(1;0)"],
    # kdec
    ["kdec", "P(0;0)"],
    ["kdec", "P(1/2;-3)"],
    ["kdec", "Verma0(1/2;0)"],
    ["kdec", "Verma0(1/2;-2)"],
    ["kdec", "V(1/3;1/4)"],
    ["kdec", "A(1;2)"],
    ["kdec", "X(1;2)"],
    ["kdec", "PiA(1;2)"],
    ["kdec", "VERMA0(1/2;0)"],
    ["kdec", "vErma0(1/2;-2)"],
    # char, cutoff at most 3
    ["char", "V(0;1/2)", "--cutoff", "1"],
    ["char", "V(1/4;-1/3)", "--cutoff", "2"],
    ["char", "V(0;1/2)", "--cutoff", "0"],
    ["char", "A(0;0)", "--cutoff", "1"],
    ["char", "A(0;0)", "--cutoff", "2", "--z-window=-2,1"],
    ["char", "A(1/2;0)", "--cutoff", "1", "--z-window=0,2"],
    ["char", "A(1/2;1)", "--cutoff", "1"],
    ["char", "P(0;0)", "--cutoff", "1"],
    ["char", "Verma0(0;0)", "--cutoff", "1"],
    ["char", "V(0;1/2)", "--cutoff", "1e3"],
    ["char", "V(0;1/2)", "--cutoff", "201"],
    ["char", "A(0;0)", "--z-window=1,2,3"],
    ["char", "V(0;1/2)", "--cutoff", "-1"],
    ["char", "P(0;0)", "--cutoff", "-1"],
    ["char", "V(0;1/2)", "--z-window=2,1"],
    ["char", "A(0;0)", "--z-window=2,1"],
    ["char", "P(0;0)", "--z-window=2,1"],
    ["char", "V(0;1/2)", "--cutoff", "1", "--z-window=0,0"],
    ["char", "V(0;1/2)", "--cutoff", "1", "--z-window=5,6"],
    ["char", "A(1/2;1)", "--cutoff", "1", "--z-window=-2,2"],
    # windows below z = 0 at negative non-integer n and Delta
    ["char", "V(-7/3;5/2)", "--cutoff", "3", "--z-window=-4,-1"],
    ["char", "A(-5/4;0)", "--cutoff", "3", "--z-window=-5,-1"],
    # deeper cutoffs whose q, z and y denominators all differ, windows with
    # rational bounds: they pin the order of the terms byte for byte
    ["char", "V(1/3;2/5)", "--cutoff", "4"],
    ["char", "V(-7/6;3/4)", "--cutoff", "5", "--z-window=-3,2"],
    ["char", "V(5/7;-3/2)", "--cutoff", "7/2", "--z-window=-1/2,3/2"],
    ["char", "A(-7/4;0)", "--cutoff", "4", "--z-window=-5/2,3"],
    # oracle
    ["oracle", "A(0)", "V(1/2;1/3)"],
    ["oracle", "V(0;1/2)", "V(0;-1/2)"],
    ["oracle", "P(0)", "A(1)"],
    ["oracle", "V(1;1/2)", "V(1/2;1/3)"],
    ["oracle", "Q(1)", "A(0)"],
    ["oracle", "V(1)", "A(0)"],
    # induce: named and custom extensions, warnings, b = 0, scope and usage errors
    ["induce", "V(1/4;1/2)"],
    ["induce", "V(1/4;1/2)", "--ext", "sl21-level1", "--m-range", "2"],
    ["induce", "A(1/2;1)", "--m-range", "2"],
    ["induce", "A(3/2;1)", "--ext", "custom:1/2,-2", "--m-range", "1"],
    ["induce", "A(0;0)", "--ext", "custom:1/3,-1", "--m-range", "1"],
    ["induce", "P(0;1)", "--m-range", "1"],
    ["induce", "A(1;0)", "--ext", "custom:1/2,0", "--m-range", "2"],
    ["induce", "V(1;1/3)", "--ext", "custom:0,0", "--m-range", "1"],
    ["induce", "A(0;0)", "--m-range", "0"],
    ["induce", "Verma0(0;1)", "--m-range", "1"],
    ["induce", "V(1/4;1/2)", "--m-range", "-1"],
    ["induce", "V(1/4;1/2)", "--m-range", "1001"],
    ["induce", "V(1/4;1/2)", "--ext", "custom:1/2,3/2"],
    ["induce", "V(1/4;1/2)", "--ext", "bogus"],
    # local
    ["local", "A(1/2;3)"],
    ["local", "V(1/3;1/2)"],
    ["local", "V(1/4;1/4)", "--ext", "sl21-level1"],
    ["local", "A(1/2;1)", "--ext", "custom:1/3,-1"],
    ["local", "A(1/3;0)", "--ext", "custom:1/2,0"],
    ["local", "P(0;0)"],
    ["local", "Verma0(0;0)"],
    # monodromy
    ["monodromy", "V(1/4;1/2)"],
    ["monodromy", "A(1/2;3)", "--ext", "sl21-level1"],
    ["monodromy", "A(0;0)"],
    ["monodromy", "A(-1/2;-1)", "--ext", "sl21-level1"],
    ["monodromy", "V(1/3;2/3)", "--ext", "custom:1/3,-1"],
    ["monodromy", "A(1;-1)", "--ext", "custom:1/2,0"],
    ["monodromy", "V(2/3;-1/4)", "--ext", "custom:0,0"],
    ["monodromy", "P(1/2;1)"],
    ["monodromy", "Verma0(0;1)", "--ext", "sl21-level1"],
    ["monodromy", "A(0;0)", "--ext", "custom:1/2,x"],
    # number grammar: ASCII digits only, at most 1000 of them per integer
    ["fuse", "A(\u0661;0)", "A(0;0)"],
    ["char", "V(1/2;1/3)", "--cutoff", "\u0661\u0660"],
    ["induce", "A(0;0)", "--m-range", "\u0661"],
    ["induce", "A(0;0)", "--m-range", "1_0"],
    ["induce", "A(0;0)", "--m-range", "4/2"],
    ["induce", "A(0;0)", "--m-range", "1" * 1001],
    ["fuse", f"V({_SEVENS}/3;{_SEVENS}/5)", f"V({_SEVENS}/7;1/{_SEVENS})"],
    ["fuse", "A(0;0)", "V(1/" + "0" * 1000 + "1;1/2)"],
    # label grammar: ASCII case folding and ASCII whitespace only
    ["fuse", "P\u0131V(1/2;1/3)", "V(1/4;1/2)"],
    ["kdec", "P\u0130V(1/2;1/3)"],
    ["fuse", "\u3000A(0;0)", "A(1;0)"],
    ["oracle", "A(1\u00a0)", "A(1)"],
    ["oracle", "\u3000P(0)", "A(1)"],
    ["oracle", "V(1/2;1)\u00a0", "A(0)"],
    # kz: a tol whose z = 1 threshold 10 * tol overflows to inf
    ["kz", "verify", "--tol", "1e308"],
]


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.lru_cache(maxsize=None)
def golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(FIXTURE.read_text())}


def test_fixture_covers_the_argv_list():
    assert list(golden()) == [tuple(argv) for argv in ARGVS]
    assert {entry["code"] for entry in golden().values()} == {0, 1, 2}


def _test_id(argv) -> str:
    """The argv list joined by spaces, each argument over 60 characters cut short."""
    return " ".join(a if len(a) <= 60 else f"{a[:12]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv", ARGVS, ids=_test_id)
def test_cli_output_matches_golden(argv):
    assert record(argv) == golden()[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --write")
    FIXTURE.write_text(json.dumps([record(argv) for argv in ARGVS], indent=1) + "\n")
