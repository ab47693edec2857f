"""Command-line interface: outputs, exit codes, determinism, imports."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import gl11kl
from gl11kl import cli
from gl11kl.cli import main
from gl11kl.oracle import Atypical, Projective, Verma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuse_atypicals(capsys):
    code, out, _ = run(capsys, "fuse", "A(1;0)", "A(2;0)")
    assert code == 0
    assert json.loads(out) == {"summands": [{"label": "A(3;0)", "multiplicity": 1}]}


def test_fuse_typical_pair(capsys):
    code, out, _ = run(capsys, "fuse", "V(1/4;1/2)", "V(1/4;1/2)")
    assert code == 0
    assert json.loads(out) == {"summands": [{"label": "P(1;1)", "multiplicity": 1}]}


def test_fuse_undetermined_exits_one(capsys):
    code, out, err = run(capsys, "fuse", "Verma0(0;1)", "V(0;1/2)")
    assert code == 1
    assert "not determined" in json.loads(err)["error"]


def test_bad_label_exits_two(capsys):
    code, _, err = run(capsys, "fuse", "V(0;2)", "V(0;1/2)")
    assert code == 2
    assert "not typical" in json.loads(err)["error"]


def test_unknown_subcommand_exits_two(capsys):
    # the names quoted on every Python, though later argparse releases
    # (3.13.13 among them) print them bare
    names = "'fuse', 'kdec', 'char', 'induce', 'monodromy', 'local', 'oracle', 'kz'"
    want = f"argument command: invalid choice: 'frobnicate' (choose from {names})"
    assert run(capsys, "frobnicate") == (2, "", json.dumps({"error": want}) + "\n")


def test_kdec(capsys):
    code, out, _ = run(capsys, "kdec", "P(0;0)")
    assert code == 0
    assert json.loads(out)["summands"] == [
        {"label": "A(-1;0)", "multiplicity": 1},
        {"label": "A(0;0)", "multiplicity": 2},
        {"label": "A(1;0)", "multiplicity": 1},
    ]


def test_char_verma_sorted_terms(capsys):
    code, out, _ = run(capsys, "char", "V(0;1/2)", "--cutoff", "1")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert terms[0] == {"q": "1/8", "z": "-1", "y": "1/2", "coeff": 1}
    keys = [(t["q"], t["z"]) for t in terms]
    assert keys == sorted(keys, key=lambda p: (eval_frac(p[0]), eval_frac(p[1])))


def eval_frac(text):
    from fractions import Fraction

    return Fraction(text)


def test_char_atypical_needs_window(capsys):
    code, _, err = run(capsys, "char", "A(0;0)", "--cutoff", "1")
    assert code == 2
    code, out, _ = run(capsys, "char", "A(0;0)", "--cutoff", "1", "--z-window=-2,1")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert {"q": "0", "z": "-1/2", "y": "0", "coeff": 1} in terms


def test_char_flowed_atypical_exits_one(capsys):
    code, _, err = run(capsys, "char", "A(0;2)", "--cutoff", "1")
    assert code == 1


def test_induce(capsys):
    code, out, _ = run(capsys, "induce", "V(1/4;1/2)", "--ext", "sl21-neg-half", "--m-range", "1")
    assert code == 0
    assert json.loads(out)["summands"] == [
        {"m": -1, "label": "V(-3/4;5/2)"},
        {"m": 0, "label": "V(1/4;1/2)"},
        {"m": 1, "label": "V(5/4;-3/2)"},
    ]


def test_local_and_monodromy(capsys):
    code, out, _ = run(capsys, "local", "V(1/3;1/2)", "--ext", "sl21-neg-half")
    assert code == 0
    assert json.loads(out)["local"] is False
    code, out, _ = run(capsys, "monodromy", "A(1/2;3)", "--ext", "sl21-neg-half")
    assert code == 0
    payload = json.loads(out)
    assert payload["local"] is True
    assert all(row["integral"] for row in payload["exponents"])


def test_monodromy_computes_each_exponent_once(capsys, monkeypatch):
    from gl11kl import extensions

    calls = []
    exponent = extensions.monodromy_exponent

    def counted(s, c):
        calls.append(c)
        return exponent(s, c)

    monkeypatch.setattr(extensions, "monodromy_exponent", counted)
    for label, local in (("V(1/3;1/2)", False), ("A(1/2;3)", True)):
        calls.clear()
        code, out, _ = run(capsys, "monodromy", label, "--ext", "sl21-neg-half")
        assert code == 0 and json.loads(out)["local"] is local
        assert len(calls) == 4


def test_custom_extension_flag(capsys):
    code, out, _ = run(capsys, "local", "A(1/2;0)", "--ext", "custom:1/2,-2")
    assert code == 0
    code, _, err = run(capsys, "local", "A(1/2;0)", "--ext", "nonsense")
    assert code == 2


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "V(1/2;1)", "V(1/2;1)")
    assert code == 0
    assert json.loads(out)["summands"] == [
        {"label": "V(1/2;2)", "multiplicity": 1},
        {"label": "V(3/2;2)", "multiplicity": 1},
    ]


def test_oracle_bad_label(capsys):
    assert run(capsys, "oracle", "V(1/2)", "A(0)")[0] == 2


def test_kz_verify(capsys):
    code, out, _ = run(capsys, "kz", "verify", "--tol", "1e-12")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 5


def test_failing_kz_verify_exits_one_after_its_report(capsys, monkeypatch):
    from gl11kl import kz

    report = [{"check": "passing", "status": "pass"}, {"check": "failing", "status": "fail"}]
    monkeypatch.setattr(kz, "verification_report", lambda tol: report)
    code, out, err = run(capsys, "kz", "verify")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"checks": report, "all_pass": False}


def test_output_deterministic(capsys):
    first = run(capsys, "fuse", "P(1/2;1)", "P(-1/2;-1)")
    second = run(capsys, "fuse", "P(1/2;1)", "P(-1/2;-1)")
    assert first == second


def test_kz_verify_rejects_bad_tol(capsys):
    # above about 1.8e307 the z = 1 threshold 10 * tol overflows to inf,
    # which is not JSON and would pass every error
    for tol in ("0", "-1", "nan", "inf", "1e-300", "1e308", "2e307"):
        start = time.perf_counter()
        code, out, err = run(capsys, "kz", "verify", "--tol", tol)
        assert time.perf_counter() - start < 1, tol
        assert (code, out) == (2, "")
        assert "tol" in json.loads(err)["error"]


def test_kz_verify_reports_thresholds(capsys):
    code, out, _ = run(capsys, "kz", "verify", "--tol", "1e-15")
    assert code == 0
    gauss, residual = json.loads(out)["checks"][3:]
    assert gauss["threshold"] == 1e-8 and gauss["max_abs_error"] < gauss["threshold"]
    assert set(gauss["worst_at"]) == {"x"}
    assert residual["threshold"] == 1e-10 and residual["max_residual"] < residual["threshold"]
    assert set(residual["worst_at"]) == {"x", "Delta", "z"}


def test_induce_rejects_negative_m_range(capsys):
    code, out, err = run(capsys, "induce", "V(1/4;1/2)", "--m-range", "-1")
    assert (code, out) == (2, "")
    assert "m_range" in json.loads(err)["error"]


def test_char_cutoff_is_bounded(capsys):
    for cutoff in ("201", "401/2", "1e9"):
        code, out, err = run(capsys, "char", "V(1/4;1/2)", "--cutoff", cutoff)
        assert (code, out) == (2, "")
        assert "cutoff" in json.loads(err)["error"]
    code, out, _ = run(capsys, "char", "A(1/4;0)", "--cutoff", "200", "--z-window=-1,1")
    assert code == 0
    assert json.loads(out)["terms"]


#: sha256 of stdout for deep characters, which the golden transcripts (cutoff
#: at most 3) never reach; recorded before characters shared their blocks
DEEP_CHARS = [
    (("char", "V(1/3;2/5)", "--cutoff", "200"), "34e8f8aa531adcad195e743992f8964c96f22738a7f825ec414235ce57eccab6"),
    (
        ("char", "A(1/2;0)", "--cutoff", "200", "--z-window=-40,40"),
        "80575ee0490bdfde60e1dceedd068e88e5e2285d448af100693faffaa521774d",
    ),
    (
        ("char", "V(-7/3;5/2)", "--cutoff", "60", "--z-window=-9,3"),
        "afed6c5ceb36f5d2c60b5395f4699d9eda60fda15dde2f0fa2a7ef43bc4ea90f",
    ),
]


@pytest.mark.parametrize("argv,digest", DEEP_CHARS, ids=[" ".join(a) for a, _ in DEEP_CHARS])
def test_deep_char_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_argument_errors_are_json(capsys):
    for argv in (
        ("kz", "verify", "--tol", "abc"),
        ("induce", "V(1/4;1/2)", "--m-range", "x"),
        ("fuse", "A(0;0)"),
        ("frobnicate",),
        (),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"], argv
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert "usage" in out


#: each subcommand's shortest argv and every dest it parses to, defaults included
_PARSED = [
    (["fuse", "a", "b"], {"a": "a", "b": "b"}),
    (["kdec", "x"], {"label": "x"}),
    (["char", "x"], {"label": "x", "cutoff": "2", "z_window": None}),
    (["induce", "x"], {"label": "x", "ext": "sl21-neg-half", "m_range": 3}),
    (["monodromy", "x"], {"label": "x", "ext": "sl21-neg-half"}),
    (["local", "x"], {"label": "x", "ext": "sl21-neg-half"}),
    (["oracle", "a", "b"], {"a": "a", "b": "b"}),
    (["kz", "verify"], {"action": "verify", "tol": 1e-12}),
]


@pytest.mark.parametrize("argv, dests", _PARSED, ids=[c[0][0] for c in _PARSED])
def test_parsed_defaults_are_pinned(argv, dests):
    parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed.pop("func") is getattr(cli, f"_cmd_{argv[0]}")
    want = {"json": False, "command": argv[0], **dests}
    assert {k: (v, type(v)) for k, v in parsed.items()} == {k: (v, type(v)) for k, v in want.items()}


def test_induce_m_range_is_bounded(capsys):
    code, out, err = run(capsys, "induce", "V(1/4;1/2)", "--m-range", "1001")
    assert (code, out) == (2, "")
    assert "m-range" in json.loads(err)["error"]
    code, out, err = run(capsys, "induce", "A(0;0)", "--m-range", "1000")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["summands"]) == 2001


def test_custom_extension_warnings_in_payload(capsys):
    # A(1/3;5) breaks the 2n*ell integrality constraint, A(1/3;-1) both constraints
    code, out, err = run(capsys, "local", "A(0;0)", "--ext", "custom:1/3,5")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["local"] is True
    assert len(payload["warnings"]) == 1 and "integrality" in payload["warnings"][0]
    for command in ("induce", "monodromy", "local"):
        code, out, err = run(capsys, command, "A(0;0)", "--ext", "custom:1/3,-1")
        assert (code, err) == (0, ""), command
        assert len(json.loads(out)["warnings"]) == 2, command
        code, out, err = run(capsys, command, "A(0;0)", "--ext", "custom:1/2,-2")
        assert (code, err) == (0, ""), command
        assert "warnings" not in json.loads(out), command


def test_zero_denominators_exit_two(capsys):
    for argv in (
        ("fuse", "V(1/0;1/2)", "A(0;0)"),
        ("kdec", "P(0;1/0)"),
        ("char", "V(0;1/2)", "--cutoff", "1/0"),
        ("char", "A(0;0)", "--z-window=1/0,2"),
        ("oracle", "V(1/0;1)", "A(0)"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"], argv
    for window in ("1", "1,2,3"):
        code, out, err = run(capsys, "char", "A(0;0)", f"--z-window={window}")
        assert (code, out) == (2, "")
        assert "--z-window" in json.loads(err)["error"]


def test_flag_numbers_take_exact_rationals(capsys):
    # flag numbers are written as label numbers are, so an exponent cannot
    # make the parser build a ten-million-digit integer
    for argv, flag in (
        (("char", "V(0;1/2)", "--cutoff", "1e9999999"), "--cutoff"),
        (("char", "V(0;1/2)", "--cutoff", "1e-9999999"), "--cutoff"),
        (("char", "V(0;1/2)", "--cutoff", "1.5"), "--cutoff"),
        (("char", "A(0;0)", "--z-window=-1,1e9999999"), "--z-window"),
        (("char", "A(0;0)", "--z-window=-1e-9999999,1e9999999"), "--z-window"),
        (("local", "A(0;0)", "--ext", "custom:1e9999999,1"), "custom"),
        (("local", "A(0;0)", "--ext", "custom:0.5,1"), "custom"),
        (("local", "A(0;0)", "--ext", "custom:1/2,3/2"), "custom"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert flag in json.loads(err)["error"], argv
    code, out, _ = run(capsys, "char", "A(0;0)", "--cutoff", "3/2", "--z-window=-4/2,1")
    assert code == 0 and json.loads(out)["terms"]


def test_oracle_labels_take_exact_rationals(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "P(1e9999999)", "P(0)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "cannot parse finite label" in json.loads(err)["error"]
    for label in ("V(1.5;2.5)", "A(+1)", "P(1/0)", "A(1e2)"):
        code, out, err = run(capsys, "oracle", label, "A(0)")
        assert (code, out) == (2, ""), label
        assert "cannot parse finite label" in json.loads(err)["error"], label
    code, out, _ = run(capsys, "oracle", "V(-1/2;2/04)", "A( 1 )")
    assert code == 0
    assert json.loads(out)["factors"] == ["V(-1/2;1/2)", "A(1)"]


def test_both_label_grammars_skip_only_ascii_whitespace(capsys):
    # the finite-label grammar strips what the category-label grammar's \s
    # matches under re.ASCII, so a non-ASCII space fails both alike
    for space in ("\u00a0", "\u3000"):
        for fin, label in (
            (f"{space}A(1)", f"{space}A(1;0)"),
            (f"A({space}1)", f"A({space}1;0)"),
            (f"A(1{space})", f"A(1{space};0)"),
            (f"V(1/2;1/3{space})", f"V(1/2;1/3{space})"),
            (f"P(0){space}", f"P(0;0){space}"),
        ):
            for argv in (("oracle", fin, "A(0)"), ("fuse", label, "A(0;0)")):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert json.loads(err)["error"].startswith("cannot parse"), argv
    for space in (" ", "\t", " \t "):
        code, out, _ = run(capsys, "oracle", f"{space}V({space}1/2{space};{space}1{space}){space}", f"A({space}1)")
        assert code == 0, repr(space)
        assert json.loads(out)["factors"] == ["V(1/2;1)", "A(1)"]
        code, out, _ = run(capsys, "fuse", f"{space}V({space}1/2{space};{space}1/3{space}){space}", "A(0;0)")
        assert code == 0, repr(space)
        assert json.loads(out)["summands"] == [{"label": "V(1/2;1/3)", "multiplicity": 1}]


def test_finite_labels_read_back_from_their_repr():
    # the oracle prints its factors with repr, and the CLI's finite-label
    # grammar reads that text back to the same label
    rng = Random(30)
    fixed = (Fraction(-3), Fraction(0), Fraction(5), Fraction(-7, 4), Fraction(2, 9))
    draws = [(n, e) for n in fixed for e in fixed]
    draws += [[Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12))) for _ in "ne"] for _ in range(35)]
    for n, e in draws:
        for label in (Verma(n, e), Atypical(n), Projective(n)):
            assert cli._parse_fin_label(repr(label)) == label, label


# Each subcommand loads only its own layer, and no subcommand loads
# dataclasses (it imports inspect, ~15 ms of a fresh process's start).
_BASE = {"gl11kl", "gl11kl.cli", "gl11kl.errors", "gl11kl.frozen", "gl11kl.fusion", "gl11kl.labels"}
_CHAR = {"gl11kl.characters", "gl11kl.series"}
_EXT = {"gl11kl.extensions"}
_PROBE = """
import json, sys
from gl11kl.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


_LAYER_CASES = [
    (["fuse", "P(1/2;1)", "V(1/4;1/2)"], 0, set()),
    (["kdec", "P(0;1)"], 0, set()),
    (["char", "A(0;0)", "--cutoff", "2", "--z-window=-1,1"], 0, _CHAR),
    (["induce", "V(1/4;1/2)"], 0, _EXT),
    (["local", "A(1/2;0)", "--ext", "sl21-level1"], 0, _EXT),
    (["monodromy", "A(1/2;3)"], 0, _EXT),
    (["oracle", "P(0)", "V(1/2;1)"], 0, {"gl11kl.oracle"}),
    (["kz", "verify"], 0, {"gl11kl.kz"}),
    (["fuse", "Verma0(0;1)", "V(0;1/2)"], 1, set()),
    (["monodromy", "P(1/2;1)"], 1, _EXT),
    (["fuse", "X(0;1)", "A(0;0)"], 2, set()),
    (["kdec", "P(0;1/0)"], 2, set()),
    (["local", "A(0;0)", "--ext", "sl21-level7"], 2, set()),
    (["oracle", "Q(1/2)", "A(0)"], 2, set()),
    (["char", "A(0;0)", "--z-window=1/0,2"], 2, set()),
    # the characters layer itself rejects a negative cutoff
    (["char", "V(0;1/2)", "--cutoff", "-1"], 2, _CHAR),
    (["frobnicate"], 2, set()),
]


@pytest.mark.parametrize("argv, want_code, layer", _LAYER_CASES, ids=[" ".join(c[0]) for c in _LAYER_CASES])
def test_subcommand_imports_only_its_layer(argv, want_code, layer):
    src = str(Path(gl11kl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == want_code
    assert "dataclasses" not in modules
    assert {m for m in modules if m.split(".")[0] == "gl11kl"} == _BASE | layer


def test_closed_stdout_exits_141_and_writes_nothing():
    # the reader closes the pipe before the output is written: a large
    # output fails in print, a small one only in the flush, and neither
    # leaves a traceback or Python's "Exception ignored" line from its flush
    # at exit; a closed pipe is none of the request outcomes 0, 1 and 2
    src = str(Path(gl11kl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv in (["char", "V(1/4;1/2)", "--cutoff", "200"], ["fuse", "A(1;0)", "A(2;0)"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gl11kl", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b""), argv


def test_numbers_take_ascii_digits_only(capsys):
    for argv in (
        ("fuse", "A(١;0)", "A(0;0)"),  # an Arabic-Indic one
        ("char", "V(1/2;1/3)", "--cutoff", "١٠"),
        ("char", "V(1/2;1/3)", "--z-window=0,１"),  # a fullwidth one
        ("oracle", "A(١)", "A(0)"),
        ("local", "A(0;0)", "--ext", "custom:1/2,١"),
        ("induce", "A(0;0)", "--m-range", "١"),
        ("induce", "A(0;0)", "--m-range", "1_0"),
        ("induce", "A(0;0)", "--m-range", " 1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"], argv


def test_widest_numbers_at_the_digit_bound_still_print(capsys):
    # 1000-digit integers everywhere: the monodromy exponent's numerator
    # is the widest output, about 4,000 digits
    b = "9" * 1000
    q1, q2, q3 = ("9" * 999 + "7", "9" * 998 + "83", "9" * 998 + "89")
    code, out, err = run(capsys, "monodromy", f"V({b}/{q3};{b}/{q1})", "--ext", f"custom:{b}/{q2},{b}")
    assert (code, err) == (0, "")
    widest = max(len(row["exponent"].lstrip("-").partition("/")[0]) for row in json.loads(out)["exponents"])
    assert 4000 <= widest < 4300
    for argv in (
        ("fuse", f"V({b}1;1/2)", "A(0;0)"),
        ("fuse", f"V(1/{b}1;1/2)", "A(0;0)"),
        ("oracle", f"V({b}1;1/2)", "A(0)"),
        ("monodromy", "A(0;0)", "--ext", f"custom:{b}1/2,1"),
        ("char", "V(1/2;1/3)", f"--z-window=0,{b}1"),
        ("induce", "A(0;0)", "--m-range", f"{b}1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:2]
        assert json.loads(err)["error"].endswith("integers take at most 1000 digits"), argv[:2]
    code, out, err = run(capsys, "induce", "A(0;0)", "--m-range", "0" * 999 + "1")
    assert (code, err) == (0, "")
