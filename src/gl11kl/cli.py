"""Command-line front end with deterministic JSON output.

Exit codes, all decided by ``main`` in one rule: a ``Gl11Error`` (the
requested quantity is outside the implemented classification, a
mathematical scope limit) exits 1, and a ``ValueError`` (a usage error: bad
input, from argparse or from any check) exits 2, each with a JSON error on
stderr; 141 (128 + SIGPIPE, as a shell reports a process that a closed pipe
ended) when stdout is closed before the output is written, with nothing
written to stderr; otherwise 0, or 1 for a printed report whose
``all_pass`` is false (only ``kz verify`` reports one).
All rational quantities are printed in exact p/q notation; only the
kz-verification report contains floats.  Each subcommand imports the layer
it runs only once its own arguments have passed their checks, so a fresh
process pays for no other layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from .errors import Gl11Error
from .fusion import fuse
from .labels import AtypicalA, FormalSum, k_decompose, parse_label, parse_rational, render_label
from .labels import WHITESPACE, _int, _number_error


#: the --ext names and the extensions attribute each selects; the first is the default
_EXTENSIONS = {"sl21-neg-half": "SL21_MINUS_HALF", "sl21-level1": "SL21_LEVEL1"}


def _ext_from_flag(text: str) -> tuple[extensions.ExtensionSpec, list[str]]:
    """The extension a flag names, with the admissibility warnings it raised."""
    if text not in _EXTENSIONS and not text.startswith("custom:"):
        raise ValueError(f"unknown extension {text!r}")
    from . import extensions

    if text in _EXTENSIONS:
        return getattr(extensions, _EXTENSIONS[text]), []
    body = text[len("custom:"):]
    try:
        a_text, b_text = body.split(",")
        a, ell = parse_rational(a_text), parse_rational(b_text)
        if ell.denominator != 1:
            raise ValueError(f"l must be an integer, got {b_text!r}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ext = extensions.ExtensionSpec.custom(a, int(ell))
    except ValueError as exc:
        raise ValueError(f"bad custom extension {text!r}: {exc}") from exc
    return ext, [str(w.message) for w in caught]


def _with_ext(body):
    """A handler that parses the label, then the extension, and returns both, body's keys and warnings."""

    def handler(args) -> dict:
        label = parse_label(args.label)
        ext, caught = _ext_from_flag(args.ext)
        out = {"label": render_label(label), "extension": ext.name, **body(args, label, ext)}
        return {**out, "warnings": caught} if caught else out

    return handler


class _Parser(argparse.ArgumentParser):
    """Raises ValueError, which ``main`` maps to exit 2, in place of printing usage text and exiting.

    An unknown subcommand's error quotes each name, as argparse does on
    Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0; 3.13.13 prints the names
    bare, and the CLI's output does not depend on the Python that runs it.
    """

    def error(self, message):
        raise ValueError(message)

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {', '.join(map(repr, action.choices))})")


#: largest --cutoff for char: the output and the work grow as cutoff^(3/2)
MAX_CHAR_CUTOFF = 200
#: largest --m-range for induce: the output and the work grow linearly in it
MAX_INDUCE_M_RANGE = 1000


def _summands_json(total: FormalSum) -> dict:
    return {
        "summands": [
            {"label": render_label(lbl), "multiplicity": mult}
            for lbl, mult in total.sorted_items()
        ]
    }


def _flag_rational(flag: str, text: str) -> Fraction:
    """A flag's number, written as label numbers are: an integer or p/q."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _flag_int(text: str) -> int:
    """An integer flag, written as label numbers are; argparse names the flag."""
    try:
        return _int(parse_rational(text))
    except ValueError:
        raise argparse.ArgumentTypeError(str(_number_error(f"invalid int value: {text!r}", text))) from None


def _parse_fin_label(text: str) -> oracle.FinLabel:
    """Finite-module grammar: V(n;e), A(n), P(n), numbers and whitespace as in labels."""
    body = text.strip(WHITESPACE)
    kind = body[:1].upper()
    if not (kind in "VAP" and body[1:2] == "(" and body.endswith(")")):
        raise ValueError(f"cannot parse finite label {text!r}")
    args = [part.strip(WHITESPACE) for part in body[2:-1].split(";")]
    try:
        if kind == "V" and len(args) != 2:
            raise ValueError("V takes (n;e)")
        if kind != "V" and len(args) != 1:
            raise ValueError(f"{kind} takes a single parameter")
        values = [parse_rational(arg) for arg in args]
    except ValueError as exc:
        raise ValueError(f"cannot parse finite label {text!r}: {exc}") from exc
    from . import oracle

    return {"V": oracle.Verma, "A": oracle.Atypical, "P": oracle.Projective}[kind](*values)


def _cmd_fuse(args) -> dict:
    a = parse_label(args.a)
    b = parse_label(args.b)
    return _summands_json(fuse(a, b))


def _cmd_kdec(args) -> dict:
    label = parse_label(args.label)
    return {"label": render_label(label), **_summands_json(k_decompose(label))}


def _cmd_char(args) -> dict:
    label = parse_label(args.label)
    window = None
    if args.z_window is not None:
        bounds = args.z_window.split(",")
        if len(bounds) != 2:
            raise ValueError(f"--z-window takes lo,hi, got {args.z_window!r}")
        window = tuple(_flag_rational("--z-window", bound) for bound in bounds)
    if isinstance(label, AtypicalA) and label.ell == 0 and window is None:
        raise ValueError("atypical characters need --z-window lo,hi")
    cutoff = _flag_rational("--cutoff", args.cutoff)
    if cutoff > MAX_CHAR_CUTOFF:
        raise ValueError(f"--cutoff must be at most {MAX_CHAR_CUTOFF}, got {args.cutoff}")
    from . import characters

    terms = [
        {"q": str(q), "z": str(z), "y": str(y), "coeff": c}
        for (q, z, y), c in characters.characters(label, cutoff, window).sorted_terms()
    ]
    return {"label": render_label(label), "terms": terms}


@_with_ext
def _cmd_induce(args, label, ext) -> dict:
    if args.m_range > MAX_INDUCE_M_RANGE:
        raise ValueError(f"--m-range must be at most {MAX_INDUCE_M_RANGE}, got {args.m_range}")
    from . import extensions

    summands = zip(range(-args.m_range, args.m_range + 1), extensions.induce(label, ext, args.m_range))
    return {"summands": [{"m": m, "label": render_label(lbl)} for m, lbl in summands]}


@_with_ext
def _cmd_monodromy(args, label, ext) -> dict:
    from . import extensions

    exponents = [(m, extensions.monodromy_exponent(label, ext.generator_of(m))) for m in (-2, -1, 1, 2)]
    rows = [{"m": m, "exponent": str(e), "integral": e.denominator == 1} for m, e in exponents]
    return {"exponents": rows, "local": extensions.is_local(label, ext)}


@_with_ext
def _cmd_local(args, label, ext) -> dict:
    from . import extensions

    return {"local": extensions.is_local(label, ext)}


def _cmd_oracle(args) -> dict:
    a = _parse_fin_label(args.a)
    b = _parse_fin_label(args.b)
    from . import oracle

    product = oracle.tensor(oracle.realize(a), oracle.realize(b))
    parts = oracle.decompose(product)
    return {
        "factors": [repr(a), repr(b)],
        "summands": [
            {"label": repr(lbl), "multiplicity": mult}
            for lbl, mult in sorted(parts.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def _cmd_kz(args) -> dict:
    if args.action != "verify":
        raise ValueError("the kz subcommand supports: verify")
    from . import kz

    report = kz.verification_report(tol=args.tol)
    return {"checks": report, "all_pass": all(c["status"] == "pass" for c in report)}


#: (name, handler, help, positionals) of each subcommand; build_parser adds the flags
_COMMANDS = (
    ("fuse", _cmd_fuse, "fusion product of two labels", ("a", "b")),
    ("kdec", _cmd_kdec, "composition factors of a label", ("label",)),
    ("char", _cmd_char, "character expansion of a label", ("label",)),
    ("induce", _cmd_induce, "summands of an induced module", ("label",)),
    ("monodromy", _cmd_monodromy, "monodromy exponents against the generators", ("label",)),
    ("local", _cmd_local, "does the label induce to a local module", ("label",)),
    ("oracle", _cmd_oracle, "tensor-decompose two finite modules", ("a", "b")),
    ("kz", _cmd_kz, "differential-equation verification suite", ("action",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gl11kl", description="Exact fusion, characters and extension analysis for affine gl(1|1)")
    parser.add_argument("--json", action="store_true", help="JSON output (the default)")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, func, help_text, positionals in _COMMANDS:
        subs[name] = p = sub.add_parser(name, help=help_text)
        for dest in positionals:
            p.add_argument(dest)
        p.set_defaults(func=func)
    subs["char"].add_argument(
        "--cutoff", default="2", help=f"q-window above the lowest weight, at most {MAX_CHAR_CUTOFF}"
    )
    subs["char"].add_argument("--z-window", default=None, help="lo,hi bounds on z exponents")
    for name in ("induce", "monodromy", "local"):
        subs[name].add_argument("--ext", default=next(iter(_EXTENSIONS)))
    subs["induce"].add_argument(
        "--m-range", type=_flag_int, default=3, help=f"summands m = -M..M, M at most {MAX_INDUCE_M_RANGE}"
    )
    subs["kz"].add_argument("--tol", type=float, default=1e-12)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.func(args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except (Gl11Error, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, Gl11Error) else 2
    try:
        print(json.dumps(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit, so
        # it is pointed at devnull first, as the signal module's docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process that a closed pipe ended
    return 0 if payload.get("all_pass", True) else 1
