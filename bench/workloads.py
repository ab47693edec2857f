"""The four benchmark workloads: seeded inputs, the timed operation, checks.

Each workload draws its inputs in blocks.  A block has a fixed make-up (the
op shapes and how many of each) and seeded parameters and order, so every
run sees the same mix of costs whatever the seed, and a run that measures
whole blocks gives steady medians.  ``run`` is the timed operation; every
call it makes into the package goes through the tracer under the name
``<module>.<function>``.  ``check`` runs after the timer stops and tests the
result against identities that do not come from the timed code path; it
returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import speed
from gl11kl import characters, extensions, oracle, series
from gl11kl.fusion import fuse, fuse_formal, k_ring_check
from gl11kl.labels import (
    AtypicalA,
    FormalSum,
    ProjectiveP,
    TypicalV,
    VermaV0,
    contragredient,
    k_decompose,
    parse_label,
    render_label,
    spectral_flow,
    strip_parity,
)

ROOT = Path(__file__).resolve().parent.parent
UNIT = AtypicalA(0, 0)
EXTENSIONS = (extensions.SL21_MINUS_HALF, extensions.SL21_LEVEL1)


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def rational(rng, max_num=6, max_den=4) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def nonintegral(rng) -> Fraction:
    while True:
        v = rational(rng)
        if v.denominator != 1:
            return v


def draw_label(rng, kind, ell=None):
    """V(n;e) with e not an integer, A(n;l) or P(n;l) with l in [-3, 3]."""
    if kind == "V":
        return TypicalV(rational(rng), nonintegral(rng))
    ell = rng.randint(-3, 3) if ell is None else ell
    return (AtypicalA if kind == "A" else ProjectiveP)(rational(rng), ell)


def expand_block(rng, make_up, draw):
    """One item per entry of make-up ({shape: count}), in seeded order."""
    items = [draw(rng, shape) for shape, count in make_up.items() for _ in range(count)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# reference values computed by the benchmark itself
# ---------------------------------------------------------------------------


def three_coloured_partitions(limit: int) -> list[int]:
    """p3(0..limit): coefficients of 1 / prod_{n>=1} (1 - q^n)^3."""
    p = [1] + [0] * limit
    for _ in range(3):
        for part in range(1, limit + 1):
            for k in range(part, limit + 1):
                p[k] += p[k - part]
    return p


P3 = three_coloured_partitions(64)


def verma_failures(n, e, depth, terms) -> list[str]:
    """The Verma character by the Jacobi triple product.

    The coefficient of q^(Delta+N) z^(n+m) y^e is p3(N - m(m+1)/2), for every
    N <= depth and every m with m(m+1)/2 <= N, and there are no other terms.
    """
    base = e * (n + e / 2)
    want = {}
    for big_n in range(depth + 1):
        m = 0
        while m * (m + 1) // 2 <= big_n:
            for mm in {m, -m - 1}:  # m(m+1)/2 is symmetric under m -> -m-1
                want[(base + big_n, n + mm, e)] = P3[big_n - m * (m + 1) // 2]
            m += 1
    if terms != want:
        return [f"char_verma({n}, {e}, {depth}): {len(terms)} terms, want {len(want)} by p3"]
    return []


def has_dual(label) -> bool:
    return not (isinstance(label, ProjectiveP) and label.ell != 0)


def fin_reference(labels) -> dict:
    """decompose of the tensor product predicted by the fusion rules."""
    total = fuse(labels[0], labels[1])
    for c in labels[2:]:
        total = fuse_formal(total, FormalSum(c))
    return {oracle.fin_label_of(lbl): mult for lbl, mult in total.items()}


def draw_fin_labels(rng, shape):
    """Labels of one shape ("VAP" letters) whose product the fusion rules cover.

    A and P sit at l = 0; "VV*" is the typical pair whose ehat sum is 0.
    """
    while True:
        labels = [draw_label(rng, kind, ell=0) for kind in shape.rstrip("*")]
        if shape == "VV*":
            labels[1] = TypicalV(labels[1].n, -labels[0].ehat)
        try:
            fin_reference(labels)
        except ValueError:  # an ehat sum hit a nonzero integer: no finite shadow
            continue
        return tuple(labels)


def summands_json(total: FormalSum) -> list:
    return [
        {"label": render_label(lbl), "multiplicity": mult} for lbl, mult in total.sorted_items()
    ]


# ---------------------------------------------------------------------------
# label-stream
# ---------------------------------------------------------------------------


class LabelStream:
    """Label, fusion and extension calls on seeded pairs of labels."""

    name = "label-stream"
    speed_reference = staticmethod(speed.reference_s)
    # Every ordered pair of kinds.  Sorted by cost the pairs form three groups
    # (PP ~1 ms; PV, VP, PA, AP ~3 ms; VV, VA, AV, AA ~5 ms); these counts put
    # the median in the middle of the second and the 90th percentile in the third.
    make_up = {
        "PP": 8,
        "PV": 6, "VP": 6, "PA": 6, "AP": 6,
        "VV": 2, "VA": 2, "AV": 2, "AA": 2,
    }

    def block(self, rng):
        def draw(rng, shape):
            return draw_label(rng, shape[0]), draw_label(rng, shape[1]), rng.choice((-3, -2, -1, 1, 2, 3))

        return expand_block(rng, self.make_up, draw)

    def run(self, item, tr):
        a, b, flow = item
        texts = [tr.call("labels.render_label", render_label, x) for x in (a, b)]
        out = {
            "parsed": [tr.call("labels.parse_label", parse_label, t) for t in texts],
            "ab": tr.call("fusion.fuse", fuse, a, b),
            "ba": tr.call("fusion.fuse", fuse, b, a),
            "k_ring": tr.call("fusion.k_ring_check", k_ring_check, a, b),
            "duals": [
                tr.call("labels.contragredient", contragredient, x) if has_dual(x) else None
                for x in (a, b)
            ],
            "flows": [],
            "ext": [],
        }
        for x in (a, b):
            if isinstance(x, TypicalV):
                continue
            # spectral flow starts from ehat = 0: the l = 0 label of x's kind
            # and the reducible Verma there, the one label that flows back
            source, verma = type(x)(x.n, 0), VermaV0(x.n, 0)
            out["flows"].append(
                (
                    source,
                    tr.call("labels.spectral_flow", spectral_flow, source, flow),
                    verma,
                    tr.call("labels.spectral_flow", spectral_flow, verma, flow),
                )
            )
        for x in (a, b):
            if isinstance(x, ProjectiveP):
                continue
            for ext in EXTENSIONS:
                out["ext"].append(
                    (
                        x,
                        tr.call("extensions.is_local", extensions.is_local, x, ext),
                        tr.call(
                            "extensions.monodromy_exponent",
                            extensions.monodromy_exponent,
                            x,
                            ext.generator_of(1),
                        ),
                        tr.call("extensions.induce", extensions.induce, x, ext, 3),
                        tr.call("extensions.weight_growth", extensions.weight_growth, x, ext),
                    )
                )
        return out

    def check(self, item, out) -> list[str]:
        a, b, flow = item
        bad = []
        if out["ab"] != out["ba"]:
            bad.append(f"fuse({a}, {b}) is not commutative")
        for x in (a, b):
            if fuse(UNIT, x) != FormalSum(strip_parity(x)):
                bad.append(f"unit law fails on {x}")
        if out["k_ring"] is not True:
            bad.append(f"k_ring_check({a}, {b}) is not true")
        if out["parsed"] != [a, b]:
            bad.append(f"parse_label(render_label(x)) != x for {a}, {b}")
        for source, flowed, verma, verma_flowed in out["flows"]:
            if spectral_flow(verma_flowed, -flow) != verma:
                bad.append(f"spectral flow of {verma} by {flow} does not flow back")
            factorwise = FormalSum()
            for factor, mult in k_decompose(source).items():
                factorwise = factorwise + mult * FormalSum(spectral_flow(factor, flow))
            if k_decompose(flowed) != factorwise:
                bad.append(f"spectral flow of {source} by {flow} disagrees with its factors")
        da, db = out["duals"]
        if da is not None and db is not None and all(has_dual(lbl) for lbl in out["ab"].labels()):
            # fuse drops parity flips and contragredient flips typicals: compare modulo parity
            dual_of_product = FormalSum(
                [(strip_parity(contragredient(lbl)), m) for lbl, m in out["ab"].items()]
            )
            if dual_of_product != fuse(da, db):
                bad.append(f"duality fails on {a} x {b}")
        for x, _, _, summands, _ in out["ext"]:
            if summands[3] != strip_parity(x):
                bad.append(f"induce({x}) summand m = 0 is {summands[3]}")
        return bad

    def kind(self, item) -> str:
        return "".join(render_label(x)[0] for x in item[:2])

    def traffic(self, item, tally):
        for x in item[:2]:
            key = "labels." + render_label(x)[0]
            tally[key] = tally.get(key, 0) + 1

    def count(self, item, out, ok, counters):
        counters["fusion.summands_out"] += len(out["ab"]) + len(out["ba"])


# ---------------------------------------------------------------------------
# char-sweep
# ---------------------------------------------------------------------------


class CharSweep:
    """Verma and atypical characters and the induced-character identity."""

    name = "char-sweep"
    speed_reference = staticmethod(speed.reference_s)
    max_depth = 20  # char_verma q-depth 0..20, one of each per block
    max_atypical_cutoff = 10  # char_atypical0 cutoff 0..10, one of each per block
    induced_per_block = 7
    max_induced_window = 12

    def block(self, rng):
        items = [("verma", rational(rng), rational(rng), d) for d in range(self.max_depth + 1)]
        for cutoff in range(self.max_atypical_cutoff + 1):
            lo = rng.randint(-8, 8)
            items.append(("atypical", Fraction(rng.randint(-12, 12), 4), cutoff, (lo, rng.randint(lo, 8))))
        induced = []
        while len(induced) < self.induced_per_block:
            n, e, m_range = rational(rng, 3), nonintegral(rng), rng.randint(1, 3)
            room = self.max_induced_window - m_range * abs(2 * n + e)
            if room >= 0:
                induced.append(("induced", n, e, m_range, rng.randint(0, int(room))))
        items += induced
        rng.shuffle(items)
        return items

    def run(self, item, tr):
        kind = item[0]
        if kind == "verma":
            return tr.call("characters.char_verma", characters.char_verma, *item[1:])
        if kind == "atypical":
            return tr.call("characters.char_atypical0", characters.char_atypical0, *item[1:])
        lhs, rhs = tr.call("characters.char_induced_typical", characters.char_induced_typical, *item[1:])
        window = tr.call("characters.induced_window", characters.induced_window, *item[1:])
        agree = tr.call("series.jacobi_equal_to_cutoff", series.jacobi_equal_to_cutoff, lhs, rhs, window)
        return lhs, rhs, window, agree

    def check(self, item, out) -> list[str]:
        kind = item[0]
        if kind == "verma":
            return verma_failures(*item[1:], out.terms)
        if kind == "atypical":
            if any(c < 0 for c in out.terms.values()):
                return [f"char_atypical0{item[1:]} has a negative coefficient"]
            return []
        lhs, rhs, window, agree = out
        base = min(k[0] for k in (*lhs.terms, *rhs.terms))
        keys = {k for k in (*lhs.terms, *rhs.terms) if k[0] - base <= window}
        if agree is not True or any(lhs.terms.get(k, 0) != rhs.terms.get(k, 0) for k in keys):
            return [f"induced identity fails at {item[1:]}"]
        return []

    def kind(self, item) -> str:
        return item[0]

    def depth(self, item) -> int:
        """q-depth of the universal product the item needs."""
        if item[0] == "induced":
            return int(characters.induced_window(*item[1:]))
        return int(item[3] if item[0] == "verma" else item[2])

    def traffic(self, item, tally):
        for key in ("char." + item[0], f"depth.{self.depth(item)}"):
            tally[key] = tally.get(key, 0) + 1

    def count(self, item, out, ok, counters):
        series_out = out[:2] if item[0] == "induced" else (out,)
        counters["characters.terms_out"] += sum(len(s.terms) for s in series_out)
        if item[0] == "induced":
            counters["series.terms_in"] += len(out[0].terms) + len(out[1].terms)


# ---------------------------------------------------------------------------
# oracle-crosscheck
# ---------------------------------------------------------------------------


class OracleCrosscheck:
    """realize -> tensor -> decompose on the families the fusion rules cover."""

    name = "oracle-crosscheck"
    speed_reference = staticmethod(speed.reference_s)
    # Per block 78 ops of at most 8 dims, 16 of 16 and 3 of 32.  Sorted by cost,
    # the median falls inside the ~3.5 ms group (VV*, AP, AAP) and the 90th
    # percentile inside the 16-dim PP/APP group, away from group edges.  The
    # 64-dim P x P x P (seconds per op, so one op would set a run's numbers
    # alone) is timed by the traced run's oracle.decompose_ms.dim64 row.
    make_up = {
        "AA": 8, "AV": 10, "VV": 10, "VV*": 10, "AP": 8, "AAP": 10, "VP": 8, "VVV": 8, "AVP": 6,
        "VVP": 4, "PP": 6, "APP": 6,
        "VPP": 2, "PPV": 1,
    }

    def block(self, rng):
        return expand_block(rng, self.make_up, draw_fin_labels)

    def run(self, item, tr):
        module = None
        for label in item:
            factor = tr.call("oracle.realize", oracle.realize, oracle.fin_label_of(label))
            module = factor if module is None else tr.call("oracle.tensor", oracle.tensor, module, factor)
        return module.dim, tr.call("oracle.decompose", oracle.decompose, module)

    def check(self, item, out) -> list[str]:
        if out[1] != fin_reference(item):
            return ["decompose disagrees with fusion on " + " x ".join(map(render_label, item))]
        return []

    @staticmethod
    def dim(item) -> int:
        return math.prod({"V": 2, "A": 1, "P": 4}[render_label(x)[0]] for x in item)

    def kind(self, item) -> str:
        return f"dim{self.dim(item)}"

    def traffic(self, item, tally):
        for key in (f"dim.{self.dim(item)}", "labels." + "".join(render_label(x)[0] for x in item)):
            tally[key] = tally.get(key, 0) + 1

    def count(self, item, out, ok, counters):
        counters["oracle.dim_max"] = max(counters["oracle.dim_max"], out[0])
        counters["oracle.dim_total"] += out[0]
        counters["oracle.checked"] += 1
        counters["oracle.agree"] += ok


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    """Environment for a fresh `python -m gl11kl` that imports this checkout."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def fin_text(label) -> str:
    """The CLI's finite-module grammar: V(n;e), A(n), P(n)."""
    return repr(oracle.fin_label_of(label))


class CliSession:
    """One closed-loop client; every request is a fresh `python -m gl11kl`."""

    name = "cli-session"
    speed_reference = staticmethod(speed.interpreter_s)
    # A key is a command and, for char and oracle, what sets its cost (label
    # kind and cutoff, or product shape), so that every block costs the same.
    make_up = {
        "fuse": 10, "kdec": 5, "induce": 5, "local": 5, "monodromy": 5,
        **{f"char {kind} {cutoff}": 1 for kind, cutoff in zip("VAVAVAVA", (2, 4, 6, 8, 9, 10, 11, 12))},
        **{f"oracle {shape}": 1 for shape in ("VV", "VV*", "AV", "AA", "VP", "AP")},
        "oracle PP": 2,
        "kz": 2, "out-of-scope": 4, "malformed": 4,
    }
    request_class = {"char": "char", "oracle": "oracle", "kz": "kz", "out-of-scope": "error", "malformed": "error"}

    def block(self, rng):
        return expand_block(rng, self.make_up, self.draw)

    @staticmethod
    def draw(rng, key):
        """(command, argv, expected exit code, the labels the check needs)."""
        command, *spec = key.split()
        label = render_label(draw_label(rng, rng.choice("VA")))
        ext = rng.choice(("sl21-neg-half", "sl21-level1"))
        if command == "fuse":
            a, b = (draw_label(rng, rng.choice("VAP")) for _ in range(2))
            return command, ["fuse", render_label(a), render_label(b)], 0, (a, b)
        if command == "kdec":
            return command, ["kdec", render_label(draw_label(rng, rng.choice("VAP")))], 0, ()
        if command == "induce":
            return command, ["induce", label, "--ext", ext, "--m-range", str(rng.randint(1, 3))], 0, ()
        if command in ("local", "monodromy"):
            return command, [command, label, "--ext", ext], 0, ()
        if command == "char":
            kind, cutoff = spec
            x = draw_label(rng, kind, ell=0)
            argv = ["char", render_label(x), "--cutoff", cutoff]
            if kind == "A":
                lo = rng.randint(-8, 0)
                argv.append(f"--z-window={lo},{rng.randint(lo, 8)}")
            return command, argv, 0, (x,)
        if command == "oracle":
            labels = draw_fin_labels(rng, spec[0])
            return command, ["oracle", *map(fin_text, labels)], 0, labels
        if command == "kz":
            return command, ["kz", "verify"], 0, ()
        if command == "out-of-scope":
            ell = rng.choice((-2, -1, 1, 2))
            return command, rng.choice(
                (
                    ["fuse", f"Verma0({rational(rng)};{ell})", label],
                    ["char", f"A({rational(rng)};{ell})", "--z-window=-2,2"],
                    ["monodromy", f"P({rational(rng)};{ell})", "--ext", ext],
                    ["induce", f"Verma0({rational(rng)};0)", "--ext", ext],
                )
            ), 1, ()
        return command, rng.choice(
            (
                ["fuse", f"X({rational(rng)};1)", label],
                ["fuse", f"V({rational(rng)};{rng.randint(-3, 3)})", label],
                ["local", label, "--ext", "sl21-level7"],
                ["oracle", f"Q({rational(rng)})", "A(0)"],
                ["char", label, "--cutoff", "-1"],
            )
        ), 2, ()

    def run(self, item, tr):
        command, argv, _, _ = item
        return tr.call(
            "cli." + self.request_class.get(command, "light"),
            subprocess.run,
            [sys.executable, "-m", "gl11kl", *argv],
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, item, out) -> list[str]:
        command, argv, want_code, labels = item
        where = f"gl11kl {' '.join(argv)}"
        if out.returncode != want_code:
            return [f"{where}: exit {out.returncode}, want {want_code}: {out.stderr[-300:]}"]
        if want_code != 0:
            try:
                error = json.loads(out.stderr)
            except ValueError:
                error = None
            if out.stdout or not isinstance(error, dict) or "error" not in error:
                return [f"{where}: error exit without a JSON error on stderr alone"]
            return []
        try:
            payload = json.loads(out.stdout)
        except ValueError:
            return [f"{where}: stdout is not JSON"]
        if command == "kz" and payload.get("all_pass") is not True:
            return [f"{where}: not all checks pass"]
        if command == "fuse" and payload["summands"] != summands_json(fuse(labels[1], labels[0])):
            return [f"{where}: summands differ from fuse in the other order"]
        if command == "induce" and payload["summands"][len(payload["summands"]) // 2]["label"] != argv[1]:
            return [f"{where}: summand m = 0 is not the label"]
        if command == "oracle":
            want = sorted((repr(lbl), m) for lbl, m in fin_reference(labels).items())
            if sorted((s["label"], s["multiplicity"]) for s in payload["summands"]) != want:
                return [f"{where}: decomposition disagrees with fusion"]
        if command == "char":
            terms = {
                (Fraction(t["q"]), Fraction(t["z"]), Fraction(t["y"])): t["coeff"] for t in payload["terms"]
            }
            x = labels[0]
            if isinstance(x, TypicalV):
                return verma_failures(x.n, x.ehat, int(argv[3]), terms)
            if any(c < 0 for c in terms.values()):
                return [f"{where}: negative atypical coefficient"]
        return []

    def kind(self, item) -> str:
        return item[0]

    def traffic(self, item, tally):
        command, argv, _, labels = item
        keys = ["command." + command]
        if command == "char":
            keys.append(f"depth.{argv[3]}")
        if command == "oracle":
            keys.append(f"dim.{OracleCrosscheck.dim(labels)}")
        for key in keys:
            tally[key] = tally.get(key, 0) + 1

    def count(self, item, out, ok, counters):
        if item[0] == "oracle":
            counters["oracle.checked"] += 1
            counters["oracle.agree"] += ok


WORKLOADS = {w.name: w for w in (LabelStream, CharSweep, OracleCrosscheck, CliSession)}
