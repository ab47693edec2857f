"""One timed pass of a workload in a fresh interpreter.

    python bench/loop.py WORKLOAD SEED SECONDS TRACE MIN_OPS

Runs whole blocks of the workload, closed loop with one caller, until the
pass has run for about SECONDS and done at least MIN_OPS operations, checks
every result, and prints one JSON object with the raw latencies, the speed
scale in force at each op (see speed.py), failures, traffic and peak
resident set.  With TRACE = 1
it also records spans, writes them to ``bench/out/trace-<workload>.jsonl``
and adds per-layer numbers, the fixed baseline probes and, for cli-session,
the kz steps.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from speed import Speed  # noqa: E402
from gl11kl import characters, kz, oracle  # noqa: E402

MAX_REPORTED_FAILURES = 20
# the (x, Delta) points of kz.verification_report's residual check
KZ_RESIDUAL_SAMPLES = [
    (Fraction(1, 2), Fraction(3, 8)),
    (Fraction(1, 3), Fraction(-1, 2)),
    (Fraction(2, 5), Fraction(1, 4)),
    (Fraction(-1, 2), Fraction(5, 8)),
    (Fraction(3, 4), Fraction(2, 3)),
]


def run_pass(name: str, seed: int, seconds: float, trace: bool, min_ops: int, workload=None) -> dict:
    wl = workload or workloads.WORKLOADS[name]()
    tr = Tracer() if trace else NullTracer()
    rng = random.Random(seed)
    latencies_ns: list[int] = []
    scales: list[float] = []
    kinds: list[str] = []
    failures: list[str] = []
    failed = 0
    traffic: dict = {}
    counters: Counter = Counter()
    cache = characters._universal_product.cache_info
    cache_before = cache()
    speed = Speed(wl.speed_reference)
    speed.probe()
    start = time.perf_counter()
    blocks = 0
    while True:
        for item in wl.block(rng):
            tr.op_id = len(latencies_ns)
            misses = cache().misses if trace else 0
            t0 = time.perf_counter_ns()
            try:
                with tr.span("op"):
                    out = wl.run(item, tr)
            except Exception as exc:  # a failed op is counted, and the run goes on
                out = exc
            latencies_ns.append(time.perf_counter_ns() - t0)
            # an op's scale comes from the last three probes; after a long op
            # the latest of them is taken right after it
            speed.maybe_probe()
            scales.append(speed.scale())
            kinds.append(wl.kind(item))
            bad = [f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else wl.check(item, out)
            failed += bool(bad)
            failures.extend(bad[: MAX_REPORTED_FAILURES - len(failures)])
            wl.traffic(item, traffic)
            if trace:
                if not isinstance(out, Exception):
                    wl.count(item, out, not bad, counters)
                _charge_characters(tr, counters, cold=cache().misses > misses)
        blocks += 1
        elapsed = time.perf_counter() - start
        # stop at the block boundary nearest to the requested time
        if elapsed * (1 + 0.5 / blocks) >= seconds and len(latencies_ns) >= min_ops:
            break
    cache_after = cache()
    result = {
        "workload": name,
        "seed": seed,
        "blocks": blocks,
        "speed_scale": statistics.median(scales),
        "wall_s": time.perf_counter() - start,
        "attempted": len(latencies_ns),
        "failed": failed,
        "failures": failures,
        "latencies_ms": [t / 1e6 for t in latencies_ns],
        "scales": scales,
        "kinds": kinds,
        "traffic": traffic,
        "peak_rss_mb": peak_rss_mb(children=name == "cli-session"),
        "cache": {
            "hits": cache_after.hits - cache_before.hits,
            "misses": cache_after.misses - cache_before.misses,
        },
    }
    if trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"trace-{name}.jsonl")
        result["layers"] = tr.self_times()
        result["class_ms"] = _median_span_ms(tr, prefix="cli.")
        result["counters"] = dict(counters)
    return result


def _charge_characters(tr, counters, cold: bool) -> None:
    """Add the last op's characters self time to its cold or warm total."""
    ms = 0.0
    for op_id, span_name, start, end, _ in reversed(tr.spans):
        if op_id != tr.op_id:
            break
        if span_name.startswith("characters."):
            ms += (end - start) / 1e6
    if ms:
        counters["characters.cold_ms" if cold else "characters.warm_ms"] += ms


def _median_span_ms(tr, prefix: str) -> dict:
    by_name: dict = {}
    for _, span_name, start, end, _ in tr.spans:
        if span_name.startswith(prefix):
            by_name.setdefault(span_name, []).append((end - start) / 1e6)
    return {k: statistics.median(v) for k, v in by_name.items()}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _ms(fn, *args) -> float:
    t0 = time.perf_counter_ns()
    fn(*args)
    return (time.perf_counter_ns() - t0) / 1e6


def baseline_probes(name: str) -> dict:
    """Fixed inputs, independent of the seed: the rows later changes cite.

    Each row is measured in the traced pass of the workload whose layer it
    times: cold universal products in char-sweep, the P x P (16 dims),
    P x P x V (32) and P x P x P (64) decompositions in oracle-crosscheck.
    """
    rows = {}
    if name == "char-sweep":
        for depth in (8, 16):
            characters._universal_product.cache_clear()
            rows[f"characters.cold_ms.d{depth}"] = _ms(characters._universal_product, depth)
    if name == "oracle-crosscheck":
        p = oracle.realize(oracle.Projective(0))
        v = oracle.realize(oracle.Verma(Fraction(1, 2), Fraction(1, 3)))
        pp = oracle.tensor(p, p)
        for module in (pp, oracle.tensor(pp, v), oracle.tensor(pp, p)):
            rows[f"oracle.decompose_ms.dim{module.dim}"] = _ms(oracle.decompose, module)
    return rows


def kz_breakdown() -> dict:
    """The steps of ``kz.verification_report``, in its order, timed in-process."""
    tr = Tracer()
    system = tr.call("kz.build_first_order_system", kz.build_first_order_system)
    derived = tr.call("kz.eliminate_to_second_order", kz.eliminate_to_second_order, system)
    direct = tr.call("kz.correlator_ode", kz.correlator_ode)
    ok = derived == direct.normalized()
    ok &= tr.call("kz.check_transform", kz.check_transform)
    ok &= tr.call("kz.verify_vanish1", kz.verify_vanish1)
    exact_ms = sum((s[3] - s[2]) / 1e6 for s in tr.spans)
    float_start = len(tr.spans)
    for num, den in ((1, 10), (1, 3), (2, 5), (1, 2), (7, 10)):
        x = Fraction(num, den)
        got = tr.call("kz.rigidity_constant", kz.rigidity_constant, x)
        ok &= abs(got - kz.rigidity_constant_closed_form(x)) < 1e-8
    for x, delta in KZ_RESIDUAL_SAMPLES:
        for z in (0.1, 0.25, 0.5, 0.75, 0.9):
            ok &= tr.call("kz.ode_residual", kz.ode_residual, x, delta, z) < 1e-10
    float_ms = sum((s[3] - s[2]) / 1e6 for s in tr.spans[float_start:])
    return {"kz.calls": len(tr.spans), "kz.exact_ms": exact_ms, "kz.float_ms": float_ms, "ok": bool(ok)}


def measure(name: str, seed: int, seconds: float, trace: bool, min_ops: int, workload=None) -> dict:
    """The timed pass; traced, also the baseline rows and the kz steps."""
    result = run_pass(name, seed, seconds, trace, min_ops, workload)
    if trace:
        result["baseline"] = baseline_probes(name)
        if name == "cli-session":
            result["kz"] = kz_breakdown()
    return result


def main(argv) -> int:
    name, seed, seconds, trace, min_ops = argv
    print(json.dumps(measure(name, int(seed), float(seconds), trace == "1", int(min_ops))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
