"""The gl11kl benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics of one workload: a timed pass in a fresh interpreter
(``bench/loop.py``) and the import time in fresh interpreters.  With ``--trace 1`` it runs the workload twice, untraced and
traced, each for half the time, and reports the per-layer metrics from the
traced pass.  Times are reported at the fixed reference speed of
``speed.py``.  Every result is checked; the last line of stdout is one JSON
object, and the exit code is 0 only if every check passed.  The lines
before it give the environment, the traffic the seed generated and every
metric with its unit and raw value; ``bench/out/`` keeps the full record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("label-stream", "char-sweep", "oracle-crosscheck", "cli-session")
# what each workload imports; setup_s times this in fresh interpreters
IMPORTS = {
    "label-stream": "gl11kl, gl11kl.extensions",
    "char-sweep": "gl11kl, gl11kl.characters, gl11kl.series",
    "oracle-crosscheck": "gl11kl, gl11kl.oracle",
    "cli-session": "gl11kl.cli",
}
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
SETUP_RUNS = 9
INTERPRETER_RUNS = 5
CHILD_TIMEOUT_S = 150
LAYERS = ("labels", "fusion", "extensions", "characters", "series", "oracle")
CLI_CLASSES = ("light", "char", "oracle", "kz", "error")
BASELINE_ROWS = (
    "characters.cold_ms.d8",
    "characters.cold_ms.d16",
    "oracle.decompose_ms.dim16",
    "oracle.decompose_ms.dim32",
    "oracle.decompose_ms.dim64",
)


def child(argv, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def wall_s(argv, speed: Speed) -> tuple[float, float, subprocess.CompletedProcess]:
    """Launch-to-exit time of a fresh process, the speed scale around it, the process."""
    speed.probe()
    start = time.perf_counter()
    done = child(argv)
    seconds = time.perf_counter() - start
    speed.probe()
    return seconds, speed.scale(), done


def median_at_reference(samples) -> tuple[float, float]:
    """Median of (raw time, scale) samples at reference speed, and raw."""
    samples = list(samples)
    return statistics.median(t * k for t, k in samples), statistics.median(t for t, _ in samples)


def wall_ms(argv, runs: int) -> tuple[float, float]:
    speed = Speed()
    return median_at_reference((t * 1e3, k) for t, k, _ in (wall_s(argv, speed) for _ in range(runs)))


def import_s(modules: str, speed: Speed) -> tuple[float, float]:
    """Time to import MODULES in a fresh interpreter, measured inside it, and the scale."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    _, scale, done = wall_s([sys.executable, "-c", code], speed)
    if done.returncode != 0:
        raise RuntimeError(f"import {modules} failed: {done.stderr}")
    return float(done.stdout), scale


def loop_pass(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = child(
        [sys.executable, str(BENCH / "loop.py"), workload, str(seed), str(seconds), str(trace), str(MIN_OPS)]
    )
    if done.returncode != 0:
        raise RuntimeError(f"the {workload} pass failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def at_reference(p: dict) -> list[float]:
    """The pass's operation times, each scaled by the speed in force at it."""
    return [t * k for t, k in zip(p["latencies_ms"], p["scales"])]


def latency_summary(latencies_ms: list[float]) -> dict:
    p90 = statistics.quantiles(latencies_ms, n=10)[8]
    return {
        "ops_per_s": len(latencies_ms) / (sum(latencies_ms) / 1e3),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": p90,
        "samples": len(latencies_ms),
        "beyond_p90": sum(t > p90 for t in latencies_ms),
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pass_record(p: dict) -> dict:
    return {k: v for k, v in p.items() if k not in ("latencies_ms", "scales", "kinds", "layers")}


# Each metric is (value at reference speed, raw value, unit).


def end_to_end(workload: str, seed: int, seconds: float, record: dict):
    speed = Speed()
    setup = [import_s(IMPORTS[workload], speed) for _ in range(SETUP_RUNS + 1)][1:]  # the first writes bytecode
    p = loop_pass(workload, seed, seconds, 0)
    record["pass"] = pass_record(p)
    by_kind: dict = {}
    for kind, t in zip(p["kinds"], p["latencies_ms"]):
        by_kind.setdefault(kind, []).append(t)
    record["per_kind_median_ms"] = {k: statistics.median(v) for k, v in by_kind.items()}
    if workload == "cli-session":
        kz = [(t / 1e3, k) for kind, t, k in zip(p["kinds"], p["latencies_ms"], p["scales"]) if kind == "kz"]
        record["notes"].append(
            "kz_verdict_s = {:.6g} s (raw {:.6g}): median of the session's {} kz verify requests, "
            "launch to exit".format(*median_at_reference(kz), len(kz))
        )
    ref, raw = latency_summary(at_reference(p)), latency_summary(p["latencies_ms"])
    record["notes"].append(
        f"latency: {ref['samples']} ops, {ref['beyond_p90']} beyond the 90th percentile; "
        "checks run between ops and are not timed"
    )
    metrics = {name: (ref[name], raw[name], unit) for name, unit in (
        ("ops_per_s", "ops/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"))}
    metrics["setup_s"] = (*median_at_reference(setup), "s")
    metrics["peak_rss_mb"] = (p["peak_rss_mb"], p["peak_rss_mb"], "MB")
    record["failures"] = p["failures"]
    return metrics, p["attempted"], p["failed"]


def per_layer(workload: str, seed: int, seconds: float, record: dict):
    untraced = loop_pass(workload, seed, seconds / 2, 0)
    traced = loop_pass(workload, seed, seconds / 2, 1)
    record["pass"] = pass_record(traced)
    record["layers"] = by_name = traced["layers"]
    counters, scale = traced["counters"], traced["speed_scale"]

    def ms(raw):  # layer times, at the traced pass's median speed
        return raw * scale, raw, "ms"

    def plain(value, unit):
        return value, value, unit

    metrics = {}
    for layer in LAYERS:
        rows = [row for name, row in by_name.items() if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = plain(sum(r["calls"] for r in rows), "count")
        if layer != "oracle":  # the oracle's time is split by step below
            metrics[f"{layer}.busy_ms"] = ms(sum(r["self_ms"] for r in rows))
    for step in ("realize", "tensor", "decompose"):
        metrics[f"oracle.{step}_ms"] = ms(by_name.get(f"oracle.{step}", {}).get("self_ms", 0.0))
    cache = traced["cache"]
    lookups = cache["hits"] + cache["misses"]
    checked = counters.get("oracle.checked", 0)
    metrics.update(
        {
            "fusion.summands_out": plain(counters.get("fusion.summands_out", 0), "count"),
            "characters.cold_ms": ms(counters.get("characters.cold_ms", 0.0)),
            "characters.warm_ms": ms(counters.get("characters.warm_ms", 0.0)),
            "characters.terms_out": plain(counters.get("characters.terms_out", 0), "count"),
            "characters.cache_hit_ratio": plain(cache["hits"] / lookups if lookups else 0.0, "ratio"),
            "series.terms_in": plain(counters.get("series.terms_in", 0), "count"),
            "oracle.dim_max": plain(counters.get("oracle.dim_max", 0), "count"),
            "oracle.dim_total": plain(counters.get("oracle.dim_total", 0), "count"),
            "oracle.agree_ratio": plain(counters.get("oracle.agree", 0) / checked if checked else 0.0, "ratio"),
        }
    )
    record["notes"].append(
        f"characters.cache_hit_ratio: {cache['hits']} hits of {lookups} _universal_product lookups; "
        f"oracle.agree_ratio: {counters.get('oracle.agree', 0)} of {checked} decompositions"
    )
    kz_steps = traced.get("kz", {"kz.calls": 0, "kz.exact_ms": 0.0, "kz.float_ms": 0.0})
    metrics["kz.calls"] = plain(kz_steps["kz.calls"], "count")
    metrics["kz.exact_ms"] = ms(kz_steps["kz.exact_ms"])
    metrics["kz.float_ms"] = ms(kz_steps["kz.float_ms"])
    metrics["cli.import_ms"] = (*wall_ms([sys.executable, "-c", "import gl11kl.cli"], INTERPRETER_RUNS), "ms")
    for cls in CLI_CLASSES:
        metrics[f"cli.{cls}_ms"] = ms(traced["class_ms"].get(f"cli.{cls}", 0.0))
    for name in BASELINE_ROWS:
        metrics[name] = ms(traced["baseline"].get(name, 0.0))
    fast = latency_summary(at_reference(untraced))["ops_per_s"]
    slow = latency_summary(at_reference(traced))["ops_per_s"]
    metrics["trace.ops_per_s_untraced"] = plain(fast, "ops/s")
    metrics["trace.ops_per_s_traced"] = plain(slow, "ops/s")
    metrics["trace.slowdown"] = plain(fast / slow, "ratio")
    record["notes"].append(
        "per-layer values are self times and counts of the traced pass; a layer this "
        "workload does not call reads 0; the baseline rows (*.d8, *.dim64, ...) are fixed "
        "probes made in char-sweep and oracle-crosscheck"
    )
    record["failures"] = untraced["failures"] + traced["failures"]
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    if "kz" in traced:
        attempted += 1
        failed += not kz_steps["ok"]
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gl11kl" / "__init__.py").is_file():
        print(f"no gl11kl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one CPU for this process and its children, so that the speed probes
    # and the work they scale run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    interpreter_ms = wall_ms([sys.executable, "-c", "pass"], INTERPRETER_RUNS)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": git_commit(),
            "cli.interpreter_ms": interpreter_ms[0],
            "cli.interpreter_ms_raw": interpreter_ms[1],
        },
        "notes": [],
    }
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(args.workload, args.seed, args.seconds, record)
    if args.trace:
        metrics["cli.interpreter_ms"] = (*interpreter_ms, "ms")
    record["metrics"] = {name: {"value": v, "unit": u, "raw": raw} for name, (v, raw, u) in metrics.items()}
    record["error_rate"] = {"failed": failed, "attempted": attempted, "value": failed / attempted}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    traffic = dict(sorted(record["pass"]["traffic"].items()))
    print(f"# env {json.dumps(record['env'])}")
    print(f"# traffic {json.dumps(traffic)}")
    depths = sum(key.startswith("depth.") for key in traffic)
    if depths:
        print(f"# traffic distinct q-depths: {depths}")
    if "per_kind_median_ms" in record:
        print(f"# per-kind median ms (raw) {json.dumps(record['per_kind_median_ms'])}")
    for note in record["notes"]:
        print(f"# {note}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    print(f"# error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}  (raw {m['raw']:.6g})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
