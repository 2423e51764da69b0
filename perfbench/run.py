#!/usr/bin/env python3
"""Host-time benchmark of the lumos library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload open_seqlen --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --seconds 32          # every workload, as a table
    python3 perfbench/run.py --self-test

Builds `perfbench/` (which compiles the library from `src/` with the
repository's own CMakeLists) into `.bench_build/`, runs one workload and
prints, as the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Earlier lines carry the run's
metadata: seed, thread count, nproc, compiler, build type, the set-up samples,
the cold pass and every warm repetition, the work unit and the digest of the
simulated statistics.

`--trace 0` reports the end-to-end metrics.  `setup_s` is the median of
SETUP_SAMPLES set-ups, each in a fresh process, because the first pass of a
process is cold (page faults, an empty heap) and that is what one CLI
invocation pays.  `--trace 1` reports the per-layer metrics from a run whose
spans are written to `.bench_build/spans/`.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "lumos_perfbench"

# Worker threads per workload (LUMOS_THREADS), capped at nproc.
THREADS = {"open_seqlen": 1, "open_sharded": 4, "decode_hybrid": 1, "design_sweep": 1}
# open_sharded is not a gated workload of its own: with 4 threads on a shared
# 4-vCPU host its run-to-run spread exceeds any bound BENCHMARK.json may set.
# Its layers are reported by open_seqlen's traced run, which also runs
# open_sharded, traced, for a third of --seconds.
COMPANION = {"open_seqlen": ("open_sharded", ("serve.shard.", "serve.metrics."))}
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "lumos_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def run_binary(workload, args):
    env = dict(os.environ)
    env["LUMOS_THREADS"] = str(min(THREADS[workload], os.cpu_count() or 1))
    proc = subprocess.run([str(BINARY), "--workload", workload] + args, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"lumos_perfbench exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples):
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(samples)
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            return {"q": q, "value": statistics.quantiles(samples, n=1000)[round(q * 1000) - 1]}
    return None


def measure_untraced(workload, seed, seconds):
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    setups = [run_binary(workload, args + ["--setup-only"]) for _ in range(SETUP_SAMPLES - 1)]
    report = run_binary(workload, args)
    # A set-up-only process is not checked itself: its cold repetition counts
    # as one operation that must reproduce the checked run's bit for bit.
    for r in setups:
        r["attempted"] = 1
        r["failed"] = int(r["digest"] != report["digest"])
        if r["failed"]:
            r["failures"].append("set-up process digest differs from the checked run's")
    reports = setups + [report]
    metrics = {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in reports), "unit": "s"},
        "wall_s": {"value": report["wall_s"], "unit": "s"},
        "work_per_s": {"value": report["work_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }
    return reports, metrics


def measure_traced(workload, seed, seconds):
    def traced(name, secs):
        spans = BUILD / "spans" / f"{name}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        return run_binary(name, ["--seed", str(seed), "--seconds", str(secs), "--trace", "1",
                                 "--spans-out", str(spans)])

    report = traced(workload, seconds)
    reports = [report]
    metrics = dict(report["metrics"])
    speedup = 0.0
    if workload in COMPANION:
        other, prefixes = COMPANION[workload]
        extra = traced(other, max(1.0, seconds / 3))
        reports.insert(0, extra)
        metrics.update((k, v) for k, v in extra["metrics"].items() if k.startswith(prefixes))
        speedup = report["wall_s"] / extra["wall_s"]
    metrics["serve.shard.speedup"] = {"value": speedup, "unit": "ratio"}
    return reports, metrics


def measure(workload, seed, seconds, trace):
    """Runs one benchmark run; returns (metadata, result line)."""
    reports, metrics = (measure_traced if trace else measure_untraced)(workload, seed, seconds)
    report = reports[-1]  # the measuring process of `workload`
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    meta = {key: report[key] for key in (
        "workload", "seed", "threads", "nproc", "compiler", "build_type", "inputs_s",
        "cold_pass_s", "warm_s", "samples", "work", "work_unit", "digest")}
    meta["setup_samples_s"] = [r["setup_s"] for r in reports if r["workload"] == workload]
    meta["wall_tail"] = tail_percentile(report["warm_s"])
    meta["failures"] = sorted({f for r in reports for f in r["failures"]})
    if trace:
        meta["layer_self_s"] = {r["workload"]: r["layer_self_s"] for r in reports}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return meta, result


def self_test():
    """Checks that each output check can fail, and that every metric named in
    BENCHMARK.json is printed, with its unit, under a valid name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if subprocess.run([str(BINARY), "--self-test"]).returncode != 0:
        problems.append("an injected fault was not counted as a failed operation")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.fullmatch(m["name"]):
                problems.append(f"metric name {m['name']!r} does not match {NAME_RE.pattern}")
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            _, result = measure(w["name"], 2, 1, trace)
            printed = result["metrics"]
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: failed checks")
            for m in spec[group]:
                got = printed.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w['name']} trace {trace}: {m['name']} not printed "
                                    f"with unit {m['unit']}")
            for name in printed:
                if not NAME_RE.fullmatch(name):
                    problems.append(f"printed metric name {name!r} is invalid")
    for p in problems:
        log("self-test:", p)
    print(json.dumps({"self_test": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def run_all(seed, seconds, trace):
    """Runs every workload in BENCHMARK.json and prints each metric with its
    unit, the warm sample count and the failed operations out of those
    attempted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for w in spec["workloads"]:
        meta, result = measure(w["name"], seed, seconds, trace)
        results[w["name"]] = result
        print(f"{w['name']}: {result['failed']} of {result['attempted']} operations failed, "
              f"{meta['samples']} warm samples, work unit {meta['work_unit']}, "
              f"digest {meta['digest']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(THREADS),
                    help="one workload; without it, every workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.self_test:
            return self_test()
        if args.workload is None:
            return run_all(args.seed, args.seconds, args.trace)
        meta, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log("perfbench:", e)
        return 1
    print(json.dumps({"run": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
