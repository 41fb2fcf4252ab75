#!/usr/bin/env python3
"""Build hcbench and run one benchmark workload (or all of them).

    python3 benchmark/run.py [--workload NAME] [--seed N]
                             [--trace 0|1] [--results FILE]

Builds benchmark/ (a standalone CMake project over src/) in Release
into build-benchmark/, then runs the workload as a series of fresh
hcbench processes, one host thread each, for BENCHMARK.json's
run_seconds (at least two processes). It checks each process's
outputs, checks that every repetition produced byte-identical
simulated metrics, prints every metric by name with its unit, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list:
simulated ones from the seed, host ones as medians over repetitions.
With --trace 1 repetitions alternate untraced and traced, and the
metrics are the per_layer list, which every workload measures, taken
from the traced repetitions, plus the tracing overhead. The table
also prints the per-layer metrics of the layers only this workload
exercises (LAYERS below). Every metric printed must have been
measured, or the run fails. --results appends the run's record (with
every repetition's host values) to FILE as one JSON line, for
compare.py. --seconds is accepted only with run_seconds' value: the
run length is part of the benchmark. Exits 1 when the build fails or
an output check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_SECONDS = SPEC["run_seconds"]


# Per-layer metrics of the layers only some workloads exercise, with
# their units. The result line carries one metric set for every
# workload (BENCHMARK.json's per_layer list), so these are printed and
# checked, not put in it.
KV_LAYERS = {
    "port.calls_per_op": "count",
    "workloads.mean_latency_us": "us",
    "workloads.littles_law_conns": "count",
}
EDGE_CALLS = ["hotcalls.hotecall", "hotcalls.hotqueue_ocall_2k", "sdk.ecall",
              "sdk.ocall", "edl.ecall_inout_2k", "edl.ocall_tofrom_2k"]
EDGE_LAYERS = {
    **{f"{call}.{field}": unit for call in EDGE_CALLS
       for field, unit in [("sim_cycles_p50", "cycles"),
                           ("sim_cycles_p99", "cycles"),
                           ("host_ns_p50", "ns")]},
    "hotcalls.responder_polls_per_call": "count",
    "hotcalls.fallback_ratio": "ratio",
    "hotcalls.inline_share": "ratio",
    "hotcalls.arena_share": "ratio",
}
KERNEL_LAYERS = {
    f"mem.{kernel}.{field}": unit for kernel in ["mcf", "libquantum", "astar"]
    for field, unit in [("enc_plain_ratio", "ratio"), ("host_s", "s")]
}
LAYERS = {"kv-hotcalls": KV_LAYERS, "kv-sdk": KV_LAYERS,
          "edge-mix": EDGE_LAYERS, "epc-stream": KERNEL_LAYERS}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
for layers in LAYERS.values():
    UNITS.update(layers)
MIN_REPS = 2
# One repetition must finish well inside the 180 s a run may take.
REP_TIMEOUT_S = 150
TRACE_OVERHEAD = "trace.overhead_pct"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build hcbench. Returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: src/ is missing; hcbench cannot be built")
        return None
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(BUILD), "--target", "hcbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return BUILD / "hcbench"


def child_env():
    # HC_* variables switch simulator planes and checkers at run time;
    # the benchmark pins its configuration, so none may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("HC_")}


def run_rep(binary, workload, seed, traced, index):
    """One fresh hcbench process. Returns its parsed output."""
    out_dir = BUILD / "results"
    out_dir.mkdir(exist_ok=True)
    json_path = out_dir / f"{workload}-{os.getpid()}-{index}.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--json={json_path}"]
    if traced:
        cmd.append(f"--trace={BUILD / 'results' / (workload + '.trace.json')}")
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                          timeout=REP_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"hcbench exited with {proc.returncode}")
    rep = json.loads(json_path.read_text())
    json_path.unlink()
    rep["host"]["harness.wall_s"] = wall
    rep["traced"] = traced
    return rep


def measure(binary, workload, seed, trace):
    """Repetitions until the run's time is spent. Returns the list."""
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(binary, workload, seed, traced, len(reps)))
        elapsed = time.perf_counter() - start
        longest = max(r["host"]["harness.wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + longest > RUN_SECONDS:
            return reps


def sim_mismatches(reps):
    """Simulated metrics two repetitions both report but disagree on."""
    bad = set()
    first = reps[0]["sim"]
    for rep in reps[1:]:
        for name, value in rep["sim"].items():
            if name in first and json.dumps(first[name]) != json.dumps(value):
                bad.add(name)
    return sorted(bad)


def summarize(reps, names, trace):
    """Fold repetitions into {name: {value, unit}}; value is None for a
    metric no repetition measured."""
    untraced = [r for r in reps if not r["traced"]]
    chosen = [r for r in reps if r["traced"]] if trace else untraced
    metrics = {}
    for name in names:
        value = None
        if name in chosen[0]["sim"]:
            value = chosen[0]["sim"][name]
        elif name in chosen[0]["host"]:
            value = statistics.median(r["host"][name] for r in chosen)
        elif trace and name == TRACE_OVERHEAD:
            plain = statistics.median(r["host"]["host_ops_per_s"] for r in untraced)
            traced = statistics.median(r["host"]["host_ops_per_s"] for r in chosen)
            value = 100.0 * (plain / traced - 1.0)
        metrics[name] = {"value": value, "unit": UNITS[name]}
    return metrics


def run_workload(binary, workload, seed, trace):
    reps = measure(binary, workload, seed, trace)
    errors = [e for r in reps for e in r["errors"]]
    failed = sum(r["failed"] for r in reps)
    mismatched = sim_mismatches(reps)
    if mismatched:
        failed += 1
        errors.append("simulated metrics differ between repetitions: "
                      + ", ".join(mismatched))
    reported = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    names = reported + (list(LAYERS[workload]) if trace else [])
    metrics = summarize(reps, names, trace)
    for name, metric in metrics.items():
        value = metric["value"]
        if value is None or not math.isfinite(value):
            failed += 1
            errors.append(f"{name} was not measured")
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {name: metrics[name] for name in reported},
    }

    print(f"{workload}  seed={seed}  repetitions={len(reps)}"
          f" (traced {sum(r['traced'] for r in reps)})"
          f"  latency samples/rep={int(reps[0]['sim'].get('latency_samples', 0))}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>14s} {metric['unit']}")
    for error in errors:
        print(f"  FAILED: {error}")
    record = {"workload": workload, "seed": seed, "trace": trace,
              "reps": [r["host"] for r in reps if r["traced"] == trace],
              "result": result}
    return result, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds is fixed at BENCHMARK.json's run_seconds, "
                     f"{RUN_SECONDS}")

    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1
    results = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            result, record = run_workload(binary, workload, args.seed,
                                          bool(args.trace))
            results.append((workload, result))
            if args.results:
                with open(args.results, "a") as out:
                    out.write(json.dumps(record) + "\n")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        log(f"run.py: {err}")
        return 1

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}/{n}": m for w, r in results
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
