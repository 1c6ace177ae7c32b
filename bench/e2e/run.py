#!/usr/bin/env python3
"""Entry point of the repository benchmark (the command in BENCHMARK.json).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds tram_e2e (bench/e2e, Release) into .bench_build/e2e of the tree this
file sits in, runs one workload, and prints as the last line of stdout one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics BENCHMARK.json names with --trace 0, its per-layer metrics with
--trace 1. The full result (quartiles, sample counts, host stamp, every
metric) stays in .bench_build/e2e/results/ for compare.py.

    python3 bench/e2e/run.py --smoke

runs every workload at small sizes with tracing and tram_e2e --check, and
exits nonzero if any of them fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
# Longest a run may take; the time budget of the timed trials is --seconds,
# and set-up, warm-up and the traced trial come on top.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "tram_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "tram_e2e"


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return the path of its result JSON."""
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{workload}-s{seed}-t{int(trace)}-{stamp}-{os.getpid()}.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={out}"]
    if trace:
        trace_dir = BUILD / "trace" / f"{workload}-s{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-dir={trace_dir}")
    if smoke:
        cmd += ["--smoke", "--check"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    return out


def driver_line(result_path, trace):
    """The last-line summary: the BENCHMARK.json metrics of one kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = json.loads(Path(result_path).read_text())
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = result[section].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            raise SystemExit(f"{m['name']} missing from {result_path}")
        if (got["unit"], got["better"]) != (m["unit"], m["better"]):
            raise SystemExit(f"{m['name']}: tram_e2e reports {got['unit']}, "
                             f"{got['better']}; BENCHMARK.json says "
                             f"{m['unit']}, {m['better']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke(binary):
    """Every workload tram_e2e knows, small, traced and --check'ed."""
    listing = subprocess.run([str(binary), "--list"], check=True,
                             capture_output=True, text=True).stdout
    names = [line.split("\t")[0] for line in listing.splitlines() if line]
    started = time.monotonic()
    failed = []
    for name in names:
        try:
            run_workload(binary, name, 1, 1, True, smoke=True)
        except subprocess.SubprocessError as e:
            log(f"smoke: {name} failed: {e}")
            failed.append(name)
    log(f"smoke: {len(names) - len(failed)}/{len(names)} workloads passed "
        f"in {time.monotonic() - started:.1f} s")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at small sizes and check it")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        out = run_workload(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps(driver_line(out, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
