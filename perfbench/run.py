#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. Builds perfbench/ (the library under src/
plus the runner) into .bench_build/ (or $CARGO_TARGET_DIR), runs it,
checks that every answer was correct, and prints one summary line per
metric, a record line (host, seed, world sizes, sample counts), and as the
last line a JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run. Exits non-zero, without a result line, when the
build or set-up fails, and with correct=false when any answer was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("serve_point", "scan_wide", "ingest_sharded")
# The runner is stopped after this many seconds plus twice --seconds: room
# for set-up, the oracle and the fixed append phases on a slow host, plus
# the measured windows.
RUNNER_FIXED_S = 130


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the runner (both incremental); returns its
    path."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "--target",
              "perfbench_runner", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return build_dir / "perfbench_runner"


def run_workload(runner, args, work, raw_path, spans_path):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [str(runner), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
           "--trace=%d" % args.trace, "--work-dir=" + str(work),
           "--out=" + str(raw_path), "--spans=" + str(spans_path)]
    # Worlds (and the sharded cluster's temp directories) stay inside the
    # checkout.
    env = dict(os.environ, TMPDIR=str(work))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr,
                              timeout=RUNNER_FIXED_S + 2 * args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # 0 = all answers right, 3 = a wrong answer (the raw result exists).
    if done.returncode not in (0, 3):
        raise RuntimeError("runner exited with %d" % done.returncode)
    return done.returncode


def load_spans(path):
    if not path.exists():
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = HERE.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        runner = build(root, build_dir)
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        results = build_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        raw_path = results / (tag + ".raw.json")
        spans_path = results / (tag + ".spans.jsonl")
        for stale in (raw_path, spans_path):
            if stale.exists():
                stale.unlink()
        run_workload(runner, args, build_dir / "work" / tag, raw_path,
                     spans_path)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log("perfbench: %s" % error)
        return 1

    with open(raw_path) as f:
        raw = json.load(f)
    count = metrics.failures(raw)
    try:
        if args.trace:
            values, samples, absent = metrics.per_layer(
                raw, load_spans(spans_path))
        else:
            values, samples = metrics.end_to_end(raw)
            absent = []
    except ValueError as error:  # e.g. no query or append succeeded
        log("perfbench: %s; errors: %s" % (error, raw["load"]["errors"]))
        return 1

    world = raw["world"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": raw["nproc"],
        "query_clients": raw["query_clients"],
        "world": dict(world,
                      gfus_per_cache=world["gfus"] / world["gfu_cache_capacity"]),
        "setup_reps": len(raw["setup"]),
        "setup_wall_s": metrics.median([s["wall_s"] for s in raw["setup"]]),
        "oracle_s": raw["oracle_s"],
        "failed_ops_ratio": count.failed_ratio,
        "wrong_answers": count.wrong,
        "append_check": raw["append_check"],
        "samples": samples,
        "absent": absent,
        "errors": sum((raw[p]["errors"] for p in ("warmup", "load", "traced",
                                                  "replay") if p in raw), []),
    }
    for name, (value, unit) in values.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print("failed_ops_ratio %.6g (%d of %d ops)" %
          (count.failed_ratio, count.failed, count.attempted))
    print(json.dumps({"record": record}))
    with open(results / (tag + ".record.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({
        "correct": count.correct,
        "attempted": count.attempted,
        "failed": count.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if count.correct else 1


if __name__ == "__main__":
    sys.exit(main())
