#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark program, prepares the
seeded inputs, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload ingest_durable --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --diff base.jsonl head.jsonl

Run from the repository root. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones. The exit code is 0 only when every correctness check
passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_durable", "ingest_small_batches")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_program():
    """Configures (once) and builds the Release benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: repository sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    build = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", build, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build, "perfbench")


def program_call(program, mode, workload, seed, seconds, work, trace=None,
                 tiny=False):
    cmd = [program, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work", work]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc, time.monotonic() - started


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def filesystem_type(path):
    proc = subprocess.run(["stat", "-f", "-c", "%T", path],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none (not a git checkout)"


def provenance(args, work, detail):
    info = detail.get("info", {})
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": info.get("build_type", "unknown"),
        "compiler": info.get("compiler", "unknown"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "clocksource": read_text(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        "data_dir_fs": filesystem_type(work),
        "fsync_policy": info.get("fsync_policy", "unknown"),
        "mechanism": info.get("mechanism", "unknown"),
        "campaigns": info.get("campaigns"),
        "participants_start_per_campaign": info.get("preload_per_campaign"),
        "participants_end_per_campaign": info.get("participants_end_per_campaign"),
        "batches_per_campaign_per_pass": info.get("batches_per_campaign_per_pass"),
        "passes_timed": info.get("passes_timed"),
        "passes_kept": info.get("passes_kept"),
        "steal_share_kept_max": info.get("steal_share_kept_max"),
        "ops_attempted": detail.get("attempted"),
        "ops_failed": detail.get("failed"),
    }
    return prov


def run_workload(args):
    bench = load_benchmark()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    program = build_program()
    work = os.path.join(build_root(), "work", args.workload)
    os.makedirs(work, exist_ok=True)
    prep, prep_s = program_call(program, "prepare", args.workload,
                                args.seed, args.seconds, work)
    if prep.returncode != 0:
        raise SystemExit("perfbench: prepare failed (exit %d)" % prep.returncode)
    log("perfbench: prepared %s in %.1f s" % (args.workload, prep_s))
    proc, run_s = program_call(program, "run", args.workload, args.seed,
                               args.seconds, work, trace=args.trace)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise SystemExit("perfbench: the benchmark program printed no "
                         "result (exit %d)" % proc.returncode)
    detail = json.loads(lines[-1])
    log("perfbench: measured %s in %.1f s" % (args.workload, run_s))

    correct = proc.returncode == 0 and detail.get("correct") is True
    failures = list(detail.get("failures", []))
    metrics = {}
    measured = detail.get("metrics", {})
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            correct = False
            failures.append("metric %s missing or mis-united" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not args.trace and metrics.get("ok_ratio", {}).get("value") != 1:
        correct = False
        failures.append("ok_ratio below 1")

    print("provenance " + json.dumps(provenance(args, work, detail),
                                     sort_keys=True))
    for name, got in sorted(measured.items()):
        print("%-34s %16.6g %-6s (%d samples)"
              % (name, got["value"] if got["value"] is not None else float("nan"),
                 got["unit"], got.get("samples", 0)))
    for f in failures:
        print("FAILED: " + f)
    result = {"correct": correct, "attempted": int(detail.get("attempted", 0)),
              "failed": int(detail.get("failed", 0)), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def smoke(_args):
    """All workloads and their traced runs at tiny scale: checks metric
    names and units against BENCHMARK.json and that the digest gate both
    passes on real output and fails on a tampered reference."""
    bench = load_benchmark()
    program = build_program()
    problems = []
    for workload in WORKLOADS:
        work = os.path.join(build_root(), "smoke", workload)
        os.makedirs(work, exist_ok=True)
        prep, _ = program_call(program, "prepare", workload, 7, 1, work,
                               tiny=True)
        if prep.returncode != 0:
            problems.append("%s: prepare failed" % workload)
            continue
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc, secs = program_call(program, "run", workload, 7, 1, work,
                                      trace=trace, tiny=True)
            detail = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not detail.get("correct"):
                problems.append("%s trace=%d: not correct: %s"
                                % (workload, trace, detail.get("failures")))
            for m in wanted:
                got = detail["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s trace=%d: metric %s missing or unit %s"
                                    % (workload, trace, m["name"],
                                       got and got["unit"]))
            log("smoke: %s trace=%d ok=%s (%.1f s)"
                % (workload, trace, detail.get("correct"), secs))
        # The gate must fire: a reference digest that does not match the
        # served state has to fail the run.
        expected = os.path.join(work, "expected.txt")
        with open(expected) as f:
            rows = f.read().split("\n")
        digest, nodes = rows[0].split()
        rows[0] = "%016x %s" % (int(digest, 16) ^ 1, nodes)
        with open(expected, "w") as f:
            f.write("\n".join(rows))
        proc, _ = program_call(program, "run", workload, 7, 1, work,
                               trace=0, tiny=True)
        detail = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode == 0 or detail.get("correct"):
            problems.append("%s: tampered reference digest was not caught"
                            % workload)
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                runs.append(json.loads(line))
    return runs


def diff(args):
    """Comparison aid, not a gate: per-metric median and quartiles of two
    result sets (files of result lines, one run per line) against the
    bounds of BENCHMARK.json."""
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, head = load_results(args.diff[0]), load_results(args.diff[1])
    names = sorted({n for r in base + head for n in r["metrics"]})
    print("%-30s %12s %12s %8s %8s %8s  %s"
          % ("metric", "base_med", "head_med", "change", "spread", "bound",
             "verdict"))
    for name in names:
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        h = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
        if not b or not h:
            continue
        bq1, bmed, bq3 = quartiles(b)
        _, hmed, _ = quartiles(h)
        spec = specs.get(name, {})
        bound = spec.get("bound")
        change = (hmed - bmed) / bmed if bmed else 0.0
        worse = -change if spec.get("better") == "higher" else change
        spread = (bq3 - bq1) / bmed if bmed else 0.0
        if bound is None:
            verdict = "(per-layer, no bound)"
        elif spread > bound:
            verdict = "unresolved: base spread exceeds bound"
        elif worse > bound:
            verdict = "WORSE beyond bound"
        else:
            verdict = "within bound"
        print("%-30s %12.6g %12.6g %+7.1f%% %7.1f%% %8s  %s"
              % (name, bmed, hmed, 100 * change, 100 * spread,
                 "-" if bound is None else "%.0f%%" % (100 * bound), verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--diff", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args()
    if args.diff:
        return diff(args)
    if args.smoke:
        return smoke(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
