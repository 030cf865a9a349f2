"""The opconv benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With --trace 0 it runs whole passes of the
workload until --seconds have gone by, each in a fresh process, with timed
set-ups before, between and after them, and reports every end-to-end metric
of BENCHMARK.json, the timings as medians over the passes and set-ups.
With --trace 1 it runs one plain pass and one traced pass side by side and
reports every per-layer metric.  Passes alternate between operand seeds n
and n + 1; every (layer, scheme) run must match the reference outputs bit
for bit, and its counters record must hash the same in every pass.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A run record (git commit,
Python, CPUs, load average) is written under .bench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import bench_math
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 2       # per set-up process
TIME_LIMIT_S = 170   # a run must end within 180 s

SIMULATED = {"speedup.intra", "speedup.inter", "speedup.both", "energy_norm.both"}


def kind(name):
    """Whether a metric is simulated (the modelled GPU's) or host (the
    simulator's own).  Per-layer counts taken from counters records carry a
    scheme suffix, or count the ops of the modelled workload."""
    if name in SIMULATED or name in ("workload.ops", "smcore.ops") \
            or name.rpartition(".")[2] in bench_math.SCHEMES:
        return "simulated"
    return "host"


class BenchError(Exception):
    pass


def git_commit():
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def read_first(path, prefix=""):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def run_record():
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "loadavg_before": read_first("/proc/loadavg"),
    }


def run_children(arg_lists, deadline):
    """Run one one_pass.py process per argument list, all at once, and
    return their result files' contents.  Every process has ended on return."""
    procs = []
    try:
        for args in arg_lists:
            cmd = [sys.executable, os.path.join(HERE, "one_pass.py")] + args
            procs.append(subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE, text=True))
        for args, proc in zip(arg_lists, procs):
            try:
                _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"pass did not finish in time: {' '.join(args)}") from None
            if proc.returncode != 0:
                raise BenchError(f"pass exited with {proc.returncode}: {' '.join(args)}\n"
                                 + err[-2000:])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for args in arg_lists:
        with open(args[args.index("--result") + 1]) as fh:
            results.append(json.load(fh))
    return results


def check_fingerprints(passes):
    """Runs whose counters record hashes differently from the first pass's,
    as {pass index: {"layer/scheme": why}}."""
    first = passes[0]["fingerprints"]
    bad = {}
    for i, p in enumerate(passes[1:], 1):
        for key, digest in p["fingerprints"].items():
            if first.get(key) != digest:
                bad.setdefault(i, {})[key] = "counters differ from the first pass"
    return bad


def tally(passes):
    """(attempted, failed, reasons) over every (layer, scheme) run of every pass."""
    attempted = sum(p["attempted"] for p in passes)
    failed = [dict(p["failed"]) for p in passes]
    for i, extra in check_fingerprints(passes).items():
        for key, why in extra.items():
            failed[i].setdefault(key, why)
    reasons = [f"pass {i}: {key}: {why}" for i, f in enumerate(failed)
               for key, why in sorted(f.items())]
    return attempted, len(reasons), reasons


def end_to_end(passes, setup_s):
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup_s),
        "sim_ops_per_s": statistics.median(p["sim_ops_per_s"] for p in passes),
        "sim_cycles_per_s": statistics.median(p["sim_cycles_per_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # simulated metrics are exact; check_fingerprints holds every pass to the first
    for name in SIMULATED:
        values[name] = passes[0][name]
    return values


def benchmark(args, work, spec, record):
    deadline = time.monotonic() + TIME_LIMIT_S

    def child_args(i, seed, *extra):
        return ["--workload", args.workload, "--seed", str(seed), "--work-dir",
                os.path.join(work, str(i)), "--result",
                os.path.join(work, f"pass{i}.json"), *extra]

    def child(i, seed, *extra):
        return run_children([child_args(i, seed, *extra)], deadline)[0]

    if args.trace:
        # side by side, so that both passes see the same host speed
        passes = run_children([child_args(0, args.seed),
                               child_args(1, args.seed + 1, "--trace")], deadline)
        values = dict(passes[1]["layers"])
        plain, traced = passes[0]["wall_s"], passes[1]["wall_s"]
        values["trace.untraced_wall_s"] = plain
        values["trace.wall_s"] = traced
        values["trace.overhead_ratio"] = traced / plain - 1
        wanted = spec["per_layer"]
        setup_s = []
    else:
        setup_s = []

        def time_setups():
            # host speed changes over seconds, so set-ups are timed between
            # the passes rather than all at once
            i = len(setup_s)
            setup_s.extend(child(f"setup{i}", args.seed, "--setup-reps",
                                 str(SETUP_REPS))["setup_s"])

        passes = []
        start = time.monotonic()
        # start another pass only if it should end nearer to --seconds
        # than stopping now would
        while not passes or (time.monotonic() - start) * (1 + 0.5 / len(passes)) < args.seconds:
            time_setups()
            passes.append(child(len(passes), args.seed + len(passes) % 2))
        time_setups()
        values = end_to_end(passes, setup_s)
        wanted = spec["end_to_end"]

    attempted, failed, reasons = tally(passes)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "loadavg_after": read_first("/proc/loadavg"),
        "setup_s_samples": setup_s,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": attempted, "failed": failed, "failures": reasons,
        "fail_ratio": bench_math.fail_ratio(failed, attempted),
        "fingerprints": passes[0]["fingerprints"],
        "metrics": metrics,
    })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(record, spec):
    """Human-readable lines: the run record, failures, digests and metrics."""
    for key in ("workload", "seed", "trace", "passes", "git_commit", "python",
                "nproc", "cpu_model", "loadavg_before", "loadavg_after"):
        print(f"# {key}: {record[key]}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ratio "
          f"({record['failed']} failed of {record['attempted']} (layer, scheme) runs;"
          f" lower is better)")
    for key, digest in record["fingerprints"].items():
        print(f"fingerprint {key} {digest}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in record["metrics"].items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name} {text} {m['unit']} ({kind(name)}; {better[name]} is better)")


def main(argv=None):
    ap = argparse.ArgumentParser(description="opconv benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "opconv", "cli.py")):
        print("error: no opconv sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    record = run_record()
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = benchmark(args, work, spec, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    report(record, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
