"""One pass of one workload through `opconv.cli.run_experiment`.

run.py starts this script once per pass, so that every pass pays the import
and has its own peak memory:

    python3 perfbench/one_pass.py --workload lenet_cli --seed 0 \\
        --work-dir .bench_work/x --result .bench_work/x/pass0.json [--trace]
    python3 perfbench/one_pass.py ... --setup-reps 3

The result file holds the pass's end-to-end numbers, the sha256 of every
(layer, scheme) counters record, the runs that failed and why, and with
--trace the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

import bench_math
import workloads
from bench_math import SCHEMES
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_cli():
    """opconv.cli from the checkout's own sources."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from opconv import cli
    return cli


class PassHooks:
    """Patches opconv.cli for one pass and restores it on exit.

    run_one: a SimulationError or conservation AssertionError fails its own
    (layer, scheme) run and lets the others run and report; run_experiment
    lists it among its verification failures.  The first run of each layer
    also copies the layer's reference outputs, which the benchmark checks
    every run against itself.
    run_simulation: records the wall-clock span and the output values of
    every simulation.
    """

    def __init__(self, cli):
        self.cli = cli
        self.errors = {}      # "layer/scheme" -> message
        self.outputs = {}     # "layer/scheme" -> {output address: value}
        self.expected = {}    # layer -> copy of the reference outputs
        self.sim_spans = []   # (wall start, wall end)

    def __enter__(self):
        from opconv.metrics import SimStats
        from opconv.oracle import CompareResult
        from opconv.smcore import SimulationError

        cli = self.cli
        self._saved = run_one, run_simulation = cli.run_one, cli.run_simulation

        def guarded_run_one(cfg, lr, scheme):
            if lr.expected is not None and lr.layer.name not in self.expected:
                self.expected[lr.layer.name] = dict(lr.expected)
            try:
                return run_one(cfg, lr, scheme)
            except (SimulationError, AssertionError) as exc:
                msg = f"{type(exc).__name__}: {exc}"
                self.errors[f"{lr.layer.name}/{scheme}"] = msg
                stats = SimStats(layer=lr.layer.name, scheme=scheme,
                                 total_ops=len(lr.ops), total_cycles=1)
                return stats, CompareResult(False, 0, [msg])

        def timed_run_simulation(params, programs, image, geom):
            start = time.perf_counter()
            stats, out = run_simulation(params, programs, image, geom)
            self.sim_spans.append((start, time.perf_counter()))
            self.outputs[f"{geom.layer.name}/{params.scheme}"] = out.values
            return stats, out

        cli.run_one = guarded_run_one
        cli.run_simulation = timed_run_simulation
        return self

    def __exit__(self, *exc):
        self.cli.run_one, self.cli.run_simulation = self._saved


@dataclass
class Pass:
    end: float            # wall clock once the report files are written
    rows: list
    counters: dict
    failures: list        # run_experiment's own verification failures
    hooks: PassHooks


def run_pass(cli, cfg, out_dir, characterize, tracer=None):
    """Run the workload once, with `tracer` installed if given."""
    with PassHooks(cli) as hooks, tracer or contextlib.nullcontext():
        rows, counters, failures = cli.run_experiment(
            cfg, out_dir, characterize=characterize, log=lambda line: None)
        end = time.perf_counter()
    return Pass(end, rows, counters, failures, hooks)


def failed_runs(p):
    """"layer/scheme" -> why, for every run that raised, that run_experiment
    reported, or whose outputs differ from the benchmark's copy of the
    reference outputs."""
    failed = dict(p.hooks.errors)
    for line in p.failures:
        key, _, why = line.partition(": ")
        failed.setdefault(key, why)
    for key in p.counters:
        if key in failed:
            continue
        layer, _ = bench_math.split_key(key)
        expected = p.hooks.expected.get(layer)
        if expected is None:
            failed[key] = "no reference outputs to check against"
        elif p.hooks.outputs.get(key) != expected:
            failed[key] = "outputs differ from the reference"
    return failed


def evaluate(p):
    """The pass's end-to-end numbers, minus wall_s and peak memory, which
    only the pass's own process can measure."""
    failed = failed_runs(p)
    ok = [k for k in p.counters if k not in failed]
    sim_s = bench_math.union_length(p.hooks.sim_spans)

    def per_sim_second(field):
        return sum(p.counters[k][field] for k in ok) / sim_s if ok else None

    result = {
        "attempted": len(p.counters),
        "failed": failed,
        "fingerprints": bench_math.fingerprints(p.counters),
        "sim_ops_per_s": per_sim_second("total_ops"),
        "sim_cycles_per_s": per_sim_second("total_cycles"),
        "energy_norm.both": bench_math.energy_norm(p.rows, "both", failed),
    }
    for scheme in SCHEMES[1:]:
        result[f"speedup.{scheme}"] = bench_math.speedup(p.counters, scheme, failed)
    return result


def layer_metrics(p, tracer):
    """Per-layer numbers of a traced pass: module times from the tracer,
    counts from the pass's own counters records."""
    self_s, calls, incl_s = tracer.totals()
    counters = p.counters
    layers = bench_math.layers_of(counters)

    def total(field, scheme):
        return sum(counters[f"{layer}/{scheme}"][field] for layer in layers)

    ops = sum(rec["total_ops"] for rec in counters.values())
    sim_s = incl_s["run_simulation"]
    windows = [(s, e) for name, s, e in tracer.spans if name == "run_experiment"]
    children = [(s, e) for name, s, e in tracer.spans if name in ("LayerRun", "run_one")]
    cache_calls = sum(calls[f"MemoryHierarchy.{m}"] for m in
                      ("l1_lookup", "fill", "expire_fills", "present_elsewhere"))
    intra_calls = sum(n for name, n in calls.items()
                      if name.startswith("PrecomputeTable.") or name == "predict")
    inter_calls = sum(n for name, n in calls.items() if name.startswith("AssignTable."))
    m = {
        "workload.enum_s": incl_s["enumerate_ops"],
        "workload.map_s": incl_s["map_to_warps"],
        "workload.ops": total("total_ops", "baseline"),
        "workload.characterize_s": incl_s["reuse_histogram"],
        "oracle.image_s": incl_s["MemoryImage.__init__"],
        "oracle.reference_s": incl_s["reference_convolution"],
        "oracle.dot_calls": calls["MemoryImage.dot"],
        "oracle.dot_s": incl_s["MemoryImage.dot"],
        "oracle.compare_s": incl_s["compare"],
        "metrics.report_s": self_s["metrics"],
        "cli.self_s": sum(bench_math.uncovered(w, children) for w in windows),
        "smcore.sim_s": sim_s,
        "smcore.self_s": self_s["smcore"],
        "smcore.ops": ops,
        "smcore.us_per_op": sim_s / ops * 1e6,
        "cachehier.calls": cache_calls,
        "cachehier.s": self_s["cachehier"],
        "intra.calls": intra_calls,
        "intra.s": self_s["intra"],
        "inter.calls": inter_calls,
        "inter.s": self_s["inter"],
    }
    for scheme in SCHEMES:
        for name, field in (("sim_cycles", "total_cycles"),
                            ("instructions", "instructions_issued"),
                            ("stall_cycles", "stall_cycles"),
                            ("assist_cycles", "assist_cycles")):
            m[f"smcore.{name}.{scheme}"] = total(field, scheme)
        for name in ("l1_hits", "l1_misses", "l2_misses", "dram_accesses",
                     "noc_flit_hops"):
            m[f"cachehier.{name}.{scheme}"] = total(name, scheme)
    for scheme in ("intra", "both"):
        made = total("predictions_made", scheme)
        used = total("predicted_used", scheme)
        m[f"intra.predictions_made.{scheme}"] = made
        m[f"intra.predicted_used.{scheme}"] = used
        m[f"intra.accuracy.{scheme}"] = used / made if made else 0.0
        m[f"intra.purged.{scheme}"] = total("predictions_purged", scheme)
        m[f"intra.assists.{scheme}"] = total("assists_executed", scheme)
    for scheme in ("inter", "both"):
        forwards = total("forwards", scheme)
        bounces = total("bounces", scheme)
        m[f"inter.forwards.{scheme}"] = forwards
        m[f"inter.assigned_done.{scheme}"] = total("assigned_done", scheme)
        m[f"inter.bounces.{scheme}"] = bounces
        m[f"inter.bounce_ratio.{scheme}"] = bounces / forwards if forwards else 0.0
        m[f"inter.fills_avoided.{scheme}"] = total("fills_avoided", scheme)
    return m


def setup_times(cli, cfg, reps):
    """Wall seconds of `reps` repetitions of run_experiment's set-up:
    build_layers plus one LayerRun per layer."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for layer in cli.build_layers(cfg):
            cli.LayerRun(cfg, layer)
        times.append(time.perf_counter() - start)
    return times


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-reps", type=int, default=0,
                    help="only time this many set-ups, simulate nothing")
    args = ap.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    cli = import_cli()
    cfg, characterize = workloads.make_config(cli.DEFAULTS, args.workload,
                                              args.seed, args.work_dir)
    cli.validate_config(cfg)
    if args.setup_reps:
        result = {"setup_s": setup_times(cli, cfg, args.setup_reps)}
    else:
        tracer = Tracer() if args.trace else None
        p = run_pass(cli, cfg, os.path.join(args.work_dir, "out"),
                     characterize, tracer)
        result = evaluate(p)
        result["wall_s"] = p.end - started
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = layer_metrics(p, tracer)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
