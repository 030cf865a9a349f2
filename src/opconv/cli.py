"""Experiment driver.

Resolves a flat key=value configuration (defaults, optional config file,
preset bundle, command line flags, in that order), builds the requested
layers, runs each under the requested schemes with a baseline run first for
normalization, verifies every output against the reference convolution, and
writes report.csv / counters.json / config.echo into the output directory.

Exit status is 0 only if every run completed and every verification passed;
1 if a verification failed, 2 on a configuration error, and 3 if a
simulation stopped without finishing or did not retire each op exactly
once (a `SimulationError`, such as the `run.max_idle` watchdog firing).

An experiment's (layer, scheme) runs share only read-only inputs, so they
are simulated on a `ProcessPoolExecutor` whose workers are forked, one per
CPU this process may use (see `worker_count`), and inherit those inputs.
This process collects every run in serial (layer, scheme) order and takes
each report, log line and error in that order, so no output depends on the
worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from . import metrics, smcore, workload
from .cachehier import CacheGeometry
from .metrics import EnergyWeights
from .oracle import MemoryImage, compare, reference_convolution
from .smcore import DEFAULT_L1, DEFAULT_L2, SCHEMES, SimParams, SimulationError
from .workload import ConfigError, Knob, knobs

AUTO_SHRINK = {"lenet5": 2, "alexnet": 8, "custom": 1}

# the keys cli reads itself; every other key is declared by the SimParams or
# EnergyWeights field it sets
CLI_KNOBS = (
    Knob("l1.kb", DEFAULT_L1.capacity_bytes // 1024, lo=1),
    Knob("l1.sets", DEFAULT_L1.sets, lo=1),
    Knob("l1.ways", DEFAULT_L1.ways, lo=1),
    Knob("l2.kb", DEFAULT_L2.capacity_bytes // 1024, lo=1),  # per MC slice
    Knob("l2.ways", DEFAULT_L2.ways, lo=1),
    Knob("layout.row_pitch", 4096, lo=0),  # pitched input rows; 0 packs them
    Knob("workload.name", "lenet5", choices=tuple(AUTO_SHRINK)),
    Knob("workload.shrink", 0, lo=0),      # 0 = pick a sensible factor per workload
    Knob("workload.file", ""),
    Knob("workload.passes", "forward", choices=("forward", "backward", "all")),
    Knob("run.seed", 0),
    Knob("run.schemes", "baseline"),
)

KNOBS = {k.key: k for k in CLI_KNOBS}
KNOBS.update((k.key, k) for cls in (SimParams, EnergyWeights)
             for _, k in knobs(cls) if k.key)
DEFAULTS = {key: KNOBS[key].default for key in sorted(KNOBS)}

# bundles matching the two table sizings used throughout the evaluation
PRESETS = {
    "baseline": {"run.schemes": "baseline"},
    "intraSM_C1": {"run.schemes": "intra", "intra.table_entries": 256},
    "intraSM_C2": {"run.schemes": "intra", "intra.table_entries": 512},
    "interSM_C1": {"run.schemes": "inter", "inter.table_entries": 512},
    "interSM_C2": {"run.schemes": "inter", "inter.table_entries": 1024},
    "combined_C1": {"run.schemes": "both",
                    "intra.table_entries": 256, "inter.table_entries": 512},
    "combined_C2": {"run.schemes": "both",
                    "intra.table_entries": 512, "inter.table_entries": 1024},
}


def _coerce(key, text, where=""):
    ref = DEFAULTS[key]
    try:
        if isinstance(ref, int):
            return int(text, 0)
        if isinstance(ref, float):
            return float(text)
        return text.strip()
    except ValueError:
        raise ConfigError(f"{where}bad value {text!r} for {key}") from None


def parse_config_file(path):
    """key = value lines; '#' starts a comment; unknown keys are errors."""
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            overrides[key] = _coerce(key, text, f"{path}:{lineno}: ")
    return overrides


def resolve_config(args):
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"choose from {', '.join(sorted(PRESETS))}")
        cfg.update(PRESETS[args.preset])
    if args.workload:
        cfg["workload.name"] = args.workload
    if args.shrink is not None:
        cfg["workload.shrink"] = args.shrink
    if args.seed is not None:
        cfg["run.seed"] = args.seed
    if args.scheme:
        cfg["run.schemes"] = ("baseline,intra,inter,both"
                              if args.scheme == "all" else args.scheme)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Reject a bad config before any run; keys nothing declares are ignored."""
    for key, k in KNOBS.items():
        k.check(cfg[key], key)
    if cfg["workload.name"] == "custom" and not cfg["workload.file"]:
        raise ConfigError("workload.file is required for the custom workload")
    for s in ["baseline"] + scheme_list(cfg):
        make_params(cfg, s)  # SimParams rejects a bad scheme or machine


def scheme_list(cfg):
    """Requested schemes, in request order, without repeats."""
    return list(dict.fromkeys(
        s.strip() for s in cfg["run.schemes"].split(",") if s.strip()))


def config_echo(cfg):
    return [f"{k} = {cfg[k]}" for k in DEFAULTS]


def table_cfg_label(cfg, scheme):
    pc = f"pc{cfg['intra.table_entries']}"
    at = f"at{cfg['inter.table_entries']}"
    return {"baseline": "-", "intra": pc, "inter": at,
            "both": f"{pc}+{at}"}[scheme]


def read_layer_file(path):
    """Custom layer list: CSV with the LayerSpec fields as columns."""
    required = ["name", "pass", "in_channels", "out_channels", "in_height",
                "in_width", "filter_h", "filter_w", "stride", "padding"]
    layers = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in required if c not in (reader.fieldnames or [])]
        if missing:
            raise ConfigError(f"{path}: missing columns {', '.join(missing)}")
        for lineno, row in enumerate(reader, 2):
            try:
                layers.append(workload.LayerSpec(
                    row["name"], int(row["in_channels"]), int(row["out_channels"]),
                    int(row["in_height"]), int(row["in_width"]),
                    int(row["filter_h"]), int(row["filter_w"]),
                    int(row["stride"]), int(row["padding"]),
                    workload.Pass(row["pass"])))
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not layers:
        raise ConfigError(f"{path}: no layers")
    return layers


def build_layers(cfg):
    name = cfg["workload.name"]
    shrink = cfg["workload.shrink"] or AUTO_SHRINK[name]
    if name == "lenet5":
        layers = workload.lenet5_layers(shrink)
    elif name == "alexnet":
        layers = workload.alexnet_conv_layers(shrink)
    else:
        layers = [workload.shrink_layer(l, shrink)
                  for l in read_layer_file(cfg["workload.file"])]
    passes = cfg["workload.passes"]
    if passes != "forward":
        out = []
        for layer in layers:
            if passes == "all":
                out.append(layer)
            if layer.pass_kind == workload.Pass.FORWARD:
                out.extend(workload.backward_specs(layer))
        layers = out
    names = set()
    for layer in layers:   # the name keys the run's records and files
        if layer.name in names:
            raise ConfigError(f"layer name {layer.name!r} appears twice")
        names.add(layer.name)
    return layers


def from_config(cls, cfg, **extra):
    """A `cls` whose knob fields take their config keys' values."""
    return cls(**{name: cfg[k.key] for name, k in knobs(cls) if k.key}, **extra)


def _cache_geometry(keys, capacity_bytes, sets, ways):
    """CacheGeometry whose errors name the config keys it was built from."""
    try:
        return CacheGeometry(capacity_bytes, sets, ways)
    except ConfigError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def l1_geometry(cfg):
    return _cache_geometry("l1.kb/l1.sets/l1.ways", cfg["l1.kb"] * 1024,
                           cfg["l1.sets"], cfg["l1.ways"])


def make_params(cfg, scheme):
    l1 = l1_geometry(cfg)
    # L2 slices share L1's block size, so their set count is derived
    l2_sets = cfg["l2.kb"] * 1024 // (cfg["l2.ways"] * l1.block_size)
    l2 = _cache_geometry("l2.kb/l2.ways", cfg["l2.kb"] * 1024, l2_sets,
                         cfg["l2.ways"])
    return from_config(SimParams, cfg, l1=l1, l2=l2, scheme=scheme)


def energy_weights(cfg):
    return from_config(EnergyWeights, cfg)


class LayerRun:
    """One layer's shared inputs: geometry, op stream, operand image and
    reference outputs."""

    def __init__(self, cfg, layer):
        self.layer = layer
        self.geom = workload.make_layouts(layer, cfg["layout.row_pitch"])
        self.ops = workload.enumerate_ops(self.geom)
        self.image = MemoryImage(self.geom, cfg["run.seed"])
        self.expected = reference_convolution(self.geom, self.image)


def run_one(cfg, lr, scheme):
    """Simulate one (layer, scheme) pair; returns (stats, CompareResult)."""
    params = make_params(cfg, scheme)
    stats, out = run_simulation(params, lr.ops, lr.image, lr.geom)
    stats.layer = lr.layer.name
    stats.table_cfg = table_cfg_label(cfg, scheme)
    return stats, compare(out.values, lr.expected)


# the LayerRuns of the experiment on the process pool, by layer name, which
# its workers inherit at fork; and that pool's runs, by (layer name, scheme)
_RUNS = {}
_FUTURES = {}


def run_simulation(params, ops, image, geom):
    """`smcore.run_simulation`, or the answer of the process pool run that
    `_simulations` submitted for this (layer, scheme): a pool worker
    simulated its own copy, inherited at fork, of the layer `geom` names."""
    future = _FUTURES.pop((geom.layer.name, params.scheme), None)
    if future is None:
        return smcore.run_simulation(params, ops, image, geom)
    return future.result()


def _simulate(name, params):
    """A pool task: simulate this worker's copy of layer `name`."""
    lr = _RUNS[name]
    return smcore.run_simulation(params, lr.ops, lr.image, lr.geom)


def worker_count(n_runs):
    """Worker processes for an experiment of `n_runs` runs: one per CPU this
    process may use, and no more than there are runs.  1 means the runs are
    simulated serially in this process, which is also the case where the
    platform cannot fork; `taskset -c 0 opconv ...` asks for it."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_runs))


# the order a layer's runs are submitted to the pool; with the largest layer
# first, full-size LeNet C1 and C2 ran 1.8 times faster than serially on two
# CPUs, against 1.6 times when submitted in serial order
_SUBMIT_ORDER = ("both", "inter", "intra", "baseline")


@contextlib.contextmanager
def _simulations(cfg, runs, schemes):
    """Within it, `run_simulation` answers the experiment's runs from a
    process pool when the experiment has more than one worker.  Every run
    is submitted at the start, largest layer first; the pool forks its
    workers at the first submit, so they inherit `_RUNS`.  On leaving, the
    runs the pool has not yet passed to a worker are dropped, and the
    others finish."""
    n = worker_count(len(runs) * len(schemes))
    if n == 1:
        yield
        return
    # imported here, so that a serial run does not load them
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    # forked, so that the workers inherit the inputs; the pool forks them all
    # before it starts its own thread, and the driver starts none
    pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"))
    try:
        _RUNS.update((lr.layer.name, lr) for lr in runs)
        order = sorted(schemes, key=_SUBMIT_ORDER.index)
        for lr in sorted(runs, key=lambda lr: -len(lr.ops)):   # ties keep serial order
            for scheme in order:
                _FUTURES[lr.layer.name, scheme] = pool.submit(
                    _simulate, lr.layer.name, make_params(cfg, scheme))
        yield
    except BrokenProcessPool:
        raise SimulationError(
            "a simulation worker ended without an answer") from None
    finally:
        pool.shutdown(cancel_futures=True)
        _RUNS.clear()
        _FUTURES.clear()


def run_experiment(cfg, out_dir, characterize=False, log=print):
    """Run every layer under baseline plus the requested schemes.

    Returns (report_rows, counters, failures)."""
    schemes = ["baseline"] + [s for s in scheme_list(cfg) if s != "baseline"]
    layers = build_layers(cfg)
    runs = [LayerRun(cfg, layer) for layer in layers]
    weights = energy_weights(cfg)

    rows = []
    counters = {}
    failures = []
    avail_rows = []
    with _simulations(cfg, runs, schemes):
        for lr in runs:
            baseline_stats = None
            for scheme in schemes:
                stats, res = run_one(cfg, lr, scheme)
                if scheme == "baseline":
                    baseline_stats = stats
                    avail_rows.append((lr.layer.name, stats.probe_misses,
                                       stats.probe_found_elsewhere,
                                       metrics.inter_sm_availability(stats)))
                rows.append(metrics.report_row(stats, baseline_stats, weights))
                record = stats.to_dict()
                record["energy"] = metrics.energy(stats, weights)
                record["ipc"] = metrics.ipc(stats)
                counters[f"{lr.layer.name}/{scheme}"] = record
                if res.ok:
                    verdict = f"verify=OK ({res.checked} outputs)"
                else:
                    verdict = f"verify=FAIL {res.message()}"
                    failures.append(f"{lr.layer.name}/{scheme}: {res.message()}")
                log(f"{lr.layer.name:>12} {scheme:<8} cycles={stats.total_cycles:<10} "
                    f"ipc={metrics.ipc(stats):.3f} {verdict}")

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        echo = config_echo(cfg)
        with open(os.path.join(out_dir, "report.csv"), "w") as fh:
            fh.write(metrics.format_report(rows, echo))
        with open(os.path.join(out_dir, "counters.json"), "w") as fh:
            json.dump(counters, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "config.echo"), "w") as fh:
            fh.write("\n".join(echo) + "\n")
        if characterize:
            block = l1_geometry(cfg).block_size
            for lr in runs:
                _, buckets = workload.reuse_histogram(lr.ops, block)
                path = os.path.join(out_dir, f"reuse_{lr.layer.name}.csv")
                with open(path, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["computations_per_pair", "pairs"])
                    for bucket, n in buckets.items():
                        w.writerow([bucket, n])
            with open(os.path.join(out_dir, "availability.csv"), "w",
                      newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["layer", "probe_misses", "found_elsewhere",
                            "availability"])
                for name, misses, found, frac in avail_rows:
                    w.writerow([name, misses, found, f"{frac:.6f}"])
    return rows, counters, failures


# keys that define the simulated workload; sweep members must agree on them
_WORKLOAD_KEYS = ("workload.name", "workload.file", "workload.shrink",
                  "workload.passes", "run.seed", "layout.row_pitch")


def sweep(configs, out_path, log=print):
    """Run several configs over one shared workload into one merged report.

    Rows are merged in config order, so paired scheme variants land next to
    each other.  Returns (merged report rows, verification failures)."""
    configs = list(configs)
    for i, cfg in enumerate(configs[1:], 1):
        diffs = [k for k in _WORKLOAD_KEYS if cfg[k] != configs[0][k]]
        if diffs:
            raise ConfigError(f"sweep config {i} changes the workload: "
                              + ", ".join(diffs))

    merged = []
    failures = []
    echo = []
    for i, cfg in enumerate(configs):
        rows, _counters, fails = run_experiment(
            cfg, out_dir=None, log=lambda line: log(f"[{i}] {line}"))
        merged.extend(rows)
        failures.extend(f"config {i}: {f}" for f in fails)
        echo.extend(f"[{i}] {line}" for line in config_echo(cfg))
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w") as fh:
            fh.write(metrics.format_report(merged, echo))
    return merged, failures


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="opconv",
        description="Cycle-approximate simulation of opportunistic "
                    "computation reuse and forwarding on a many-core GPU.")
    ap.add_argument("--workload", choices=list(AUTO_SHRINK),
                    help="layer set to simulate (default lenet5)")
    ap.add_argument("--scheme", choices=list(SCHEMES) + ["all"],
                    help="scheme to evaluate; 'all' runs every scheme")
    ap.add_argument("--preset", help="named bundle: " + ", ".join(sorted(PRESETS)))
    ap.add_argument("--shrink", type=int,
                    help="spatial shrink factor (0 = per-workload default)")
    ap.add_argument("--seed", type=int, help="operand image seed")
    ap.add_argument("--characterize", action="store_true",
                    help="also write per-layer block-pair reuse histograms")
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--config", help="key = value config file")
    args = ap.parse_args(argv)

    try:
        cfg = resolve_config(args)
        _, _, failures = run_experiment(cfg, args.out,
                                        characterize=args.characterize)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: simulation stopped: {exc}", file=sys.stderr)
        return 3
    if failures:
        for f in failures:
            print(f"verification failed: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
