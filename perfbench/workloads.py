"""The benchmark's workloads, as inputs to `opconv.cli.run_experiment`.

Each workload is a set of config overrides on top of `cli.DEFAULTS`, plus
a layer CSV for the custom ones and the `characterize` flag.  The benchmark
seed becomes `run.seed`, the operand-image seed: it changes operand values
only, never the op stream or the simulated timing.  Every layer starts
with empty caches and tables; the simulator resets them per (layer, scheme)
run and nothing here warms them.
"""

from __future__ import annotations

import csv
import os

ALL_SCHEMES = "baseline,intra,inter,both"

LAYER_COLUMNS = ["name", "pass", "in_channels", "out_channels", "in_height",
                 "in_width", "filter_h", "filter_w", "stride", "padding"]

# name -> (config overrides, layer rows for a custom CSV or None,
# characterize); BENCHMARK.json says why each workload is there
WORKLOADS = {
    # the default `opconv --scheme all --characterize` run.  run.jobs stays
    # at its default of 1: with two threads, passes took 1.3 to 2 times as
    # long and varied far more from run to run than the widest bound allows
    "lenet_cli": ({"run.jobs": 1}, None, True),
    # AlexNet conv1 at shrink 8, 114,048 ops
    "conv1_dram": (
        {"workload.name": "custom", "workload.shrink": 8, "run.jobs": 1},
        [["conv1", "forward", 3, 96, 227, 227, 11, 11, 4, 0]],
        False,
    ),
    # LeNet C1 and C2 at full size, 71,520 ops
    "lenet_full": (
        {"workload.name": "custom", "workload.shrink": 1, "run.jobs": 1},
        [["C1", "forward", 1, 6, 32, 32, 5, 5, 1, 0],
         ["C2", "forward", 6, 16, 14, 14, 5, 5, 1, 0]],
        False,
    ),
}


def write_layer_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LAYER_COLUMNS)
        writer.writerows(rows)


def make_config(defaults, name, seed, work_dir):
    """Full run_experiment config for one workload; writes its layer CSV.

    Returns (cfg, characterize)."""
    overrides, layer_rows, characterize = WORKLOADS[name]
    cfg = dict(defaults)
    cfg.update(overrides)
    cfg["run.schemes"] = ALL_SCHEMES
    cfg["run.seed"] = seed
    if layer_rows is not None:
        path = os.path.join(work_dir, f"{name}_layers.csv")
        write_layer_csv(path, layer_rows)
        cfg["workload.file"] = path
    return cfg, characterize
