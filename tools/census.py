"""Bytecode census of the simulator's host work.

Counts the bytecodes Python executes, in one process, in two parts:

- set-up: `cli.build_layers` plus one `cli.LayerRun` per layer (layout,
  op stream, operand image and reference outputs) at `run.seed` 0, for
  each perfbench workload's config: the default LeNet run, AlexNet conv1
  at shrink 8, and LeNet C1 and C2 at full size;
- simulation: inside `smcore.run_simulation`, for LeNet C1 and C2 at the
  default shrink under every scheme.

A count is free of host noise, so it compares the host work of two trees
where wall time cannot.

    PYTHONPATH=src python3 tools/census.py

Prints one count per workload set-up and per (layer, scheme) run, and
the total of each part.  Stdlib only; the count runs under `sys.settrace`
with opcode events, which makes it several times slower than an untraced
run.
"""

from __future__ import annotations

import os
import sys
import tempfile

from opconv import cli, smcore

# the set-up part runs perfbench's own workload configs
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import workloads

LAYERS = ("C1", "C2")


def count_bytecodes(fn, *args):
    """(fn(*args), bytecodes executed in Python frames during the call)."""
    n = 0

    def local(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, n


def set_up(cfg):
    """What an experiment builds before its first simulation."""
    return [cli.LayerRun(cfg, layer) for layer in cli.build_layers(cfg)]


def setup_census(work_dir):
    total = 0
    for name in workloads.WORKLOADS:
        cfg, _ = workloads.make_config(cli.DEFAULTS, name, 0, work_dir)
        _, n = count_bytecodes(set_up, cfg)
        total += n
        print(f"{'set-up ' + name:<17} {n:>12,}")
    print(f"{'set-up total':<17} {total:>12,}")


def main():
    with tempfile.TemporaryDirectory() as work_dir:
        setup_census(work_dir)
    cfg = dict(cli.DEFAULTS)
    runs = [cli.LayerRun(cfg, layer) for layer in cli.build_layers(cfg)
            if layer.name in LAYERS]
    total = 0
    for lr in runs:
        for scheme in smcore.SCHEMES:
            params = cli.make_params(cfg, scheme)
            _, n = count_bytecodes(smcore.run_simulation, params, lr.ops,
                                   lr.image, lr.geom)
            total += n
            print(f"{lr.layer.name + '/' + scheme:<17} {n:>12,}")
    print(f"{'simulation total':<17} {total:>12,}")


if __name__ == "__main__":
    main()
