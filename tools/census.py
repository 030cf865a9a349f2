"""Bytecode census of the simulator's host work.

Counts the bytecodes Python executes, in one process, in three sections:

- set-up: `cli.build_layers` plus one `cli.LayerRun` per layer (layout,
  op stream, operand image and reference outputs) at `run.seed` 0, for
  each perfbench workload's config: the default LeNet run, AlexNet conv1
  at shrink 8, and LeNet C1 and C2 at full size;
- simulation: inside `smcore.run_simulation`, for LeNet C1 and C2 at the
  default shrink under every scheme;
- the rest of the default run: the same for LeNet C3, F1 and F2.

A count is free of host noise, so it compares the host work of two trees
where wall time cannot.

    PYTHONPATH=src python3 tools/census.py

Prints one count per workload set-up and per (layer, scheme) run, the
total of each section, and each section's count per `opconv` module (by
the file of the code that ran; generated code such as dataclass
`__init__`s and any non-`opconv` code count as "other").  Stdlib only;
the count runs under `sys.settrace` with opcode events, which makes it
several times slower than an untraced run.
"""

from __future__ import annotations

import os
import sys
import tempfile

import opconv
from opconv import cli, smcore

# the set-up section runs perfbench's own workload configs
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import workloads

# the simulation sections: (layers, label of the section's total)
SECTIONS = ((("C1", "C2"), "simulation total"),
            (("C3", "F1", "F2"), "C3+F1+F2 total"))

PACKAGE_DIR = os.path.dirname(os.path.abspath(opconv.__file__))


def module_of(filename):
    """The `opconv` module a code object's file is, or "other"."""
    head, tail = os.path.split(os.path.abspath(filename))
    if head == PACKAGE_DIR and tail.endswith(".py"):
        return "opconv." + tail[:-3]
    return "other"


def count_bytecodes(fn, *args):
    """(fn(*args), {code file: bytecodes executed in its Python frames
    during the call})."""
    counts = {}

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        name = frame.f_code.co_filename
        n = 0

        # a frame reports its count when it returns or yields; a frame
        # left by an exception returns too
        def local(frame, event, arg):
            nonlocal n
            if event == "opcode":
                n += 1
            elif event == "return":
                counts[name] = counts.get(name, 0) + n
            return local
        return local

    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, counts


class Section:
    """One section's counts: printed a line per run, summed per module."""

    def __init__(self):
        self.modules = {}

    def add(self, label, counts):
        for name, n in counts.items():
            module = module_of(name)
            self.modules[module] = self.modules.get(module, 0) + n
        print(f"{label:<17} {sum(counts.values()):>12,}", flush=True)

    def close(self, label):
        total = sum(self.modules.values())
        print(f"{label:<17} {total:>12,}")
        for module, n in sorted(self.modules.items(), key=lambda kv: -kv[1]):
            print(f"  {module:<15} {n:>12,} {100 * n / total:6.2f}%")


def set_up(cfg):
    """What an experiment builds before its first simulation."""
    return [cli.LayerRun(cfg, layer) for layer in cli.build_layers(cfg)]


def setup_census(work_dir):
    section = Section()
    for name in workloads.WORKLOADS:
        cfg, _ = workloads.make_config(cli.DEFAULTS, name, 0, work_dir)
        _, counts = count_bytecodes(set_up, cfg)
        section.add("set-up " + name, counts)
    section.close("set-up total")


def main():
    with tempfile.TemporaryDirectory() as work_dir:
        setup_census(work_dir)
    cfg = dict(cli.DEFAULTS)
    runs = {layer.name: cli.LayerRun(cfg, layer)
            for layer in cli.build_layers(cfg)}
    for layers, total_label in SECTIONS:
        section = Section()
        for name in layers:
            lr = runs[name]
            for scheme in smcore.SCHEMES:
                params = cli.make_params(cfg, scheme)
                _, counts = count_bytecodes(smcore.run_simulation, params,
                                            lr.ops, lr.image, lr.geom)
                section.add(name + "/" + scheme, counts)
        section.close(total_label)


if __name__ == "__main__":
    main()
