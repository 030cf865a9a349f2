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
`__init__`s and any non-`opconv` code count as "other").  Beside each
bytecode count it prints the Python call events of the same frames: every
call of a Python function, and every resume of a generator such as an SM
coroutine.  A call costs the host far more than its few bytecodes show.
Calls of builtins and C functions are not counted.  Stdlib only; the
count runs under `sys.settrace` with opcode events, which makes it
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
    during the call}, {code file: call events of those frames})."""
    counts = {}
    calls = {}

    # called on each call event: a frame's start and each generator resume
    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        name = frame.f_code.co_filename
        calls[name] = calls.get(name, 0) + 1
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
    return result, counts, calls


class Section:
    """One section's counts: printed a line per run, summed per module."""

    def __init__(self):
        self.modules = {}
        self.module_calls = {}

    def add(self, label, counts, calls):
        for name, n in counts.items():
            module = module_of(name)
            self.modules[module] = self.modules.get(module, 0) + n
        for name, n in calls.items():
            module = module_of(name)
            self.module_calls[module] = self.module_calls.get(module, 0) + n
        print(f"{label:<17} {sum(counts.values()):>12,} "
              f"{sum(calls.values()):>10,} calls", flush=True)

    def close(self, label):
        total = sum(self.modules.values())
        total_calls = sum(self.module_calls.values())
        print(f"{label:<17} {total:>12,} {total_calls:>10,} calls")
        for module, n in sorted(self.modules.items(), key=lambda kv: -kv[1]):
            c = self.module_calls.get(module, 0)
            print(f"  {module:<15} {n:>12,} {100 * n / total:6.2f}% "
                  f"{c:>10,} {100 * c / total_calls:6.2f}%")


def set_up(cfg):
    """What an experiment builds before its first simulation."""
    return [cli.LayerRun(cfg, layer) for layer in cli.build_layers(cfg)]


def setup_census(work_dir):
    section = Section()
    for name in workloads.WORKLOADS:
        cfg, _ = workloads.make_config(cli.DEFAULTS, name, 0, work_dir)
        _, counts, calls = count_bytecodes(set_up, cfg)
        section.add("set-up " + name, counts, calls)
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
                _, counts, calls = count_bytecodes(
                    smcore.run_simulation, params, lr.ops, lr.image, lr.geom)
                section.add(name + "/" + scheme, counts, calls)
        section.close(total_label)


if __name__ == "__main__":
    main()
