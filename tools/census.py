"""Bytecode census of the simulator's host work.

Counts the bytecodes Python executes inside `smcore.run_simulation` for
LeNet C1 and C2 at the default shrink (the default `opconv` machine and
layout) under every scheme, in one process.  A count is free of host
noise, so it compares the host work of two trees where wall time cannot.

    PYTHONPATH=src python3 tools/census.py

Prints one count per (layer, scheme) run and their total.  Stdlib only;
the count runs under `sys.settrace` with opcode events, which makes it
several times slower than an untraced run.
"""

from __future__ import annotations

import sys

from opconv import cli, smcore

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


def main():
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
            print(f"{lr.layer.name}/{scheme:<8} {n:>12,}")
    print(f"total       {total:>12,}")


if __name__ == "__main__":
    main()
