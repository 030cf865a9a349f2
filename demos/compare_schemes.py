#!/usr/bin/env python3
"""Walk one layer through all four scheme settings and compare the runs.

Runs the same op stream and memory image under baseline, memoization
with assistant warps (intra), computation forwarding (inter), and both
combined, then prints cycles, IPC, stall share, energy, and where each
retired op actually executed.  Outputs are verified against the arithmetic
reference on every run, so any speedup shown is for bit-identical results.

Usage:
    python3 demos/compare_schemes.py
    python3 demos/compare_schemes.py --layer C2 --sms 16 --clusters 4
"""

import argparse

from opconv.metrics import computation_distribution, energy, ipc, normalize
from opconv.oracle import MemoryImage, compare, reference_convolution
from opconv.smcore import SimParams, run_simulation
from opconv.workload import enumerate_ops, lenet5_layers, make_layouts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layer", default="C1", help="LeNet-5 layer name")
    ap.add_argument("--shrink", type=int, default=2)
    ap.add_argument("--sms", type=int, default=8)
    ap.add_argument("--clusters", type=int, default=2)
    ap.add_argument("--pc-entries", type=int, default=256)
    ap.add_argument("--at-entries", type=int, default=512)
    args = ap.parse_args()

    layers = {l.name: l for l in lenet5_layers(args.shrink)}
    layer = layers[args.layer]
    geom = make_layouts(layer, row_pitch=4096)
    image = MemoryImage(geom, seed=0)
    ops = enumerate_ops(layer, geom)
    expected = reference_convolution(geom, image)

    print(f"layer {layer.name}: {layer.op_count()} vector-MAC ops "
          f"on {args.sms} SMs / {args.clusters} clusters")
    print(f"{'scheme':>9} {'cycles':>8} {'ipc':>6} {'speedup':>8} "
          f"{'energy':>10} {'normal':>7} {'pred':>6} {'fwd':>6}")

    runs = {}
    for scheme in ("baseline", "intra", "inter", "both"):
        params = SimParams(sm_count=args.sms, scheme=scheme,
                           clusters=args.clusters,
                           pc_entries=args.pc_entries,
                           at_entries=args.at_entries)
        stats, out = run_simulation(params, ops, image, geom)
        result = compare(out.values, expected)
        assert result.ok, f"{scheme} diverged from the reference"
        runs[scheme] = stats

    base = runs["baseline"]
    for scheme, stats in runs.items():
        norm = normalize(stats, base)
        dist = computation_distribution(stats)
        print(f"{scheme:>9} {stats.total_cycles:>8} {ipc(stats):>6.3f} "
              f"{1.0 / norm['time_norm']:>7.2f}x {energy(stats):>10.0f} "
              f"{dist['normal']:>7.2f} {dist['predicted']:>6.2f} "
              f"{dist['assigned']:>6.2f}")

    print()
    print("all four runs produced bit-identical outputs")


if __name__ == "__main__":
    main()
