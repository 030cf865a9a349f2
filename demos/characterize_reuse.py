#!/usr/bin/env python3
"""Characterize why opportunistic reuse exists in direct convolution.

Two measurements motivate the whole design:

1. Static reuse: how many vector-MAC ops compute on the same
   (input block, weight block) pair.  Heavy pairs are memoization and
   forwarding candidates.
2. Dynamic availability: when an SM misses in its L1, how often some
   other SM already holds the block.  High availability means shipping
   the op beats re-fetching the data.

Usage:
    python3 demos/characterize_reuse.py
    python3 demos/characterize_reuse.py --network alexnet --shrink 8
"""

import argparse

from opconv.cli import AUTO_SHRINK, DEFAULTS
from opconv.metrics import inter_sm_availability
from opconv.oracle import MemoryImage
from opconv.smcore import SimParams, run_simulation
from opconv.workload import (
    alexnet_conv_layers,
    enumerate_ops,
    lenet5_layers,
    make_layouts,
    reuse_histogram,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--network", choices=("lenet5", "alexnet"), default="lenet5")
    ap.add_argument("--shrink", type=int, default=0,
                    help="spatial shrink factor (0 = desk-scale default)")
    ap.add_argument("--sms", type=int, default=8)
    args = ap.parse_args()

    shrink = args.shrink or AUTO_SHRINK[args.network]
    if args.network == "lenet5":
        layers = lenet5_layers(shrink)
    else:
        layers = alexnet_conv_layers(shrink)
    params = SimParams(sm_count=args.sms)
    block = params.l1.block_size
    row_pitch = DEFAULTS["layout.row_pitch"]

    print(f"{args.network}: block-pair reuse per layer ({block}-byte blocks)")
    print(f"{'layer':>8} {'ops':>9} {'pairs':>7} {'1-100':>7} {'101-800':>8} {'>800':>6}")
    for layer in layers:
        ops = enumerate_ops(make_layouts(layer, row_pitch))
        counts, buckets = reuse_histogram(ops, block)
        print(f"{layer.name:>8} {len(ops):>9} {len(counts):>7} "
              f"{buckets['1-100']:>7} {buckets['101-800']:>8} {buckets['>800']:>6}")

    print()
    print(f"baseline availability across {args.sms} SMs "
          "(share of L1 misses held by a peer)")
    for layer in layers:
        if layer.filter_h == 1 and layer.in_height == 1:
            continue  # fully-connected layers stream with no cross-SM reuse
        geom = make_layouts(layer, row_pitch)
        image = MemoryImage(geom, DEFAULTS["run.seed"])
        stats, _ = run_simulation(params, enumerate_ops(geom), image, geom)
        avail = inter_sm_availability(stats)
        print(f"{layer.name:>8}: {stats.probe_found_elsewhere}/{stats.probe_misses}"
              f" = {avail:.3f}")


if __name__ == "__main__":
    main()
