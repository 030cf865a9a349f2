#!/usr/bin/env python3
"""Narrate one L1 miss through the mesh, the L2 slice, and DRAM.

Builds the default machine's hierarchy (`SimParams()`), then walks a single
block request from an SM to its home memory controller and back, printing
every latency component so the frozen miss-path numbers used in the tests
are easy to re-derive by hand.  The coordinates, hops and flits are worked
out here from the mesh nodes, by the formula in `opconv.cachehier`, and
checked against the cycles `MemoryHierarchy.fill` returns.

Usage:
    python3 demos/latency_walkthrough.py
    python3 demos/latency_walkthrough.py --sm 12 --block 0x3000
"""

import argparse

from opconv.cachehier import REQUEST_BYTES, MemoryHierarchy
from opconv.smcore import SimParams


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sm", type=int, default=0)
    ap.add_argument("--block", type=lambda s: int(s, 0), default=0)
    args = ap.parse_args()

    p = SimParams()   # the default machine
    hier = MemoryHierarchy(p)
    sm_nodes, mc_nodes = hier.sm_nodes, hier.mc_nodes

    def coords(node):   # nodes are numbered row-major
        return node % p.mesh_w, node // p.mesh_w

    def hops(a, b):
        (ax, ay), (bx, by) = coords(a), coords(b)
        return abs(ax - bx) + abs(ay - by)

    def flits(n_bytes):
        return -(-n_bytes // p.flit_bytes)

    def latency(a, b, n_bytes):
        return hops(a, b) * p.hop_cycles + p.pipeline_stages + flits(n_bytes)

    block = hier.block_of(args.block)
    mc = hier.home_mc(block)
    src, dst = sm_nodes[args.sm], mc_nodes[mc]
    print(f"SM {args.sm} at mesh node {src} {coords(src)} requests "
          f"block 0x{block:x}")
    print(f"home controller: MC {mc} at node {dst} {coords(dst)}")
    print()

    n_hops = hops(src, dst)
    req = latency(src, dst, REQUEST_BYTES)
    rep = latency(dst, src, hier.block_size)
    per_hop = f"hops x {p.hop_cycles} + {p.pipeline_stages} pipeline"
    print(f"request : {n_hops} {per_hop} + "
          f"{flits(REQUEST_BYTES)} flit  = {req} cycles")
    print(f"L2 slice: {p.lat_l2} cycles (tag + array)")
    print(f"DRAM    : {p.lat_dram} cycles on an L2 miss")
    print(f"reply   : {n_hops} {per_hop} + "
          f"{flits(hier.block_size)} flits = {rep} cycles")
    print()

    cold = hier.fill(args.sm, block, now=0)
    print(f"cold fill lands at cycle {cold} "
          f"(= {req} + {p.lat_l2} + {p.lat_dram} + {rep})")
    assert cold == req + p.lat_l2 + p.lat_dram + rep

    # a neighbouring SM fetching the same block now finds it in the home L2
    peer = (args.sm + 1) % p.sm_count
    psrc = sm_nodes[peer]
    preq = latency(psrc, dst, REQUEST_BYTES)
    prep = latency(dst, psrc, hier.block_size)
    warm = hier.fill(peer, block, now=cold) - cold
    print(f"SM {peer} fetches the same block: {warm} cycles "
          f"(= {preq} + {p.lat_l2} + {prep}, DRAM skipped)")
    assert warm == preq + p.lat_l2 + prep

    print()
    print(f"traffic counters: {hier.noc_flit_hops} flit-hops, "
          f"{hier.l2_hits} L2 hit / {hier.l2_misses} miss, "
          f"{hier.dram_accesses} DRAM access")


if __name__ == "__main__":
    main()
