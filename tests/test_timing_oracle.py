"""A timing oracle: the engine's cycles and memory counters on the simplest
machine, against a replay written from the timing rules alone.

On one SM running one warp under `baseline`, nothing overlaps: the warp
issues its ops in order, and an op that misses blocks until its fills have
landed.  So the replay walks the ops one by one.  It looks up an op's two
operand blocks in an LRU L1, and it fills the misses in lookup order
through the block's home L2 slice, and through DRAM beyond it on an L2
miss.  It waits for the latest ready cycle, then issues for warp_size //
simt_width cycles.  The replay shares no code with `smcore` or with
`MemoryHierarchy`: it keeps its own caches, and it takes the round trips
from `NocModel` and `mesh_placement` alone.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st
from strategies import layers

from opconv.cachehier import CacheGeometry, NocModel, mesh_placement
from opconv.oracle import MemoryImage
from opconv.smcore import SimParams, Simulation
from opconv.workload import enumerate_ops, make_layouts

REQUEST_BYTES = 16   # a fill's request: one address flit
SIMT_WIDTH = 8
L1_GEOMETRIES = (CacheGeometry(1024, 4, 2), SimParams().l1)
COUNTERS = ("total_cycles", "stall_cycles", "l1_hits", "l1_misses",
            "l2_hits", "l2_misses", "dram_accesses", "noc_flit_hops")


class Lru:
    """A set-associative cache of blocks, each set least recent first."""

    def __init__(self, geom):
        self.sets = [[] for _ in range(geom.sets)]
        self.ways = geom.ways
        self.block_size = geom.block_size

    def _set(self, block):
        return self.sets[block // self.block_size % len(self.sets)]

    def touch(self, block):
        """Whether block is held; a held block becomes its set's most recent."""
        s = self._set(block)
        if block not in s:
            return False
        s.remove(block)
        s.append(block)
        return True

    def install(self, block):
        s = self._set(block)
        if len(s) == self.ways:
            del s[0]
        s.append(block)


def replay(params, ops):
    """The counters of `COUNTERS` for ops on one SM with one warp."""
    p = params
    noc = NocModel(p.mesh_w, p.mesh_h, p.flit_bytes, p.hop_cycles,
                   p.pipeline_stages)
    (sm,), mcs = mesh_placement(1, p.mc_count, p.mesh_w, p.mesh_h)
    size = p.l1.block_size
    round_trip = [noc.latency(sm, mc, REQUEST_BYTES) + noc.latency(mc, sm, size)
                  for mc in mcs]
    flit_hops = [noc.flit_hops(sm, mc, REQUEST_BYTES)
                 + noc.flit_hops(mc, sm, size) for mc in mcs]
    l1 = Lru(p.l1)
    l2 = [Lru(p.l2) for _ in mcs]
    count = Counter()
    t = 0
    for input_addr, weight_addr in zip(ops.inp, ops.wgt):
        blocks = (input_addr - input_addr % size, weight_addr - weight_addr % size)
        misses = [b for b in blocks if not l1.touch(b)]
        count["l1_hits"] += len(blocks) - len(misses)
        count["l1_misses"] += len(misses)
        if misses:
            ready = t + p.lat_l1
            for b in misses:
                l1.install(b)
                home = b // size % len(mcs)    # blocks interleave over the MCs
                landed = t + round_trip[home] + p.lat_l2
                count["noc_flit_hops"] += flit_hops[home]
                if l2[home].touch(b):
                    count["l2_hits"] += 1
                else:
                    l2[home].install(b)
                    count["l2_misses"] += 1
                    count["dram_accesses"] += 1
                    landed += p.lat_dram
                ready = max(ready, landed)
            # the missed attempt holds issue for a cycle, then the SM
            # stalls until the operands land
            count["stall_cycles"] += ready - (t + 1)
            t = ready
        t += p.warp_size // p.simt_width
    count["total_cycles"] = t
    return {name: count[name] for name in COUNTERS}


@given(layer=layers(), row_pitch=st.sampled_from([0, 64, 4096]),
       mcs=st.integers(1, 4), l1=st.sampled_from(L1_GEOMETRIES),
       lat_l1=st.integers(0, 3), lat_l2=st.integers(0, 40),
       lat_dram=st.integers(0, 200))
def test_one_warp_on_one_sm_matches_the_replay(layer, row_pitch, mcs, l1,
                                               lat_l1, lat_l2, lat_dram):
    geom = make_layouts(layer, row_pitch)
    ops = enumerate_ops(geom)
    # a warp wide enough for every output of the layer
    outputs = layer.out_channels * layer.out_h * layer.out_w
    params = SimParams(sm_count=1, warp_size=SIMT_WIDTH * -(-outputs // SIMT_WIDTH),
                       simt_width=SIMT_WIDTH, mc_count=mcs, l1=l1,
                       lat_l1=lat_l1, lat_l2=lat_l2, lat_dram=lat_dram)
    sim = Simulation(params, ops, MemoryImage(geom, 0), geom)
    assert [len(warps) for warps in sim.warps] == [1]
    stats, _ = sim.run()
    assert {name: getattr(stats, name) for name in COUNTERS} == \
        replay(params, ops)
