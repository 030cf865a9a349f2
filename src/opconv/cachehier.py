"""Timed memory hierarchy: per-SM L1 caches, per-MC L2 slices, 2D mesh NoC.

There are no MSHRs: a warp blocks until its own miss is filled, and duplicate
in-flight misses to the same block coalesce onto the existing fill.  Cache
state is updated at access time (victim selected immediately); the fill
latency only delays the consuming warp.  Evictions are reported through
listener callbacks so the scheme tables can invalidate dependent entries in
the same cycle.

A fill has landed once the cycle passed in is at or past its ready cycle.
Every method that reads fill state takes that cycle and decides landing
from the fill's ready cycle, so whether a block is still in flight depends
on simulated time alone and never on when a caller last looked.  The cycles
passed for one SM never decrease.

The NoC is a 2D mesh, nodes numbered row-major (`mesh_placement` puts the
SMs and MCs on them), with X-Y routing.  A transfer of f = ceil(bytes /
flit_bytes) flits over hops = |x1 - x2| + |y1 - y2| links takes hops *
hop_cycles + pipeline_stages + f cycles and makes f * hops flit-hops.
`MemoryHierarchy` tabulates this once per (SM, MC) round trip and per
(SM, SM) control message.

The LRU rule lives in `MemoryHierarchy` alone; the tests' independent
model of it is `LruCache` in `tests/lru.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workload import ConfigError


@dataclass(frozen=True)
class CacheGeometry:
    capacity_bytes: int
    sets: int
    ways: int

    def __post_init__(self):
        if self.sets < 1 or self.ways < 1 or self.capacity_bytes < 1:
            raise ConfigError("cache geometry fields must be positive")
        if self.capacity_bytes % (self.sets * self.ways):
            raise ConfigError("capacity must divide into sets*ways blocks")
        b = self.block_size
        if b & (b - 1):
            raise ConfigError("block size must be a power of two")

    @property
    def block_size(self):
        return self.capacity_bytes // (self.sets * self.ways)


def _unaligned(block):
    return ConfigError(f"unaligned block address 0x{block:x}")


def mesh_placement(n_sms, n_mcs, mesh_w, mesh_h):
    """Fixed node map: MCs sit on the two opposite edge columns (left column
    even rows first, then right column odd rows), SMs fill the remaining
    nodes in row-major order.  Returns (sm_nodes, mc_nodes)."""
    total = mesh_w * mesh_h
    if n_sms + n_mcs > total:
        raise ConfigError("mesh too small for SMs plus MCs")
    mc_nodes = []
    for i in range(n_mcs):
        if i < (n_mcs + 1) // 2:
            x, y = 0, (2 * i) % mesh_h
        else:
            j = i - (n_mcs + 1) // 2
            x, y = mesh_w - 1, (2 * j + 1) % mesh_h
        node = y * mesh_w + x
        while node in mc_nodes:  # wrap collisions on small meshes
            node = (node + 1) % total
        mc_nodes.append(node)
    sm_nodes = [n for n in range(total) if n not in mc_nodes][:n_sms]
    return sm_nodes, mc_nodes


REQUEST_BYTES = 16  # one address flit


class MemoryHierarchy:
    """All cache and interconnect state for one simulation.

    `l1[sm_id]` and `l2[mc]` are lists of set dicts, each in recency order,
    least recently used first: a hit moves its block to the end of its set,
    and a full set evicts its first block.  The tests check this rule
    against their own reference model, `LruCache` in `tests/lru.py`."""

    def __init__(self, p):
        """The hierarchy of the machine that SimParams p describes."""
        n_sms, n_mcs = p.sm_count, p.mc_count
        self.block_size = p.l1.block_size
        self.l1 = [[{} for _ in range(p.l1.sets)] for _ in range(n_sms)]
        self.l2 = [[{} for _ in range(p.l2.sets)] for _ in range(n_mcs)]
        self._l1_n_sets, self._l1_ways = p.l1.sets, p.l1.ways
        self._l2_n_sets, self._l2_ways = p.l2.sets, p.l2.ways
        self._offset_mask = self.block_size - 1
        self.n_mcs = n_mcs
        self.lat_l2, self.lat_dram = p.lat_l2, p.lat_dram
        w = p.mesh_w
        self.sm_nodes, self.mc_nodes = mesh_placement(n_sms, n_mcs, w, p.mesh_h)
        self.block_bits = self.block_size.bit_length() - 1
        sm_xy = [(n % w, n // w) for n in self.sm_nodes]
        mc_xy = [(n % w, n // w) for n in self.mc_nodes]
        # a round trip is a request out and a block back; a message, a request
        req_flits = -(-REQUEST_BYTES // p.flit_bytes)
        rt_flits = req_flits + -(-self.block_size // p.flit_bytes)
        rt_fixed = 2 * p.pipeline_stages + rt_flits
        hops = [[abs(x - mx) + abs(y - my) for mx, my in mc_xy]
                for x, y in sm_xy]
        self.rt_latency = [[2 * p.hop_cycles * h + rt_fixed for h in row]
                           for row in hops]
        self.rt_flit_hops = [[rt_flits * h for h in row] for row in hops]
        self.msg_flit_hops = [[req_flits * (abs(x - dx) + abs(y - dy))
                               for dx, dy in sm_xy] for x, y in sm_xy]
        # block -> count of SMs with an installed copy; a block leaves it
        # with its last copy
        self.holders = {}
        # per SM, block -> ready cycle of its latest fill; in flight while
        # now < ready.  Holds resident blocks and blocks evicted in flight.
        self.ready_at = [dict() for _ in range(n_sms)]
        # per SM, fn(block) or None
        self._on_install = [None] * n_sms
        self._on_evict = [None] * n_sms
        # counters
        self.l1_hits = 0
        self.l1_misses = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.dram_accesses = 0
        self.noc_flit_hops = 0

    def block_of(self, addr):
        return addr & ~(self.block_size - 1)

    def set_listeners(self, sm_id, on_install, on_evict):
        """on_install(block) is called when a block is installed in sm_id's
        L1 and on_evict(block) as soon as sm_id's L1 evicts one; either may
        be None."""
        self._on_install[sm_id] = on_install
        self._on_evict[sm_id] = on_evict

    def absent_for_compute(self, sm_id, blocks, now):
        """Bit k set for each blocks[k] that an assistant may not read at
        now: not installed in sm_id's L1, or installed by a fill that has
        not landed.  0 when every block may be read; no recency update.
        At now = INF, 0 when every block is installed, landed or not."""
        ready_at = self.ready_at[sm_id]
        sets = self.l1[sm_id]
        off, bits, n_sets = self._offset_mask, self.block_bits, self._l1_n_sets
        absent = 0
        bit = 1
        for b in blocks:
            if b & off:
                raise _unaligned(b)
            if b not in sets[(b >> bits) % n_sets] or \
                    ready_at.get(b, 0) > now:
                absent |= bit
            bit <<= 1
        return absent

    def charge_message(self, src_sm, dst_sm):
        """Control message between two SMs: one request-sized NoC transfer."""
        self.noc_flit_hops += self.msg_flit_hops[src_sm][dst_sm]

    def home_mc(self, block):
        # interleave at block-index granularity; the raw address is block
        # aligned so taking it modulo a power-of-two MC count would be constant
        return (block >> self.block_bits) % self.n_mcs

    def lookup(self, sm_id, blocks, now):
        """Recency-updating L1 lookups at cycle now of a tuple of blocks, in
        order.  Every block is looked up before the caller fills any of the
        misses, so a fill never evicts a block of the same tuple before it
        is looked up.

        Returns (misses, wait): the blocks that missed, in lookup order, and
        the latest ready cycle of a hit block whose fill is still in flight
        at now, or 0 if there is none (a fill is never ready before cycle 1)."""
        ready_at = self.ready_at[sm_id]
        sets = self.l1[sm_id]
        off, bits, n_sets = self._offset_mask, self.block_bits, self._l1_n_sets
        misses = ()
        wait = 0
        for b in blocks:
            if b & off:
                raise _unaligned(b)
            s = sets[(b >> bits) % n_sets]
            if b in s:
                del s[b]
                s[b] = None
                ready = ready_at.get(b, 0)
                if ready > wait:
                    wait = ready
            else:
                misses += (b,)
        n = len(misses)
        self.l1_misses += n
        self.l1_hits += len(blocks) - n
        return misses, (wait if wait > now else 0)

    def fill(self, sm_id, block, now):
        """Start a fill of block into sm_id's L1 at cycle now, or join one
        still in flight.  Filling a block that the L1 holds and that has
        landed is an error: the caller looks blocks up first.

        Installs the block immediately, charges L2/NoC/DRAM counters, and
        returns the cycle at which the data is usable: a round trip to the
        block's home L2 slice, and to DRAM beyond it on an L2 miss."""
        bits = self.block_bits
        if block & self._offset_mask:
            raise _unaligned(block)
        ready_at = self.ready_at[sm_id]
        ready = ready_at.get(block, 0)
        if ready > now:
            return ready
        s = self.l1[sm_id][(block >> bits) % self._l1_n_sets]
        if block in s:
            raise ValueError(f"fill of block 0x{block:x}, which SM {sm_id}'s "
                             f"L1 holds and which has landed")
        self._install(sm_id, s, block, now)
        mc = self.home_mc(block)
        self.noc_flit_hops += self.rt_flit_hops[sm_id][mc]
        ready = now + self.rt_latency[sm_id][mc] + self.lat_l2
        s = self.l2[mc][(block >> bits) % self._l2_n_sets]
        if block in s:
            del s[block]
            s[block] = None
            self.l2_hits += 1
        else:
            if len(s) >= self._l2_ways:
                del s[next(iter(s))]
            s[block] = None
            self.l2_misses += 1
            self.dram_accesses += 1
            ready += self.lat_dram
        ready_at[block] = ready
        return ready

    def _install(self, sm_id, s, block, now):
        """Put block, absent from set s of sm_id's L1, into s at cycle now,
        evicting the set's LRU block if it is full, and tell the listeners.
        A victim whose fill has landed leaves the ready record with it; one
        still in flight stays there so that a refill joins its fill."""
        victim = None
        if len(s) >= self._l1_ways:
            victim = next(iter(s))
            del s[victim]
        s[block] = None
        holders = self.holders
        holders[block] = holders.get(block, 0) + 1
        listener = self._on_install[sm_id]
        if listener is not None:
            listener(block)
        if victim is not None:
            n = holders[victim] - 1
            if n:
                holders[victim] = n
            else:
                del holders[victim]
            listener = self._on_evict[sm_id]
            if listener is not None:
                listener(victim)
            ready_at = self.ready_at[sm_id]
            if ready_at.get(victim, 0) <= now:
                ready_at.pop(victim, None)
