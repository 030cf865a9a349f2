"""Timed memory hierarchy: per-SM L1 caches, per-MC L2 slices, 2D mesh NoC.

There are no MSHRs: a warp blocks until its own miss is filled, and duplicate
in-flight misses to the same block coalesce onto the existing fill.  Cache
state is updated at access time (victim selected immediately); the fill
latency only delays the consuming warp.  Evictions are reported through
listener callbacks so the scheme tables can invalidate dependent entries in
the same cycle.

A fill has landed once the cycle passed in is at or past its ready cycle.
Every method that reads fill state takes that cycle and decides landing
itself, dropping landed fills as it goes, so whether a block is still in
flight depends on simulated time alone and never on when a caller last
looked.  The cycles passed for one SM never decrease.
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


class LruCache:
    """Set-associative LRU cache over aligned block addresses.

    Each set is a dict kept in recency order, least recently used first: a
    hit moves its block to the end and the victim is the first block."""

    def __init__(self, geometry):
        self.block_bits = geometry.block_size.bit_length() - 1
        self.offset_mask = geometry.block_size - 1
        self.n_sets = geometry.sets
        self.ways = geometry.ways
        self.sets = [dict() for _ in range(geometry.sets)]  # block -> None
        self.hits = 0
        self.misses = 0

    # The set index is computed inline in each of the three hot methods below
    # rather than through a helper: they run several times per simulated op.

    def contains(self, block):
        """Pure presence probe; never touches recency."""
        if block & self.offset_mask:
            raise _unaligned(block)
        return block in self.sets[(block >> self.block_bits) % self.n_sets]

    def touch(self, block):
        """Recency-updating lookup. True on hit, False (no state change) on miss."""
        if block & self.offset_mask:
            raise _unaligned(block)
        s = self.sets[(block >> self.block_bits) % self.n_sets]
        if block in s:
            del s[block]
            s[block] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def install(self, block):
        """Insert a block, evicting the LRU victim if the set is full.

        Returns the victim block address or None."""
        if block & self.offset_mask:
            raise _unaligned(block)
        s = self.sets[(block >> self.block_bits) % self.n_sets]
        if block in s:
            return None
        victim = None
        if len(s) >= self.ways:
            victim = next(iter(s))
            del s[victim]
        s[block] = None
        return victim

    def access(self, block):
        """Combined lookup: hit updates recency, miss installs (LRU victim out).

        Returns (hit, evicted)."""
        if self.touch(block):
            return True, None
        return False, self.install(block)


class NocModel:
    """2D mesh, X-Y routing, wormhole-style serialization.

    latency = hops * hop_cycles + pipeline_stages + ceil(payload / flit_bytes)
    """

    def __init__(self, mesh_w=8, mesh_h=8, flit_bytes=16, hop_cycles=1,
                 pipeline_stages=2):
        if mesh_w < 1 or mesh_h < 1 or flit_bytes < 1:
            raise ConfigError("mesh dimensions and flit size must be positive")
        self.mesh_w = mesh_w
        self.mesh_h = mesh_h
        self.flit_bytes = flit_bytes
        self.hop_cycles = hop_cycles
        self.pipeline_stages = pipeline_stages

    def coords(self, node):
        return node % self.mesh_w, node // self.mesh_w

    def hops(self, src, dst):
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def flits(self, payload_bytes):
        if payload_bytes < 1:
            raise ConfigError("payload must be at least one byte")
        return -(-payload_bytes // self.flit_bytes)

    def latency(self, src, dst, payload_bytes):
        return (self.hops(src, dst) * self.hop_cycles + self.pipeline_stages
                + self.flits(payload_bytes))

    def flit_hops(self, src, dst, payload_bytes):
        return self.flits(payload_bytes) * self.hops(src, dst)


def mesh_placement(n_sms, n_mcs, mesh_w=8, mesh_h=8):
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
INF = float("inf")


class MemoryHierarchy:
    """All cache and interconnect state for one simulation."""

    def __init__(self, n_sms, l1_geom, l2_geom, n_mcs, noc, latencies,
                 sm_nodes=None, mc_nodes=None):
        self.block_size = l1_geom.block_size
        if l2_geom.block_size != l1_geom.block_size:
            raise ConfigError("L1 and L2 block sizes must match")
        self.l1 = [LruCache(l1_geom) for _ in range(n_sms)]
        self.l2 = [LruCache(l2_geom) for _ in range(n_mcs)]
        self.n_mcs = n_mcs
        self.noc = noc
        self.lat_l1, self.lat_l2, self.lat_dram = latencies
        if sm_nodes is None or mc_nodes is None:
            sm_nodes, mc_nodes = mesh_placement(n_sms, n_mcs, noc.mesh_w, noc.mesh_h)
        self.sm_nodes = sm_nodes
        self.mc_nodes = mc_nodes
        self.block_bits = l1_geom.block_size.bit_length() - 1
        # per (SM, MC) round trip: a request flit out, one block back
        self.rt_latency = [[noc.latency(s, m, REQUEST_BYTES)
                            + noc.latency(m, s, self.block_size)
                            for m in mc_nodes] for s in sm_nodes]
        self.rt_flit_hops = [[noc.flit_hops(s, m, REQUEST_BYTES)
                              + noc.flit_hops(m, s, self.block_size)
                              for m in mc_nodes] for s in sm_nodes]
        # block -> count of SMs with an installed copy, for O(1) probing
        self.holders = {}
        # per SM, fills not yet seen to land (block -> ready cycle) and the
        # earliest of their ready cycles; read through _in_flight_at
        self._in_flight = [dict() for _ in range(n_sms)]
        self._next_landing = [INF] * n_sms
        self.evict_listeners = []
        self.install_listeners = []
        # counters
        self.l2_hits = 0
        self.l2_misses = 0
        self.dram_accesses = 0
        self.noc_flit_hops = 0

    def block_of(self, addr):
        return addr & ~(self.block_size - 1)

    def add_evict_listener(self, fn):
        """fn(sm_id, block) is called immediately when sm_id evicts block."""
        self.evict_listeners.append(fn)

    def add_install_listener(self, fn):
        """fn(sm_id, block) is called when a block lands in sm_id's L1."""
        self.install_listeners.append(fn)

    def probe_sm(self, sm_id, block):
        """Presence query against an SM's L1; no recency update."""
        return self.l1[sm_id].contains(block)

    def present_elsewhere(self, sm_id, block):
        n = self.holders.get(block, 0)
        if self.l1[sm_id].contains(block):
            n -= 1
        return n > 0

    def absent_for_compute(self, sm_id, blocks, now):
        """Bit k set for each blocks[k] that an assistant may not read at
        now: not installed in sm_id's L1, or installed by a fill that has
        not landed.  0 when every block may be read; no recency update."""
        contains = self.l1[sm_id].contains
        inflight = self._in_flight_at(sm_id, now)
        absent = 0
        bit = 1
        for b in blocks:
            if not contains(b) or b in inflight:
                absent |= bit
            bit <<= 1
        return absent

    def _note_install(self, sm_id, block):
        self.holders[block] = self.holders.get(block, 0) + 1
        for fn in self.install_listeners:
            fn(sm_id, block)

    def _note_evict(self, sm_id, block):
        n = self.holders.get(block, 0) - 1
        if n > 0:
            self.holders[block] = n
        else:
            self.holders.pop(block, None)
        for fn in self.evict_listeners:
            fn(sm_id, block)

    def charge_message(self, src_sm, dst_sm):
        """Control message between two SMs: one request-sized NoC transfer."""
        self.noc_flit_hops += self.noc.flit_hops(
            self.sm_nodes[src_sm], self.sm_nodes[dst_sm], REQUEST_BYTES)

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
        touch = self.l1[sm_id].touch
        inflight = self._in_flight_at(sm_id, now)
        misses = ()
        wait = 0
        for b in blocks:
            if not touch(b):
                misses += (b,)
            elif b in inflight and inflight[b] > wait:
                wait = inflight[b]
        return misses, wait

    def fill(self, sm_id, block, now):
        """Start a fill of block into sm_id's L1 at cycle now, or join one
        still in flight.

        Installs the block immediately, charges L2/NoC/DRAM counters, and
        returns the cycle at which the data is usable: a round trip to the
        block's home L2 slice, and to DRAM beyond it on an L2 miss."""
        inflight = self._in_flight_at(sm_id, now)
        pending = inflight.get(block)
        if pending is not None:
            return pending
        victim = self.l1[sm_id].install(block)
        self._note_install(sm_id, block)
        if victim is not None:
            self._note_evict(sm_id, victim)
        mc = self.home_mc(block)
        self.noc_flit_hops += self.rt_flit_hops[sm_id][mc]
        ready = now + self.rt_latency[sm_id][mc] + self.lat_l2
        if self.l2[mc].access(block)[0]:
            self.l2_hits += 1
        else:
            self.l2_misses += 1
            self.dram_accesses += 1
            ready += self.lat_dram
        inflight[block] = ready
        if ready < self._next_landing[sm_id]:
            self._next_landing[sm_id] = ready
        return ready

    def _in_flight_at(self, sm_id, now):
        """The SM's fills still in flight at now, block -> ready cycle; the
        fills that have landed by now are dropped first."""
        inflight = self._in_flight[sm_id]
        if now >= self._next_landing[sm_id]:
            pending = INF
            for b, ready in list(inflight.items()):
                if ready <= now:
                    del inflight[b]
                elif ready < pending:
                    pending = ready
            self._next_landing[sm_id] = pending
        return inflight

    def warm(self, sm_id, addrs):
        """Preload blocks into an L1 without touching any counter (tests)."""
        for addr in addrs:
            block = self.block_of(addr)
            if not self.l1[sm_id].contains(block):
                victim = self.l1[sm_id].install(block)
                self._note_install(sm_id, block)
                if victim is not None:
                    self._note_evict(sm_id, victim)

    def l1_hits(self):
        return sum(c.hits for c in self.l1)

    def l1_misses(self):
        return sum(c.misses for c in self.l1)
