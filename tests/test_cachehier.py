"""LRU caches, mesh interconnect and the timed miss path.

The LRU tests check against an independent stack-distance model: an access
hits a W-way LRU set exactly when fewer than W distinct blocks of that set
were touched since the previous access to the same block.
"""

import random

import pytest
from lru import LruCache, warm

from opconv.cachehier import (
    REQUEST_BYTES,
    CacheGeometry,
    MemoryHierarchy,
    NocModel,
    mesh_placement,
)
from opconv.workload import ConfigError

L1_GEOM = CacheGeometry(16 * 1024, 32, 4)   # 128B blocks
L2_GEOM = CacheGeometry(64 * 1024, 64, 8)


def test_geometry_validation():
    assert L1_GEOM.block_size == 128
    assert L2_GEOM.block_size == 128
    with pytest.raises(ConfigError):
        CacheGeometry(0, 1, 1)
    with pytest.raises(ConfigError):
        CacheGeometry(100, 3, 2)   # 100 not divisible by 6
    with pytest.raises(ConfigError):
        CacheGeometry(96, 2, 4)    # 12-byte blocks


# ------------------------------------------------------------------- raw LRU

def test_lru_hand_replay():
    cache = LruCache(CacheGeometry(256, 1, 4))  # one 4-way set, 64B blocks
    a, b, c, d, e, f = (i * 64 for i in range(6))
    trace = [a, b, c, d, a, e, b, d, f]
    want = [(False, None), (False, None), (False, None), (False, None),
            (True, None),                    # A refreshed
            (False, b),                      # B is now the oldest
            (False, c),
            (True, None),
            (False, a)]                      # refreshed A aged past E, B, D
    assert [cache.access(x) for x in trace] == want
    assert (cache.hits, cache.misses) == (2, 7)


def test_contains_does_not_refresh():
    cache = LruCache(CacheGeometry(256, 1, 4))
    for blk in (0, 64, 128, 192):
        cache.install(blk)
    assert cache.contains(0)
    # the probe must not have promoted block 0
    assert cache.install(256) == 0


def test_touch_miss_leaves_state_alone():
    cache = LruCache(CacheGeometry(256, 1, 4))
    assert not cache.touch(64)
    assert not cache.contains(64)
    assert cache.misses == 1


def test_set_indexing_and_alignment():
    cache = LruCache(CacheGeometry(128, 2, 1))  # two direct-mapped 64B sets
    cache.install(0)
    cache.install(64)   # different set, no eviction
    assert cache.contains(0) and cache.contains(64)
    assert cache.install(128) == 0  # wraps onto set 0
    for probe in (cache.touch, cache.contains, cache.install):
        with pytest.raises(ConfigError):
            probe(3)


def stack_distance_hits(geom, trace):
    """Reference hit/miss decisions from per-set reuse distances."""
    bits = geom.block_size.bit_length() - 1
    recency = [[] for _ in range(geom.sets)]  # least recent first, unbounded
    out = []
    for block in trace:
        lst = recency[(block >> bits) % geom.sets]
        if block in lst:
            out.append(len(lst) - lst.index(block) <= geom.ways)
            lst.remove(block)
        else:
            out.append(False)
        lst.append(block)
    return out


@pytest.mark.parametrize("geom,n_blocks", [(L1_GEOM, 600), (L2_GEOM, 2000)])
def test_lru_matches_stack_distance(geom, n_blocks):
    rng = random.Random(1234)
    trace = [rng.randrange(n_blocks) * geom.block_size for _ in range(10_000)]
    cache = LruCache(geom)
    got = [cache.access(b)[0] for b in trace]
    assert got == stack_distance_hits(geom, trace)
    assert cache.hits + cache.misses == len(trace)
    assert cache.hits == sum(got)


# ----------------------------------------------------------------------- NoC

def test_noc_latency_components():
    noc = NocModel(8, 8, 16, 1, 2)
    assert noc.coords(0) == (0, 0)
    assert noc.coords(19) == (3, 2)
    assert noc.hops(0, 19) == 5
    assert noc.flits(1) == 1 and noc.flits(16) == 1 and noc.flits(17) == 2
    # hops + pipeline + serialized flits
    assert noc.latency(0, 19, 16) == 8
    assert noc.latency(0, 19, 128) == 15
    assert noc.flit_hops(0, 19, 128) == 40
    assert noc.latency(5, 5, 128) == 10  # local turn still pays pipeline + flits
    with pytest.raises(ConfigError):
        noc.flits(0)
    with pytest.raises(ConfigError):
        NocModel(0, 8, 16, 1, 2)


def test_noc_latency_properties():
    rng = random.Random(17)
    noc = NocModel(8, 8, 16, 1, 2)
    for _ in range(500):
        a, b = rng.randrange(64), rng.randrange(64)
        p = rng.randrange(1, 512)
        # symmetric in endpoints, monotone in payload
        assert noc.latency(a, b, p) == noc.latency(b, a, p)
        assert noc.latency(a, b, p + 16) >= noc.latency(a, b, p)
        assert noc.flit_hops(a, b, p) == noc.flit_hops(b, a, p)


def test_mesh_placement_layout():
    sm_nodes, mc_nodes = mesh_placement(56, 8, 8, 8)
    assert mc_nodes == [0, 16, 32, 48, 15, 31, 47, 63]
    assert len(sm_nodes) == 56
    assert sm_nodes[0] == 1 and sm_nodes[-1] == 62
    assert not set(sm_nodes) & set(mc_nodes)
    with pytest.raises(ConfigError):
        mesh_placement(60, 8, 8, 8)


# --------------------------------------------------------------- miss timing

def one_sm_hier():
    """Single SM one hop away from a single MC; request 1 flit, reply 8."""
    noc = NocModel(8, 8, 16, 1, 2)
    return MemoryHierarchy(1, L1_GEOM, L2_GEOM, 1, noc, (1, 30, 120),
                           sm_nodes=[1], mc_nodes=[0])


def test_miss_path_latency_frozen():
    hier = one_sm_hier()
    # request 1*1+2+1 = 4, L2 miss 30+120, reply 1*1+2+8 = 11
    ready = hier.fill(0, 0, now=0)
    assert ready == 165
    assert (hier.l2_misses, hier.dram_accesses, hier.l2_hits) == (1, 1, 0)
    assert hier.noc_flit_hops == 1 + 8

    # push block 0 out of its L1 set; the refill then hits in L2
    for i in range(1, 5):
        hier.fill(0, i * 32 * 128, now=0)
    assert not hier.probe_sm(0, (0,))
    t = hier.fill(0, 0, now=1000)
    assert t - 1000 == 4 + 30 + 11
    assert hier.l2_hits == 1


def test_fills_coalesce_and_expire():
    hier = one_sm_hier()
    r1 = hier.fill(0, 0, now=0)
    assert hier.fill(0, 0, now=3) == r1       # joins the in-flight fill
    assert hier.l2_misses == 1                # charged only once
    misses, wait = hier.lookup(0, (0,), now=3)
    assert not misses and wait == r1          # installed, data not landed yet
    assert hier.absent_for_compute(0, (0,), r1 - 1) == 1
    assert hier.lookup(0, (0,), r1) == ((), 0)
    assert hier.absent_for_compute(0, (0,), r1) == 0


def test_landed_fill_is_not_joined():
    """A fill has landed from its ready cycle on, whoever asks and whenever
    they last asked: a refetch of a block that landed and was then evicted
    is a new fill, with its own traffic and ready cycle."""
    hier = one_sm_hier()
    r1 = hier.fill(0, 0, now=0)
    installs = []
    hier.set_listeners(0, installs.append, None)
    for i in range(1, 5):                     # push block 0 out of its set
        hier.fill(0, i * 32 * 128, now=0)
    assert not hier.probe_sm(0, (0,))
    hops, l2_hits = hier.noc_flit_hops, hier.l2_hits
    r2 = hier.fill(0, 0, now=r1)
    assert r2 == r1 + 4 + 30 + 11             # an L2 hit, not the old fill
    assert installs[-1] == 0 and hier.probe_sm(0, (0,))
    assert (hier.l2_hits, hier.noc_flit_hops) == (l2_hits + 1, hops + 9)

    other = 4 * 32 * 128                      # still resident, landed at r1
    assert hier.absent_for_compute(0, (other, 0), r2 - 1) == 0b10
    assert hier.lookup(0, (other, 0), r2 - 1) == ((), r2)
    assert hier.absent_for_compute(0, (0, other), r2) == 0
    assert hier.lookup(0, (0, other), r2) == ((), 0)


def test_lookup_counts_and_block_of():
    hier = one_sm_hier()
    assert hier.block_of(0x1234) == 0x1200
    assert hier.lookup(0, (0,), 0) == ((0,), 0)
    hier.fill(0, 0, 0)
    hier.lookup(0, (0,), 1000)
    assert (hier.l1_hits, hier.l1_misses) == (1, 1)


def test_lookup_touches_a_whole_tuple_before_any_fill():
    """A tuple's blocks are all looked up, in order, before the caller fills
    a miss: misses come back in lookup order, the wait is the latest ready
    cycle of a hit still in flight, and a fill evicts none of the tuple."""
    hier = one_sm_hier()
    a, c, d, b, x, y, z = (i * 32 * 128 for i in range(7))  # one L1 set
    for blk in (a, c, d):
        assert hier.fill(0, blk, 0) == 165
    assert hier.fill(0, b, 20) == 185         # LRU order a, c, d, b
    assert hier.lookup(0, (b, x, a), 20) == ((x,), 185)
    assert (hier.l1_hits, hier.l1_misses) == (2, 1)
    hier.fill(0, x, 20)                       # a and b were touched: c goes
    assert [hier.probe_sm(0, (blk,)) for blk in (a, b, c, d, x)] == \
        [True, True, False, True, True]
    assert hier.lookup(0, (y, a, z), 170) == ((y, z), 0)  # a has landed
    assert hier.lookup(0, (y, b, z), 184) == ((y, z), 185)


def test_home_mc_interleaves_block_index():
    noc = NocModel(8, 8, 16, 1, 2)
    hier = MemoryHierarchy(2, L1_GEOM, L2_GEOM, 4, noc, (1, 30, 120),
                           sm_nodes=[1, 2], mc_nodes=[0, 16, 32, 48])
    assert [hier.home_mc(i * 128) for i in range(6)] == [0, 1, 2, 3, 0, 1]


def test_holders_and_probes():
    noc = NocModel(8, 8, 16, 1, 2)
    hier = MemoryHierarchy(2, L1_GEOM, L2_GEOM, 1, noc, (1, 30, 120),
                           sm_nodes=[1, 2], mc_nodes=[0])
    hier.fill(0, 0, 0)
    assert hier.probe_sm(0, (0,)) and not hier.probe_sm(1, (0,))
    assert hier.present_elsewhere(1, 0)
    assert not hier.present_elsewhere(0, 0)   # only our own copy exists
    hier.fill(1, 0, 0)
    assert hier.present_elsewhere(0, 0)
    assert hier.holders[0] == 2


def test_listeners_fire_on_install_and_evict():
    hier = one_sm_hier()
    installs, evicts = [], []
    hier.set_listeners(0, installs.append, evicts.append)
    for i in range(5):  # five blocks into one 4-way set
        hier.fill(0, i * 32 * 128, now=0)
    assert len(installs) == 5
    assert evicts == [0]
    assert 0 not in hier.holders
    # probes agree with the directory as soon as the eviction fires
    assert not hier.probe_sm(0, (0,))
    assert not hier.present_elsewhere(0, 0)


def test_warm_preloads_without_counters():
    hier = one_sm_hier()
    warm(hier, 0, [0, 130, 256])   # 130 shares block 128
    assert hier.probe_sm(0, (0, 128, 256))
    assert hier.l1_misses == 0 and hier.l2_misses == 0 and hier.noc_flit_hops == 0
    assert hier.holders[128] == 1


def test_block_size_mismatch_rejected():
    noc = NocModel(8, 8, 16, 1, 2)
    with pytest.raises(ConfigError):
        MemoryHierarchy(1, L1_GEOM, CacheGeometry(64 * 1024, 64, 16), 1, noc,
                        (1, 30, 120), sm_nodes=[1], mc_nodes=[0])


def test_fill_of_a_landed_resident_block_is_refused():
    """A fill joins one in flight, but a block that is installed and has
    landed is not filled again: that would count a second holder for one
    copy and charge a second L2 access."""
    hier = one_sm_hier()
    assert hier.fill(0, 0, now=0) == 165
    assert hier.fill(0, 0, now=164) == 165   # joins the fill in flight
    with pytest.raises(ValueError):
        hier.fill(0, 0, now=165)
    assert hier.holders == {0: 1}
    assert (hier.l2_hits, hier.l2_misses, hier.noc_flit_hops) == (0, 1, 9)


def test_fill_record_holds_no_more_than_the_l1s_blocks():
    """The ready record keeps resident blocks and blocks evicted in flight:
    a stream of distinct blocks, each filled once the fill before it has
    landed, never leaves more entries in it than the L1 has blocks."""
    hier = one_sm_hier()
    n_blocks = L1_GEOM.sets * L1_GEOM.ways
    now = 0
    for i in range(20 * n_blocks):
        now = hier.fill(0, i * L1_GEOM.block_size, now)
        assert len(hier.ready_at[0]) <= n_blocks


@pytest.mark.parametrize("call", [
    lambda h: h.lookup(0, (0, 3), 0),
    lambda h: h.fill(0, 3, 0),
    lambda h: h.absent_for_compute(0, (0, 3), 0),
    lambda h: h.probe_sm(0, (0, 3)),
    lambda h: h.present_elsewhere(0, 3),
], ids=["lookup", "fill", "absent_for_compute", "probe_sm",
        "present_elsewhere"])
def test_hierarchy_rejects_unaligned_blocks(call):
    hier = one_sm_hier()
    warm(hier, 0, [0])       # the aligned block 0 is found, then 3 is checked
    with pytest.raises(ConfigError, match="unaligned"):
        call(hier)
