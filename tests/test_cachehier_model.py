"""MemoryHierarchy against a model built on the tests' LruCache.

The hierarchy applies the LRU rule to its own set dicts; the model here
goes through LruCache's methods and keeps its own in-flight fills and
holder counts.  Random traces of lookups, fills and residency queries on a
tiny two-SM machine must give the same answers, hit and miss counts, set
orders, holders, L2 counters, ready cycles and listener calls.
"""

from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lru import LruCache

from opconv.cachehier import CacheGeometry, MemoryHierarchy, NocModel
from opconv.smcore import INF

L1 = CacheGeometry(128, 2, 2)     # 32 B blocks, 2 sets of 2 ways
L2 = CacheGeometry(192, 2, 3)     # 2 sets of 3 ways per slice
BLOCK = 32
N_SMS, N_MCS = 2, 2
LATENCIES = (1, 5, 40)


class Model:
    """The hierarchy's rules written with LruCache.touch/contains/install/
    access.  A fill in flight is the SM's latest fill of a block whose
    ready cycle is still ahead."""

    def __init__(self, hier):
        self.l1 = [LruCache(L1) for _ in range(N_SMS)]
        self.l2 = [LruCache(L2) for _ in range(N_MCS)]
        self.rt_latency = hier.rt_latency
        self.rt_flit_hops = hier.rt_flit_hops
        self.ready = [{} for _ in range(N_SMS)]
        self.holders = Counter()
        self.events = []
        self.l2_hits = self.l2_misses = self.noc_flit_hops = 0

    def in_flight(self, sm, b, now):
        r = self.ready[sm].get(b, 0)
        return r if r > now else 0

    def lookup(self, sm, blocks, now):
        misses, wait = (), 0
        for b in blocks:
            if self.l1[sm].touch(b):
                wait = max(wait, self.in_flight(sm, b, now))
            else:
                misses += (b,)
        return misses, wait

    def fill(self, sm, b, now):
        pending = self.in_flight(sm, b, now)
        if pending:
            return pending
        if self.l1[sm].contains(b):
            return "refused"
        victim = self.l1[sm].install(b)
        self.holders[b] += 1
        self.events.append(("install", sm, b))
        if victim is not None:
            self.holders[victim] -= 1
            self.events.append(("evict", sm, victim))
        mc = (b // BLOCK) % N_MCS
        self.noc_flit_hops += self.rt_flit_hops[sm][mc]
        ready = now + self.rt_latency[sm][mc] + LATENCIES[1]
        if self.l2[mc].access(b)[0]:
            self.l2_hits += 1
        else:
            self.l2_misses += 1
            ready += LATENCIES[2]
        self.ready[sm][b] = ready
        return ready

    def absent(self, sm, blocks, now):
        return sum(1 << k for k, b in enumerate(blocks)
                   if not self.l1[sm].contains(b) or self.in_flight(sm, b, now))


blocks = st.integers(0, 9).map(lambda i: i * BLOCK)
# "access" is the engine's issue path: look a tuple up, then fill its misses;
# "resident" asks for installed blocks, landed or not
steps = st.lists(st.tuples(
    st.sampled_from(["access"] * 4 + ["fill", "absent", "resident"]),
    st.integers(0, N_SMS - 1),
    st.integers(0, 20),                          # cycles since the last step
    st.lists(blocks, min_size=1, max_size=3, unique=True).map(tuple)),
    min_size=20, max_size=80)


# no shrinking: a failing trace is reported as drawn, since shrinking these
# traces can run for minutes and look like a hang
@settings(phases=[p for p in Phase if p is not Phase.shrink])
@given(steps)
def test_hierarchy_matches_lru_model(trace):
    noc = NocModel(4, 2, 16, 1, 2)
    hier = MemoryHierarchy(N_SMS, L1, L2, N_MCS, noc, LATENCIES)
    model = Model(hier)
    events = []
    for sm in range(N_SMS):
        hier.set_listeners(sm,
                           lambda b, sm=sm: events.append(("install", sm, b)),
                           lambda b, sm=sm: events.append(("evict", sm, b)))
    now = 0
    for kind, sm, dt, bs in trace:
        now += dt
        if kind == "access":
            misses, wait = hier.lookup(sm, bs, now)
            assert (misses, wait) == model.lookup(sm, bs, now)
            for b in misses:
                assert hier.fill(sm, b, now) == model.fill(sm, b, now)
        elif kind == "fill":
            want = model.fill(sm, bs[0], now)
            if want == "refused":
                with pytest.raises(ValueError):
                    hier.fill(sm, bs[0], now)
            else:
                assert hier.fill(sm, bs[0], now) == want
        else:
            at = now if kind == "absent" else INF
            assert hier.absent_for_compute(sm, bs, at) == \
                model.absent(sm, bs, at)
        assert hier.l1_hits == sum(c.hits for c in model.l1)
        assert hier.l1_misses == sum(c.misses for c in model.l1)
        assert [[list(s) for s in sets] for sets in hier.l1] == \
            [[list(s) for s in c.sets] for c in model.l1]
        assert [[list(s) for s in sets] for sets in hier.l2] == \
            [[list(s) for s in c.sets] for c in model.l2]
        assert hier.holders == +model.holders
        assert (hier.l2_hits, hier.l2_misses, hier.dram_accesses,
                hier.noc_flit_hops) == (model.l2_hits, model.l2_misses,
                                        model.l2_misses, model.noc_flit_hops)
        assert events == model.events
