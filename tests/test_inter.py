"""Cluster partitioning and the per-cluster assign table."""

import random

import pytest

from opconv.inter import AssignTable, cluster_map
from opconv.workload import ConfigError


def test_cluster_map_contiguous():
    cm = cluster_map(56, 8)
    assert len(cm) == 56
    assert cm[:8] == [0, 0, 0, 0, 0, 0, 0, 1]
    assert cm[-1] == 7
    assert all(cm.count(c) == 7 for c in range(8))

    assert cluster_map(10, 3) == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    # more clusters than SMs degenerates to singletons
    assert cluster_map(4, 8) == [0, 1, 2, 3]


def test_cluster_map_limits():
    with pytest.raises(ConfigError):
        cluster_map(9, 1)      # nine members cannot fit a 3-bit owner id
    with pytest.raises(ConfigError):
        cluster_map(8, 0)
    cluster_map(8, 1)          # exactly eight is fine


def pair_of(i, j):
    return (i * 128, 0x4000_0000 + j * 128)


def test_register_lookup_and_ownership_moves():
    t = AssignTable(0, 8)
    p = pair_of(1, 2)
    assert t.lookup(p) is None
    t.register(p, 3)
    assert t.lookup(p) == 3
    t.register(p, 5)                 # most recent filler wins
    assert t.lookup(p) == 5
    assert len(t.entries) == 1
    assert (t.lookups, t.registrations) == (3, 2)


def test_fifo_eviction_with_refresh():
    t = AssignTable(0, 2)
    t.register(pair_of(0, 0), 0)
    t.register(pair_of(1, 1), 1)
    t.register(pair_of(0, 0), 2)     # refresh moves it to the back
    t.register(pair_of(2, 2), 3)     # evicts pair 1, the oldest
    assert t.evictions == 1
    assert t.lookup(pair_of(1, 1)) is None
    assert t.lookup(pair_of(0, 0)) == 2
    assert t.lookup(pair_of(2, 2)) == 3


def test_on_evict_owner_scope():
    t = AssignTable(0, 8)
    shared_weight = 0x4000_0000
    t.register((0, shared_weight), 1)
    t.register((128, shared_weight), 2)
    # SM 1 losing the weight block only kills SM 1's entry
    assert t.on_evict(shared_weight, 1) == 1
    assert t.lookup((0, shared_weight)) is None
    assert t.lookup((128, shared_weight)) == 2
    assert t.invalidated == 1
    assert t.on_evict(512, 1) == 0   # unknown block


class ModelTable:
    """Insertion-ordered reference for the assign table semantics and its
    counters."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.d = {}  # pair -> owner
        self.lookups = self.registrations = 0
        self.evictions = self.invalidated = self.accesses = 0

    def register(self, pair, sm):
        self.accesses += 1
        self.registrations += 1
        if pair in self.d:
            del self.d[pair]
        elif len(self.d) >= self.capacity:
            del self.d[next(iter(self.d))]
            self.evictions += 1
        self.d[pair] = sm

    def lookup(self, pair):
        self.accesses += 1
        self.lookups += 1
        return self.d.get(pair)

    def on_evict(self, block, sm):
        naming = [p for p in self.d if block in p]
        if naming:
            self.accesses += 1  # the table is read only for a block it names
        doomed = [p for p in naming if self.d[p] == sm]
        for p in doomed:
            del self.d[p]
        self.invalidated += len(doomed)
        return len(doomed)


COUNTERS = ("lookups", "registrations", "evictions", "invalidated",
            "accesses")


def test_randomized_equivalence_with_model():
    rng = random.Random(99)
    t = AssignTable(0, 16)
    m = ModelTable(16)
    blocks_a = [i * 128 for i in range(12)]
    blocks_b = [0x4000_0000 + i * 128 for i in range(6)]
    for _ in range(10_000):
        roll = rng.random()
        if roll < 0.45:
            pair = (rng.choice(blocks_a), rng.choice(blocks_b))
            sm = rng.randrange(7)
            t.register(pair, sm)
            m.register(pair, sm)
        elif roll < 0.8:
            pair = (rng.choice(blocks_a), rng.choice(blocks_b))
            assert t.lookup(pair) == m.lookup(pair)
        else:
            block = rng.choice(blocks_a + blocks_b)
            sm = rng.randrange(7)
            assert t.on_evict(block, sm) == m.on_evict(block, sm)
        assert len(t.entries) == len(m.d)
        assert len(t.entries) <= t.capacity
        assert [getattr(t, c) for c in COUNTERS] == \
            [getattr(m, c) for c in COUNTERS]
    assert t.entries == m.d
    # every counter moved, so the comparison above checked each of them
    assert all(getattr(m, c) for c in COUNTERS)
