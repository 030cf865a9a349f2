"""Per-cluster assign tables: computation forwarding between neighbor SMs.

Each cluster of SMs shares one table mapping a computing block pair (the
input block and weight block of a computation) to the member SM that last
filled both blocks.  An SM that misses on a pair owned elsewhere hands the
whole computation to the owner, fire and forget, and skips its own fill;
the owner accumulates the result to the output location with an atomic add.
Evictions invalidate the evicting owner's entries immediately, and work that
reaches an owner whose blocks are gone bounces back to the source, so every
forwarded computation still executes exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workload import ConfigError


def cluster_map(n_sms, n_clusters):
    """Contiguous partition of SM ids into clusters.

    Owner ids are stored in a 3-bit field, so a cluster may hold at most
    eight members."""
    if n_clusters < 1:
        raise ConfigError("need at least one cluster")
    size = -(-n_sms // n_clusters)
    if size > 8:
        raise ConfigError(f"inter.clusters = {n_clusters} on sm.count = {n_sms} "
                          f"SMs makes clusters of {size}; the 3-bit owner field "
                          f"names at most 8")
    return [min(sm // size, n_clusters - 1) for sm in range(n_sms)]


@dataclass(slots=True)
class AssignEntry:
    pair: tuple
    owner: int


class AssignTable:
    """Block-pair -> owner SM map for one cluster; FIFO eviction when full."""

    def __init__(self, cluster_id, capacity):
        self.cluster_id = cluster_id
        self.capacity = capacity
        self.entries = {}   # pair -> AssignEntry, insertion ordered
        self.by_block = {}  # block -> {pair: entry}
        self.lookups = 0
        self.lookup_hits = 0
        self.registrations = 0
        self.evictions = 0
        self.invalidated = 0
        self.accesses = 0

    def __len__(self):
        return len(self.entries)

    def lookup(self, pair):
        """Owner SM id for the pair, or None."""
        self.lookups += 1
        self.accesses += 1
        entry = self.entries.get(pair)
        if entry is None:
            return None
        self.lookup_hits += 1
        return entry.owner

    def register(self, pair, sm_id):
        """Record that sm_id holds both blocks of the pair (called post-fill).

        Re-registration moves ownership to the latest registrant."""
        self.accesses += 1
        entry = self.entries.pop(pair, None)
        if entry is not None:
            # same pair, so its by_block links stay valid
            entry.owner = sm_id
        else:
            if len(self.entries) >= self.capacity:
                oldest = next(iter(self.entries.values()))
                self._unlink(oldest)
                del self.entries[oldest.pair]
                self.evictions += 1
            entry = AssignEntry(pair, sm_id)
            for b in pair:
                bucket = self.by_block.get(b)
                if bucket is None:
                    self.by_block[b] = {pair: entry}
                else:
                    bucket[pair] = entry
        self.entries[pair] = entry  # newest in FIFO order
        self.registrations += 1

    def _unlink(self, entry):
        for b in entry.pair:
            bucket = self.by_block.get(b)
            if bucket is not None:
                bucket.pop(entry.pair, None)
                if not bucket:
                    del self.by_block[b]

    def on_evict(self, block, sm_id, scope="owner"):
        """Eviction notification from a member SM's L1.

        scope "owner" removes only entries owned by the evicting SM (another
        member may still hold the blocks); scope "cluster" removes every entry
        naming the block."""
        bucket = self.by_block.get(block)
        if not bucket:
            return 0
        self.accesses += 1
        doomed = [e for e in bucket.values()
                  if scope == "cluster" or e.owner == sm_id]
        for e in doomed:
            self._unlink(e)
            del self.entries[e.pair]
        self.invalidated += len(doomed)
        return len(doomed)

    def flush(self):
        self.entries.clear()
        self.by_block.clear()
