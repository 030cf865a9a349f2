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


class AssignTable:
    """Block-pair -> owner SM map for one cluster; FIFO eviction when full."""

    def __init__(self, cluster_id, capacity):
        self.cluster_id = cluster_id
        self.capacity = capacity
        self.entries = {}   # pair -> owner SM id, insertion ordered
        self.by_block = {}  # block -> list of the pairs naming it
        self.lookups = 0
        self.registrations = 0
        self.evictions = 0
        self.invalidated = 0
        self.accesses = 0

    def lookup(self, pair):
        """Owner SM id for the pair, or None."""
        self.lookups += 1
        self.accesses += 1
        return self.entries.get(pair)

    def register(self, pair, sm_id):
        """Record that sm_id holds both blocks of the pair (called post-fill).

        Re-registration moves ownership to the latest registrant."""
        self.accesses += 1
        self.registrations += 1
        entries = self.entries
        if pair in entries:
            # same pair, so its by_block links stay valid
            del entries[pair]
        else:
            if len(entries) >= self.capacity:
                self._drop(next(iter(entries)))
                self.evictions += 1
            by_block = self.by_block
            for b in pair:
                bucket = by_block.get(b)
                if bucket is None:
                    by_block[b] = [pair]
                else:
                    bucket.append(pair)
        entries[pair] = sm_id  # newest in FIFO order

    def _drop(self, pair):
        del self.entries[pair]
        by_block = self.by_block
        for b in pair:
            bucket = by_block[b]
            bucket.remove(pair)
            if not bucket:
                del by_block[b]

    def on_evict(self, block, sm_id):
        """Eviction notification from a member SM's L1: removes only the
        entries sm_id owns (another member may still hold the blocks)."""
        bucket = self.by_block.get(block)
        if not bucket:
            return 0
        self.accesses += 1
        entries = self.entries
        n = 0
        for pair in bucket[:]:
            if entries[pair] == sm_id:
                self._drop(pair)
                n += 1
        self.invalidated += n
        return n
