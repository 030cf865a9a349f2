"""The tests' reference LRU cache, and a helper that preloads an L1.

`MemoryHierarchy` applies the LRU rule to its own set dicts;
`LruCache` writes the same rule through separate methods, so the model
tests can check the hierarchy against it.
"""

from opconv.workload import ConfigError


def _check_aligned(block, offset_mask):
    if block & offset_mask:
        raise ConfigError(f"unaligned block address 0x{block:x}")


class LruCache:
    """Set-associative LRU cache over aligned block addresses.

    Each set is a dict kept in recency order, least recently used first: a
    hit moves its block to the end and the victim is the first block.
    `hits` and `misses` count `touch` calls."""

    def __init__(self, geometry):
        self.block_bits = geometry.block_size.bit_length() - 1
        self.offset_mask = geometry.block_size - 1
        self.n_sets = geometry.sets
        self.ways = geometry.ways
        self.sets = [dict() for _ in range(geometry.sets)]  # block -> None
        self.hits = 0
        self.misses = 0

    def _set_of(self, block):
        _check_aligned(block, self.offset_mask)
        return self.sets[(block >> self.block_bits) % self.n_sets]

    def contains(self, block):
        """Pure presence probe; never touches recency."""
        return block in self._set_of(block)

    def touch(self, block):
        """Recency-updating lookup. True on hit, False (no state change) on miss."""
        s = self._set_of(block)
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
        s = self._set_of(block)
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


def warm(hier, sm_id, addrs):
    """Preload the blocks holding addrs into sm_id's L1 of the
    `MemoryHierarchy` hier at cycle 0, through its install step, without
    touching any counter."""
    sets = hier.l1[sm_id]
    for addr in addrs:
        block = hier.block_of(addr)
        s = sets[(block >> hier.block_bits) % len(sets)]
        if block not in s:
            hier._install(sm_id, s, block, 0)
