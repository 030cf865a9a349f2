"""Per-SM precompute tables: speculative result memoization for sliding windows.

When a window row product completes, the rows it will meet again after the
window slides down are known from pure address arithmetic; those future
(input vector, weight vector) pairs are inserted as pending predictions.
An assistant engine executes pending entries during stall cycles, but only
when every operand block is already resident, so it never generates memory
traffic.  A later instruction that decodes a completed pair consumes the
stored result instead of accessing the cache.

The same table stages computations assigned by other SMs (the forwarding
scheme); assigned work is definite, takes priority over speculation, and is
bounced back to its source instead of being dropped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

SPECULATIVE = 0
ASSIGNED = 1


def predictor(geom):
    """The prediction rule for one layer: a function of (input_addr,
    weight_addr) that returns the future pairs of the input row at
    input_addr as its window moves down, for the op that just multiplied it
    with the filter row at weight_addr.

    Every downward move of the window by one output row drops the row's
    position inside the window by `stride`, so the input vector meets the
    weight row `stride` entries above the current one; the walk stops at the
    top of the filter or at the last output row.  Returned pairs are genuine
    future ops of the layer.  The layer's constants are read once here, not
    on every call.
    """
    layer = geom.layer
    s = layer.stride
    filter_h = layer.filter_h
    last_row = layer.out_h - 1
    w_row = geom.weight.row_stride
    w_base = geom.weight.base_address
    i_base = geom.input.base_address
    i_channel = geom.input.channel_stride
    i_row = geom.input.row_stride
    step = s * w_row

    def predict_pairs(input_addr, weight_addr):
        j = ((weight_addr - w_base) // w_row) % filter_h
        base_row = ((input_addr - i_base) % i_channel) // i_row - j
        if j < s or base_row % s:
            return []
        # k = 1, 2, ... while the weight row j - k*s exists and the output
        # row base_row/s + k is still in the layer
        moves = min(j // s, last_row - base_row // s)
        pairs = []
        for k in range(1, moves + 1):
            pairs.append((input_addr, weight_addr - k * step))
        return pairs

    return predict_pairs


@dataclass(slots=True)
class PrecomputeEntry:
    key: tuple           # (input_vec_addr, weight_vec_addr)
    blocks: tuple        # the pair's operand blocks (workload.operand_blocks)
    kind: int            # SPECULATIVE or ASSIGNED
    seq: int
    complete: bool = False
    result: object = None
    absent: int = 0      # bit k: blocks[k] not resident; -1: entry removed
    op: int = -1         # forwarded op's stream index (assigned entries only)
    src_sm: int = -1     # requesting SM     (assigned entries only)


class PrecomputeTable:
    """Fixed-capacity memo table, FIFO eviction by insertion order."""

    def __init__(self, capacity, absent_fn):
        self.capacity = capacity
        # (blocks, now) -> int, bit k set when blocks[k] is not installed and
        # landed at cycle now; no cache side effects
        self.absent_fn = absent_fn
        self.entries = {}               # key -> entry
        self.spec_order = {}            # seq -> entry, insertion ordered
        self.assigned_order = {}        # seq -> entry, insertion ordered
        # block -> {seq: entry}, for the entries whose operand residency
        # still matters: pending speculation and assigned work
        self.by_block = {}
        self.eligible_heap = []         # seqs of speculative entries, lazy
        self.seq = 0
        # counters
        self.lookups = 0
        self.hits = 0
        self.pendings = 0
        self.inserts = 0
        self.duplicates = 0
        self.evictions = 0
        self.purged = 0
        self.accesses = 0

    def __len__(self):
        return len(self.entries)

    def _index(self, entry):
        for b in entry.blocks:
            bucket = self.by_block.get(b)
            if bucket is None:
                self.by_block[b] = {entry.seq: entry}
            else:
                bucket[entry.seq] = entry

    def _remove(self, entry):
        del self.entries[entry.key]
        self.spec_order.pop(entry.seq, None)
        self.assigned_order.pop(entry.seq, None)
        for b in entry.blocks:
            bucket = self.by_block.get(b)
            if bucket is not None:
                bucket.pop(entry.seq, None)
                if not bucket:
                    del self.by_block[b]
        entry.absent = -1  # invalidates any stale heap reference

    def lookup(self, key):
        """Decode-time lookup for the SM's own instruction.

        hit      -> entry consumed, stored result returned
        pending  -> entry invalidated (the prediction lost the race)
        absent   -> no change
        Assigned entries belong to other SMs' instructions and are never
        matched here.
        """
        self.lookups += 1
        self.accesses += 1
        entry = self.entries.get(key)
        if entry is None or entry.kind != SPECULATIVE:
            return "absent", None
        if entry.complete:
            self.hits += 1
            self._remove(entry)
            return "hit", entry.result
        self.pendings += 1
        self._remove(entry)
        return "pending", None

    def insert_prediction(self, key, blocks, now):
        """Queue a predicted pair, which reads `blocks`, at cycle now.
        Returns accepted | duplicate | rejected."""
        self.accesses += 1
        entries = self.entries
        if key in entries:
            self.duplicates += 1
            return "duplicate"
        if len(entries) >= self.capacity and not self._evict_oldest_spec():
            return "rejected"
        seq = self.seq
        self.seq = seq + 1
        absent = self.absent_fn(blocks, now)
        entry = PrecomputeEntry(key, blocks, SPECULATIVE, seq, False, None,
                                absent)
        entries[key] = entry
        self.spec_order[seq] = entry
        by_block = self.by_block
        for b in blocks:            # as _index does
            bucket = by_block.get(b)
            if bucket is None:
                by_block[b] = {seq: entry}
            else:
                bucket[seq] = entry
        if not absent:
            heapq.heappush(self.eligible_heap, seq)
        self.inserts += 1
        return "accepted"

    def stage_assigned(self, key, blocks, op, src_sm):
        """Stage op `op` (its stream index), which reads `blocks`, forwarded
        from src_sm; the caller has checked that every block is resident.

        Returns (status, payload): ("memo", result) when a completed
        speculative entry already holds the answer, ("staged", entry) when a
        pending work item was created, ("full", None) when the table is
        saturated with assigned work and the op must bounce."""
        self.accesses += 1
        existing = self.entries.get(key)
        if existing is not None and existing.kind == SPECULATIVE:
            if existing.complete:
                self.hits += 1
                self._remove(existing)
                return "memo", existing.result
            self._remove(existing)  # replaced by the definite request
        if len(self.entries) >= self.capacity and not self._evict_oldest_spec():
            return "full", None
        entry = PrecomputeEntry(key, blocks, ASSIGNED, self.seq,
                                op=op, src_sm=src_sm)
        self.seq += 1
        self.entries[key] = entry
        self.assigned_order[entry.seq] = entry
        self._index(entry)
        self.inserts += 1
        return "staged", entry

    def _evict_oldest_spec(self):
        if not self.spec_order:
            return False
        seq = next(iter(self.spec_order))
        self._remove(self.spec_order[seq])
        self.evictions += 1
        return True

    def next_assist(self):
        """Oldest runnable work item: assigned first, then eligible speculation."""
        if self.assigned_order:
            return next(iter(self.assigned_order.values()))
        heap = self.eligible_heap
        spec_order = self.spec_order
        while heap:
            entry = spec_order.get(heap[0])
            if entry is None or entry.complete or entry.absent:
                heapq.heappop(heap)
            else:
                return entry
        return None

    def finish(self, entry, result):
        """Assistant completion."""
        self.accesses += 1
        if entry.kind == ASSIGNED:
            self._remove(entry)
            return
        entry.complete = True
        entry.result = result
        # a computed result no longer waits on its operands, and block events
        # would only revisit it; the bucket scans skip it from here on
        by_block = self.by_block
        seq = entry.seq
        for b in entry.blocks:
            bucket = by_block.get(b)
            if bucket is not None:
                bucket.pop(seq, None)
                if not bucket:
                    del by_block[b]

    def block_installed(self, block):
        bucket = self.by_block.get(block)
        if not bucket:
            return
        heap = self.eligible_heap
        for entry in bucket.values():
            bit = 1 << entry.blocks.index(block)
            absent = entry.absent
            if absent & bit:
                entry.absent = absent = absent ^ bit
                # a bucket never holds a complete entry (see finish)
                if not absent and entry.kind == SPECULATIVE:
                    heapq.heappush(heap, entry.seq)

    def block_evicted(self, block):
        """Returns assigned entries displaced by the eviction (to bounce)."""
        bucket = self.by_block.get(block)
        if not bucket:
            return []
        bounced = []
        for entry in bucket.values():
            entry.absent |= 1 << entry.blocks.index(block)
            if entry.kind == ASSIGNED:
                bounced.append(entry)
        for entry in bounced:
            self._remove(entry)
        return bounced

    def purge(self, fraction):
        """Drop the oldest fraction of speculative entries, pending or complete.

        Keeps mispredictions from pinning the table between layer phases."""
        n = int(len(self.spec_order) * fraction)
        for seq in list(self.spec_order)[:n]:
            self._remove(self.spec_order[seq])
        self.purged += n
        if n:
            self.accesses += n
        return n

    def flush(self):
        """Layer boundary: drop everything speculative; assigned work must
        already be drained."""
        assert not self.assigned_order, "assigned work dropped at flush"
        self.entries.clear()
        self.spec_order.clear()
        self.by_block.clear()
        self.eligible_heap.clear()
