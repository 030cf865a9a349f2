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
from dataclasses import dataclass
from itertools import islice

from .workload import operand_blocks

SPECULATIVE = 0
ASSIGNED = 1


def predictor(geom, block_mask):
    """The prediction rule for one layer: a function of (input_addr,
    weight_addr) that returns the future pairs of the input row at
    input_addr as its window moves down, for the op that just multiplied it
    with the filter row at weight_addr, each as (pair, blocks) with the
    pair's operand blocks (`workload.operand_blocks` under `block_mask`).

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
        if j < s:
            return ()
        # the op's input row is its window's top row plus j: base_row = oy*s
        base_row = ((input_addr - i_base) % i_channel) // i_row - j
        # k = 1, 2, ... while the weight row j - k*s exists and the output
        # row base_row/s + k is still in the layer
        moves = min(j // s, last_row - base_row // s)
        items = []
        for k in range(1, moves + 1):
            w = weight_addr - k * step
            items.append(((input_addr, w),
                          operand_blocks(input_addr, w, block_mask)))
        return items

    return predict_pairs


@dataclass(slots=True)
class PrecomputeEntry:
    key: tuple           # (input_vec_addr, weight_vec_addr)
    blocks: tuple        # the pair's operand blocks (workload.operand_blocks)
    kind: int            # SPECULATIVE or ASSIGNED
    seq: int             # the table's `inserts` count when it was made
    absent: int = 0      # bit k: blocks[k] not resident; -1: entry removed
    complete: bool = False
    result: object = None
    op: int = -1         # forwarded op's stream index (assigned entries only)
    src_sm: int = -1     # requesting SM     (assigned entries only)


class PrecomputeTable:
    """Fixed-capacity memo table of SM sm_id, FIFO eviction by insertion
    order.

    `l1` answers for sm_id's L1 (`MemoryHierarchy` does):
    absent_for_compute(sm_id, blocks, now) sets bit k when blocks[k] is not
    installed or has not landed at now.  An entry's bit k of `absent` is set
    at insertion from it, then cleared when the same L1 installs blocks[k]
    (`block_installed`) and set when it evicts it (`block_evicted`).
    """

    def __init__(self, capacity, l1, sm_id):
        self.capacity = capacity
        self.l1 = l1
        self.sm_id = sm_id
        # key -> entry, each in insertion order, so the first of each is its
        # oldest.  Lookups match speculative entries only; assigned work
        # belongs to other SMs' instructions.
        self.speculative = {}
        self.assigned = {}
        # block -> {seq: entry}, for the entries whose operand residency
        # still matters: assigned work and pending speculation
        self.by_block = {}
        # (seq, entry) of speculative entries that were eligible when
        # pushed; removed, complete and ineligible ones are dropped lazily
        self.eligible_heap = []
        # counters
        self.lookups = 0
        self.pendings = 0
        self.inserts = 0
        self.duplicates = 0
        self.evictions = 0
        self.purged = 0
        self.accesses = 0

    def __len__(self):
        return len(self.speculative) + len(self.assigned)

    def _index(self, entry):
        by_block = self.by_block
        for b in entry.blocks:
            bucket = by_block.get(b)
            if bucket is None:
                by_block[b] = {entry.seq: entry}
            else:
                bucket[entry.seq] = entry

    def _unindex(self, entry):
        by_block = self.by_block
        for b in entry.blocks:
            # an indexed entry sits in the bucket of each of its blocks
            bucket = by_block[b]
            del bucket[entry.seq]
            if not bucket:
                del by_block[b]

    def _remove(self, entry):
        if entry.kind == SPECULATIVE:
            del self.speculative[entry.key]
        else:
            del self.assigned[entry.key]
        if not entry.complete:  # a complete entry is in no bucket
            self._unindex(entry)
        entry.absent = -1  # invalidates any stale heap reference

    def lookup(self, key):
        """Decode-time lookup for the SM's own instruction: the stored
        result of a completed prediction of key, which is consumed, or None.
        A pending prediction of key lost the race and is invalidated.
        Assigned entries belong to other SMs' instructions and are never
        matched here.
        """
        self.lookups += 1
        self.accesses += 1
        entry = self.speculative.get(key)
        if entry is None:
            return None
        self._remove(entry)
        if entry.complete:
            return entry.result
        self.pendings += 1
        return None

    def insert_predictions(self, items, now):
        """Queue predicted (key, blocks) items at cycle now, in order.  An
        item whose key is in the table is a duplicate, and one that finds
        the table full of assigned work is rejected.  Returns the number
        accepted.  Residency is asked for each entry's blocks just before
        the entry is made, so never for a duplicate or a rejected item."""
        if not items:
            return 0
        self.accesses += len(items)
        absent_for_compute = self.l1.absent_for_compute
        sm_id = self.sm_id
        spec = self.speculative
        assigned = self.assigned
        capacity = self.capacity
        heap = self.eligible_heap
        first = seq = self.inserts
        for key, blocks in items:
            if key in spec or key in assigned:
                self.duplicates += 1
            elif len(spec) + len(assigned) < capacity or \
                    self._evict_oldest_spec():
                absent = absent_for_compute(sm_id, blocks, now)
                entry = PrecomputeEntry(key, blocks, SPECULATIVE, seq, absent)
                spec[key] = entry
                self._index(entry)
                if not absent:
                    heapq.heappush(heap, (seq, entry))
                seq += 1
        self.inserts = seq
        return seq - first

    def stage_assigned(self, key, blocks, op, src_sm):
        """Stage op `op` (its stream index), which reads `blocks`, forwarded
        from src_sm; the caller has checked that every block is resident.

        Returns (status, payload): ("memo", result) when a completed
        speculative entry already holds the answer, ("staged", entry) when a
        pending work item was created, ("full", None) when the table is
        saturated with assigned work or already stages key, and the op must
        bounce."""
        self.accesses += 1
        existing = self.speculative.get(key)
        if existing is not None:
            self._remove(existing)  # answered, or replaced by the request
            if existing.complete:
                return "memo", existing.result
        if key in self.assigned or (len(self) >= self.capacity
                                    and not self._evict_oldest_spec()):
            return "full", None
        entry = PrecomputeEntry(key, blocks, ASSIGNED, self.inserts,
                                op=op, src_sm=src_sm)
        self.inserts += 1
        self.assigned[key] = entry
        self._index(entry)  # an eviction of its blocks bounces it
        return "staged", entry

    def _evict_oldest_spec(self):
        spec = self.speculative
        if not spec:
            return False
        self._remove(next(iter(spec.values())))
        self.evictions += 1
        return True

    def next_assist(self):
        """Oldest runnable work item: assigned first, then eligible speculation."""
        if self.assigned:
            return next(iter(self.assigned.values()))
        heap = self.eligible_heap
        while heap:
            entry = heap[0][1]
            # a removed entry's absent is -1
            if not entry.absent and not entry.complete:
                return entry
            heapq.heappop(heap)
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
        # would only revisit it; next_assist drops it from the heap
        self._unindex(entry)

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
                # a bucket never holds a complete entry (see finish), nor an
                # assigned one with a bit set: it is staged resident and
                # leaves at the first eviction of one of its blocks
                if not absent:
                    heapq.heappush(heap, (entry.seq, entry))

    def block_evicted(self, block):
        """Returns assigned entries displaced by the eviction (to bounce)."""
        bucket = self.by_block.get(block)
        if not bucket:
            return ()
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
        spec = self.speculative
        n = int(len(spec) * fraction)
        for entry in list(islice(spec.values(), n)):
            self._remove(entry)
        self.purged += n
        self.accesses += n
        return n
