"""Cycle-approximate many-core engine.

Each SM issues one vector-MAC instruction at a time (issue occupancy is
warp_size / simt_width cycles) from its warps under greedy-then-oldest
scheduling: it stays on the warp that last issued while that warp is
ready, and otherwise takes the oldest ready warp.  A warp blocks on its own
L1 miss; once a fill is requested the data is delivered to the warp at the
ready cycle even if the block is evicted again meanwhile, so execution never
replays the access.

A simulation takes a layer's OpStream and cuts it into warps itself, with
its own warp size and SM count (`workload.map_to_warps`), so the warps always
fit the machine that runs them.  A warp is a range of the stream and issues
its ops in index order; an op is named by its stream index wherever it goes,
including the payloads of forwarded and bounced computations.

Scheme hooks sit on the decode path, in this order: a precompute lookup may
retire the instruction from a memoized result (1 cycle), an L1 miss may hand
the whole computation to the SM that owns the data (fire and forget,
1 cycle), otherwise the warp waits for its fills and then executes.  During
cycles with no ready warp an assistant engine executes staged table work,
one computation at a time, without generating memory traffic.

Simulated time advances event to event.  Each SM runs as a coroutine that
is sent the cycle of its wakeup, steps once and yields the cycle it next
needs to act: its issue slot frees, a blocked warp's fill lands, its
assistant finishes or a purge falls due.  Its scheduling state lives in the
coroutine's locals, so a wakeup costs one resumed Python frame.  A min-heap
of packed (cycle, SM id) ints holds the wakeups; a forwarded or bounced
computation arriving for an SM re-arms it at the arrival cycle, stale heap
entries are skipped when popped, and the SMs due at one cycle step in
ascending id order.  An SM's state holds until its next step, so its stall
or assist cycles are charged when it next steps, and once more when the run
ends and its coroutine is closed.

An SM is not woken when its step could change nothing.  After a blocked
issue at cycle t the SM is busy through t + 1.  If at that point no warp is
ready, no blocked warp wakes by t + 1, no assist is in flight and the table
has no assist to start, the step at t + 1 would only stall the SM.  The SM
takes the STALLED state from t + 1 and next wakes when its first blocked
warp wakes, or at the next purge if that comes first.  With an assist in
flight or one to start, it steps at t + 1, where the no-ready-warp branch
takes the ASSIST state.

A run ends once its last op has retired and left the issue slot.  A
speculative assist still in flight then computes a result nothing reads,
so the run does not wait for it; its SM's assist cycles are charged up to
the final cycle.  A run that ends with a retirement count other than its
op count raises a `SimulationError` naming the layer and the scheme.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter

from . import intra as intra_mod
from . import inter as inter_mod
from .cachehier import CacheGeometry, MemoryHierarchy
from .metrics import SimStats
from .workload import ConfigError, check_knobs, knob, map_to_warps, operand_blocks

INF = float("inf")

# the run watchdog: a run that retires nothing for this many times its
# longest single wait (`Simulation.idle_limit`) has stopped
IDLE_WAITS = 100

# per-step SM states
BUSY, ASSIST, STALLED, IDLE = range(4)


class SimulationError(RuntimeError):
    pass


class OutputBuffer:
    """Global accumulation buffer; adds are atomic in the modeled machine,
    so arrival order never changes an integer result.  Every op retires
    with exactly one add, so `adds` is the count of retired ops."""

    def __init__(self):
        self.values = {}
        self.adds = 0

    def add(self, addr, value):
        self.values[addr] = self.values.get(addr, 0) + value
        self.adds += 1


@dataclass(slots=True, eq=False)
class WarpContext:
    """A warp's place in its op range.  `pending_blocks` holds the operand
    blocks of the op at `pc` exactly while that op has blocked on the miss
    path and not yet executed, and is None otherwise."""

    age: int                 # launch stamp (the warp id); smaller is older
    pc: int                  # stream index of the next op to issue
    end: int                 # one past the warp's last op
    pending_blocks: tuple | None = None  # execute on next issue


_age = attrgetter("age")


SCHEMES = ("baseline", "intra", "inter", "both")

# the cli's l1.* and l2.* keys take their defaults from these
DEFAULT_L1 = CacheGeometry(16 * 1024, 32, 4)
DEFAULT_L2 = CacheGeometry(64 * 1024, 64, 8)


@dataclass
class SimParams:
    """Hardware and scheme knobs for one simulation run.

    Each knob field is the one declaration of its config key, default and
    bounds; `cli` derives its defaults, validation and echo from them."""

    sm_count: int = knob("sm.count", 56, lo=1)
    warp_size: int = knob("sm.warp_size", 32, lo=1)
    simt_width: int = knob("sm.simt_width", 8, lo=1)
    l1: CacheGeometry = DEFAULT_L1
    l2: CacheGeometry = DEFAULT_L2
    mc_count: int = knob("mem.mcs", 8, lo=1)
    mesh_w: int = knob("noc.mesh_w", 8, lo=1)
    mesh_h: int = knob("noc.mesh_h", 8, lo=1)
    flit_bytes: int = knob("noc.flit_bytes", 16, lo=1)
    hop_cycles: int = knob("noc.hop_cycles", 1, lo=0)
    pipeline_stages: int = knob("noc.pipeline_stages", 2, lo=0)
    # not charged on an L1 hit: the floor of a blocked op's wait and of a
    # bounced op's ready cycle, below any fill's round trip by default
    lat_l1: int = knob("lat.l1", 1, lo=0)
    lat_l2: int = knob("lat.l2", 30, lo=0)
    lat_dram: int = knob("lat.dram", 120, lo=0)
    scheme: str = knob(None, "baseline", choices=SCHEMES)
    pc_entries: int = knob("intra.table_entries", 256, lo=1)
    assist_latency: int = knob("intra.assist_latency", 4, lo=0)
    # a zero period never advances the next purge, so the run would hang
    purge_period: int = knob("intra.purge_period", 10000, lo=1)
    purge_fraction: float = knob("intra.purge_fraction", 0.25, lo=0.0, hi=1.0)
    at_entries: int = knob("inter.table_entries", 512, lo=1)
    clusters: int = knob("inter.clusters", 8, lo=1)
    forward_latency: int = knob("inter.forward_latency", 8, lo=0)

    def __post_init__(self):
        check_knobs(self)
        if self.sm_count + self.mc_count > self.mesh_w * self.mesh_h:
            raise ConfigError(
                f"sm.count = {self.sm_count} plus mem.mcs = {self.mc_count} "
                f"nodes do not fit the noc.mesh_w/h = {self.mesh_w}x"
                f"{self.mesh_h} mesh")
        if self.l1.block_size != self.l2.block_size:
            raise ConfigError("L1 and L2 block sizes must match")
        if self.warp_size % self.simt_width:
            raise ConfigError("sm.warp_size must be a multiple of sm.simt_width")
        if self.scheme in ("inter", "both"):
            # cluster_map rejects clusters of more than eight SMs; a cluster
            # that it leaves without SMs would still be charged as a table
            used = len(set(inter_mod.cluster_map(self.sm_count, self.clusters)))
            if used < self.clusters:
                raise ConfigError(
                    f"inter.clusters = {self.clusters} on {self.sm_count} SMs "
                    f"leaves {self.clusters - used} of them empty")

    @property
    def issue_cost(self):
        return self.warp_size // self.simt_width


class Simulation:
    def __init__(self, params, ops, image, geom):
        self.params = params
        self.ops = ops
        self.image = image
        image.check_reads(ops)
        self.dot = image.products(ops)
        self.speculate = params.scheme in ("intra", "both")
        self.forwarding = params.scheme in ("inter", "both")
        p = params
        self.hier = MemoryHierarchy(p)
        self.block_mask = ~(p.l1.block_size - 1)

        self.warps = [[] for _ in range(p.sm_count)]
        for warp_id, (sm_id, start, end) in enumerate(
                map_to_warps(ops, p.warp_size, p.sm_count)):
            self.warps[sm_id].append(WarpContext(warp_id, start, end))

        self.stats = SimStats(scheme=p.scheme, total_ops=len(ops),
                              stall_cycles_per_sm=[0] * p.sm_count)
        self.out = OutputBuffer()

        use_tables = self.speculate or self.forwarding
        if use_tables:
            self.tables = [intra_mod.PrecomputeTable(p.pc_entries, self.hier,
                                                     sm_id)
                           for sm_id in range(p.sm_count)]
        else:
            self.tables = [None] * p.sm_count
        self.predict = (intra_mod.predictor(geom, self.block_mask)
                        if self.speculate else None)
        if self.forwarding:
            self.cluster_of = inter_mod.cluster_map(p.sm_count, p.clusters)
            self.assign_tables = [inter_mod.AssignTable(c, p.at_entries)
                                  for c in range(p.clusters)]
        else:
            self.cluster_of = None
            self.assign_tables = []
        # energy accounting: the per-SM memo array is powered only when
        # speculation is on; inter-only staging needs a handful of registers
        # that ride on the cluster table's budget
        self.stats.table_instances = (p.sm_count if self.speculate else 0) + \
                                     (p.clusters if self.forwarding else 0)

        if use_tables:
            # an install can only clear the absent bit of a speculative
            # entry: assigned entries are staged resident and leave the
            # table when one of their blocks is evicted
            for sm_id, table in enumerate(self.tables):
                self.hier.set_listeners(
                    sm_id, table.block_installed if self.speculate else None,
                    self._evict_listener(sm_id))

        self.events = []     # (cycle, seq, handler, dest_sm, payload)
        self.event_seq = 0
        # heap of cycle << sm_bits | sm_id: one int per (cycle, SM), ordered
        # by cycle, then SM id.  armed[sm_id] is the key the SM is due at;
        # a popped key that differs from it is stale and skipped.
        # every SM steps at cycle 0; a sorted list is already a heap
        self.wakeups = list(range(p.sm_count))
        self.sm_bits = p.sm_count.bit_length()
        self.armed = list(range(p.sm_count))
        self.now = 0
        self.max_busy_until = 0

    # ---- listeners -------------------------------------------------------

    def _evict_listener(self, sm_id):
        """What sm_id's L1 calls with each block it evicts."""
        block_evicted = self.tables[sm_id].block_evicted
        if not self.forwarding:
            # only assigned entries bounce, and only forwarding assigns
            return block_evicted
        at_evict = self.assign_tables[self.cluster_of[sm_id]].on_evict

        def on_evict(block):
            for entry in block_evicted(block):
                self._bounce(entry.op, entry.src_sm, sm_id, self.now)
            at_evict(block, sm_id)
        return on_evict

    # ---- events ----------------------------------------------------------

    def _schedule(self, cycle, handler, dest, payload):
        """Call handler(dest, payload, cycle) at `cycle`, then wake SM dest."""
        heapq.heappush(self.events, (cycle, self.event_seq, handler, dest, payload))
        self.event_seq += 1

    def _forward(self, sm_id, owner, i, n_missing, now):
        """Hand op i to the SM that owns its operand blocks."""
        stats = self.stats
        stats.forwards += 1
        stats.fills_avoided += n_missing
        self.hier.charge_message(sm_id, owner)
        self._schedule(now + self.params.forward_latency,
                       self._forward_arrival, owner, (i, sm_id))

    def _forward_arrival(self, owner, msg, now):
        i, src = msg
        key = (self.ops.inp[i], self.ops.wgt[i])
        blocks = operand_blocks(key[0], key[1], self.block_mask)
        if self.hier.absent_for_compute(owner, blocks, now):
            self._bounce(i, src, owner, now)
            return
        table = self.tables[owner]
        status, payload = table.stage_assigned(key, blocks, i, src)
        if status == "memo":
            self.stats.forward_memo_hits += 1
            self._assigned_done(table, i, key, payload, now)
        elif status == "full":
            self._bounce(i, src, owner, now)

    def _bounce(self, i, src, owner, now):
        self.stats.bounces += 1
        self.hier.charge_message(owner, src)
        self._schedule(now + self.params.forward_latency,
                       self._bounce_arrival, src, i)

    def _bounce_arrival(self, src, i, now):
        """Returned computation: the source fetches what is missing and
        executes out of band (its warp already moved on)."""
        hier = self.hier
        ready = now + self.params.lat_l1
        # block by block, each miss filled before the next lookup, unlike the
        # issue path; tests/counter_fingerprints.json pins this order
        for block in operand_blocks(self.ops.inp[i], self.ops.wgt[i],
                                    self.block_mask):
            missing, wait = hier.lookup(src, (block,), now)
            if missing:
                wait = hier.fill(src, block, now)
            if wait > ready:
                ready = wait
        self._schedule(ready, self._bounce_finish, src, i)

    def _bounce_finish(self, src, i, now):
        ops = self.ops
        value = self.dot(ops.inp[i], ops.wgt[i])
        self.out.add(ops.out[i], value)
        self.stats.normal_done += 1
        # only forwarding bounces
        self._register_pair(
            src, operand_blocks(ops.inp[i], ops.wgt[i], self.block_mask))

    def _register_pair(self, sm_id, blocks):
        """Name sm_id the owner of an op's operand blocks if it still holds
        them all, landed or not."""
        if not self.hier.absent_for_compute(sm_id, blocks, INF):
            self.assign_tables[self.cluster_of[sm_id]].register(blocks, sm_id)

    # ---- table work off the common path ----------------------------------

    def _insert_predictions(self, table, input_addr, weight_addr, now):
        """Queue in table the predicted pairs of the op that just multiplied
        input_addr by weight_addr."""
        self.stats.predictions_made += table.insert_predictions(
            self.predict(input_addr, weight_addr), now)

    def _assigned_done(self, table, i, key, value, now):
        """Op i, forwarded by another SM and reading the pair key, retired
        on table's SM with value."""
        self.out.add(self.ops.out[i], value)
        self.stats.assigned_done += 1
        if self.speculate:
            self._insert_predictions(table, key[0], key[1], now)

    # ---- one SM ----------------------------------------------------------

    def _sm(self, sm_id):
        """Coroutine of one SM: sent the cycle of each wakeup, it steps the SM
        once and yields the cycle it must next be woken at (INF: only an
        arriving computation can give it work).  Closing it charges the
        state it holds up to the final cycle of the run."""
        warps = self.warps[sm_id]
        table = self.tables[sm_id]
        stats = self.stats
        stall = stats.stall_cycles_per_sm
        add = self.out.add
        hier = self.hier
        lookup_blocks = hier.lookup
        fill = hier.fill
        holders = hier.holders
        dot = self.dot
        inp, wgt, out_addr = self.ops.inp, self.ops.wgt, self.ops.out
        p = self.params
        issue_cost = p.issue_cost
        lat_l1 = p.lat_l1
        assist_latency = p.assist_latency
        purge_period = p.purge_period
        purge_fraction = p.purge_fraction
        block_mask = self.block_mask
        speculate = self.speculate
        insert_predictions = self._insert_predictions
        heappush = heapq.heappush
        heappop = heapq.heappop
        if table is not None:
            lookup = table.lookup
            next_assist = table.next_assist
        forwarding = self.forwarding
        if forwarding:
            assign_table = self.assign_tables[self.cluster_of[sm_id]]

        ready = list(warps)   # neither blocked nor finished
        blocked = []          # heap of (wake cycle, age, warp)
        last = None           # last warp that issued without blocking
        busy_until = 0
        assist_entry = None
        assist_until = INF
        next_purge = purge_period if speculate else INF
        state = IDLE if not warps else STALLED
        since = 0             # cycle the current state began
        nxt = 0
        try:
            while True:
                now = yield nxt

                if state == STALLED:
                    stall[sm_id] += now - since
                elif state == ASSIST:
                    stats.assist_cycles += now - since
                since = now

                if assist_until <= now:
                    entry = assist_entry
                    assist_entry = None
                    assist_until = INF
                    # absent -1: removed (bounced or invalidated) mid-flight
                    if entry.absent != -1:
                        value = dot(*entry.key)
                        table.finish(entry, value)
                        stats.assists_executed += 1
                        if entry.kind == intra_mod.ASSIGNED:
                            self._assigned_done(table, entry.op, entry.key,
                                                value, now)
                if now >= next_purge:
                    table.purge(purge_fraction)
                    while next_purge <= now:
                        next_purge += purge_period
                while blocked and blocked[0][0] <= now:
                    ready.append(heappop(blocked)[2])

                if busy_until > now:
                    state = BUSY
                    nxt = busy_until
                elif ready:
                    # greedy-then-oldest
                    warp = last if last in ready else min(ready, key=_age)
                    i = warp.pc
                    ia = inp[i]
                    wa = wgt[i]
                    cost = issue_cost
                    # an op that blocked on the miss path executes now
                    missed = warp.pending_blocks
                    execute = missed is not None
                    if execute:
                        warp.pending_blocks = None
                    else:
                        result = lookup((ia, wa)) if speculate else None
                        if result is not None:
                            add(out_addr[i], result)
                            stats.predicted_used += 1
                            cost = 1
                        else:
                            blocks = operand_blocks(ia, wa, block_mask)
                            missing, wait = lookup_blocks(sm_id, blocks, now)
                            if not missing and not wait:
                                execute = True
                            else:
                                if missing:
                                    stats.probe_misses += len(missing)
                                    # this SM just missed them, so any
                                    # holder is another SM
                                    for b in missing:
                                        if b in holders:
                                            stats.probe_found_elsewhere += 1
                                owner = None
                                if missing and forwarding:
                                    # a cluster peer that holds the blocks
                                    owner = assign_table.lookup(blocks)
                                if owner is not None:
                                    self._forward(sm_id, owner, i,
                                                  len(missing), now)
                                    cost = 1
                                else:
                                    # block until the operands land
                                    until = now + lat_l1
                                    for b in missing:
                                        filled = fill(sm_id, b, now)
                                        if filled > until:
                                            until = filled
                                    if wait > until:
                                        until = wait
                                    warp.pending_blocks = blocks
                                    ready.remove(warp)
                                    heappush(blocked, (until, warp.age, warp))
                                    cost = 0
                    if execute:
                        add(out_addr[i], dot(ia, wa))
                        stats.normal_done += 1
                        if missed and forwarding:
                            self._register_pair(sm_id, missed)
                        if speculate:
                            insert_predictions(table, ia, wa, now)
                    state = BUSY
                    if cost:
                        # the op retired: memoized, forwarded or executed
                        i += 1
                        warp.pc = i
                        if i == warp.end:
                            ready.remove(warp)
                        last = warp
                        busy_until = nxt = now + cost
                    else:
                        # a blocked attempt holds issue for one cycle
                        busy_until = nxt = now + 1
                        if not ready and blocked[0][0] > nxt and \
                                assist_until == INF and \
                                (table is None or next_assist() is None):
                            # the step at now + 1 would only take the
                            # STALLED state; with an assist in flight or one
                            # to start, the SM steps then and the
                            # no-ready-warp branch takes ASSIST
                            state = STALLED
                            since = nxt
                            nxt = blocked[0][0]
                    if busy_until > self.max_busy_until:
                        self.max_busy_until = busy_until
                else:
                    if assist_until == INF and table is not None:
                        entry = next_assist()
                        if entry is not None:
                            assist_entry = entry
                            assist_until = now + assist_latency
                    if assist_until != INF:
                        state = ASSIST
                        # zero latency finishes at once; step again next cycle
                        nxt = assist_until if assist_until > now else now + 1
                    else:
                        # no ready warp: any unfinished warp is blocked
                        state = STALLED if blocked else IDLE
                        nxt = blocked[0][0] if blocked else INF
                if next_purge < nxt:
                    nxt = next_purge
        except GeneratorExit:
            now = self.now
            if state == STALLED:
                stall[sm_id] += now - since
            elif state == ASSIST:
                stats.assist_cycles += now - since

    # ---- main loop -------------------------------------------------------

    @property
    def idle_limit(self):
        """The watchdog's threshold: `IDLE_WAITS` times the longest of one
        issue, one DRAM fill over the longest round trip, one assist, one
        forward and one purge period (1,000,000 cycles by default)."""
        p = self.params
        fill = (p.lat_l1 + max(map(max, self.hier.rt_latency)) + p.lat_l2
                + p.lat_dram)
        return IDLE_WAITS * max(p.issue_cost, fill, p.assist_latency,
                                p.forward_latency, p.purge_period)

    def run(self):
        stats = self.stats
        events = self.events
        wakeups = self.wakeups
        armed = self.armed
        bits = self.sm_bits
        sm_mask = (1 << bits) - 1
        heappop = heapq.heappop
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        out = self.out
        total_ops = stats.total_ops
        sms = [self._sm(sm_id) for sm_id in range(self.params.sm_count)]
        for sm in sms:
            next(sm)
        steps = [sm.send for sm in sms]
        now = 0
        last_progress_count = -1
        last_progress_cycle = 0
        idle_limit = self.idle_limit
        while True:
            self.now = now
            # deliver the events due now, each waking its SM at now
            while events and events[0][0] <= now:
                _, _, handler, dest, payload = heappop(events)
                handler(dest, payload, now)
                key = now << bits | dest
                if armed[dest] != key:
                    armed[dest] = key
                    heappush(wakeups, key)
            # heap order steps the SMs due now in ascending id order; an SM
            # re-arms strictly after now, so no SM steps twice in a cycle
            limit = (now + 1) << bits
            while wakeups and wakeups[0] < limit:
                key = wakeups[0]
                sm_id = key & sm_mask
                if armed[sm_id] != key:
                    heappop(wakeups)
                    continue
                # a step adds no wakeup, so its own key is still the first
                nxt = steps[sm_id](now)
                if nxt == INF:
                    armed[sm_id] = -1
                    heappop(wakeups)
                else:
                    key = nxt << bits | sm_id
                    armed[sm_id] = key
                    heapreplace(wakeups, key)
            while wakeups and armed[wakeups[0] & sm_mask] != wakeups[0]:
                heappop(wakeups)
            next_t = wakeups[0] >> bits if wakeups else INF
            if events and events[0][0] < next_t:
                next_t = events[0][0]
            # an op not yet retired is on a warp, in an event or in a table;
            # a speculative assist in flight keeps nothing running
            if not (out.adds < total_ops or self.max_busy_until > now):
                break
            if out.adds != last_progress_count:
                last_progress_count = out.adds
                last_progress_cycle = now
            elif now - last_progress_cycle > idle_limit:
                raise SimulationError(
                    f"no progress since cycle {last_progress_cycle}: "
                    f"{out.adds}/{stats.total_ops} ops retired, "
                    f"{len(events)} events queued")
            if next_t == INF:
                raise SimulationError(
                    f"nothing runnable at cycle {now} with work outstanding "
                    f"({out.adds}/{stats.total_ops} ops retired)")
            if next_t <= now:
                next_t = now + 1
            now = next_t

        stats.total_cycles = now
        for sm in sms:
            sm.close()
        self._collect(stats)
        if stats.retired() != stats.total_ops:
            raise SimulationError(
                f"{self.image.name}/{self.params.scheme}: {stats.retired()} "
                f"retirements for {stats.total_ops} ops")
        return stats, out

    def _collect(self, stats):
        stats.l1_hits = self.hier.l1_hits
        stats.l1_misses = self.hier.l1_misses
        stats.l2_hits = self.hier.l2_hits
        stats.l2_misses = self.hier.l2_misses
        stats.dram_accesses = self.hier.dram_accesses
        stats.noc_flit_hops = self.hier.noc_flit_hops
        tables = [t for t in self.tables if t is not None]
        stats.precompute_accesses = sum(t.accesses for t in tables)
        stats.predictions_invalidated = sum(t.pendings for t in tables)
        stats.predictions_purged = sum(t.purged for t in tables)
        stats.assign_accesses = sum(at.accesses for at in self.assign_tables)


def run_simulation(params, ops, image, geom):
    """Run one layer's OpStream under one scheme; returns (SimStats,
    OutputBuffer)."""
    return Simulation(params, ops, image, geom).run()
