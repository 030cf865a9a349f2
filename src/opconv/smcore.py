"""Cycle-approximate many-core engine.

Each SM issues one vector-MAC instruction at a time (issue occupancy is
warp_size / simt_width cycles) from its warps under greedy-then-oldest
scheduling.  A warp blocks on its own L1 miss; once a fill is requested the
data is delivered to the warp at the ready cycle even if the block is
evicted again meanwhile, so execution never replays the access.

Scheme hooks sit on the decode path, in this order: a precompute lookup may
retire the instruction from a memoized result (1 cycle), an L1 miss may hand
the whole computation to the SM that owns the data (fire and forget,
1 cycle), otherwise the warp waits for its fills and then executes.  During
cycles with no ready warp an assistant engine executes staged table work,
one computation at a time, without generating memory traffic.

Simulated time advances event to event.  A min-heap of (next action cycle,
SM id) wakes each SM only when it has something to do: its issue slot frees,
a blocked warp's fill lands, its assistant finishes, a purge falls due, or a
forwarded or bounced computation arrives for it.  Stale heap entries are
skipped when popped, and the SMs due at one cycle step in ascending id order.
An SM's state holds until its next step, so its stall or assist cycles are
charged lazily when it next steps, and once more at the end of the run.
Loop cost is proportional to SM steps, not to SM count times event count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from . import intra as intra_mod
from . import inter as inter_mod
from .cachehier import CacheGeometry, MemoryHierarchy, NocModel
from .metrics import SimStats
from .workload import ConfigError

INF = float("inf")

# per-step SM states
BUSY, ASSIST, STALLED, IDLE = range(4)

_BLOCKED = -1


class SimulationError(RuntimeError):
    pass


class OutputBuffer:
    """Global accumulation buffer; adds are atomic in the modeled machine,
    so arrival order never changes an integer result."""

    def __init__(self):
        self.values = {}
        self.adds = 0

    def add(self, addr, value):
        self.values[addr] = self.values.get(addr, 0) + value
        self.adds += 1

    def total_adds(self):
        return self.adds


@dataclass(slots=True, eq=False)
class WarpContext:
    warp_id: int
    age: int                 # launch stamp; smaller is older
    ops: list
    pc: int = 0
    blocked_until: int = -1
    exec_pending: bool = False  # operands delivered, execute on next issue
    saw_miss: bool = False      # current op went through the miss path

    def done(self):
        return self.pc >= len(self.ops)


_age = attrgetter("age")


def gto_select(sm):
    """Greedy-then-oldest: stay on the last issued warp while it is ready,
    otherwise pick the ready warp with the smallest age stamp."""
    ready = sm.ready
    if len(ready) < 2:
        return ready[0] if ready else None
    last = sm.last_issued
    if last is not None and not last.done() and last.blocked_until < 0 \
            and last in ready:
        return last
    return min(ready, key=_age)


class SmCore:
    def __init__(self, sm_id, warps):
        self.sm_id = sm_id
        self.warps = warps
        self.ready = list(warps)
        self.blocked = []  # heap of (wake, age); warp looked up by age
        self.by_age = {w.age: w for w in warps}
        self.last_issued = None
        self.busy_until = 0
        self.unfinished = len(warps)
        self.assist_busy_until = None
        self.assist_entry = None
        self.table = None
        self.next_purge = INF  # next precompute-table purge (speculation only)
        self.next_action = 0
        self.state = IDLE if not warps else STALLED
        self.since = 0  # cycle the current state began

    def wake_due(self, now):
        while self.blocked and self.blocked[0][0] <= now:
            _, age = heapq.heappop(self.blocked)
            warp = self.by_age[age]
            warp.blocked_until = -1
            self.ready.append(warp)

    def block_warp(self, warp, until):
        warp.blocked_until = until
        self.ready.remove(warp)
        heapq.heappush(self.blocked, (until, warp.age))

    def retire_warp_op(self, warp):
        """Advance the warp past its current op; True if that finished it."""
        warp.pc += 1
        if not warp.done():
            return False
        self.unfinished -= 1
        self.ready.remove(warp)
        return True

    def next_wake(self):
        return self.blocked[0][0] if self.blocked else INF


@dataclass
class SimParams:
    """Hardware and scheme knobs for one simulation run."""

    sm_count: int = 56
    warp_size: int = 32
    simt_width: int = 8
    l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(16 * 1024, 32, 4))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(64 * 1024, 64, 8))
    mc_count: int = 8
    mesh_w: int = 8
    mesh_h: int = 8
    flit_bytes: int = 16
    hop_cycles: int = 1
    pipeline_stages: int = 2
    lat_l1: int = 1
    lat_l2: int = 30
    lat_dram: int = 120
    scheme: str = "baseline"   # baseline | intra | inter | both
    pc_entries: int = 256
    assist_latency: int = 4
    purge_period: int = 10000
    purge_fraction: float = 0.25
    at_entries: int = 512
    clusters: int = 8
    forward_latency: int = 8
    evict_scope: str = "owner"
    probe_availability: bool = True
    debug_invariants: bool = False
    max_idle_cycles: int = 1_000_000

    def __post_init__(self):
        if self.scheme not in ("baseline", "intra", "inter", "both"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.warp_size % self.simt_width:
            raise ConfigError("warp_size must be a multiple of simt_width")
        if self.evict_scope not in ("owner", "cluster"):
            raise ConfigError("evict_scope must be owner or cluster")
        if not 0.0 <= self.purge_fraction <= 1.0:
            raise ConfigError("purge_fraction must lie in [0, 1]")
        if self.purge_period < 1:
            raise ConfigError("purge_period must be at least 1 cycle")
        for name in ("lat_l1", "lat_l2", "lat_dram", "assist_latency",
                     "forward_latency", "hop_cycles", "pipeline_stages"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative")

    @property
    def issue_cost(self):
        return self.warp_size // self.simt_width


class Simulation:
    def __init__(self, params, programs, image, geom):
        self.params = params
        self.image = image
        self.geom = geom
        self.speculate = params.scheme in ("intra", "both")
        self.forwarding = params.scheme in ("inter", "both")
        p = params
        # read on every issue, so kept off the SimParams property
        self.issue_cost = p.issue_cost
        self.lat_l1 = p.lat_l1
        self.debug_invariants = p.debug_invariants
        self.probe_availability = p.probe_availability
        noc = NocModel(p.mesh_w, p.mesh_h, p.flit_bytes, p.hop_cycles,
                       p.pipeline_stages)
        self.hier = MemoryHierarchy(p.sm_count, p.l1, p.l2, p.mc_count, noc,
                                    (p.lat_l1, p.lat_l2, p.lat_dram))
        self.block_size = p.l1.block_size
        self.block_mask = ~(self.block_size - 1)

        per_sm = [[] for _ in range(p.sm_count)]
        total_ops = 0
        for prog in programs:
            if not 0 <= prog.sm_id < p.sm_count:
                raise ConfigError(f"warp {prog.warp_id} targets SM {prog.sm_id}")
            flat = prog.ops
            total_ops += len(flat)
            if flat:
                per_sm[prog.sm_id].append(WarpContext(prog.warp_id, prog.warp_id, flat))
        self.sms = [SmCore(i, per_sm[i]) for i in range(p.sm_count)]

        self.stats = SimStats(scheme=p.scheme, total_ops=total_ops,
                              stall_cycles_per_sm=[0] * p.sm_count)
        self.out = OutputBuffer()

        use_tables = self.speculate or self.forwarding
        if use_tables:
            for sm in self.sms:
                sm.table = intra_mod.PrecomputeTable(
                    p.pc_entries, self.block_size,
                    self._resident_fn(sm.sm_id))
                if self.speculate:
                    sm.next_purge = p.purge_period
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
            self.hier.add_evict_listener(self._on_evict)
            self.hier.add_install_listener(self._on_install)

        self.events = []     # (cycle, seq, kind, dest_sm, payload)
        self.event_seq = 0
        # heap of next_action << sm_bits | sm_id: one int per (cycle, SM)
        # ordered by cycle, then SM id; stale entries are skipped when popped
        self.wakeups = []
        self.sm_bits = p.sm_count.bit_length()
        self.pending_assigned = 0
        self.pending_bounce_exec = 0
        self.retired = 0
        self.now = 0
        # kept current so that _active() need not scan the SMs
        self.live_warps = sum(sm.unfinished for sm in self.sms)
        self.assists_in_flight = 0
        self.max_busy_until = 0

    # ---- listeners -------------------------------------------------------

    def _resident_fn(self, sm_id):
        return partial(self.hier.resident_for_compute, sm_id)

    def _on_install(self, sm_id, block):
        self.sms[sm_id].table.block_installed(block)

    def _on_evict(self, sm_id, block):
        for entry in self.sms[sm_id].table.block_evicted(block):
            self.pending_assigned -= 1
            self._bounce(entry.op, entry.src_sm, sm_id, self.now)
        if self.forwarding:
            at = self.assign_tables[self.cluster_of[sm_id]]
            at.on_evict(block, sm_id, self.params.evict_scope)

    # ---- events ----------------------------------------------------------

    def _schedule(self, cycle, kind, dest, payload):
        heapq.heappush(self.events, (cycle, self.event_seq, kind, dest, payload))
        self.event_seq += 1

    def _wake(self, sm, cycle):
        sm.next_action = cycle
        heapq.heappush(self.wakeups, cycle << self.sm_bits | sm.sm_id)

    def _deliver_due(self, now):
        events = self.events
        while events and events[0][0] <= now:
            _, _, kind, dest, payload = heapq.heappop(events)
            if kind == "forward":
                self._forward_arrival(dest, payload, now)
            elif kind == "bounce":
                self._bounce_arrival(dest, payload, now)
            elif kind == "bounce_fin":
                self._bounce_finish(dest, payload, now)
            self._wake(self.sms[dest], now)

    def _forward_arrival(self, owner, msg, now):
        op, src = msg
        self.pending_assigned -= 1
        key = (op.input_vec_addr, op.weight_vec_addr)
        table = self.sms[owner].table
        hier = self.hier
        hier.expire_fills(owner, now)
        ib = op.input_vec_addr & self.block_mask
        wb = op.weight_vec_addr & self.block_mask
        if not (hier.resident_for_compute(owner, ib)
                and hier.resident_for_compute(owner, wb)):
            self._bounce(op, src, owner, now)
            return
        status, payload = table.stage_assigned(key, op, src, now)
        if status == "memo":
            self.out.add(op.output_addr, payload)
            self.stats.assigned_done += 1
            self.stats.forward_memo_hits += 1
            self.retired += 1
            if self.speculate:
                self._insert_predictions(self.sms[owner], op, now)
        elif status == "staged":
            self.pending_assigned += 1
        else:  # full
            self._bounce(op, src, owner, now)

    def _bounce(self, op, src, owner, now):
        self.stats.bounces += 1
        self.hier.charge_message(owner, src)
        self._schedule(now + self.params.forward_latency, "bounce", src, op)

    def _bounce_arrival(self, src, op, now):
        """Returned computation: the source fetches what is missing and
        executes out of band (its warp already moved on)."""
        ready = now + self.lat_l1
        for addr in (op.input_vec_addr, op.weight_vec_addr):
            block = addr & self.block_mask
            hit, wait = self.hier.l1_lookup(src, block)
            if hit:
                if wait is not None:
                    ready = max(ready, wait)
            else:
                ready = max(ready, self.hier.fill(src, block, now))
        self.pending_bounce_exec += 1
        self._schedule(ready, "bounce_fin", src, op)

    def _bounce_finish(self, src, op, now):
        self.pending_bounce_exec -= 1
        value = self.image.dot(op.input_vec_addr, op.weight_vec_addr, op.length)
        self.out.add(op.output_addr, value)
        self.stats.normal_done += 1
        self.retired += 1
        if self.forwarding:
            self._register_pair(src, op)

    def _register_pair(self, sm_id, op):
        """Name sm_id the owner of the op's block pair if it still holds both."""
        ib = op.input_vec_addr & self.block_mask
        wb = op.weight_vec_addr & self.block_mask
        if self.hier.probe_sm(sm_id, ib) and self.hier.probe_sm(sm_id, wb):
            self.assign_tables[self.cluster_of[sm_id]].register((ib, wb), sm_id)

    # ---- decode / issue --------------------------------------------------

    def _insert_predictions(self, sm, op, now):
        table = sm.table
        for pair in intra_mod.predict(op, self.geom):
            if table.insert_prediction(pair, op.length, now) == "accepted":
                self.stats.predictions_made += 1

    def _retire_op(self, sm, warp):
        if sm.retire_warp_op(warp):
            self.live_warps -= 1

    def _issue(self, sm, warp, now):
        """Issue the warp's current op.  Returns the issue cost in cycles, or
        _BLOCKED after moving the warp to the blocked heap."""
        op = warp.ops[warp.pc]

        if warp.exec_pending:
            warp.exec_pending = False
            self._execute(sm, warp, op, now)
            return self.issue_cost

        stats = self.stats
        if self.speculate:
            status, result = sm.table.lookup((op.input_vec_addr, op.weight_vec_addr))
            if status == "hit":
                self.out.add(op.output_addr, result)
                stats.predicted_used += 1
                stats.instructions_issued += 1
                self.retired += 1
                self._retire_op(sm, warp)
                return 1
            if status == "pending":
                stats.predictions_invalidated += 1

        hier = self.hier
        sm_id = sm.sm_id
        ib = op.input_vec_addr & self.block_mask
        wb = op.weight_vec_addr & self.block_mask
        hit_i, wait_i = hier.l1_lookup(sm_id, ib)
        hit_w, wait_w = hier.l1_lookup(sm_id, wb)
        if hit_i and hit_w:
            if wait_i is None and wait_w is None:
                self._execute(sm, warp, op, now)
                return self.issue_cost
            missing = ()
        elif hit_i:
            missing = (wb,)
        elif hit_w:
            missing = (ib,)
        else:
            missing = (ib, wb)

        if missing and self.probe_availability:
            for b in missing:
                stats.probe_misses += 1
                if hier.present_elsewhere(sm_id, b):
                    stats.probe_found_elsewhere += 1

        if missing and self.forwarding:
            pair = (ib, wb)
            cluster = self.cluster_of[sm_id]
            owner = self.assign_tables[cluster].lookup(pair)
            if owner is not None and owner != sm_id \
                    and self.cluster_of[owner] == cluster:
                stats.forwards += 1
                stats.instructions_issued += 1
                stats.fills_avoided += len(missing)
                self.pending_assigned += 1
                hier.charge_message(sm_id, owner)
                self._schedule(now + self.params.forward_latency, "forward",
                               owner, (op, sm_id))
                self._retire_op(sm, warp)
                return 1

        ready = now + self.lat_l1
        for b in missing:
            filled = hier.fill(sm_id, b, now)
            if filled > ready:
                ready = filled
        if wait_i is not None and wait_i > ready:
            ready = wait_i
        if wait_w is not None and wait_w > ready:
            ready = wait_w
        warp.saw_miss = True
        warp.exec_pending = True
        sm.block_warp(warp, ready)
        return _BLOCKED

    def _execute(self, sm, warp, op, now):
        value = self.image.dot(op.input_vec_addr, op.weight_vec_addr, op.length)
        self.out.add(op.output_addr, value)
        self.stats.normal_done += 1
        self.stats.instructions_issued += 1
        self.retired += 1
        if warp.saw_miss:
            warp.saw_miss = False
            if self.forwarding:
                # registration requires the pair to still be fully resident
                self._register_pair(sm.sm_id, op)
        if self.speculate:
            self._insert_predictions(sm, op, now)
        self._retire_op(sm, warp)

    # ---- assistant engine ------------------------------------------------

    def _assist_finish(self, sm, now):
        entry = sm.assist_entry
        sm.assist_entry = None
        sm.assist_busy_until = None
        self.assists_in_flight -= 1
        if entry.res_mask == -1:  # removed (bounced or invalidated) mid-flight
            return
        value = self.image.dot(entry.key[0], entry.key[1], entry.length)
        sm.table.finish(entry, value, now)
        self.stats.assists_executed += 1
        if entry.kind == intra_mod.ASSIGNED:
            self.out.add(entry.op.output_addr, value)
            self.stats.assigned_done += 1
            self.pending_assigned -= 1
            self.retired += 1
            if self.speculate:
                self._insert_predictions(sm, entry.op, now)
        else:
            self.stats.predictions_completed += 1

    # ---- per-SM step -----------------------------------------------------

    def _accrue(self, sm, now):
        """Charge the cycles since the SM's last step to the state it held."""
        if sm.state == STALLED:
            self.stats.stall_cycles_per_sm[sm.sm_id] += now - sm.since
        elif sm.state == ASSIST:
            self.stats.assist_cycles += now - sm.since
        sm.since = now

    def _step(self, sm, now):
        """Advance one SM at cycle `now`; sets sm.state and sm.next_action and
        queues the SM's next wakeup."""
        self._accrue(sm, now)
        self.hier.expire_fills(sm.sm_id, now)
        if sm.assist_busy_until is not None and sm.assist_busy_until <= now:
            self._assist_finish(sm, now)
        if now >= sm.next_purge:
            self.stats.predictions_purged += sm.table.purge(
                now, self.params.purge_fraction)
            while sm.next_purge <= now:
                sm.next_purge += self.params.purge_period
        if sm.blocked and sm.blocked[0][0] <= now:
            sm.wake_due(now)

        if self.debug_invariants:
            self._check_invariants(sm)

        if sm.busy_until > now:
            sm.state = BUSY
            nxt = sm.busy_until
        else:
            warp = gto_select(sm)
            if warp is not None:
                cost = self._issue(sm, warp, now)
                if cost == _BLOCKED:
                    sm.busy_until = now + 1
                else:
                    sm.busy_until = now + cost
                    sm.last_issued = warp
                if sm.busy_until > self.max_busy_until:
                    self.max_busy_until = sm.busy_until
                sm.state = BUSY
                nxt = sm.busy_until
            else:
                if sm.table is not None and sm.assist_busy_until is None:
                    entry = sm.table.next_assist()
                    if entry is not None:
                        sm.assist_entry = entry
                        sm.assist_busy_until = now + self.params.assist_latency
                        self.assists_in_flight += 1
                if sm.assist_busy_until is not None:
                    sm.state = ASSIST
                    nxt = sm.assist_busy_until
                elif sm.unfinished > 0:
                    sm.state = STALLED
                    nxt = sm.next_wake()
                else:
                    sm.state = IDLE
                    nxt = sm.next_wake()
        if sm.next_purge < nxt:
            nxt = sm.next_purge
        if nxt == INF:
            sm.next_action = nxt
        else:
            self._wake(sm, nxt)
        return nxt

    def _check_invariants(self, sm):
        if sm.table is not None and len(sm.table) > sm.table.capacity:
            raise AssertionError(f"SM {sm.sm_id} precompute table over capacity")
        for at in self.assign_tables:
            if len(at) > at.capacity:
                raise AssertionError(f"cluster {at.cluster_id} assign table over capacity")

    # ---- main loop -------------------------------------------------------

    def _active(self):
        return bool(self.live_warps or self.events or self.pending_assigned
                    or self.pending_bounce_exec or self.assists_in_flight
                    or self.max_busy_until > self.now)

    def run(self):
        stats = self.stats
        sms = self.sms
        events = self.events
        wakeups = self.wakeups
        bits = self.sm_bits
        sm_mask = (1 << bits) - 1
        heappop = heapq.heappop
        step = self._step
        for sm in sms:
            self._wake(sm, sm.next_action)
        now = 0
        last_progress_count = -1
        last_progress_cycle = 0
        while True:
            self.now = now
            if events and events[0][0] <= now:
                self._deliver_due(now)
            # pop every SM due by now, skipping duplicate and stale entries
            due = []
            limit = (now + 1) << bits
            last = -1
            while wakeups and wakeups[0] < limit:
                key = heappop(wakeups)
                if key == last:
                    continue
                last = key
                sm_id = key & sm_mask
                if sms[sm_id].next_action == key >> bits:
                    due.append(sm_id)
            due.sort()
            for sm_id in due:
                step(sms[sm_id], now)
            while wakeups and \
                    sms[wakeups[0] & sm_mask].next_action != wakeups[0] >> bits:
                heappop(wakeups)
            next_t = wakeups[0] >> bits if wakeups else INF
            if events and events[0][0] < next_t:
                next_t = events[0][0]
            if not self._active():
                break
            if self.retired != last_progress_count:
                last_progress_count = self.retired
                last_progress_cycle = now
            elif now - last_progress_cycle > self.params.max_idle_cycles:
                raise SimulationError(
                    f"no progress since cycle {last_progress_cycle}: "
                    f"{self.retired}/{stats.total_ops} ops retired, "
                    f"{self.pending_assigned} assigned pending, "
                    f"{len(events)} events queued")
            if next_t == INF:
                raise SimulationError(
                    f"nothing runnable at cycle {now} with work outstanding "
                    f"({self.retired}/{stats.total_ops} ops retired)")
            if next_t <= now:
                next_t = now + 1
            now = next_t

        stats.total_cycles = now
        for sm in sms:
            self._accrue(sm, now)
        self._collect(stats)
        if self.speculate or self.forwarding:
            for sm in sms:
                if sm.table is not None:
                    sm.table.flush()
            for at in self.assign_tables:
                at.flush()
        stats.check_conservation()
        return stats, self.out

    def _collect(self, stats):
        stats.l1_hits = self.hier.l1_hits()
        stats.l1_misses = self.hier.l1_misses()
        stats.l2_hits = self.hier.l2_hits
        stats.l2_misses = self.hier.l2_misses
        stats.dram_accesses = self.hier.dram_accesses
        stats.noc_flit_hops = self.hier.noc_flit_hops
        stats.precompute_accesses = sum(sm.table.accesses for sm in self.sms
                                        if sm.table is not None)
        stats.assign_accesses = sum(at.accesses for at in self.assign_tables)


def run_simulation(params, programs, image, geom):
    """Run one layer under one scheme; returns (SimStats, OutputBuffer)."""
    return Simulation(params, programs, image, geom).run()
