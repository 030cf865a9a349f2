"""The SM pipeline model: issue timing, blocking, scheduling, schemes.

Cycle counts in here are derived by hand from the issue rules: a vector MAC
occupies issue for warp_size/simt_width cycles, a memoized or forwarded op
for one cycle, and a blocked miss attempt for one busy cycle before the warp
parks until its fill lands.
"""

import heapq
import json
import random
from pathlib import Path

import pytest
from checked import CheckedSimulation
from lru import warm

from opconv.cachehier import CacheGeometry
from opconv.inter import AssignTable
from opconv.intra import PrecomputeTable
from opconv.oracle import MemoryImage, compare, reference_convolution
from opconv.smcore import SimParams, Simulation, WarpContext, gto_select, run_simulation
from opconv.workload import (
    ConfigError,
    LayerSpec,
    enumerate_ops,
    lenet5_layers,
    make_layouts,
    map_to_warps,
)


def build_run(layer, row_pitch=0, seed=0):
    geom = make_layouts(layer, row_pitch)
    return geom, MemoryImage(geom, seed), enumerate_ops(geom)


T44 = LayerSpec("t44", 1, 1, 4, 4, 3, 3)   # 4 outputs x 3 ops, 1 warp


# -------------------------------------------------------------------- params

def test_simparams_validation():
    with pytest.raises(ConfigError):
        SimParams(scheme="turbo")
    with pytest.raises(ConfigError):
        SimParams(warp_size=20, simt_width=8)
    with pytest.raises(ConfigError):
        SimParams(purge_fraction=1.5)
    # a zero purge period never advances the next purge: the run would hang
    for period in (0, -5):
        with pytest.raises(ConfigError):
            SimParams(scheme="intra", purge_period=period)
    # negative latencies would run and report nonsense cycle counts
    for name in ("lat_l1", "lat_l2", "lat_dram", "assist_latency",
                 "forward_latency", "hop_cycles", "pipeline_stages"):
        with pytest.raises(ConfigError, match=name):
            SimParams(**{name: -1})
        SimParams(**{name: 0})
    # clusters that cluster_map would leave without SMs, under forwarding
    for sms, clusters in ((56, 100), (56, 30), (4, 3), (16, 14)):
        for scheme in ("inter", "both"):
            with pytest.raises(ConfigError, match="clusters"):
                SimParams(scheme=scheme, sm_count=sms, clusters=clusters)
        SimParams(scheme="baseline", sm_count=sms, clusters=clusters)
    for sms, clusters in ((56, 8), (56, 28), (56, 56), (4, 4), (1, 1)):
        SimParams(scheme="both", sm_count=sms, clusters=clusters)
    assert SimParams().issue_cost == 4
    assert SimParams(warp_size=16, simt_width=8).issue_cost == 2


# ----------------------------------------------------------------- scheduler

def test_gto_sticks_to_last_issued_then_oldest():
    a, b, c = (WarpContext(i, 0, 1) for i in range(3))
    ready = [a, b, c]
    assert gto_select(ready, None) is a     # oldest first
    assert gto_select(ready, b) is b        # greedy on the running warp
    ready.remove(b)                         # b blocks on a miss
    assert gto_select(ready, b) is a        # falls back to oldest ready
    ready.append(b)                         # b's fill lands
    assert gto_select(ready, b) is b        # greedy resumes after the wake


def test_gto_selection_properties():
    # the SM loop's bookkeeping: ready warps in a list, blocked ones in a
    # heap of (wake, age, warp), finished ones dropped
    rng = random.Random(41)
    warps = [WarpContext(i, 0, rng.randint(1, 6)) for i in range(8)]
    ready = list(warps)
    blocked = []
    last = None
    now = 0
    issued = 0
    while ready or blocked:
        while blocked and blocked[0][0] <= now:
            ready.append(heapq.heappop(blocked)[2])
        if not ready:
            now = blocked[0][0]
            continue
        pick = gto_select(ready, last)
        assert pick in ready
        if last is not None and last in ready:
            assert pick is last                       # greedy wins while ready
        else:
            assert pick.age == min(w.age for w in ready)
        if rng.random() < 0.4:
            ready.remove(pick)
            heapq.heappush(blocked, (now + rng.randint(1, 7), pick.age, pick))
        else:
            last = pick
            pick.pc += 1
            issued += 1
            if pick.pc == pick.end:
                ready.remove(pick)
        now += 1
    assert issued == sum(w.end for w in warps)
    assert all(w.pc == w.end for w in warps)


# ------------------------------------------------------------- issue timing

def test_warm_run_is_pure_issue_occupancy():
    params = SimParams(sm_count=1)
    geom, image, ops = build_run(T44)
    sim = Simulation(params, ops, image, geom)
    blocks = set()
    for i in range(len(ops)):
        blocks.add(sim.hier.block_of(ops.inp[i]))
        blocks.add(sim.hier.block_of(ops.wgt[i]))
    warm(sim.hier, 0, blocks)
    stats, out = sim.run()
    # 12 ops x 4 cycles each, including the last op's occupancy tail
    assert stats.total_cycles == 48
    assert stats.instructions_issued == 12
    assert stats.stall_cycles == 0
    assert stats.l1_misses == 0 and stats.l1_hits == 24
    assert stats.normal_done == 12
    assert compare(out.values, reference_convolution(geom, image)).ok


def test_cold_miss_blocks_once_then_streams():
    params = SimParams(sm_count=1)
    geom, image, ops = build_run(T44)
    stats, out = run_simulation(params, ops, image, geom)
    # the 4x4 input and the 3x3 filter each occupy one 128B block, so only
    # the first op misses; SM node 1 sits one hop from MC node 0:
    # request 1+2+1, L2 (30) + DRAM (120) beyond it, reply 1+2+8
    fill = (1 + 2 + 1) + 30 + 120 + (1 + 2 + 8)
    assert stats.total_cycles == fill + 48
    assert stats.l1_misses == 2               # both operand blocks, once
    assert stats.l1_hits == 22                # 11 remaining ops x 2 operands
    assert stats.l2_misses == 2 and stats.dram_accesses == 2
    # one busy cycle for the blocked attempt, stalled until the fill lands
    assert stats.stall_cycles == fill - 1
    assert stats.instructions_issued == 12
    assert compare(out.values, reference_convolution(geom, image)).ok


@pytest.mark.parametrize("machine", [dict(warp_size=16, sm_count=3), {}])
def test_simulation_deals_out_its_own_warps(machine):
    # the warps are cut for the machine that runs them: warp w holds the
    # ops of warp_size output elements and runs on SM w % sm_count
    params = SimParams(**machine)
    geom, image, ops = build_run(TOY)
    sim = Simulation(params, ops, image, geom)
    mapping = list(enumerate(map_to_warps(ops, params.warp_size,
                                          params.sm_count)))
    assert len(mapping) == -(-TOY.out_channels * TOY.out_h * TOY.out_w
                             // params.warp_size)
    # every SM holds its warps oldest first
    assert [[(w.age, w.pc, w.end) for w in warps] for warps in sim.warps] == \
        [[(w, start, end) for w, (sm, start, end) in mapping if sm == sm_id]
         for sm_id in range(params.sm_count)]


def test_op_stream_reaching_past_the_image_rejected():
    # dot checks no bounds, so a simulation checks its op stream's reads
    # once, when it is built and before any step
    params = SimParams(sm_count=1)
    geom, image, ops = build_run(T44)
    for side, column in (("input", ops.inp), ("weight", ops.wgt)):
        for i, shift in ((0, -4), (-1, 4)):
            column[i] += shift
            with pytest.raises(ConfigError, match=f"t44: op stream reads {side}"):
                Simulation(params, ops, image, geom)
            column[i] -= shift
    Simulation(params, ops, image, geom)


# ----------------------------------------------------- schemes: equivalence

TOY = LayerSpec("toy", 2, 3, 8, 8, 3, 3)


@pytest.mark.parametrize("scheme", ["baseline", "intra", "inter", "both"])
def test_outputs_bit_exact_under_every_scheme(scheme):
    params = SimParams(sm_count=4, clusters=2, scheme=scheme,
                       pc_entries=64, at_entries=64)
    geom, image, ops = build_run(TOY, row_pitch=4096)
    stats, out = CheckedSimulation(params, ops, image, geom).run()
    expected = reference_convolution(geom, image)
    assert compare(out.values, expected).ok
    assert out.adds == TOY.op_count()
    assert stats.retired() == stats.total_ops == TOY.op_count()


def test_schemes_only_move_work_between_paths():
    results = {}
    for scheme in ("baseline", "intra", "inter", "both"):
        params = SimParams(sm_count=4, clusters=2, scheme=scheme,
                           pc_entries=64, at_entries=64)
        geom, image, ops = build_run(TOY, row_pitch=4096)
        stats, _ = run_simulation(params, ops, image, geom)
        results[scheme] = stats
    assert results["baseline"].predicted_used == 0
    assert results["baseline"].assigned_done == 0
    assert results["inter"].predicted_used == 0   # no speculation without it
    assert results["intra"].forwards == 0
    for stats in results.values():
        assert stats.retired() == TOY.op_count()


def test_bitwise_determinism():
    runs = []
    for _ in range(2):
        params = SimParams(sm_count=4, clusters=2, scheme="both",
                           pc_entries=64, at_entries=64)
        geom, image, ops = build_run(TOY, row_pitch=4096)
        stats, out = run_simulation(params, ops, image, geom)
        runs.append((stats.to_dict(), dict(out.values)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


# ------------------------------------------------------- scheme: assistance

def test_assistant_consumes_stall_cycles():
    layer = LayerSpec("a88", 1, 1, 8, 8, 3, 3)
    params = SimParams(sm_count=1, scheme="intra", pc_entries=64)
    geom, image, ops = build_run(layer, row_pitch=4096)
    stats, out = run_simulation(params, ops, image, geom)
    assert compare(out.values, reference_convolution(geom, image)).ok
    # deterministic scenario, frozen as a regression anchor
    assert stats.total_cycles == 1740
    assert stats.assists_executed == 56
    assert stats.predicted_used == 48
    assert stats.assist_cycles == 224
    assert stats.predictions_made == 60
    assert stats.predictions_completed == 56
    assert stats.predictions_invalidated == 4
    # every prediction is accounted for: consumed-before-complete, completed,
    # or still parked in the table at the end
    leftover = stats.predictions_made - stats.predictions_completed \
        - stats.predictions_invalidated
    assert leftover >= 0
    assert stats.predicted_used <= stats.predictions_completed \
        <= stats.predictions_made
    assert stats.normal_done + stats.predicted_used == layer.op_count()


def test_assistance_adds_no_memory_traffic():
    # assistants only touch operands already resident, so the demand-miss
    # stream is identical to the baseline run on the same op stream
    layer = LayerSpec("a88", 1, 1, 8, 8, 3, 3)
    geom, image, ops = build_run(layer, row_pitch=4096)
    base, _ = run_simulation(SimParams(sm_count=1), ops, image, geom)
    params = SimParams(sm_count=1, scheme="intra", pc_entries=64)
    helped, _ = run_simulation(params, ops, image, geom)
    assert helped.l1_misses == base.l1_misses == 33
    assert helped.l2_misses == base.l2_misses


# ------------------------------------------------------- scheme: forwarding

def test_forwarding_executes_every_handoff_exactly_once():
    c1 = lenet5_layers(2)[0]
    params = SimParams(sm_count=8, scheme="inter", clusters=2, at_entries=512)
    geom, image, ops = build_run(c1, row_pitch=4096)
    stats, out = run_simulation(params, ops, image, geom)
    assert compare(out.values, reference_convolution(geom, image)).ok
    # frozen regression anchor for the same reason as above
    assert stats.total_cycles == 10795
    assert stats.forwards == 71
    assert stats.bounces == 29
    assert stats.assigned_done == 42
    assert stats.fills_avoided == 72
    # a forwarded op either retires at the owner or bounces home, never both
    assert stats.forwards == stats.assigned_done + stats.bounces
    assert stats.retired() == c1.op_count()


def test_forwarding_improves_cluster_locality():
    # shipping the op to the data's owner beats re-fetching the data
    c1 = lenet5_layers(2)[0]
    geom, image, ops = build_run(c1, row_pitch=4096)
    base, _ = run_simulation(SimParams(sm_count=8, clusters=2), ops, image, geom)
    fwd, _ = run_simulation(SimParams(sm_count=8, scheme="inter", clusters=2,
                                      at_entries=512), ops, image, geom)
    assert fwd.l1_misses < base.l1_misses
    assert fwd.l2_hits + fwd.l2_misses < base.l2_hits + base.l2_misses
    assert base.fills_avoided == 0 and fwd.fills_avoided > 0


def test_forwarding_disabled_across_singleton_clusters():
    # one SM per cluster leaves no peer to forward to
    params = SimParams(sm_count=4, scheme="inter", clusters=4, at_entries=512)
    geom, image, ops = build_run(TOY, row_pitch=4096)
    stats, out = run_simulation(params, ops, image, geom)
    assert stats.forwards == 0
    assert compare(out.values, reference_convolution(geom, image)).ok


# ------------------------------------------------- counter fingerprints

# Tiny layers on corner machines.  Zero assist and forward latencies finish
# work in the cycle it starts; one- to four-entry tables fill, evict and
# bounce; a seven-cycle purge period purges constantly.
SMALL_L1 = CacheGeometry(1024, 4, 2)
FINGERPRINT_CASES = {
    "pitched": (LayerSpec("fp_pitched", 2, 3, 8, 8, 3, 3), 4096,
                dict(sm_count=4, clusters=2, pc_entries=64, at_entries=64)),
    "zero_latency": (LayerSpec("fp_zero", 2, 3, 8, 8, 3, 3), 0,
                     dict(sm_count=6, clusters=2, pc_entries=64, at_entries=64,
                          assist_latency=0, forward_latency=0)),
    "tiny_tables": (LayerSpec("fp_tiny", 2, 4, 9, 9, 3, 3), 4096,
                    dict(sm_count=8, clusters=1, pc_entries=4, at_entries=4,
                         l1=SMALL_L1)),
    "single_entry": (LayerSpec("fp_single", 2, 4, 9, 9, 3, 3), 4096,
                     dict(sm_count=8, clusters=1, pc_entries=1, at_entries=1)),
    "short_purge": (LayerSpec("fp_purge", 1, 3, 10, 10, 3, 3), 0,
                    dict(sm_count=4, clusters=1, pc_entries=16, at_entries=16,
                         purge_period=7, purge_fraction=0.5)),
    # long assists on a thrashing L1: warps block while an assist runs
    "assist_in_flight": (LayerSpec("fp_assist", 2, 3, 8, 8, 3, 3), 4096,
                         dict(sm_count=2, clusters=1, pc_entries=32,
                              at_entries=16, assist_latency=37, l1=SMALL_L1)),
    # one-cycle issue and many warps per SM sharing in-flight fills, so a
    # warp can be woken one cycle after it blocked
    "l1_latency_0": (LayerSpec("fp_l1_0", 3, 6, 7, 7, 2, 2), 0,
                     dict(sm_count=1, clusters=1, pc_entries=16, at_entries=16,
                          warp_size=8, lat_l1=0, l1=SMALL_L1)),
    "l1_latency_1": (LayerSpec("fp_l1_1", 3, 6, 7, 7, 2, 2), 0,
                     dict(sm_count=1, clusters=1, pc_entries=16, at_entries=16,
                          warp_size=8, lat_l1=1, l1=SMALL_L1)),
    # more SMs than warps: idle SMs see every purge
    "idle_sms": (LayerSpec("fp_idle", 1, 2, 6, 6, 3, 3), 0,
                 dict(sm_count=12, clusters=3, pc_entries=8, at_entries=8,
                      purge_period=5)),
    "forward_latency_1": (LayerSpec("fp_fwd1", 2, 4, 9, 9, 3, 3), 4096,
                          dict(sm_count=8, clusters=2, pc_entries=8,
                               at_entries=8, forward_latency=1)),
    # a one-set L1 and bounces: fills land one cycle after a blocked issue
    # that the SM sleeps through, and bounces refetch blocks that landed and
    # were evicted since; each refetch is a new fill, charged and reinstalled
    "landing_after_block": (LayerSpec("fp_landing", 2, 5, 9, 9, 2, 2), 0,
                            dict(sm_count=8, clusters=2, warp_size=8,
                                 pc_entries=7, at_entries=8,
                                 lat_l2=1, lat_dram=2,
                                 assist_latency=10, forward_latency=4,
                                 purge_period=5, pipeline_stages=0,
                                 l1=CacheGeometry(256, 1, 2))),
    # a three-cycle L1 hit, long assists and frequent purges: a warp can
    # block while an assist runs and another warp wakes the next cycle
    "assist_then_wake": (LayerSpec("fp_assist_wake", 1, 4, 7, 7, 2, 2), 4096,
                         dict(sm_count=4, clusters=1, warp_size=8,
                              pc_entries=8, at_entries=16, assist_latency=40,
                              lat_l1=3, lat_l2=5, lat_dram=2, purge_period=3,
                              l1=SMALL_L1)),
    # zero-latency memory, one-cycle purges that empty the table and
    # bounces: fills land at purge slots the SM sleeps through, and a bounce
    # that refetches such a block after its eviction starts a new fill
    "landing_at_purge": (LayerSpec("fp_purge_landing", 3, 5, 6, 6, 2, 2), 0,
                         dict(sm_count=14, clusters=7, pc_entries=1,
                              at_entries=60, lat_l1=0, lat_l2=0, lat_dram=0,
                              assist_latency=3, forward_latency=2,
                              purge_period=1, purge_fraction=1.0,
                              l1=CacheGeometry(256, 1, 2))),
}


def _random_machines(count, seed, prefix="random", schemes_only=False):
    """Seeded tiny layers on random tiny machines: 1-16 SMs, 1-64-entry
    tables, packed and pitched layouts, and short or zero latencies.

    With `schemes_only`, a drawn machine is kept only if both schemes can
    act on it: a filter taller than the stride, so that an input row meets
    a later filter row and predictions exist, and at least two SMs."""
    rng = random.Random(seed)
    cases = {}
    while len(cases) < count:
        stride = rng.randint(1, 2)
        fh = rng.randint(1, 3)
        h = fh + stride * rng.randint(1, 6)
        layer = LayerSpec(f"fp_{prefix}_{len(cases):02d}", rng.randint(1, 3),
                          rng.randint(1, 4), h, h, fh, fh, stride)
        sm_count = rng.randint(1, 16)
        # cluster counts that leave no cluster empty and hold at most 8 SMs
        clusters = rng.choice([c for c in range(1, sm_count + 1)
                               if -(-sm_count // -(-sm_count // c)) == c
                               and -(-sm_count // c) <= 8])
        hw = dict(sm_count=sm_count, clusters=clusters,
                  pc_entries=rng.randint(1, 64), at_entries=rng.randint(1, 64),
                  lat_l1=rng.randint(0, 2), assist_latency=rng.randint(0, 9),
                  forward_latency=rng.randint(0, 9),
                  purge_period=rng.randint(1, 60),
                  l1=rng.choice([SMALL_L1, SimParams().l1]))
        row_pitch = rng.choice([0, 4096])
        if schemes_only and (fh <= stride or sm_count < 2):
            continue
        cases[f"{prefix}_{len(cases):02d}"] = (layer, row_pitch, hw)
    return cases


FINGERPRINT_CASES.update(_random_machines(20, seed=2024))
# of the machines above, those with filter_h <= stride predict nothing and
# forward nothing, so these are drawn where the schemes have work
SCHEME_MACHINES = _random_machines(8, seed=2026, prefix="schemes",
                                   schemes_only=True)
FINGERPRINT_CASES.update(SCHEME_MACHINES)
FINGERPRINTS = Path(__file__).with_name("counter_fingerprints.json")


@pytest.mark.parametrize("scheme", ["baseline", "intra", "inter", "both"])
@pytest.mark.parametrize("case", sorted(FINGERPRINT_CASES))
def test_counter_fingerprint(case, scheme):
    """Every SimStats field equals the value recorded for this machine.

    The recorded counters are the timing model's reference: a change meant
    only to make the simulator faster must leave all of them unchanged."""
    layer, row_pitch, hw = FINGERPRINT_CASES[case]
    params = SimParams(scheme=scheme, **hw)
    geom, image, ops = build_run(layer, row_pitch=row_pitch)
    stats, out = CheckedSimulation(params, ops, image, geom).run()
    assert compare(out.values, reference_convolution(geom, image)).ok
    assert out.adds == stats.total_ops
    expected = json.loads(FINGERPRINTS.read_text())[f"{case}/{scheme}"]
    assert stats.to_dict() == expected


def test_scheme_machines_predict():
    """Every scheme machine makes a prediction under intra, so its entries
    pin the speculation path; test_counter_fingerprint ties each recorded
    entry to the simulator."""
    recorded = json.loads(FINGERPRINTS.read_text())
    assert [case for case in sorted(SCHEME_MACHINES)
            if not recorded[f"{case}/intra"]["predictions_made"]] == []


# Table faults the per-step check of CheckedSimulation must catch: an L1
# eviction that drops no owner leaves an assign table naming an SM that no
# longer holds the pair, and a capacity eviction that removes nothing lets
# a precompute table overflow.
TABLE_FAULTS = (
    (AssignTable, "on_evict", lambda self, block, sm_id: 0,
     ("inter", "both"), r"names SM \d+ the owner of \("),
    (PrecomputeTable, "_evict_oldest_spec", lambda self: True,
     ("intra", "both"), "precompute table over capacity"),
)


def test_checked_simulation_catches_table_faults(monkeypatch):
    layer, row_pitch, hw = FINGERPRINT_CASES["tiny_tables"]
    geom, image, ops = build_run(layer, row_pitch=row_pitch)
    for cls, name, fault, schemes, message in TABLE_FAULTS:
        with monkeypatch.context() as m:
            m.setattr(cls, name, fault)
            for scheme in schemes:
                sim = CheckedSimulation(SimParams(scheme=scheme, **hw), ops,
                                        image, geom)
                with pytest.raises(AssertionError, match=message):
                    sim.run()


# Per-run sums of the table counters that no SimStats field holds, so the
# fingerprints above cannot see them: precompute duplicates, evictions and
# inserts, then assign-table registrations, evictions and invalidations.
# Recorded from the simulator like the fingerprints; a change meant only to
# make the tables faster must leave them unchanged.
TABLE_COUNTERS = {
    "pitched/intra": (3, 0, 376, 0, 0, 0),
    "pitched/inter": (0, 0, 17, 631, 0, 512),
    "pitched/both": (17, 0, 395, 230, 0, 200),
    "tiny_tables/intra": (0, 914, 952, 0, 0, 0),
    "tiny_tables/inter": (0, 0, 20, 1156, 203, 918),
    "tiny_tables/both": (0, 912, 969, 1149, 203, 905),
}


@pytest.mark.parametrize("run", sorted(TABLE_COUNTERS))
def test_table_counters_outside_simstats(run):
    case, scheme = run.split("/")
    layer, row_pitch, hw = FINGERPRINT_CASES[case]
    geom, image, ops = build_run(layer, row_pitch=row_pitch)
    sim = Simulation(SimParams(scheme=scheme, **hw), ops, image, geom)
    sim.run()
    pcs = [t for t in sim.tables if t is not None]
    ats = sim.assign_tables
    assert (sum(t.duplicates for t in pcs), sum(t.evictions for t in pcs),
            sum(t.inserts for t in pcs), sum(a.registrations for a in ats),
            sum(a.evictions for a in ats),
            sum(a.invalidated for a in ats)) == TABLE_COUNTERS[run]
