"""End-to-end acceptance criteria.

Eleven checks, one test each, numbered in run order.  Every test prints a
single "ACCEPTANCE nn <name>: PASS/FAIL (...)" line (visible with -s) and
asserts the criterion at its stated tolerance.  Simulation runs are cached
and shared between criteria; all runs use the pitched experiment layout,
seed 0 and int32 arithmetic unless stated otherwise.
"""

import json
import random
import time

from checked import CheckedSimulation
from lru import LruCache

from opconv import cli
from opconv.cachehier import CacheGeometry
from opconv.intra import ASSIGNED, PrecomputeTable
from opconv.metrics import energy, ipc, prediction_accuracy
from opconv.oracle import MemoryImage, compare, reference_convolution
from opconv.smcore import SimParams, run_simulation
from opconv.workload import (
    LayerSpec,
    enumerate_ops,
    lenet5_layers,
    alexnet_conv_layers,
    make_layouts,
    reuse_histogram,
)

ROW_PITCH = 4096
SEED = 0

TOY = LayerSpec("toy44", 1, 1, 4, 4, 3, 3)
LENET = {l.name: l for l in lenet5_layers(2)}
CONV1 = alexnet_conv_layers(8)[0]

_INPUTS = {}   # layer name -> (geom, image, ops, expected)
_RUNS = {}     # (layer name, scheme, pc, at, tag) -> (stats, out)


def _inputs(layer):
    if layer.name not in _INPUTS:
        geom = make_layouts(layer, ROW_PITCH)
        image = MemoryImage(geom, SEED)
        expected = reference_convolution(geom, image)
        _INPUTS[layer.name] = (geom, image, enumerate_ops(layer, geom), expected)
    return _INPUTS[layer.name]


def _run(layer, scheme, pc=256, at=512, **hw):
    tag = tuple(sorted(hw.items()))
    key = (layer.name, scheme, pc, at, tag)
    if key not in _RUNS:
        params = SimParams(scheme=scheme, pc_entries=pc, at_entries=at, **hw)
        geom, image, ops, expected = _inputs(layer)
        stats, out = run_simulation(params, ops, image, geom)
        _RUNS[key] = (stats, out, expected)
    return _RUNS[key]


class _SetL1:
    """Residency answers for a lone PrecomputeTable: the blocks in the set
    are installed and landed."""

    def __init__(self, resident):
        self.resident = resident

    def absent_for_compute(self, _sm_id, blocks, _now):
        return sum(1 << k for k, b in enumerate(blocks)
                   if b not in self.resident)


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_01_functional_equivalence():
    """Every scheme reproduces the reference outputs bit for bit, quickly."""
    layers = [TOY, LENET["C1"], LENET["C2"], LENET["C3"], CONV1]
    start = time.monotonic()
    bad = []
    n = 0
    for layer in layers:
        for scheme in ("baseline", "intra", "inter", "both"):
            stats, out, expected = _run(layer, scheme)
            n += 1
            res = compare(out.values, expected)
            if not res.ok:
                bad.append(f"{layer.name}/{scheme}: {res.message()}")
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    detail = f"{n} layer/scheme runs bit-exact in {elapsed:.1f}s"
    if bad:
        detail = "; ".join(bad[:3])
    _report(1, "functional equivalence", ok, detail)


def test_02_mac_conservation():
    """Retirement paths partition the op stream exactly, on every run."""
    checked = 0
    bad = []
    for (lname, scheme, _pc, _at, _tag), (stats, out, _exp) in _RUNS.items():
        checked += 1
        if stats.retired() != stats.total_ops or out.adds != stats.total_ops:
            bad.append(f"{lname}/{scheme}: {stats.retired()}/{stats.total_ops}")
    ok = not bad and checked >= 20
    _report(2, "computation conservation", ok,
            f"{checked} runs, every op retired exactly once" if ok else "; ".join(bad))


def test_03_reuse_concentration():
    """On the full-size first layer most block pairs cover many computations."""
    layer = lenet5_layers(1)[0]
    geom = make_layouts(layer, ROW_PITCH)
    counts, buckets = reuse_histogram(enumerate_ops(layer, geom), 128)
    heavy = sum(1 for c in counts.values() if c > 100)
    frac = heavy / len(counts)
    ok = frac >= 0.80
    _report(3, "reuse concentration", ok,
            f"{heavy}/{len(counts)} pairs exceed 100 computations "
            f"({frac:.4f} >= 0.80); buckets {buckets}")


def test_04_inter_sm_availability():
    """On misses, the missing block usually sits in some other SM's L1."""
    misses = found = 0
    for name in LENET:
        stats, _out, _exp = _run(LENET[name], "baseline")
        misses += stats.probe_misses
        found += stats.probe_found_elsewhere
    frac = found / misses
    ok = frac >= 0.5
    _report(4, "inter-SM availability", ok,
            f"{found}/{misses} probed misses found elsewhere ({frac:.4f} >= 0.5)")


def test_05_stall_reduction():
    """Speculation removes a sizable share of stall cycles; bigger table, no worse."""
    base = intra_small = intra_big = 0
    for name in ("C1", "C2"):
        base += _run(LENET[name], "baseline")[0].stall_cycles
        intra_small += _run(LENET[name], "intra", pc=256)[0].stall_cycles
        intra_big += _run(LENET[name], "intra", pc=512)[0].stall_cycles
    red_small = 1 - intra_small / base
    red_big = 1 - intra_big / base
    ok = red_small >= 0.05 and red_big >= red_small
    _report(5, "stall cycle reduction", ok,
            f"C1+C2 stalls {base} -> {intra_small} (-{red_small:.1%}) with 256 "
            f"entries, -> {intra_big} (-{red_big:.1%}) with 512")


def test_06_combined_ipc():
    """Both schemes together lift IPC, monotone in table size."""
    base = ipc(_run(LENET["C1"], "baseline")[0])
    small = ipc(_run(LENET["C1"], "both", pc=256, at=512)[0])
    big = ipc(_run(LENET["C1"], "both", pc=512, at=1024)[0])
    ok = big >= small >= base and small >= 1.05 * base
    _report(6, "combined scheme IPC", ok,
            f"baseline {base:.4f} <= both/256 {small:.4f} <= both/512 {big:.4f}; "
            f"uplift {small / base:.2f}x >= 1.05x")


def test_07_prediction_accuracy_monotone():
    """A larger precompute table never predicts less accurately, per layer."""
    rows = []
    ok = True
    for name in LENET:
        small = prediction_accuracy(_run(LENET[name], "intra", pc=256)[0])
        big = prediction_accuracy(_run(LENET[name], "intra", pc=512)[0])
        ok = ok and big >= small
        rows.append(f"{name} {small:.4f}->{big:.4f}")
    _report(7, "prediction accuracy per layer", ok, ", ".join(rows))


def test_08_table_integrity_and_exactly_once():
    """Capacity is never exceeded and staged work runs exactly once."""
    # per-step table checks during full runs with deliberately tiny tables
    geom, image, ops, expected = _inputs(TOY)
    for scheme in ("baseline", "intra", "inter", "both"):
        params = SimParams(scheme=scheme, pc_entries=8, at_entries=8,
                           sm_count=4, clusters=2)
        stats, out = CheckedSimulation(params, ops, image, geom).run()
        assert compare(out.values, expected).ok

    # forwarding under eviction pressure: every handoff retires exactly once
    stats, out, expected = _run(LENET["C1"], "inter", at=64, sm_count=8,
                                clusters=2)
    sim_ok = (compare(out.values, expected).ok
              and stats.forwards == stats.assigned_done + stats.bounces
              and stats.bounces > 0)

    # randomized table stress: stage/evict/install/assist, 10^4 events
    rng = random.Random(20260814)
    resident = set()
    table = PrecomputeTable(32, _SetL1(resident), 0)
    blocks = [i * 128 for i in range(24)]
    wblocks = [0x4000_0000 + i * 128 for i in range(8)]
    staged = bounced = finished = 0
    over_capacity = 0
    for _ in range(10_000):
        roll = rng.random()
        if roll < 0.35:
            key = (rng.choice(blocks), rng.choice(wblocks))
            if key not in table.assigned:
                # both addresses are block aligned: the key is its own blocks
                status, _payload = table.stage_assigned(key, key, 0, 0)
                if status == "staged":
                    staged += 1
        elif roll < 0.55:
            b = rng.choice(blocks + wblocks)
            resident.discard(b)
            bounced += len(table.block_evicted(b))
        elif roll < 0.75:
            b = rng.choice(blocks + wblocks)
            resident.add(b)
            table.block_installed(b)
        else:
            entry = table.next_assist()
            if entry is not None and entry.kind == ASSIGNED:
                table.finish(entry, 0)
                finished += 1
        if len(table) > table.capacity:
            over_capacity += 1
    leftover = len(table.assigned)
    stress_ok = (over_capacity == 0
                 and staged == bounced + finished + leftover
                 and staged > 1000)
    ok = sim_ok and stress_ok
    _report(8, "table integrity / exactly-once", ok,
            f"debug runs clean; forwards {stats.forwards} = assigned "
            f"{stats.assigned_done} + bounces {stats.bounces}; stress staged "
            f"{staged} = bounced {bounced} + finished {finished} + left {leftover}")


def test_09_lru_reference_equivalence():
    """Cache decisions equal the stack-distance model on random traces."""
    results = []
    ok = True
    for label, geom in (("l1", CacheGeometry(16 * 1024, 32, 4)),
                        ("l2", CacheGeometry(64 * 1024, 64, 8))):
        rng = random.Random(4242)
        trace = [rng.randrange(1200) * geom.block_size for _ in range(10_000)]
        cache = LruCache(geom)
        got = [cache.access(b)[0] for b in trace]
        bits = geom.block_size.bit_length() - 1
        recency = [[] for _ in range(geom.sets)]
        want = []
        for b in trace:
            lst = recency[(b >> bits) % geom.sets]
            if b in lst:
                want.append(len(lst) - lst.index(b) <= geom.ways)
                lst.remove(b)
            else:
                want.append(False)
            lst.append(b)
        ok = ok and got == want
        results.append(f"{label} {sum(got)}/{len(got)} hits match")
    _report(9, "LRU equals stack-distance model", ok, ", ".join(results))


def test_10_reproducible_reports(tmp_path):
    """Same preset, same seed: byte-identical report and counters."""
    wl = tmp_path / "layers.csv"
    wl.write_text(
        "name,pass,in_channels,out_channels,in_height,in_width,"
        "filter_h,filter_w,stride,padding\nt1,forward,1,2,8,8,3,3,1,0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"workload.name = custom\nworkload.file = {wl}\n"
                   "sm.count = 4\ninter.clusters = 2\n")
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        code = cli.main(["--preset", "combined_C2", "--config", str(cfg),
                         "--seed", "0", "--out", str(out)])
        assert code == 0
    same_report = (outs[0] / "report.csv").read_bytes() == \
        (outs[1] / "report.csv").read_bytes()
    same_counters = (outs[0] / "counters.json").read_bytes() == \
        (outs[1] / "counters.json").read_bytes()
    n = len(json.loads((outs[0] / "counters.json").read_text()))
    ok = same_report and same_counters
    _report(10, "byte-identical reruns", ok,
            f"report.csv and counters.json identical across runs ({n} run records)")


def test_11_energy_overhead_bounds():
    """Scheme energy stays within the stated envelopes of baseline."""
    totals = {"baseline": 0.0, "intra": 0.0, "inter": 0.0}
    for name in LENET:
        totals["baseline"] += energy(_run(LENET[name], "baseline")[0])
        totals["intra"] += energy(_run(LENET[name], "intra", pc=256)[0])
        totals["inter"] += energy(_run(LENET[name], "inter", at=512)[0])
    r_intra = totals["intra"] / totals["baseline"]
    r_inter = totals["inter"] / totals["baseline"]
    ok = r_inter <= 1.02 and r_intra <= 1.15
    _report(11, "energy overhead bounds", ok,
            f"inter {r_inter:.4f} <= 1.02, intra {r_intra:.4f} <= 1.15")
