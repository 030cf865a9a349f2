"""Run statistics and derived metrics.

All scheme comparisons are ratios against the baseline run of the same
layer: normalized IPC, execution time, stall cycles, and a simple
event-weighted energy proxy.  The computation distribution splits retired
operations into normal, predicted (memoized) and assigned (forwarded).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from .workload import check_knobs, knob


@dataclass
class SimStats:
    layer: str = ""
    scheme: str = "baseline"
    table_cfg: str = "-"
    total_ops: int = 0
    total_cycles: int = 0
    stall_cycles_per_sm: list = field(default_factory=list)
    assist_cycles: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0
    noc_flit_hops: int = 0
    precompute_accesses: int = 0
    assign_accesses: int = 0
    table_instances: int = 0
    # retirement split
    normal_done: int = 0
    predicted_used: int = 0
    assigned_done: int = 0
    # prediction bookkeeping
    predictions_made: int = 0
    predictions_invalidated: int = 0
    predictions_purged: int = 0
    # forwarding bookkeeping
    forwards: int = 0
    forward_memo_hits: int = 0
    bounces: int = 0
    fills_avoided: int = 0
    assists_executed: int = 0
    # measurement-only availability probing
    probe_misses: int = 0
    probe_found_elsewhere: int = 0

    @property
    def stall_cycles(self):
        return sum(self.stall_cycles_per_sm)

    @property
    def instructions_issued(self):
        """Ops issued: executed, memoized or forwarded at issue.  A bounced
        op was issued once, as a forward, and executes out of band."""
        return self.normal_done + self.predicted_used + self.forwards - self.bounces

    @property
    def predictions_completed(self):
        """Speculative assists executed: every other executed assist is an
        assigned op, which retires as a forward that did not hit the memo."""
        return self.assists_executed - (self.assigned_done
                                        - self.forward_memo_hits)

    def retired(self):
        return self.normal_done + self.predicted_used + self.assigned_done

    def to_dict(self):
        d = asdict(self)
        d["stall_cycles"] = self.stall_cycles
        d["instructions_issued"] = self.instructions_issued
        d["predictions_completed"] = self.predictions_completed
        return d


@dataclass(frozen=True)
class EnergyWeights:
    """Relative event costs; absolute units are arbitrary."""

    l1_access: float = knob("energy.l1", 1.0, lo=0.0)
    l2_access: float = knob("energy.l2", 10.0, lo=0.0)
    dram_access: float = knob("energy.dram", 100.0, lo=0.0)
    noc_flit_hop: float = knob("energy.noc_flit_hop", 2.0, lo=0.0)
    table_access: float = knob("energy.table", 1.0, lo=0.0)
    mac_op: float = knob("energy.mac", 1.0, lo=0.0)
    table_static_per_cycle: float = knob("energy.static", 0.01, lo=0.0)

    def __post_init__(self):
        check_knobs(self)


def energy(stats, weights=EnergyWeights()):
    return (weights.l1_access * (stats.l1_hits + stats.l1_misses)
            + weights.l2_access * (stats.l2_hits + stats.l2_misses)
            + weights.dram_access * stats.dram_accesses
            + weights.noc_flit_hop * stats.noc_flit_hops
            + weights.table_access * (stats.precompute_accesses + stats.assign_accesses)
            + weights.mac_op * stats.retired()
            + weights.table_static_per_cycle * stats.total_cycles * stats.table_instances)


def ipc(stats):
    if stats.total_cycles == 0:
        return 0.0
    return stats.instructions_issued / stats.total_cycles


def prediction_accuracy(stats):
    """Fraction of inserted predictions whose result was actually consumed."""
    if stats.predictions_made == 0:
        return 0.0
    return stats.predicted_used / stats.predictions_made


def computation_distribution(stats):
    total = stats.retired()
    if total == 0:
        return {"normal": 0.0, "predicted": 0.0, "assigned": 0.0}
    return {"normal": stats.normal_done / total,
            "predicted": stats.predicted_used / total,
            "assigned": stats.assigned_done / total}


def inter_sm_availability(stats):
    """Of the L1 misses probed, how often another SM held the block."""
    if stats.probe_misses == 0:
        return 0.0
    return stats.probe_found_elsewhere / stats.probe_misses


def normalize(stats, baseline, weights=EnergyWeights()):
    """Ratios against the baseline run of the same layer."""
    if baseline.total_cycles == 0:
        raise ValueError("baseline run has zero cycles; nothing to normalize")
    base_ipc = ipc(baseline)
    base_stall = baseline.stall_cycles
    base_energy = energy(baseline, weights)
    return {
        "ipc_norm": ipc(stats) / base_ipc if base_ipc else 0.0,
        "time_norm": stats.total_cycles / baseline.total_cycles,
        "stall_norm": stats.stall_cycles / base_stall if base_stall else
                      (0.0 if stats.stall_cycles == 0 else float("inf")),
        "energy_norm": energy(stats, weights) / base_energy if base_energy else 0.0,
    }


REPORT_COLUMNS = ["layer", "scheme", "table_cfg", "cycles", "ipc", "ipc_norm",
                  "time_norm", "stall_norm", "energy_norm", "pred_acc",
                  "frac_normal", "frac_pred", "frac_assigned", "avail"]


def report_row(stats, baseline, weights=EnergyWeights()):
    norm = normalize(stats, baseline, weights)
    dist = computation_distribution(stats)
    return {
        "layer": stats.layer,
        "scheme": stats.scheme,
        "table_cfg": stats.table_cfg,
        "cycles": stats.total_cycles,
        "ipc": ipc(stats),
        "ipc_norm": norm["ipc_norm"],
        "time_norm": norm["time_norm"],
        "stall_norm": norm["stall_norm"],
        "energy_norm": norm["energy_norm"],
        "pred_acc": prediction_accuracy(stats),
        "frac_normal": dist["normal"],
        "frac_pred": dist["predicted"],
        "frac_assigned": dist["assigned"],
        "avail": inter_sm_availability(stats),
    }


def format_report(rows, config_echo_lines=()):
    """Render report rows as CSV text; floats use 6-decimal fixed point.

    The fully resolved configuration is embedded as leading comment lines so
    a report is reproducible from its own header."""
    out = []
    for line in config_echo_lines:
        out.append(f"# {line}")
    out.append(",".join(REPORT_COLUMNS))
    for row in rows:
        cells = []
        for col in REPORT_COLUMNS:
            v = row[col]
            if isinstance(v, float):
                cells.append(f"{v:.6f}")
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
