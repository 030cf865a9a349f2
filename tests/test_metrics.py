"""Derived metrics, normalization and report rendering on hand-built stats."""

import pytest

from opconv.metrics import (
    REPORT_COLUMNS,
    EnergyWeights,
    SimStats,
    computation_distribution,
    energy,
    format_report,
    inter_sm_availability,
    ipc,
    normalize,
    prediction_accuracy,
    report_row,
)


def sample_stats():
    return SimStats(
        layer="L", scheme="intra", table_cfg="pc256",
        total_ops=30, total_cycles=100,
        stall_cycles_per_sm=[10, 20], assist_cycles=8,
        l1_hits=10, l1_misses=5, l2_hits=2, l2_misses=3,
        dram_accesses=3, noc_flit_hops=7,
        precompute_accesses=4, assign_accesses=6, table_instances=2,
        normal_done=20, predicted_used=5, assigned_done=5, forwards=5,
        predictions_made=10,
        probe_misses=8, probe_found_elsewhere=6,
    )


def test_energy_is_weighted_event_sum():
    s = sample_stats()
    # 15*1 + 5*10 + 3*100 + 7*2 + 10*1 + 30*1 + 0.01*100*2
    assert energy(s) == pytest.approx(421.0)
    doubled = EnergyWeights(dram_access=200.0)
    assert energy(s, doubled) == pytest.approx(721.0)
    # static burn scales with enabled table instances
    s.table_instances = 0
    assert energy(s) == pytest.approx(419.0)


def test_simple_ratios():
    s = sample_stats()
    assert ipc(s) == pytest.approx(0.3)
    assert ipc(SimStats()) == 0.0
    assert prediction_accuracy(s) == pytest.approx(0.5)
    assert prediction_accuracy(SimStats()) == 0.0
    assert inter_sm_availability(s) == pytest.approx(0.75)
    assert inter_sm_availability(SimStats()) == 0.0
    assert s.stall_cycles == 30
    # a bounced op is issued once, as its forward, and executes out of band
    bounced = SimStats(normal_done=3, predicted_used=2, forwards=2, bounces=1)
    assert bounced.instructions_issued == 6


def test_distribution_sums_to_one():
    d = computation_distribution(sample_stats())
    assert d == {"normal": 20 / 30, "predicted": 5 / 30, "assigned": 5 / 30}
    empty = computation_distribution(SimStats())
    assert empty == {"normal": 0.0, "predicted": 0.0, "assigned": 0.0}


def test_normalize_against_baseline():
    base = SimStats(total_ops=30, total_cycles=200,
                    stall_cycles_per_sm=[60], l1_hits=60, normal_done=30)
    s = sample_stats()
    norm = normalize(s, base)
    assert norm["time_norm"] == pytest.approx(0.5)
    assert norm["ipc_norm"] == pytest.approx((30 / 100) / (30 / 200))
    assert norm["stall_norm"] == pytest.approx(0.5)
    base_energy = 60 + 30  # l1 hits + macs, nothing else
    assert norm["energy_norm"] == pytest.approx(421.0 / base_energy)

    with pytest.raises(ValueError):
        normalize(s, SimStats())
    # stall-free baseline: zero stays zero, anything else is infinite
    free = SimStats(total_cycles=10, normal_done=1,
                    stall_cycles_per_sm=[0], l1_hits=1, total_ops=1)
    assert normalize(free, free)["stall_norm"] == 0.0
    assert normalize(s, free)["stall_norm"] == float("inf")


def test_report_row_follows_columns():
    base = SimStats(total_ops=30, total_cycles=200,
                    stall_cycles_per_sm=[60], l1_hits=60, normal_done=30)
    row = report_row(sample_stats(), base)
    assert list(row) == REPORT_COLUMNS
    assert row["layer"] == "L" and row["scheme"] == "intra"
    assert row["table_cfg"] == "pc256"
    assert row["cycles"] == 100
    assert row["pred_acc"] == pytest.approx(0.5)
    assert row["avail"] == pytest.approx(0.75)
    for col in ("pred_acc", "frac_normal", "frac_pred", "frac_assigned", "avail"):
        assert 0.0 <= row[col] <= 1.0
    assert row["frac_normal"] + row["frac_pred"] + row["frac_assigned"] \
        == pytest.approx(1.0)


def test_format_report_layout():
    base = SimStats(total_ops=30, total_cycles=200,
                    stall_cycles_per_sm=[60], l1_hits=60, normal_done=30)
    text = format_report([report_row(sample_stats(), base)],
                         config_echo_lines=["run.seed = 0"])
    lines = text.splitlines()
    assert lines[0] == "# run.seed = 0"
    assert lines[1] == ",".join(REPORT_COLUMNS)
    cells = lines[2].split(",")
    assert cells[:4] == ["L", "intra", "pc256", "100"]
    assert cells[4] == "0.300000"          # floats as fixed 6 decimals
    assert text.endswith("\n")
    # rendering is pure: same input, same bytes
    assert text == format_report([report_row(sample_stats(), base)],
                                 config_echo_lines=["run.seed = 0"])
