"""Tests of the benchmark's own arithmetic and accounting, on 4x4 toy layers.

    python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import bench_math
import one_pass
import run
import workloads
from tracing import Tracer

cli = one_pass.import_cli()

from opconv.oracle import MemoryImage  # noqa: E402  (needs import_cli first)
from opconv.smcore import SimulationError  # noqa: E402

# the acceptance suite's 4x4 toy layer, and a two-channel twin so that one
# layer's failures are a share of the runs rather than all of them
TOY_LAYERS = [["toy44", "forward", 1, 1, 4, 4, 3, 3, 1, 0],
              ["toy44c2", "forward", 2, 2, 4, 4, 3, 3, 1, 0]]

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def toy(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "toy", (
        {"workload.name": "custom", "workload.shrink": 1}, TOY_LAYERS, True))

    def make(seed=0, jobs=1, tracer=None):
        cfg, characterize = workloads.make_config(cli.DEFAULTS, "toy", seed, str(tmp_path))
        cfg["run.jobs"] = jobs
        return one_pass.run_pass(cli, cfg, str(tmp_path / "out"), characterize, tracer)
    return make


def test_geomean_and_speedup_math():
    assert bench_math.geomean([2.0, 8.0]) == pytest.approx(4.0)
    counters = {"a/baseline": {"total_cycles": 100}, "a/intra": {"total_cycles": 50},
                "b/baseline": {"total_cycles": 90}, "b/intra": {"total_cycles": 180}}
    assert bench_math.speedup(counters, "intra") == pytest.approx(1.0)
    assert bench_math.speedup(counters, "intra", failed={"b/intra"}) == pytest.approx(2.0)
    assert bench_math.speedup(counters, "intra", failed={"a/baseline", "b/intra"}) is None
    with pytest.raises(ValueError):
        bench_math.geomean([1.0, 0.0])


def test_speedup_agrees_with_report_time_norm(toy):
    p = toy()
    result = one_pass.evaluate(p)
    assert result["failed"] == {}
    for scheme in ("intra", "inter", "both"):
        norms = [row["time_norm"] for row in p.rows if row["scheme"] == scheme]
        assert len(norms) == len(TOY_LAYERS)
        assert result[f"speedup.{scheme}"] == pytest.approx(
            bench_math.geomean(1 / n for n in norms))
    energy = [row["energy_norm"] for row in p.rows if row["scheme"] == "both"]
    assert result["energy_norm.both"] == pytest.approx(bench_math.geomean(energy))


def test_injected_mismatch_counts_against_attempts(toy):
    p = toy()
    assert one_pass.failed_runs(p) == {}
    expected = p.hooks.expected["toy44"]
    addr = next(iter(expected))
    expected[addr] += 1          # the benchmark's copy, not the program's
    failed = one_pass.failed_runs(p)
    assert set(failed) == {f"toy44/{s}" for s in bench_math.SCHEMES}
    assert p.failures == []      # the program's own check still passes
    result = one_pass.evaluate(p)
    assert result["attempted"] == 8
    assert bench_math.fail_ratio(len(result["failed"]), result["attempted"]) == 0.5


def test_raising_run_fails_alone(toy, monkeypatch):
    real_run_one = cli.run_one

    def run_one(cfg, lr, scheme):
        if (lr.layer.name, scheme) == ("toy44c2", "inter"):
            raise SimulationError("injected")
        return real_run_one(cfg, lr, scheme)

    monkeypatch.setattr(cli, "run_one", run_one)
    p = toy()
    result = one_pass.evaluate(p)
    assert list(result["failed"]) == ["toy44c2/inter"]
    assert "injected" in result["failed"]["toy44c2/inter"]
    assert result["attempted"] == 8
    # speedup.inter keeps the layer that ran; speedup.intra keeps both
    c = p.counters

    def ratio(layer, scheme):
        return c[f"{layer}/baseline"]["total_cycles"] / c[f"{layer}/{scheme}"]["total_cycles"]

    assert result["speedup.inter"] == pytest.approx(ratio("toy44", "inter"))
    assert result["speedup.intra"] == pytest.approx(
        bench_math.geomean([ratio("toy44", "intra"), ratio("toy44c2", "intra")]))


def test_self_time_by_interval_coverage_with_overlapping_threads():
    # run_experiment on the main thread from 0 to 10; two workers' run_one
    # spans overlap between 3 and 4, and the last one outlives the window.
    # Subtracting the clipped durations (3 + 3 + 1 + 0.5) would give 2.5.
    window = (0.0, 10.0)
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 9.0), (9.5, 12.0)]
    assert bench_math.union_length(children) == pytest.approx(8.5)
    assert bench_math.uncovered(window, children) == pytest.approx(10 - 5 - 1 - 0.5)
    assert bench_math.uncovered(window, []) == pytest.approx(10.0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_pass(toy, jobs):
    tracer = Tracer()
    p = toy(jobs=jobs, tracer=tracer)
    metrics = one_pass.layer_metrics(p, tracer)
    names = [name for name, _, _ in tracer.spans]
    assert (names.count("LayerRun"), names.count("run_one")) == (2, 8)
    (window,) = [(s, e) for name, s, e in tracer.spans if name == "run_experiment"]
    assert 0 <= metrics["cli.self_s"] < window[1] - window[0]
    assert metrics["oracle.dot_calls"] >= metrics["smcore.ops"]
    wanted = {m["name"] for m in SPEC["per_layer"]} - {
        "trace.overhead_ratio", "trace.wall_s", "trace.untraced_wall_s"}
    assert wanted <= set(metrics)


def test_fingerprints_repeat_across_passes_seeds_and_tracing(toy):
    digests = bench_math.fingerprints(toy(seed=0).counters)
    assert bench_math.fingerprints(toy(seed=0).counters) == digests
    assert bench_math.fingerprints(toy(seed=1).counters) == digests
    assert bench_math.fingerprints(toy(seed=1, tracer=Tracer()).counters) == digests


def test_tracer_restores_the_program(toy):
    originals = (cli.run_one, cli.run_simulation, cli.compare, MemoryImage.dot,
                 MemoryImage.__init__, cli.LayerRun.__init__)
    toy(tracer=Tracer())
    assert (cli.run_one, cli.run_simulation, cli.compare, MemoryImage.dot,
            MemoryImage.__init__, cli.LayerRun.__init__) == originals


def test_end_to_end_names_and_fingerprint_failures(toy):
    passes = []
    for seed in (0, 1):
        result = one_pass.evaluate(toy(seed=seed))
        result.update(wall_s=1.0, peak_rss_mb=30.0)
        passes.append(result)
    values = run.end_to_end(passes, [0.3, 0.1, 0.2])
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["setup_s"] == 0.2
    assert run.tally(passes) == (16, 0, [])
    passes[1]["fingerprints"]["toy44/both"] = "0" * 64
    attempted, failed, reasons = run.tally(passes)
    assert (attempted, failed) == (16, 1)
    assert reasons[0].startswith("pass 1: toy44/both")
