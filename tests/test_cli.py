"""Configuration resolution, workload assembly and the experiment driver."""

import argparse
import json
import multiprocessing
import os
import re
import subprocess
import sys
from operator import mul
from pathlib import Path

import pytest

from opconv import cli, smcore
from opconv.metrics import EnergyWeights
from opconv.oracle import CompareResult, MemoryImage
from opconv.smcore import SimParams, Simulation, SimulationError
from opconv.workload import (WORD_SIZE, ConfigError, Pass, enumerate_ops,
                             lenet5_layers, make_layouts)


def make_args(**kw):
    base = dict(workload=None, scheme=None, preset=None, shrink=None,
                seed=None, config=None)
    base.update(kw)
    return argparse.Namespace(**base)


def write_workload(tmp_path, rows=("t1,forward,1,2,8,8,3,3,1,0",),
                   name="layers.csv"):
    path = tmp_path / name
    header = "name,pass,in_channels,out_channels,in_height,in_width,filter_h,filter_w,stride,padding"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def write_config(tmp_path, workload_file, extra=(), name="run.cfg"):
    path = tmp_path / name
    lines = [
        "workload.name = custom",
        f"workload.file = {workload_file}",
        "sm.count = 4",
        "inter.clusters = 2",
        *extra,
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


# ------------------------------------------------------------- config basics

def test_coerce_types():
    assert cli._coerce("sm.count", "0x10") == 16
    assert cli._coerce("intra.purge_fraction", "0.5") == 0.5
    assert cli._coerce("workload.name", " lenet5 ") == "lenet5"
    with pytest.raises(ConfigError):
        cli._coerce("sm.count", "many", where="f:3: ")


def test_parse_config_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment\n\nsm.count = 8   # trailing\nrun.seed=3\n")
    assert cli.parse_config_file(path) == {"sm.count": 8, "run.seed": 3}

    # a misspelt key, and keys that have been deleted
    for line in ("sm.cores = 8", "metrics.probe_availability = true",
                 "run.arith = float32", "inter.evict_scope = cluster",
                 "run.debug_invariants = true"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=r"a\.cfg:1: unknown key"):
            cli.parse_config_file(path)
    path.write_text("sm.count\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        cli.parse_config_file(path)
    path.write_text("sm.count = eight\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:1: bad value"):
        cli.parse_config_file(path)


def test_presets_bundle_scheme_knobs():
    cfg = cli.resolve_config(make_args(preset="combined_C1"))
    assert cfg["run.schemes"] == "both"
    assert cfg["intra.table_entries"] == 256
    assert cfg["inter.table_entries"] == 512
    assert cli.scheme_list(cfg) == ["both"]
    assert cli.table_cfg_label(cfg, "both") == "pc256+at512"

    bigger = cli.resolve_config(make_args(preset="combined_C2"))
    assert bigger["intra.table_entries"] == 512
    assert bigger["inter.table_entries"] == 1024
    with pytest.raises(ConfigError, match="unknown preset"):
        cli.resolve_config(make_args(preset="warp9"))


def test_scheme_flag_and_derivation():
    cfg = cli.resolve_config(make_args(scheme="all"))
    assert cli.scheme_list(cfg) == ["baseline", "intra", "inter", "both"]
    cfg = cli.resolve_config(make_args())
    assert cli.scheme_list(cfg) == ["baseline"]
    cfg["run.schemes"] = "intra, baseline, intra"
    assert cli.scheme_list(cfg) == ["intra", "baseline"]


def test_validate_config_rejections():
    def broken(**kw):
        cfg = dict(cli.DEFAULTS)
        cfg.update(kw)
        return cfg

    for bad in (
        broken(**{"workload.name": "resnet"}),
        broken(**{"workload.name": "custom"}),        # no file given
        broken(**{"workload.passes": "sideways"}),
        broken(**{"run.schemes": "baseline,warp"}),
    ):
        with pytest.raises(ConfigError):
            cli.validate_config(bad)
    # 60 SMs and 8 MCs need 68 nodes of the 8x8 mesh: rejected before any
    # layer is enumerated, naming the keys that size it
    for bad in (broken(**{"sm.count": 60}),
                broken(**{"mem.mcs": 9}),
                broken(**{"noc.mesh_w": 7})):
        with pytest.raises(ConfigError,
                           match="sm.count.*mem.mcs.*noc.mesh_w/h"):
            cli.validate_config(bad)
    cli.validate_config(broken(**{"sm.count": 56, "mem.mcs": 8}))
    cli.validate_config(dict(cli.DEFAULTS))


def bad_values(knob):
    """One value breaking each bound declared by `knob`, and NaN for a float."""
    bad = []
    if knob.lo is not None:
        bad.append(knob.lo - 1)
    if knob.hi is not None:
        bad.append(knob.hi + 1)
    if knob.choices:
        bad.append("no-such-choice")
    if isinstance(knob.default, float):
        bad.append(float("nan"))
    return bad


def test_every_declared_bound_is_enforced():
    # driven by the declarations, so a knob added later is covered too
    checked = 0
    for key, knob in cli.KNOBS.items():
        for value in bad_values(knob):
            cfg = dict(cli.DEFAULTS)
            cfg[key] = value
            with pytest.raises(ConfigError, match=re.escape(key)):
                cli.validate_config(cfg)
            checked += 1
    assert checked >= 30


def test_library_and_cli_default_machines_agree():
    for scheme in cli.SCHEMES:
        assert cli.make_params(cli.DEFAULTS, scheme) == SimParams(scheme=scheme)
    assert cli.energy_weights(cli.DEFAULTS) == EnergyWeights()


def test_table_cfg_labels():
    cfg = dict(cli.DEFAULTS)
    assert cli.table_cfg_label(cfg, "baseline") == "-"
    assert cli.table_cfg_label(cfg, "intra") == "pc256"
    assert cli.table_cfg_label(cfg, "inter") == "at512"
    assert cli.table_cfg_label(cfg, "both") == "pc256+at512"


# ----------------------------------------------------------------- workloads

def test_build_layers_default_shrinks():
    cfg = dict(cli.DEFAULTS)             # lenet5, shrink 0 = auto
    layers = cli.build_layers(cfg)
    assert [l.name for l in layers] == ["C1", "C2", "C3", "F1", "F2"]
    assert layers[0].in_height == 16     # auto shrink factor 2
    cfg["workload.shrink"] = 1
    assert cli.build_layers(cfg)[0].in_height == 32


def test_build_layers_custom_and_passes(tmp_path):
    cfg = dict(cli.DEFAULTS)
    cfg["workload.name"] = "custom"
    cfg["workload.file"] = str(write_workload(tmp_path))
    layers = cli.build_layers(cfg)
    assert [l.name for l in layers] == ["t1"]

    cfg["workload.passes"] = "backward"
    names = [l.name for l in cli.build_layers(cfg)]
    assert names == ["t1_bwd_in", "t1_bwd_w"]
    cfg["workload.passes"] = "all"
    names = [l.name for l in cli.build_layers(cfg)]
    assert names == ["t1", "t1_bwd_in", "t1_bwd_w"]
    assert all(l.pass_kind in set(Pass) for l in cli.build_layers(cfg))


def test_read_layer_file_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,pass\n")
    with pytest.raises(ConfigError, match="missing columns"):
        cli.read_layer_file(bad)
    bad.write_text(
        "name,pass,in_channels,out_channels,in_height,in_width,"
        "filter_h,filter_w,stride,padding\nt,sideways,1,1,8,8,3,3,1,0\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:2"):
        cli.read_layer_file(bad)
    bad.write_text(   # a layer's name becomes part of its output file names
        "name,pass,in_channels,out_channels,in_height,in_width,"
        "filter_h,filter_w,stride,padding\nt,forward,1,1,8,8,3,3,1,0\n"
        "a/b,forward,1,1,8,8,3,3,1,0\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:3: a/b: .*'/'"):
        cli.read_layer_file(bad)
    bad.write_text(
        "name,pass,in_channels,out_channels,in_height,in_width,"
        "filter_h,filter_w,stride,padding\n")
    with pytest.raises(ConfigError, match="no layers"):
        cli.read_layer_file(bad)


# ---------------------------------------------------------------- experiment

def experiment_cfg(tmp_path, extra=()):
    cfg_path = write_config(tmp_path, write_workload(tmp_path), extra)
    return cli.resolve_config(make_args(config=str(cfg_path), scheme="all"))


def test_run_experiment_outputs(tmp_path):
    cfg = experiment_cfg(tmp_path)
    out = tmp_path / "results"
    lines = []
    rows, counters, failures = cli.run_experiment(cfg, str(out), log=lines.append)
    assert failures == []
    assert [r["scheme"] for r in rows] == ["baseline", "intra", "inter", "both"]
    assert set(counters) == {"t1/baseline", "t1/intra", "t1/inter", "t1/both"}
    assert all("verify=OK" in line for line in lines)
    report = (out / "report.csv").read_text()
    assert report.startswith("# ")
    assert "t1,baseline,-," in report
    counters_json = json.loads((out / "counters.json").read_text())
    assert counters_json["t1/baseline"]["total_ops"] == 216
    echo = (out / "config.echo").read_text().splitlines()
    assert echo == sorted(echo)
    # schemes never change the measured op total
    assert all(v["total_ops"] == 216 for v in counters_json.values())


def test_rerun_is_byte_identical(tmp_path):
    cfg = experiment_cfg(tmp_path)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        cli.run_experiment(cfg, str(d), log=lambda _line: None)
    for name in ("report.csv", "counters.json", "config.echo"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_characterize_writes_reuse_and_availability(tmp_path):
    cfg = experiment_cfg(tmp_path)
    cfg["run.schemes"] = "baseline"
    out = tmp_path / "results"
    cli.run_experiment(cfg, str(out), characterize=True, log=lambda _line: None)
    lines = (out / "reuse_t1.csv").read_text().strip().splitlines()
    assert lines[0] == "computations_per_pair,pairs"
    assert len(lines) == 4
    assert sum(int(l.split(",")[1]) for l in lines[1:]) > 0

    avail = (out / "availability.csv").read_text().strip().splitlines()
    assert avail[0] == "layer,probe_misses,found_elsewhere,availability"
    name, misses, found, frac = avail[1].split(",")
    assert name == "t1" and int(misses) >= int(found) >= 0
    assert 0.0 <= float(frac) <= 1.0


def test_report_header_reproduces_run(tmp_path):
    cfg = experiment_cfg(tmp_path)
    cfg["sweep.label"] = "a"   # a key nothing declares is ignored
    cli.validate_config(cfg)
    first = tmp_path / "first"
    cli.run_experiment(cfg, str(first), log=lambda _line: None)
    report = (first / "report.csv").read_text()
    # a report must be reproducible from its own embedded config echo
    echo_cfg = tmp_path / "from_header.cfg"
    echo_cfg.write_text("\n".join(
        line[2:] for line in report.splitlines() if line.startswith("# ")))
    cfg2 = cli.resolve_config(make_args(config=str(echo_cfg)))
    second = tmp_path / "second"
    cli.run_experiment(cfg2, str(second), log=lambda _line: None)
    assert (second / "report.csv").read_text() == report


# ----------------------------------------------------------- worker processes

@pytest.fixture
def workers(monkeypatch):
    """workers(n) makes the next experiments run on n worker processes
    (n = 1: serially) and returns the list of worker pids they fork."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda _pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "fork", counting_fork)
        forked.clear()
        return forked
    return use


def src_env():
    """The environment, with this checkout's sources first on the path."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def assert_no_child_process():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):   # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_caps_at_cpus_and_runs(workers):
    workers(2)
    assert [cli.worker_count(n) for n in (1, 2, 20)] == [1, 2, 2]
    workers(1)
    assert cli.worker_count(20) == 1


# runs `opconv` with one usable CPU, as under `taskset -c 0`
_SERIAL_MAIN = """
import os, sys
from opconv import cli
os.sched_getaffinity = lambda _pid: {0}
sys.exit(cli.main(sys.argv[1:]))
"""


def test_default_run_is_byte_identical_serial_and_parallel(
        tmp_path, capsys, monkeypatch, workers):
    # the serial run is a child process that runs while this one simulates
    # on two workers, so that the test costs about one run
    argv = ["--scheme", "all", "--characterize", "--out"]
    serial = subprocess.Popen(
        [sys.executable, "-c", _SERIAL_MAIN, *argv, str(tmp_path / "serial")],
        env=src_env(), cwd=tmp_path, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    # the pid of the process that simulated each run; the workers inherit
    # the wrapper at fork, so each writes its own lines
    answered = tmp_path / "answered"
    simulate = smcore.run_simulation

    def noting_simulate(*args):
        value = simulate(*args)
        with open(answered, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return value

    monkeypatch.setattr(smcore, "run_simulation", noting_simulate)
    try:
        forked = workers(2)
        assert cli.main([*argv, str(tmp_path / "parallel")]) == 0
        assert len(forked) == 2
    finally:
        serial_log, serial_err = serial.communicate(timeout=60)
    # every run went to a worker, and no worker sat idle
    pids = [int(line) for line in answered.read_text().split()]
    assert len(pids) == 20 and set(pids) == set(forked)
    assert serial.returncode == 0, serial_err
    assert_no_child_process()
    log = capsys.readouterr().out
    assert len(log.splitlines()) == 20
    assert log == serial_log
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert {"report.csv", "counters.json", "config.echo", "availability.csv",
            "reuse_C1.csv"} <= set(names)
    assert sorted(p.name for p in (tmp_path / "parallel").iterdir()) == names
    for name in names:
        assert (tmp_path / "parallel" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes(), name


def test_parallel_run_exits_3_with_the_serial_message(tmp_path, capsys, workers):
    # every run stops on the watchdog; the error is the first in serial order
    idle_cfg = write_config(tmp_path, write_workload(tmp_path),
                            extra=("run.max_idle = 1",))
    errors = []
    for n in (1, 2):
        forked = workers(n)
        assert cli.main(["--config", str(idle_cfg), "--scheme", "all",
                         "--out", str(tmp_path / f"idle{n}")]) == 3
        assert len(forked) == (n if n > 1 else 0)
        assert_no_child_process()
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: simulation stopped: no progress since cycle")
    assert errors[1] == errors[0]


def test_parallel_run_ends_its_workers(tmp_path, monkeypatch, workers):
    cfg = experiment_cfg(tmp_path)
    forked = workers(2)
    lines = []
    cli.run_experiment(cfg, None, log=lines.append)
    assert len(forked) == 2 and len(lines) == 4
    assert_no_child_process()

    # a ConfigError raised inside the inter run, while the runs after it in
    # serial order may still be simulating
    run = Simulation.run

    def run_or_refuse(self):
        if self.params.scheme == "inter":
            raise ConfigError("planted in the inter run")
        return run(self)

    monkeypatch.setattr(Simulation, "run", run_or_refuse)
    for n in (1, 2):
        forked = workers(n)
        lines = []
        with pytest.raises(ConfigError, match="planted in the inter run"):
            cli.run_experiment(cfg, None, log=lines.append)
        assert len(forked) == (n if n > 1 else 0)
        assert [line.split()[1] for line in lines] == ["baseline", "intra"]
        assert_no_child_process()


def test_a_worker_that_dies_stops_the_run(tmp_path, monkeypatch, workers):
    cfg = experiment_cfg(tmp_path)
    run = Simulation.run

    def run_or_die(self):
        if self.params.scheme == "inter":
            os._exit(1)
        return run(self)

    monkeypatch.setattr(Simulation, "run", run_or_die)
    forked = workers(2)
    assert cli.worker_count(4) == 2   # so that only a worker can die here
    with pytest.raises(SimulationError, match="ended without an answer"):
        cli.run_experiment(cfg, None, log=lambda _line: None)
    assert len(forked) == 2
    assert_no_child_process()


def test_no_future_outlives_its_experiment(tmp_path, monkeypatch, workers):
    # as in a sweep, a clean experiment follows one whose inter run raised;
    # a run left over from the first would answer the second's run with the
    # outputs of another operand image
    cfg = experiment_cfg(tmp_path)
    clean = dict(cfg, **{"run.seed": 7})
    workers(1)
    serial_log = []
    cli.run_experiment(clean, str(tmp_path / "serial"), log=serial_log.append)
    run = Simulation.run

    def run_or_refuse(self):
        if self.params.scheme == "inter":
            raise ConfigError("planted in the inter run")
        return run(self)

    with monkeypatch.context() as m:
        m.setattr(Simulation, "run", run_or_refuse)
        workers(2)
        with pytest.raises(ConfigError, match="planted in the inter run"):
            cli.run_experiment(cfg, None, log=lambda _line: None)
    assert cli._RUNS == {} and cli._FUTURES == {}
    for n in (1, 2):
        workers(n)
        log = []
        cli.run_experiment(clean, str(tmp_path / f"after{n}"), log=log.append)
        assert cli._RUNS == {} and cli._FUTURES == {}
        assert log == serial_log
        for name in ("report.csv", "counters.json"):
            assert (tmp_path / f"after{n}" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes(), name
    assert_no_child_process()


# runs `opconv` with as many usable CPUs as its first argument says, then
# prints its exit status and the process pool's modules it loaded
_POOL_IMPORTS = """
import os, sys
from opconv import cli
os.sched_getaffinity = lambda _pid: set(range(int(sys.argv[1])))
status = cli.main(sys.argv[2:])
print(status, *(m for m in ("concurrent.futures", "multiprocessing")
                if m in sys.modules))
"""


def test_a_serial_run_loads_no_pool_module(tmp_path):
    cfg_path = write_config(tmp_path, write_workload(tmp_path))
    loaded = {}
    for cpus in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_IMPORTS, str(cpus), "--config",
             str(cfg_path), "--scheme", "all", "--out", str(tmp_path / str(cpus))],
            env=src_env(), cwd=tmp_path, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded[cpus] = proc.stdout.splitlines()[-1]
    assert loaded == {1: "0", 2: "0 concurrent.futures multiprocessing"}


# --------------------------------------------------------------------- sweep

def test_sweep_pairs_table_variants(tmp_path):
    cfg_path = write_config(tmp_path, write_workload(tmp_path))
    cfgs = [cli.resolve_config(make_args(config=str(cfg_path), preset=p))
            for p in ("intraSM_C1", "intraSM_C2")]
    out = tmp_path / "sweep.csv"
    rows, failures = cli.sweep(cfgs, str(out), log=lambda _line: None)
    assert failures == []
    assert [(r["scheme"], r["table_cfg"]) for r in rows] == \
        [("baseline", "-"), ("intra", "pc256"),
         ("baseline", "-"), ("intra", "pc512")]
    text = out.read_text()
    assert "# [0] intra.table_entries = 256" in text
    assert "# [1] intra.table_entries = 512" in text


def test_sweep_empty_writes_bare_report(tmp_path):
    out = tmp_path / "empty.csv"
    rows, failures = cli.sweep([], str(out))
    assert rows == [] and failures == []
    assert out.read_text().strip() == ",".join(cli.metrics.REPORT_COLUMNS)


def test_sweep_refuses_mixed_workloads(tmp_path):
    cfg_path = write_config(tmp_path, write_workload(tmp_path))
    a = cli.resolve_config(make_args(config=str(cfg_path)))
    b = cli.resolve_config(make_args(config=str(cfg_path), shrink=3))
    with pytest.raises(ConfigError, match="changes the workload"):
        cli.sweep([a, b], "")


# ---------------------------------------------------------------------- main

def test_main_exit_codes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, write_workload(tmp_path))
    assert cli.main(["--config", str(cfg_path), "--scheme", "both",
                     "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.csv").exists()

    assert cli.main(["--preset", "warp9", "--out", str(tmp_path / "o2")]) == 2
    assert "error:" in capsys.readouterr().err

    # rejected before any simulation: a zero purge period used to hang, a
    # negative DRAM latency used to report a shorter run, clusters left
    # without SMs were still charged as tables, a zero SIMT width or MC count
    # divided by zero, a zero-entry assign table failed mid-run and a
    # negative idle bound failed only after simulating
    for i, bad in enumerate(("l1.sets = 0", "intra.purge_period = 0",
                             "lat.dram = -500", "inter.clusters = 100",
                             "inter.clusters = 3", "sm.simt_width = 0",
                             "mem.mcs = 0", "inter.table_entries = 0",
                             "intra.table_entries = -1", "run.max_idle = -1",
                             "energy.dram = -5")):
        bad_cfg = write_config(tmp_path, write_workload(tmp_path), extra=(bad,))
        assert cli.main(["--config", str(bad_cfg), "--scheme", "all",
                         "--out", str(tmp_path / f"bad{i}")]) == 2
        assert "error:" in capsys.readouterr().err

    # passes validation, then the watchdog stops the run: status 3, not the
    # verification failure's 1, and one line instead of a traceback
    idle_cfg = write_config(tmp_path, write_workload(tmp_path),
                            extra=("run.max_idle = 1",))
    assert cli.main(["--config", str(idle_cfg),
                     "--out", str(tmp_path / "idle")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: simulation stopped: no progress since cycle")
    assert err.count("\n") == 1


# runs `opconv` once per argument list in one process; prints the exit
# status and the standard error of each run as JSON
_MAIN_LOOP = """
import contextlib, io, json, sys
from opconv import cli
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    results.append((status, err.getvalue()))
json.dump(results, sys.stdout)
"""


def test_invalid_configs_exit_2_before_any_run(tmp_path):
    # every declared bound, and the checks that relate several keys; the
    # runs share one process, under a timeout so that a hang fails the test
    cases = [(key, f"{key} = {value}") for key, knob in cli.KNOBS.items()
             for value in bad_values(knob)]
    cases += [("sm.warp_size", "sm.warp_size = 12"),    # SIMT width 8
              ("sm.count", "sm.count = 60"),            # 60 + 8 MCs > 8x8 mesh
              ("inter.clusters", "inter.clusters = 3"),  # 4 SMs: one left empty
              # nine SMs in one cluster overflow the 3-bit owner field
              ("inter.clusters", "sm.count = 9\ninter.clusters = 1")]
    workload_file = write_workload(tmp_path)
    cases = [(key, line, workload_file) for key, line in cases]
    # layer names that would overwrite another layer's records or name a
    # file outside the output directory; the last repeat is made by
    # workload.passes = all, from the forward layer t1
    t1 = "t1,forward,1,2,8,8,3,3,1,0"
    for i, (key, rows, line) in enumerate((
            ("'t1'", (t1, t1), ""),
            ("a/b", ("a/b,forward,1,2,8,8,3,3,1,0",), ""),
            ("'t1_bwd_w'", (t1, "t1_bwd_w,forward,1,2,8,8,3,3,1,0"),
             "workload.passes = all"))):
        cases.append((key, line, write_workload(tmp_path, rows,
                                                name=f"names{i}.csv")))
    runs = [["--config", str(write_config(tmp_path, layers, (line,),
                                          name=f"bad{i}.cfg")),
             "--scheme", "all", "--characterize", "--out",
             str(tmp_path / f"out{i}")]
            for i, (_, line, layers) in enumerate(cases)]
    proc = subprocess.run([sys.executable, "-c", _MAIN_LOOP],
                          input=json.dumps(runs), env=src_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(cases) >= 40
    for i, ((key, line, _), (status, err)) in enumerate(zip(cases, results)):
        assert status == 2, line
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (line, err)
        assert key in lines[0], (line, err)
        assert not (tmp_path / f"out{i}" / "report.csv").exists(), line


def test_removed_verify_switch_exits_2_before_any_run(tmp_path, capsys):
    # every run is checked against the reference: no flag or key turns it off
    for flag in ("--verify", "--no-verify"):
        with pytest.raises(SystemExit) as stop:
            cli.main([flag, "--out", str(tmp_path / "flag")])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg_path = write_config(tmp_path, write_workload(tmp_path),
                            extra=("run.verify = false",))
    assert cli.main(["--config", str(cfg_path),
                     "--out", str(tmp_path / "key")]) == 2
    assert "unknown key 'run.verify'" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "key").exists()


def test_conservation_check(tmp_path, capsys, monkeypatch):
    # a planted fault: an op forwarded to its owner adds its result without
    # counting its retirement
    def add_without_counting(self, table, i, key, value, now):
        self.out.add(self.ops.out[i], value)

    monkeypatch.setattr(Simulation, "_assigned_done", add_without_counting)
    geom = make_layouts(lenet5_layers(2)[0], cli.DEFAULTS["layout.row_pitch"])
    sim = Simulation(SimParams(scheme="inter"), enumerate_ops(geom),
                     MemoryImage(geom, 0), geom)
    with pytest.raises(SimulationError,
                       match=r"^C1/inter: \d+ retirements for 4320 ops$"):
        sim.run()

    cfg_path = tmp_path / "c1.cfg"
    cfg_path.write_text(
        f"workload.name = custom\nworkload.file = "
        f"{write_workload(tmp_path, ('C1,forward,1,6,32,32,5,5,1,0',))}\n"
        "workload.shrink = 2\n")
    assert cli.main(["--config", str(cfg_path), "--scheme", "inter",
                     "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: simulation stopped: C1/inter: \d+ "
                        r"retirements for 4320 ops\n", err), err


def test_cache_geometry_errors_name_their_keys(tmp_path, capsys):
    for bad, at_fault, other in (("l1.sets = 3", "l1.", "l2."),
                                 ("l2.ways = 3", "l2.", "l1.")):
        cfg_path = write_config(tmp_path, write_workload(tmp_path), extra=(bad,))
        assert cli.main(["--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "capacity must divide into sets*ways blocks" in err
        assert at_fault in err and other not in err


def test_main_reports_verification_failures(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, write_workload(tmp_path))
    monkeypatch.setattr(
        cli, "compare",
        lambda *_a, **_k: CompareResult(False, 1, ["0x0 planted mismatch"]))
    code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "verification failed" in capsys.readouterr().err


def test_verification_catches_a_faulty_dot(tmp_path, monkeypatch):
    # the simulator's dot drops its last product; the reference reads the
    # operand words itself, so every scheme's outputs must fail the check
    def dot_without_last_product(self, input_addr, weight_addr):
        i = (input_addr - self.input_base) // WORD_SIZE
        w = (weight_addr - self.weight_base) // WORD_SIZE
        n = self.length - 1
        return sum(map(mul, self.input_words[i:i + n],
                       self.weight_words[w:w + n]))

    monkeypatch.setattr(MemoryImage, "dot", dot_without_last_product)
    # a simulation takes its products from MemoryImage.products
    monkeypatch.setattr(MemoryImage, "products", lambda self, ops: self.dot)
    lines = []
    _, _, failures = cli.run_experiment(experiment_cfg(tmp_path), None,
                                        log=lines.append)
    assert [f.split(":")[0] for f in failures] == [
        "t1/baseline", "t1/intra", "t1/inter", "t1/both"]
    assert all("verify=FAIL" in line for line in lines)
