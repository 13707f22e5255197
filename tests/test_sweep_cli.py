"""Sweep planning, persistence, presets, and the command-line front end."""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qionize
from qionize import cli, sweep
from qionize.cli import MAX_GRID_N, main
from qionize.observables import DIPOLE, INTEGRALS, enhancement_ratio
from qionize.sweep import (
    AXIS_NAMES,
    CSV_COLUMNS,
    SweepAxis,
    SweepPlan,
    _worker_count,
    load_preset,
    preset_names,
    run_sweep,
    write_csv,
    write_jsonl,
)
from qionize.units import ConfigError, ExperimentConfig, Regime

ENTANGLED_INTEGRALS = [name for name in INTEGRALS if name.endswith("_ent")]


# ---------------------------------------------------------------- plan validation


def test_axis_validation():
    with pytest.raises(ConfigError, match="axis"):
        SweepAxis("waist", (1.0, 2.0))
    with pytest.raises(ConfigError, match="no values"):
        SweepAxis("pump_waist_um", ())
    with pytest.raises(ConfigError, match="> 0"):
        SweepAxis("pump_waist_um", (1.0, -2.0))
    with pytest.raises(ConfigError, match="strictly increasing"):
        SweepAxis("pump_waist_um", (2.0, 2.0))
    assert AXIS_NAMES == ("crystal_length_um", "pump_waist_um")


def test_plan_validation_and_defaults():
    axis = SweepAxis("crystal_length_um", (1.0, 2.0))
    with pytest.raises(ConfigError, match="differ"):
        SweepPlan(axis1=axis, axis2=SweepAxis("crystal_length_um", (3.0, 4.0)))
    with pytest.raises(ConfigError, match="regime"):
        SweepPlan(axis1=axis, regimes=())
    plan = SweepPlan(axis1=axis)
    assert [c.name for c in plan.channels] == ["dipole"]


def test_points_order_axis1_outer():
    plan = SweepPlan(
        axis1=SweepAxis("crystal_length_um", (1.0, 2.0)),
        axis2=SweepAxis("pump_waist_um", (5.0, 10.0)),
    )
    got = [(p["crystal_length_um"], p["pump_waist_um"]) for p in plan.points()]
    assert got == [(1.0, 5.0), (1.0, 10.0), (2.0, 5.0), (2.0, 10.0)]


# ---------------------------------------------------------------- running


@pytest.fixture(scope="module")
def tiny_records():
    plan = SweepPlan(
        axis1=SweepAxis("crystal_length_um", (1.0, 2.0)),
        axis2=SweepAxis("pump_waist_um", (5.0, 10.0)),
    )
    return plan, run_sweep(plan, workers=1)


def test_run_sweep_matches_direct_evaluation(tiny_records):
    plan, records = tiny_records
    assert len(records) == 4
    for record in records:
        cfg = ExperimentConfig(
            crystal_length_um=record.L_um, pump_waist_um=record.omega_p_um
        )
        direct = enhancement_ratio(cfg, strict=False)
        assert record.R == direct.R
        assert record.C_ratio == direct.C_ratio
        assert record.err_R == direct.err_R
        assert record.converged
        assert record.error is None
        assert record.regime == "exact"
        assert record.channel == "dipole"


def test_run_sweep_parallel_equals_serial(tiny_records):
    plan, serial = tiny_records
    assert run_sweep(plan, workers=2) == serial


def test_run_sweep_dispatches_in_grid_order(monkeypatch, tmp_path):
    # workers get the tasks in grid order, one at a time, and the records
    # come back in grid order, byte for byte as a serial run
    dispatched = []

    class RecordingPool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            dispatched.append(([cfg.crystal_length_um for cfg, _ in tasks], chunksize))
            return map(fn, tasks)

    plan = SweepPlan(
        axis1=SweepAxis("crystal_length_um", (0.5, 3.0, 6.0)),
        axis2=SweepAxis("pump_waist_um", (5.0, 10.0)),
    )
    serial = run_sweep(plan, workers=1)
    monkeypatch.delenv("QIONIZE_THREADS", raising=False)
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    records = run_sweep(plan, workers=2)
    assert dispatched == [([0.5, 0.5, 3.0, 3.0, 6.0, 6.0], 1)]
    assert records == serial
    for name, recs in (("serial", serial), ("parallel", records)):
        write_csv(recs, str(tmp_path / f"{name}.csv"))
        write_jsonl(recs, str(tmp_path / f"{name}.jsonl"))
    for suffix in ("csv", "jsonl"):
        serial_bytes = (tmp_path / f"serial.{suffix}").read_bytes()
        assert (tmp_path / f"parallel.{suffix}").read_bytes() == serial_bytes


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.delenv("QIONIZE_THREADS", raising=False)
    assert _worker_count(3) == 3
    monkeypatch.setenv("QIONIZE_THREADS", "2")
    assert _worker_count(8) == 2
    assert _worker_count(1) == 1
    monkeypatch.setenv("QIONIZE_THREADS", "0")
    assert _worker_count(8) == 1
    monkeypatch.setenv("QIONIZE_THREADS", "lots")
    with pytest.raises(ConfigError, match="QIONIZE_THREADS"):
        _worker_count(8)


def test_worker_counts_below_one_are_rejected(monkeypatch):
    # the Python API rejects what the CLI's --workers rejects, before any work
    monkeypatch.setenv("QIONIZE_THREADS", "2")
    plan = SweepPlan(axis1=SweepAxis("crystal_length_um", (1.0,)))
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers"):
            _worker_count(workers)
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(plan, workers=workers)


def test_worker_count_defaults_to_the_affinity_mask(monkeypatch):
    # a 64-CPU host that lets this process run on 3 of them starts 3 workers
    monkeypatch.delenv("QIONIZE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert _worker_count(None) == 3
    assert _worker_count(8) == 8
    monkeypatch.setenv("QIONIZE_THREADS", "2")
    assert _worker_count(None) == 2
    # without affinity support the host's count is all there is
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delenv("QIONIZE_THREADS")
    assert _worker_count(None) == 64


def test_failed_point_becomes_error_row():
    # a config the reduced model rejects outright must still produce a row
    plan = SweepPlan(axis1=SweepAxis("crystal_length_um", (1.0,)))
    records = run_sweep(plan, ExperimentConfig(filter_omega_um=1.0))
    row = records[0]
    assert math.isnan(row.R)
    assert not row.converged
    assert row.error is not None and "NarrowbandGuardError" in row.error


def test_single_axis_rise_and_fall():
    # along crystal length at a tight waist the ratio climbs to a single
    # interior peak and then decays monotonically
    lengths = tuple(float(v) for v in np.logspace(-2, 1, 12))
    plan = SweepPlan(axis1=SweepAxis("crystal_length_um", lengths))
    records = run_sweep(plan, ExperimentConfig(pump_waist_um=3.0))
    rs = [r.R for r in records]
    peak = int(np.argmax(rs))
    assert 0 < peak < len(rs) - 1
    assert all(a < b for a, b in zip(rs[: peak + 1], rs[1 : peak + 1]))
    assert all(a > b for a, b in zip(rs[peak:], rs[peak + 1 :]))
    assert rs[peak] > 1.0
    assert rs[-1] < 0.5


# ---------------------------------------------------------------- presets


def test_preset_catalog():
    assert preset_names() == ("fig2a", "fig2b", "fig2c")
    with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
        load_preset("fig9")


# each preset field for field: description, metadata, base config,
# regimes, channels, and per axis its name, length and first and last value
_PRESET_FIELDS = {
    "fig2a": (
        "enhancement over the length x waist plane, both regimes",
        {"grid": "25x25 log10 over L in [0.01,100] um, pump waist in [1,100] um"},
        ExperimentConfig(),
        (Regime.EXACT, Regime.PARAXIAL),
        [("crystal_length_um", 25, 0.01, 100.0), ("pump_waist_um", 25, 1.0, 100.0)],
    ),
    "fig2b": (
        "enhancement vs crystal length at three pump waists",
        {"grid": "40 log10 points, L in [0.01,100] um; waists {3,10,50} um"},
        ExperimentConfig(),
        (Regime.EXACT,),
        [("crystal_length_um", 40, 0.01, 100.0), ("pump_waist_um", 3, 3.0, 50.0)],
    ),
    "fig2c": (
        "enhancement vs pump waist at fixed crystal length",
        {"grid": "40 log10 points, pump waist in [1,100] um", "assumed_crystal_length_um": "1.0"},
        ExperimentConfig(crystal_length_um=1.0),
        (Regime.EXACT,),
        [("pump_waist_um", 40, 1.0, 100.0)],
    ),
}


def test_preset_shapes():
    for name, (description, metadata, base, regimes, axes) in _PRESET_FIELDS.items():
        preset = load_preset(name)
        assert preset.name == name
        assert preset.description == description, name
        assert preset.metadata == metadata, name
        assert preset.base == base, name
        assert preset.plan.regimes == regimes, name
        assert preset.plan.channels == (DIPOLE,), name
        plan_axes = [a for a in (preset.plan.axis1, preset.plan.axis2) if a is not None]
        got = [(a.name, len(a.values), a.values[0], a.values[-1]) for a in plan_axes]
        assert got == axes, name
        # every call hands out its own metadata: a caller's edit stays local
        preset.metadata["note"] = "edited"
        assert load_preset(name).metadata == metadata, name
    assert load_preset("fig2b").plan.axis2.values == (3.0, 10.0, 50.0)


# ---------------------------------------------------------------- writers


def test_csv_writer_schema_and_stability(tiny_records, tmp_path):
    _, records = tiny_records
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(records, p1, metadata={"b_key": "2", "a_key": "1"})
    write_csv(records, p2, metadata={"b_key": "2", "a_key": "1"})
    raw = open(p1).read()
    assert raw == open(p2).read()  # byte-stable
    lines = raw.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert comments[0].startswith("# qionize ")
    assert any("obliquity" in ln for ln in comments)
    assert comments[-2:] == ["# a_key: 1", "# b_key: 2"]  # metadata sorted last
    header = lines[len(comments)]
    assert header == ",".join(CSV_COLUMNS)
    data = [ln.split(",") for ln in lines[len(comments) + 1 :]]
    assert len(data) == 4
    for cells, record in zip(data, records):
        assert float(cells[0]) == record.L_um  # repr round-trips exactly
        assert float(cells[4]) == record.R
        assert cells[9] == "true"


def test_csv_writer_nan_cells(tmp_path):
    plan = SweepPlan(axis1=SweepAxis("crystal_length_um", (1.0,)))
    records = run_sweep(plan, ExperimentConfig(filter_omega_um=1.0))
    path = str(tmp_path / "bad.csv")
    write_csv(records, path)
    last = open(path).read().splitlines()[-1].split(",")
    assert last[4] == "nan"
    assert last[9] == "false"


def test_jsonl_writer(tiny_records, tmp_path):
    _, records = tiny_records
    path = str(tmp_path / "rows.jsonl")
    write_jsonl(records, path, metadata={"note": "x"})
    lines = open(path).read().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "qionize-sweep-v1"
    assert header["note"] == "x"
    assert len(lines) == 1 + len(records)
    row = json.loads(lines[1])
    assert list(row) == list(CSV_COLUMNS)
    assert row["R"] == records[0].R


def test_jsonl_error_rows_use_null(tmp_path):
    plan = SweepPlan(axis1=SweepAxis("crystal_length_um", (1.0,)))
    records = run_sweep(plan, ExperimentConfig(filter_omega_um=1.0))
    path = str(tmp_path / "bad.jsonl")
    write_jsonl(records, path)
    row = json.loads(open(path).read().splitlines()[1])
    assert row["R"] is None  # nan is not valid JSON
    assert "NarrowbandGuardError" in row["error"]


# ---------------------------------------------------------------- CLI


def test_cli_ratio_identity_limit(capsys):
    assert main(["ratio", "--length", "1e-9", "--pump-waist", "3"]) == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
    )
    assert float(values["R"]) == pytest.approx(1.0, abs=1e-9)
    assert values["regime"] == "exact"
    assert values["channel"] == "dipole"
    assert values["kernel"] == "none"


@pytest.mark.parametrize("waist, length", [("0.3", "100"), ("1", "300")])
def test_cli_ratio_computes_the_tight_waist_corner(waist, length, capsys):
    # sub-um pumps and long crystals, where the paraxial approximation fails
    assert main(["ratio", "--pump-waist", waist, "--length", length]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line)
    assert 0.0 < float(values["R"]) < 1.0


def test_cli_ratio_rejects_bad_length(capsys):
    assert main(["ratio", "--length", "-1"]) == 1
    assert "crystal_length_um" in capsys.readouterr().err


def test_cli_rejects_non_finite_inputs(tmp_path, capsys):
    assert main(["ratio", "--length", "inf"]) == 1
    err = capsys.readouterr().err
    assert "crystal_length_um" in err
    assert "Traceback" not in err
    path = tmp_path / "inf.cfg"
    path.write_text("quadrature.max_evals = inf\n")
    assert main(["ratio", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "quadrature.max_evals" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("waist", ["4e163", "1e163"])
def test_cli_ratio_refuses_waists_beyond_double_precision(waist, capsys):
    # I1^2 is subnormal at 1e163 and zero at 4e163: f = I1^2 / I2w has no
    # correct digits there
    assert main(["ratio", "--length", "1", "--pump-waist", waist]) == 1
    out, err = capsys.readouterr()
    assert "pump_waist_um" in err
    assert "Traceback" not in err
    assert "R = " not in out


@pytest.mark.parametrize(
    "argv, names",
    [
        (["ratio", "--length", "1.7e308"], ENTANGLED_INTEGRALS),
        (["ratio", "--length", "1e306", "--pump-waist", "0.1"], ENTANGLED_INTEGRALS),
        (["ratio", "--length", "1e300"], ENTANGLED_INTEGRALS),
        (["ratio", "--length", "1e300", "--regime", "paraxial"], ENTANGLED_INTEGRALS),
        (["flux", "--length", "1.7e308", "--kind", "entangled"], ["I2_ent", "I2w_ent"]),
    ],
)
def test_cli_refuses_unaffordable_lengths_at_once(argv, names, capsys):
    # the starting panels overflow or far exceed max_evals: each integral is
    # refused before its first round, so the run exits 2 within seconds
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    assert err.split("integrals ", 1)[1].split(" did not converge")[0] == ", ".join(names)
    assert "evals=0" in err
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "argv", [["ratio", "--length", "1e300"], ["flux", "--length", "1.7e308", "--kind", "entangled"]]
)
def test_cli_refused_integrals_name_the_budget(argv, capsys):
    # an integral refused before its first round points at the one field
    # that would let it start
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "refused at evals=0" in err
    assert "quadrature.max_evals = 10000000" in err


def test_cli_separable_flux_ignores_crystal_length(capsys):
    # |F_sep|^2 never reads L, so its integrals start from the same panels
    # at any length and a long crystal costs what a short one does
    outputs = []
    for length in ("1", "3000"):
        assert main(["flux", "--kind", "separable", "--length", length]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cli_oracle_check_refuses_samples_past_the_ceiling(capsys):
    start = time.perf_counter()
    code = main(["oracle-check", "--configs", "1", "--samples", str(10**14)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1
    assert "samples must be <=" in err
    assert "Traceback" not in err
    assert elapsed < 5.0


def test_cli_oracle_check_rejects_negative_seed(capsys):
    assert main(["oracle-check", "--configs", "1", "--samples", "100000", "--seed=-5"]) == 1
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -5" in err
    assert "Traceback" not in err


def test_cli_rejects_unknown_regime(capsys):
    assert main(["ratio", "--regime", "bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_ratio_quadrupole_kernel(tmp_path, capsys):
    from qionize.observables import Parity, make_synthetic_kernel, save_kernel

    path = str(tmp_path / "even.kern")
    save_kernel(path, make_synthetic_kernel(Parity.EVEN))
    code = main(
        ["ratio", "--length", "50", "--pump-waist", "3", "--channel", "quadrupole",
         "--kernel", path]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel = model_kernel:" in out
    # the same channel without a kernel table is a usage error naming the flag
    assert main(["ratio", "--channel", "quadrupole"]) == 1
    err = capsys.readouterr().err
    assert err == "qionize: error: --channel quadrupole needs a kernel table: pass --kernel FILE\n"


def test_cli_flux_paraxial(capsys):
    assert main(["flux", "--pump-waist", "50", "--regime", "paraxial"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("flux_reduced = ")
    assert "(times symbolic g1^0 g2^1)" in out
    value = float(out.split("=", 1)[1].split("(")[0].strip())
    assert value > 0.0


def test_cli_amplitude_grid(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "grid.csv")
    assert main(["amplitude-grid", "--n", "32", "--out", path, "--pump-waist", "5"]) == 0
    lines = open(path).read().splitlines()
    assert lines[0] == "kix_per_um,ksx_per_um,amplitude"
    assert len(lines) == 1 + 32 * 32
    kix, ksx, amp = (float(tok) for tok in lines[1].split(","))
    assert abs(kix) < 19.1 and abs(ksx) < 19.1 and np.isfinite(amp)
    capsys.readouterr()
    # too few points, and too many to allocate (a 1e5 x 1e5 grid is 74.5 GiB)
    for n in ("1", str(MAX_GRID_N + 1), "100000"):
        assert main(["amplitude-grid", "--n", n]) == 1
        err = capsys.readouterr().err
        assert "--n" in err and "Traceback" not in err
    # each grid row is evaluated and written in turn: the traced peak stays
    # below a quarter of one n x n array of values, far below the 11 MB of
    # text at --n 512
    n = 512
    tracemalloc.start()
    try:
        assert main(["amplitude-grid", "--n", str(n), "--out", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 10 * 2**20
    assert peak <= n * n * 8 // 4, peak
    # an --out that cannot be written fails before any row is evaluated
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was evaluated before --out was checked")

    monkeypatch.setattr(cli, "eval_reduced", no_rows)
    for out in (str(tmp_path / "nonexistent" / "grid.csv"), str(tmp_path)):
        assert main(["amplitude-grid", "--n", "8", "--out", out]) == 1, out
        err = capsys.readouterr().err
        assert "--out" in err and out in err and "Traceback" not in err, out
    assert not (tmp_path / "nonexistent").exists()


def test_cli_sweep_writes_both_formats(tmp_path, capsys):
    out = str(tmp_path / "fig2c.csv")
    assert main(["sweep", "--preset", "fig2c", "--format", "both", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "wrote 40 records" in text
    csv_lines = open(out).read().splitlines()
    data = [ln for ln in csv_lines if not ln.startswith("#")]
    assert len(data) == 1 + 40
    jsonl_lines = open(out + ".jsonl").read().splitlines()
    assert len(jsonl_lines) == 1 + 40
    for ln in jsonl_lines:
        json.loads(ln)


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "both"])
def test_cli_sweep_checks_its_output_paths_before_it_computes(tmp_path, capsys, monkeypatch, fmt):
    # a path that cannot be written fails at once, not after the whole
    # preset, and leaves every file as it was
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep ran before the output paths were checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    (tmp_path / "kept.csv.jsonl").mkdir()
    bad = [str(tmp_path / "nonexistent" / "x.csv"), str(tmp_path)]
    if fmt == "both":
        bad.append(str(kept))
    for out in bad:
        assert main(["sweep", "--preset", "fig2a", "--format", fmt, "--out", out]) == 1, out
        err = capsys.readouterr().err
        assert "--out" in err, out
        assert "Traceback" not in err, out
    assert not (tmp_path / "nonexistent").exists()
    assert kept.read_text() == "earlier output\n"


def test_cli_oracle_check(capsys):
    code = main(["oracle-check", "--configs", "2", "--samples", "200000", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("R2d=") == 2
    assert "agreement: all configs" in out


def test_cli_rejects_counts_below_one(tmp_path, capsys):
    # zero configs would report agreement with nothing checked
    for count in ("0", "-2"):
        assert main(["oracle-check", "--configs", count, "--samples", "100000"]) == 1
        err = capsys.readouterr().err
        assert "--configs" in err
        assert "Traceback" not in err
    out = str(tmp_path / "fig2c.csv")
    for workers in ("0", "-1"):
        assert main(["sweep", "--preset", "fig2c", "--out", out, "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "fig2c.csv").exists()


def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fig2a: enhancement over the length x waist plane, both regimes",
        "fig2b: enhancement vs crystal length at three pump waists",
        "fig2c: enhancement vs pump waist at fixed crystal length",
    ]


def test_cli_config_file_and_nonconvergence(tmp_path, capsys):
    path = tmp_path / "hard.cfg"
    path.write_text(
        "crystal_length_um = 100.0\npump_waist_um = 3.0\nquadrature.max_evals = 2000\n"
    )
    assert main(["ratio", "--config", str(path)]) == 2
    assert "not converged" in capsys.readouterr().err


def test_cli_rejects_retired_quadrature_method(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text("crystal_length_um = 1.0\nquadrature.method = adaptive_subdivision\n")
    assert main(["ratio", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "quadrature.method" in err
    assert "Traceback" not in err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["ratio", "--config", "/nonexistent/qionize.cfg"]) == 1
    # an undecodable config or kernel file, and a kernel table holding nan,
    # are usage errors that name the file
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    nan = tmp_path / "nan.kern"
    nan.write_text("kernel v1 2 2\n0 nan\n0 0\n")
    capsys.readouterr()
    for argv, path in (
        (["ratio", "--config", str(bad)], bad),
        (["ratio", "--channel", "quadrupole", "--kernel", str(bad)], bad),
        (["ratio", "--channel", "quadrupole", "--kernel", str(nan)], nan),
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err, argv


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qionize ")


def _console_script_command():
    """The ``qionize`` console script, or its declared target run the same way.

    An installed package puts a ``qionize`` executable on PATH. A source
    checkout run with ``PYTHONPATH=src`` has none, so the target declared under
    ``[project.scripts]`` in ``pyproject.toml`` is called in a fresh interpreter
    the way a console-script wrapper calls it, with the package the suite
    imported first on the child's ``PYTHONPATH``.
    """
    exe = shutil.which("qionize")
    if exe is not None:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qionize"]
    module, _, func = target.partition(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    package_root = str(Path(qionize.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-c", code], env


def test_console_script_smoke():
    command, env = _console_script_command()
    proc = subprocess.run(
        [*command, "presets"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0
    assert "fig2a" in proc.stdout


def test_python_dash_m_runs_the_cli():
    src = str(Path(qionize.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qionize", "presets"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert "fig2a" in proc.stdout
