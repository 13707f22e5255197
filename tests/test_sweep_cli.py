"""Sweep planning, persistence, presets, and the command-line front end."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qionize
from qionize.cli import main
from qionize.observables import enhancement_ratio
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


def test_preset_shapes():
    a = load_preset("fig2a")
    assert len(a.plan.axis1.values) == 25
    assert len(a.plan.axis2.values) == 25
    assert a.plan.regimes == (Regime.EXACT, Regime.PARAXIAL)
    b = load_preset("fig2b")
    assert b.plan.axis2.values == (3.0, 10.0, 50.0)
    assert b.plan.regimes == (Regime.EXACT,)
    c = load_preset("fig2c")
    assert c.plan.axis2 is None
    assert c.base.crystal_length_um == 1.0
    assert c.metadata["assumed_crystal_length_um"] == "1.0"


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
    # the same channel without a kernel table is a usage error
    assert main(["ratio", "--channel", "quadrupole"]) == 1


def test_cli_flux_paraxial(capsys):
    assert main(["flux", "--pump-waist", "50", "--regime", "paraxial"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("flux_reduced = ")
    assert "(times symbolic g1^0 g2^1)" in out
    value = float(out.split("=", 1)[1].split("(")[0].strip())
    assert value > 0.0


def test_cli_amplitude_grid(tmp_path, capsys):
    path = str(tmp_path / "grid.csv")
    assert main(["amplitude-grid", "--n", "32", "--out", path, "--pump-waist", "5"]) == 0
    lines = open(path).read().splitlines()
    assert lines[0] == "kix_per_um,ksx_per_um,amplitude"
    assert len(lines) == 1 + 32 * 32
    kix, ksx, amp = (float(tok) for tok in lines[1].split(","))
    assert abs(kix) < 19.1 and abs(ksx) < 19.1 and np.isfinite(amp)
    assert main(["amplitude-grid", "--n", "1"]) == 1


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
    out = capsys.readouterr().out
    for name in ("fig2a", "fig2b", "fig2c"):
        assert name in out


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


def test_cli_missing_config_file(capsys):
    assert main(["ratio", "--config", "/nonexistent/qionize.cfg"]) == 1


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
