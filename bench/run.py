"""qionize benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 bench/run.py --workload ratio-panel --seed 0 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):
  ratio-panel  strict enhancement_ratio over 12 fixed configs, pass after pass
  sweep-fig2a  run_sweep over a 5x5 fig2a subgrid at 1 and nproc workers, then
               write_csv and write_jsonl
  oracle-mc    mc_enhancement_ratio and mc_integral at default_check_configs(3, seed)

Each run is one closed loop: calls go one after another from this process.
With --trace 0 it times complete passes over the workload's inputs (at least
two, then more while one more fits within --seconds) and prints the
end-to-end metrics. With --trace 1 it runs every layer with spans recorded
around each layer boundary, writes the spans to .bench_out/ and prints the
per-layer metrics. Both modes check the outputs; the last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "qionize" / "__init__.py").is_file():
    sys.exit(f"bench: no qionize sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qionize import amplitude, cli, observables, oracle, sweep, units  # noqa: E402
from qionize.amplitude import AmplitudeKind  # noqa: E402
from qionize.units import Reduction, Regime  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, INTEGRAL_NAMES  # noqa: E402

SETUP_LAUNCHES = 11
SETUP_CODE = "import qionize; from qionize import cli; cli.main(['presets'])"
MAX_PROBLEMS_SHOWN = 10


class Ops:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def call(self, what: str, func, *args, **kwargs):
        """Run one operation; an exception counts as a failed operation."""
        try:
            return func(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and reports it
            self.record(what, [f"{type(exc).__name__}: {exc}"])
            return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tail(samples):
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it, never below p90. Below 100 samples that is the slowest one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def timed_passes(seconds: float, one_pass, min_passes: int):
    """Complete passes, at least min_passes, then each further pass only if
    one more like the slowest so far still ends within `seconds`.
    Returns (durations, outputs)."""
    durations, outputs = [], []
    start = time.perf_counter()
    while (len(durations) < min_passes
           or time.perf_counter() - start + max(durations) <= seconds):
        t0 = time.perf_counter()
        outputs.append(one_pass())
        durations.append(time.perf_counter() - t0)
    return durations, outputs


def median_time(func, reps: int = 7) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        func()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure_setup(ops: Ops):
    """Wall time of fresh interpreters running import + `qionize presets`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for launch in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        ops.record("setup launch", [] if proc.returncode == 0 and "fig2a" in proc.stdout
                   else [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"])
        if launch:  # the first launch warms the file cache and .pyc files
            samples.append(elapsed)
    return samples


def peak_rss_mb(children: int):
    """Own peak RSS plus `children` times the largest child's (an upper bound
    on the concurrent peak while a worker pool runs), own, largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + children * child, own, child


# ---------------------------------------------------------------- workloads


def panel_pass(cases, ops: Ops):
    return [ops.call(case.label, observables.enhancement_ratio, case.config, case.channel)
            for case in cases]


def check_panel(cases, passes, ops: Ops, seed: int) -> None:
    ref = workloads.load_reference() if seed == DEFAULT_SEED else None
    first = {}
    for results in passes:
        for case, result in zip(cases, results):
            if result is None:
                continue  # already counted as failed
            earlier = first.setdefault(case.label, result)
            ops.record(case.label, workloads.check_ratio(
                result, case.config, None if earlier is result else earlier,
                ref[case.label] if ref else None))


class SweepJob:
    """One pass of sweep-fig2a: both worker counts, then both writers."""

    def __init__(self, seed: int, workdir: Path, workers: int) -> None:
        self.plan, self.base, self.metadata = workloads.sweep_inputs(seed)
        self.workdir = workdir
        self.workers = workers

    def __call__(self):
        t0 = time.perf_counter()
        serial = sweep.run_sweep(self.plan, self.base, workers=1)
        t1 = time.perf_counter()
        parallel = sweep.run_sweep(self.plan, self.base, workers=self.workers)
        t2 = time.perf_counter()
        for tag, records in (("w1", serial), ("wN", parallel)):
            sweep.write_csv(records, str(self.workdir / f"{tag}.csv"), self.metadata)
            sweep.write_jsonl(records, str(self.workdir / f"{tag}.jsonl"), self.metadata)
        outputs = {name: (self.workdir / name).read_bytes()
                   for name in ("w1.csv", "wN.csv", "w1.jsonl", "wN.jsonl")}
        return {"serial": serial, "parallel": parallel, "w1_s": t1 - t0, "wN_s": t2 - t1,
                "outputs": outputs}

    def check(self, passes, ops: Ops) -> None:
        for out in passes:
            for tag in ("serial", "parallel"):
                for record in out[tag]:
                    ops.record(f"{tag} record L={record.L_um!r} w={record.omega_p_um!r}",
                               [] if record.converged and record.error is None
                               else [record.error or "not converged"])
            ops.record("w1 vs wN rows", [] if workloads.same_rows(out["serial"], out["parallel"])
                       else ["rows differ between 1 and nproc workers"])
            files = out["outputs"]
            ops.record("w1 vs wN files",
                       [] if files["w1.csv"] == files["wN.csv"]
                       and files["w1.jsonl"] == files["wN.jsonl"]
                       else ["CSV or JSONL bytes differ between 1 and nproc workers"])
        records = passes[0]["parallel"]
        for index in workloads.SWEEP_SUBSET:
            record = records[index]
            channel = next(c for c in self.plan.channels if c.name == record.channel)
            direct = ops.call(f"direct record {index}", observables.enhancement_ratio,
                              record.config, channel)
            if direct is not None:
                ops.record(f"sweep record {index} vs direct call",
                           workloads.check_sweep_record(record, direct))


class OracleJob:
    """One pass of oracle-mc: both 6D estimators at each config."""

    def __init__(self, seed: int) -> None:
        self.configs, self.spec = workloads.oracle_inputs(seed)
        self.integrands = [workloads.entangled_norm_integrand(c) for c in self.configs]
        self.samples = 2 * len(self.configs) * int(self.spec.samples)

    def __call__(self, ops: Ops):
        ratio_s = integral_s = 0.0
        out = []
        for cfg, f in zip(self.configs, self.integrands):
            t0 = time.perf_counter()
            ratio = ops.call("mc_enhancement_ratio", oracle.mc_enhancement_ratio, cfg, self.spec)
            t1 = time.perf_counter()
            integral = ops.call("mc_integral", oracle.mc_integral, f, cfg, self.spec)
            t2 = time.perf_counter()
            ratio_s += t1 - t0
            integral_s += t2 - t1
            out.append((ratio, integral))
        return {"results": out, "ratio_s": ratio_s, "integral_s": integral_s}

    def check(self, passes, ops: Ops) -> None:
        first = passes[0]["results"]
        for out in passes:
            for index, ((ratio, integral), (ratio0, integral0)) in enumerate(
                    zip(out["results"], first)):
                if ratio is None or integral is None:
                    continue
                problems = workloads.mc_cross_problems(integral, ratio)
                if not (math.isfinite(ratio.R) and math.isfinite(ratio.sigma_R)):
                    problems.append(f"R = {ratio.R!r} +- {ratio.sigma_R!r}")
                if (ratio0 is not None and integral0 is not None
                        and (ratio.R, integral.value) != (ratio0.R, integral0.value)):
                    problems.append("repeat call differs")
                ops.record(f"mc config {index}", problems)
        # the reduced R is computed here, outside the timed region
        for index, (cfg, (ratio, _)) in enumerate(zip(self.configs, first)):
            row = ops.call(f"reduced_vs_full config {index}", oracle.reduced_vs_full_check,
                           cfg, self.spec)
            if row is None:
                continue
            problems = [] if row.agrees else [
                f"|R2d/R6d - 1| = {row.rel_deviation:.4f} > tolerance {row.tolerance:.4f}"]
            if ratio is not None and row.R_full != ratio.R:
                problems.append("cross-check MC ratio differs from the timed one")
            ops.record(f"reduced_vs_full config {index}", problems)


# ------------------------------------------------------------ untraced run


def run_untraced(workload: str, seed: int, seconds: float, ops: Ops, info: dict):
    workers = 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if workload == "ratio-panel":
            cases = workloads.ratio_panel(seed)
            ops.call("warm-up", observables.enhancement_ratio, cases[1].config, cases[1].channel)
            durations, passes = timed_passes(seconds, lambda: panel_pass(cases, ops), 2)
            info["ratios_per_pass"] = len(cases)

            def check():
                check_panel(cases, passes, ops, seed)
        elif workload == "sweep-fig2a":
            workers = nproc()
            job = SweepJob(seed, Path(tmp), workers)
            durations, passes = timed_passes(seconds, job, 2)
            count = len(passes[0]["serial"])
            info["sweep_records_per_s.w1"] = statistics.median(count / p["w1_s"] for p in passes)
            info["sweep_records_per_s.wN"] = statistics.median(count / p["wN_s"] for p in passes)
            info["records_per_leg"] = count
            info["workers"] = workers

            def check():
                job.check(passes, ops)
        else:
            job = OracleJob(seed)
            ops.call("warm-up", oracle.mc_enhancement_ratio, job.configs[0],
                     oracle.McSpec(samples=oracle.MIN_SAMPLES))
            durations, passes = timed_passes(seconds, lambda: job(ops), 2)
            info["mc_samples_per_s"] = statistics.median(
                job.samples / 2 / p["ratio_s"] for p in passes)
            info["samples_per_pass"] = job.samples

            def check():
                job.check(passes, ops)
        # memory before the checks, which run other code (the reduced R)
        rss, info["rss_own_mb"], info["rss_largest_child_mb"] = peak_rss_mb(workers)
        check()
    setup = measure_setup(ops)
    tail_value, info["pass_s.tail_percentile"] = tail(durations)
    info["passes"] = len(durations)
    info["pass_s"] = durations
    info["setup_launches"] = len(setup)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s.p50": (statistics.median(durations), "s"),
        "pass_s.tail": (tail_value, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


# -------------------------------------------------------------- traced run


def panel_layers(cases, spans, results):
    """Per-layer numbers from the spans of one traced panel pass."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    ratios = [s for s in children.get(None, []) if s["name"] == "enhancement_ratio"]
    out = {"ratio_s": {}, "evals": {}, "err_R_rel": {},
           "I": {name: {"evals": 0, "rounds": 0, "max_nodes": 0} for name in INTEGRAL_NAMES},
           "integrand_s": 0.0, "quad_self_s": 0.0, "obs_self_s": 0.0}
    for case, ratio, result in zip(cases, ratios, results):
        integrals = [s for s in children.get(ratio["id"], []) if s["name"] == "integrate_2d"]
        out["ratio_s"][case.label] = tracing.seconds(ratio)
        out["evals"][case.label] = sum(s["evals"] for s in integrals)
        out["err_R_rel"][case.label] = result.err_R / result.R
        out["obs_self_s"] += tracing.self_seconds(ratio, spans)
        for s in integrals:
            agg = out["I"][s["integral"]]
            for key in ("evals", "rounds", "max_nodes"):
                agg[key] += s[key]
            inner = sum(tracing.seconds(c) for c in children.get(s["id"], []))
            out["integrand_s"] += inner
            out["quad_self_s"] += tracing.seconds(s) - inner
    out["kernel_s"] = sum(tracing.seconds(s) for s in tracing.named(spans, "kernel.evaluate"))
    return out


def trace_panel(seed: int, seconds: float, tracer, ops: Ops):
    """Untraced and traced panel passes, alternating; per-layer numbers."""
    cases = workloads.ratio_panel(seed)
    ops.call("warm-up", observables.enhancement_ratio, cases[1].config, cases[1].channel)

    def pair():
        t0 = time.perf_counter()
        plain = panel_pass(cases, ops)
        t1 = time.perf_counter()
        first_span = len(tracer.spans)
        with tracing.patched(tracer):
            traced = panel_pass(cases, ops)
        t2 = time.perf_counter()
        layer = None
        if all(r is not None for r in traced):
            layer = panel_layers(cases, tracer.spans[first_span:], traced)
        return {"results": (plain, traced), "plain_s": t1 - t0, "traced_s": t2 - t1,
                "layer": layer}

    _, pairs = timed_passes(seconds, pair, 2)
    plain = [p["plain_s"] for p in pairs]
    traced = [p["traced_s"] for p in pairs]
    layers = [p["layer"] for p in pairs if p["layer"] is not None]
    all_results = [results for p in pairs for results in p["results"]]
    check_panel(cases, all_results, ops, seed)
    if not layers:
        return {}, {}

    def med(get):
        return statistics.median(get(layer) for layer in layers)

    metrics = {}
    last = layers[-1]
    total_evals = sum(agg["evals"] for agg in last["I"].values())
    for name, agg in last["I"].items():
        metrics[f"quadrature.evals.{name}"] = (agg["evals"], "count")
        metrics[f"quadrature.rounds.{name}"] = (agg["rounds"], "count")
        metrics[f"quadrature.useful_frac.{name}"] = (agg["max_nodes"] / agg["evals"], "ratio")
    integrand_s = med(lambda x: x["integrand_s"])
    metrics["quadrature.integrand_s"] = (integrand_s, "s")
    metrics["quadrature.self_s"] = (med(lambda x: x["quad_self_s"]), "s")
    metrics["quadrature.ns_per_eval"] = (1e9 * integrand_s / total_evals, "ns")
    for case in cases:
        label = case.label
        metrics[f"observables.ratio_s.{label}"] = (med(lambda x: x["ratio_s"][label]), "s")
        metrics[f"observables.evals.{label}"] = (last["evals"][label], "count")
        metrics[f"observables.err_R_rel.{label}"] = (last["err_R_rel"][label], "ratio")
    metrics["observables.self_s"] = (med(lambda x: x["obs_self_s"]), "s")
    metrics["observables.kernel_eval_s"] = (med(lambda x: x["kernel_s"]), "s")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.panel_overhead_s"] = (overhead, "s")
    ratio_sum = med(lambda x: sum(x["ratio_s"].values()))
    summary = {
        "panel.untraced_pass_s": plain,
        "panel.traced_pass_s": traced,
        "panel.sum_ratio_s": ratio_sum,
        "panel.ratio_s_not_in_quadrature":
            ratio_sum - integrand_s - metrics["quadrature.self_s"][0],
        "panel.tracing_overhead_s": overhead,
    }
    return metrics, summary


def trace_sweep(seed: int, tracer, ops: Ops, workdir: Path):
    job = SweepJob(seed, workdir, nproc())
    first_span = len(tracer.spans)
    with tracing.patched(tracer):
        out = job()
    job.check([out], ops)
    spans = tracer.spans[first_span:]
    serial_span, parallel_span = tracing.named(spans, "run_sweep")[:2]
    in_serial = [s for s in spans if s["request"] == serial_span["request"]]
    ratio_spans = [s for s in in_serial if s["name"] == "enhancement_ratio"]
    integrals = tracing.named(in_serial, "integrate_2d")
    evals = sum(s["evals"] for s in integrals)
    evals_sep = sum(s["evals"] for s in integrals if s["integral"].endswith("_sep"))
    count = len(out["serial"])
    rate_w1 = count / tracing.seconds(serial_span)
    rate_wn = count / tracing.seconds(parallel_span)
    write_s = sum(tracing.seconds(s) for s in spans if s["name"] in ("write_csv", "write_jsonl"))
    return {
        "sweep.records_per_s.w1": (rate_w1, "1/s"),
        "sweep.records_per_s.wN": (rate_wn, "1/s"),
        "sweep.parallel_eff": (rate_wn / (job.workers * rate_w1), "ratio"),
        "sweep.self_s": (tracing.self_seconds(serial_span, spans), "s"),
        "sweep.straggler_s": (max(tracing.seconds(s) for s in ratio_spans), "s"),
        "sweep.evals_sep_frac": (evals_sep / evals, "ratio"),
        "sweep.write_s": (write_s, "s"),
    }


def trace_oracle(seed: int, tracer, ops: Ops):
    job = OracleJob(seed)
    first_span = len(tracer.spans)
    with tracing.patched(tracer):
        out = job(ops)
    job.check([out], ops)
    spans = tracer.spans[first_span:]
    ratios = [r for r, _ in out["results"] if r is not None]
    per_call = job.spec.samples
    ratio_s = sum(tracing.seconds(s) for s in tracing.named(spans, "mc_enhancement_ratio")
                  if s["parent"] is None)
    integral_s = sum(tracing.seconds(s) for s in tracing.named(spans, "mc_integral"))
    return {
        "oracle.mc_samples_per_s": (len(job.configs) * per_call / ratio_s, "1/s"),
        "oracle.mc_integral_samples_per_s": (len(job.configs) * per_call / integral_s, "1/s"),
        "oracle.ess_frac": (sum(r.effective_sample_size for r in ratios)
                            / (len(ratios) * per_call), "ratio"),
        "oracle.rejection_frac": (statistics.fmean(r.rejection_fraction for r in ratios),
                                  "ratio"),
        "oracle.sigma_R_rel": (statistics.fmean(r.sigma_R / r.R for r in ratios), "ratio"),
    }


def amplitude_layer(seed: int, cases):
    """Integrand building blocks on fixed inputs, ns per node or sample."""
    cfg = next(c.config for c in cases if c.label == "exact.L100_w100")
    k0 = cfg.k0
    n = 256
    axis = np.linspace(-k0 * (1.0 - 1e-9), k0 * (1.0 - 1e-9), n)
    point = (axis[:, None], axis[None, :])
    metrics = {}
    for regime in (Regime.EXACT, Regime.PARAXIAL):
        c = cfg.replace(regime=regime)
        for kind in (AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE):
            t = median_time(lambda: amplitude.eval_reduced(point, c, kind))
            metrics[f"amplitude.eval_reduced_ns_per_node.{regime.value}.{kind.value}"] = (
                1e9 * t / (n * n), "ns")
    x = np.linspace(-200.0, 200.0, 1 << 20)
    metrics["amplitude.sinc_ns_per_elem"] = (1e9 * median_time(lambda: amplitude.sinc(x)) / x.size,
                                             "ns")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m = 1 << 17
    kx = rng.uniform(-0.5 * k0, 0.5 * k0, size=(2, m))
    ky = rng.normal(0.0, 1e-6, size=(2, m))
    kz = np.sqrt(k0**2 - kx**2 - ky**2)
    ki, ks = (kx[0], ky[0], kz[0]), (kx[1], ky[1], kz[1])
    for regime in (Regime.EXACT, Regime.PARAXIAL):
        c = cfg.replace(regime=regime, reduction=Reduction.FULL_6D)
        t = median_time(lambda: amplitude.eval_amplitude(ki, ks, c, AmplitudeKind.ENTANGLED))
        metrics[f"amplitude.eval_amplitude_ns_per_sample.{regime.value}"] = (1e9 * t / m, "ns")
    return metrics


def units_cli_layers(cases, ops: Ops):
    configs = [c.config for c in cases]
    for cfg in configs:
        back = ops.call("config roundtrip", units.load_config,
                        io.StringIO(units.dump_config(cfg)))
        if back is not None:
            ops.record("config roundtrip", [] if back == cfg else [f"{back!r} != {cfg!r}"])
    reps = 20
    per_set = median_time(lambda: [units.load_config(io.StringIO(units.dump_config(c)))
                                   for c in configs for _ in range(reps)])
    roundtrip_us = 1e6 * per_set / (reps * len(configs))

    case = next(c for c in cases if c.label == "exact.L1_w10")
    argv = ["ratio", "--length", repr(case.config.crystal_length_um),
            "--pump-waist", repr(case.config.pump_waist_um)]
    via_cli, direct = [], []
    for _ in range(9):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        t1 = time.perf_counter()
        result = observables.enhancement_ratio(case.config)
        t2 = time.perf_counter()
        via_cli.append(t1 - t0)
        direct.append(t2 - t1)
        ops.record("cli ratio", [] if code == 0 and f"R = {result.R!r}\n" in buf.getvalue()
                   else [f"exit {code}, output {buf.getvalue()[:200]!r}"])
    overhead_ms = 1e3 * (statistics.median(via_cli) - statistics.median(direct))
    return {
        "units.config_roundtrip_us": (roundtrip_us, "us"),
        "cli.ratio_overhead_ms": (overhead_ms, "ms"),
    }


def run_traced(workload: str, seed: int, seconds: float, ops: Ops, info: dict):
    tracer = tracing.Tracer()
    metrics, summary = trace_panel(seed, seconds, tracer, ops)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        metrics.update(trace_sweep(seed, tracer, ops, Path(tmp)))
    metrics.update(trace_oracle(seed, tracer, ops))
    cases = workloads.ratio_panel(seed)
    metrics.update(amplitude_layer(seed, cases))
    metrics.update(units_cli_layers(cases, ops))
    span_path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(span_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    info.update(summary)
    info["span_file"] = str(span_path.relative_to(ROOT))
    info["spans"] = len(tracer.spans)
    return metrics


# ------------------------------------------------------------------ output


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def declared_metrics(kind: str):
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    OUT.mkdir(exist_ok=True)

    ops = Ops()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": git_commit(), "src_lines": src_lines(),
        "qionize_threads": os.environ.get("QIONIZE_THREADS"),
    }
    info = {}
    run = run_traced if args.trace else run_untraced
    metrics = run(args.workload, args.seed, args.seconds, ops, info)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units_off = sorted(n for n in set(printed) & set(declared) if printed[n] != declared[n])
        print(f"bench: metrics differ from BENCHMARK.json {kind}: missing {missing}, "
              f"extra {extra}, unit mismatch {units_off}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for key, value in info.items():
        if not isinstance(value, (list, dict)):
            print(f"# {key} = {value!r}")
    print(f"# failed_ops_frac = {ops.failed / ops.attempted!r} "
          f"({ops.failed} of {ops.attempted} operations)")
    for problem in ops.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"meta": meta, "info": info, "problems": ops.problems, "result": result}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# meta " + json.dumps(meta))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
