"""Self-tests for the benchmark itself.

    python3 bench/selftest.py

Covers the correctness checks, the seeded inputs, the tail statistic, the
metric names against BENCHMARK.json (by running the benchmark briefly, in
both modes) and the refusal to run without the package sources. Takes about
a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # puts src/ on the import path
import workloads
from qionize import Regime, default_check_configs, load_preset, observables

RUN = [sys.executable, str(Path(run.__file__).resolve())]


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


class CorrectnessCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.case = next(c for c in workloads.ratio_panel(workloads.DEFAULT_SEED)
                        if c.label == "exact.L1_w10")
        cls.result = observables.enhancement_ratio(cls.case.config, cls.case.channel)
        cls.ref = workloads.load_reference()[cls.case.label]

    def check(self, result, first=None):
        return workloads.check_ratio(result, self.case.config, first, self.ref)

    def test_unperturbed_result_passes(self):
        self.assertEqual(self.check(self.result, first=self.result), [])

    def test_perturbed_R_fails(self):
        shift = 2.0 * (self.result.err_R + self.ref["err_R"])
        for R in (self.result.R + shift, self.result.R - shift, math.nan, -self.result.R):
            with self.subTest(R=R):
                self.assertTrue(self.check(dataclasses.replace(self.result, R=R)))

    def test_perturbed_err_R_fails(self):
        for err_R in (1e3 * self.result.err_R, -self.result.err_R, math.nan, math.inf):
            with self.subTest(err_R=err_R):
                self.assertTrue(self.check(dataclasses.replace(self.result, err_R=err_R)))

    def test_repeat_must_be_bit_identical(self):
        nudged = dataclasses.replace(self.result, R=math.nextafter(self.result.R, 2.0))
        self.assertTrue(workloads.check_ratio(nudged, self.case.config, first=self.result))

    def test_sweep_record_must_match_direct_call(self):
        from qionize.sweep import SweepRecord

        r = self.result
        record = SweepRecord(self.case.config.crystal_length_um, self.case.config.pump_waist_um,
                             "dipole", "exact", r.R, r.f_ent.value, r.f_sep.value, r.C_ratio,
                             r.err_R, r.converged, self.case.config)
        self.assertEqual(workloads.check_sweep_record(record, r), [])
        bad = dataclasses.replace(record, err_R=r.err_R * 2.0)
        self.assertTrue(workloads.check_sweep_record(bad, r))


class SeededInputs(unittest.TestCase):
    def test_default_seed_is_the_roadmap_panel(self):
        cases = workloads.ratio_panel(workloads.DEFAULT_SEED)
        points = [(0.01, 1.0), (1.0, 10.0), (1.0, 50.0), (50.0, 3.0), (100.0, 100.0)]
        expected = [(L, w, regime, "dipole") for regime in (Regime.EXACT, Regime.PARAXIAL)
                    for L, w in points]
        expected += [(L, w, Regime.EXACT, "quadrupole") for L, w in ((1.0, 10.0), (50.0, 3.0))]
        got = [(c.config.crystal_length_um, c.config.pump_waist_um, c.config.regime, c.channel.name)
               for c in cases]
        self.assertEqual(got, expected)
        self.assertTrue(all(c.channel.kernel is not None for c in cases[10:]))

    def test_default_seed_is_the_fig2a_subgrid(self):
        plan, _, _ = workloads.sweep_inputs(workloads.DEFAULT_SEED)
        preset = load_preset("fig2a").plan
        self.assertEqual(plan.axis1.values, preset.axis1.values[::6])
        self.assertEqual(plan.axis2.values, preset.axis2.values[::6])
        for got, want in zip(plan.axis1.values, (0.01, 0.1, 1.0, 10.0, 100.0)):
            self.assertAlmostEqual(got / want, 1.0, places=12)
        self.assertEqual(len(plan.points()) * len(plan.regimes), 50)

    def test_default_seed_oracle_inputs(self):
        configs, spec = workloads.oracle_inputs(workloads.DEFAULT_SEED)
        self.assertEqual(configs, default_check_configs(3, 0))
        self.assertEqual((spec.seed, spec.samples), (0, workloads.MC_SAMPLES))

    def test_other_seed_changes_inputs_deterministically(self):
        base = workloads.ratio_panel(workloads.DEFAULT_SEED)
        first = workloads.ratio_panel(7)
        self.assertEqual([c.config for c in first], [c.config for c in workloads.ratio_panel(7)])
        self.assertNotEqual([c.config for c in first], [c.config for c in workloads.ratio_panel(8)])
        factors = {}
        for b, c in zip(base, first):
            self.assertEqual(b.label, c.label)
            for field in ("crystal_length_um", "pump_waist_um"):
                nominal = getattr(b.config, field)
                factor = getattr(c.config, field) / nominal
                self.assertTrue(0.9 <= factor <= 1.1, (b.label, field, factor))
                self.assertNotEqual(factor, 1.0)
                # one factor per distinct axis value
                self.assertAlmostEqual(factors.setdefault((field, nominal), factor), factor, 15)

    def test_other_seed_keeps_sweep_columns(self):
        plan, _, _ = workloads.sweep_inputs(7)
        self.assertEqual(plan, workloads.sweep_inputs(7)[0])
        nominal = workloads.sweep_inputs(workloads.DEFAULT_SEED)[0]
        for axis, ref in ((plan.axis1, nominal.axis1), (plan.axis2, nominal.axis2)):
            self.assertEqual(len(set(axis.values)), 5)
            for got, want in zip(axis.values, ref.values):
                self.assertTrue(0.9 <= got / want <= 1.1)
        configs, spec = workloads.oracle_inputs(7)
        self.assertEqual(configs, default_check_configs(3, 7))
        self.assertEqual(spec.seed, 7)


class Statistics(unittest.TestCase):
    def test_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail(samples), (90.0, 90.0))  # 10 samples beyond 90


class Runs(unittest.TestCase):
    def names(self, kind):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[kind]}

    def run_bench(self, trace: int):
        proc = subprocess.run(RUN + ["--workload", "ratio-panel", "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace)],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return last_json(proc.stdout)

    def test_end_to_end_names_match(self):
        result = self.run_bench(0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         self.names("end_to_end"))

    def test_per_layer_names_match(self):
        result = self.run_bench(1)
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         self.names("per_layer"))

    def test_refuses_without_package_sources(self):
        (run.OUT).mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(Path(run.__file__).resolve().parent, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ratio-panel",
                                   "--seed", "0", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
