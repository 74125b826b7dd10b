"""Self-tests of the benchmark itself (not of the repro package).

    python3 perfbench/selftest.py

Checks the metric declarations in BENCHMARK.json, that the code emits
exactly the declared metrics with their units, that the package ledger
sums to the profiled total and charges library time to its callers, and
that failed runs are counted rather than dropped.
"""

from __future__ import annotations

import cProfile
import json
import os
import sys
import tomllib
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ledger  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

UNIT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_/%.-")


class DeclarationTests(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = run.benchmark_spec()

    def test_metric_names_and_units_are_well_formed(self) -> None:
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], run.NAME_RE)
            self.assertTrue(m["unit"] and len(m["unit"]) <= 16
                            and set(m["unit"]) <= UNIT_CHARS, m)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_bounds_and_setup_metric(self) -> None:
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_workloads_match_the_code(self) -> None:
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(run.workloads.WORKLOADS))

    def test_ledger_vocabulary_is_the_lint_layer_map(self) -> None:
        with open(os.path.join(ROOT, "repro-lint.toml"), "rb") as fh:
            layers = tomllib.load(fh)["rules"]["layering"]["layers"]
        listed = {p for layer in layers.values() for p in layer["packages"]}
        for pkg in ledger.PACKAGES:
            self.assertIn(f"repro.{pkg}", listed)


class EmissionTests(unittest.TestCase):
    def test_per_layer_emission_matches_declaration(self) -> None:
        fold = {"self_s": {b: 1.0 for b in ledger.BUCKETS},
                "calls_in": {b: 1 for b in ledger.BUCKETS},
                "total_s": float(len(ledger.BUCKETS))}
        values = run._ledger_values(fold, 2.0)
        values.update({name: 0.0 for name in run._SERVE_SPANS})
        values.update({name: 0.0 for name in (
            "scenarios.execute_s", "scenarios.serialize_s", "dqm.commands",
            "policies.accept_ratio", "policies.pushout_ratio")})
        declared = run.benchmark_spec()["per_layer"]
        out = run.validate(values, declared)
        for m in declared:
            self.assertEqual(out[m["name"]]["unit"], m["unit"])
        self.assertAlmostEqual(
            sum(values[f"{b}.share"] for b in ledger.BUCKETS), 1.0)

    def test_validate_refuses_missing_or_extra_metrics(self) -> None:
        declared = run.benchmark_spec()["end_to_end"]
        values = {m["name"]: 1.0 for m in declared}
        run.validate(values, declared)
        with self.assertRaises(ValueError):
            run.validate({**values, "extra": 1.0}, declared)
        missing = dict(values)
        missing.pop("setup_s")
        with self.assertRaises(ValueError):
            run.validate(missing, declared)
        with self.assertRaises(ValueError):
            run.validate({**values, "setup_s": float("nan")}, declared)


def _workload() -> None:
    from repro.scenarios import Runner

    Runner().run("table4").to_json()
    json.dumps(sorted(range(2000), key=lambda v: -v))


class LedgerTests(unittest.TestCase):
    def test_fold_sums_to_profiled_total(self) -> None:
        prof = cProfile.Profile()
        prof.runcall(_workload)
        stats = ledger.merge_stats([prof])
        self_s, calls_in, total = ledger.Ledger(
            stats, os.path.join(ROOT, "src")).fold()
        self.assertGreater(total, 0.0)
        self.assertAlmostEqual(sum(self_s.values()), total, places=9)
        self.assertGreater(self_s["scenarios"], 0.0)
        self.assertGreater(calls_in["scenarios"], 0)

    def test_library_time_follows_callers(self) -> None:
        src = os.path.join(os.sep, "src")
        core = (os.path.join(src, "repro", "core", "a.py"), 1, "a")
        sim = (os.path.join(src, "repro", "sim", "b.py"), 1, "b")
        lib = ("~", 0, "<built-in method sorted>")
        stats = {
            core: (1, 1, 1.0, 4.0, {}),
            sim: (1, 1, 2.0, 4.0, {core: (1, 1, 2.0, 3.0)}),
            lib: (4, 4, 3.0, 3.0, {core: (1, 1, 1.0, 1.0),
                                   sim: (3, 3, 2.0, 2.0)}),
        }
        self_s, calls_in, total = ledger.Ledger(stats, src).fold()
        self.assertEqual(total, 6.0)
        self.assertAlmostEqual(self_s["core"], 2.0)
        self.assertAlmostEqual(self_s["sim"], 4.0)
        self.assertEqual(calls_in["sim"], 1)
        self.assertEqual(calls_in["core"], 0)
        self.assertEqual(self_s["other"], 0.0)


class CalibrationTests(unittest.TestCase):
    def test_gate_waits_for_the_other_process(self) -> None:
        from_child, child_w = os.pipe()
        child_r, to_child = os.pipe()
        gate = measure.Gate(child_w, child_r)
        try:
            for expected in range(3):
                os.write(to_child, b"g")  # the parent has calibrated
                self.assertEqual(gate.pause(), expected)
                self.assertEqual(os.read(from_child, 1), b"c")
            os.write(to_child, b"x")
            with self.assertRaises(RuntimeError):
                gate.pause()
        finally:
            for fd in (from_child, child_w, child_r, to_child):
                os.close(fd)

    def test_each_record_takes_the_scale_of_its_calibration(self) -> None:
        cals = [run.calibrate.NOMINAL_S] * 5 + [run.calibrate.NOMINAL_S * 2] * 5
        records = [{"cal": 0}, {"cal": 0}, {"cal": 9}]
        run._scale(records, cals)
        self.assertEqual(records[0]["scale"], records[1]["scale"])
        self.assertAlmostEqual(records[0]["scale"], 1.0)
        self.assertAlmostEqual(records[2]["scale"],
                               0.5 ** run.calibrate.SPEED_EXPONENT)


class FailureCountingTests(unittest.TestCase):
    def test_failed_runs_are_counted_not_dropped(self) -> None:
        outcome = run.Outcome()
        outcome.fail("b", "output differs from the reference engine")
        records = [{"label": "a", "ok": True}, {"label": "a", "ok": False},
                   {"label": "b", "ok": True}, {"label": "c", "ok": True}]
        self.assertEqual(run.count_failed(records, outcome), 2)
        self.assertEqual(len(records), 4)

    def test_failure_shared_with_reference_is_counted_not_a_check(self) -> None:
        raised = [{"label": "x", "ok": False, "error_type": "QueueEmptyError"}]
        self.assertIsNone(run.check_label(raised, None, "QueueEmptyError"))
        self.assertIsNotNone(run.check_label(raised, {"metrics": {}}, None))
        self.assertEqual(run.count_failed(raised, run.Outcome()), 1)

    def test_incast_defect_raises_on_the_reference_engine(self) -> None:
        # the known full-budget defect latency-family keeps visible
        from repro.scenarios import Runner, get_scenario

        seed = run.workloads.scenario_seeds("latency-family", 1)[0]
        spec = get_scenario("latency-lqd-incast").spec.with_options(
            engine="reference", seed=seed, budget="full")
        self.assertEqual(run._reference_output(Runner(), spec),
                         (None, "QueueEmptyError"))


if __name__ == "__main__":
    unittest.main()
