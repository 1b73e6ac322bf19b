"""Self-test of the benchmark harness at acceptance criterion 9's small size.

    python3 perfbench/selftest.py

Runs every workload through run.py at 100x80, 0.1 mm/px with tiny counts, in
both trace modes, and fails if a declared metric is missing or carries the
wrong unit.  It then corrupts artifacts and fails if the output check passes
them, and checks that the tracer puts every function binding back.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import SCALES, SETUP, WORKLOADS, Context  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _flip_last_byte(path: Path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def _drop_last_epoch_loss(path: Path):
    doc = json.loads(path.read_text())
    doc["epoch_losses"] = doc["epoch_losses"][:-1]
    path.write_text(json.dumps(doc))


def _edit_json(path: Path, key: str, value):
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))


# Per output: a corruption that leaves the files well-formed, so only the output check can catch it.
SEMANTIC_CORRUPTIONS = {
    "model.json": lambda d: _drop_last_epoch_loss(d / "model.json"),
    "calib.json": lambda d: _drop_last_epoch_loss(d / "calib.json"),
    "char": lambda d: _edit_json(d / "char" / "summary.json", "saturation_N", 0.12),
    "data": lambda d: next((d / "data").glob("*_contact.ppm")).unlink(),
    "detector.json": lambda d: _edit_json(d / "detector.json", "training", None),
    "report.json": lambda d: _edit_json(d / "report.json", "samples", []),
}


class RunContract(unittest.TestCase):
    def test_every_declared_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    child = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
                    )
                    self.assertEqual(child.returncode, 0)
                    result = json.loads(child.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                    for m in declared:
                        metric = result["metrics"][m["name"]]
                        self.assertTrue(metric["unit"])
                        self.assertEqual(metric["unit"], m["unit"], m["name"])
                        self.assertIsInstance(metric["value"], numbers.Real, m["name"])
                        self.assertNotIsInstance(metric["value"], bool, m["name"])


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "phototact" or name.startswith("phototact.")
        for attr, value in vars(module).items()
    }


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.work = ROOT / ".perfbench" / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        self.addCleanup(shutil.rmtree, self.work, ignore_errors=True)

    def _run_once(self, steps, name):
        """(runner, run directory) after set-up and one run of the steps under work/<name>, left in place."""
        root = self.work / name
        ctx = Context(scale=SCALES["tiny"], seed=3, model=root / "setup0" / "model.json", spec=root / "setup0" / "spec.json")
        runner = worker.Runner(ctx)
        worker.set_up(runner, root / "setup0")
        directory = root / "run"
        directory.mkdir()
        for step in steps:
            runner.invoke(step, directory)
        self.assertEqual(runner.problems, [])
        return runner, directory

    def test_corrupted_artifacts_fail_the_check(self):
        for workload, steps in WORKLOADS.items():
            runner, directory = self._run_once(steps, f"{workload}-bytes")
            for step in (SETUP, *steps):
                where = directory.parent / "setup0" if step is SETUP else directory
                with self.subTest(workload=workload, output=step.output, corruption="byte"):
                    victim = sorted(worker.artifact_hashes(where, step.output))[0]
                    _flip_last_byte(where / victim)
                    problems, _ = worker.verify(step, where, "", runner.ctx, runner.reference)
                    self.assertTrue(any("differ" in p for p in problems), problems)
            # A fresh reference accepts any bytes, so only the output check can catch these.
            runner, directory = self._run_once(steps, f"{workload}-content")
            split = json.dumps({"n_train": runner.ctx.n_samples - 1, "n_test": 1})
            for step in (SETUP, *steps):
                where = directory.parent / "setup0" if step is SETUP else directory
                with self.subTest(workload=workload, output=step.output, corruption="content"):
                    self.assertEqual(worker.verify(step, where, split, runner.ctx, {})[0], [])
                    SEMANTIC_CORRUPTIONS[step.output](where)
                    self.assertTrue(worker.verify(step, where, split, runner.ctx, {})[0])

    def test_tracer_restores_every_binding(self):
        before = _bindings()
        forward = vars(sys.modules["phototact.calibration"].CalibrationModel)["forward"]
        runner, directory = self._run_once(WORKLOADS["characterize"], "trace")
        runner.tracer = tracing.Tracer()
        with tracing.installed(runner.tracer):
            runner.run(WORKLOADS["characterize"], directory.parent / "traced")
        self.assertEqual(runner.problems, [])
        self.assertGreater(runner.tracer.layers()["phantom.render_reading"]["calls"], 0)
        after = _bindings()
        self.assertEqual([key for key, value in before.items() if after.get(key) is not value], [])
        self.assertIs(vars(sys.modules["phototact.calibration"].CalibrationModel)["forward"], forward)


if __name__ == "__main__":
    unittest.main()
