"""Artifact bytes do not depend on the BLAS thread count.

Each test process has one thread count, fixed when OpenBLAS loads, so the
artifacts are made in two child processes, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``=2``, and their sha256 maps must be
equal.  Run as a script, ``python tests/test_blas_threads.py DIR`` makes the
artifacts in DIR and prints their sha256 map as the last line of stdout.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(root: Path) -> dict:
    """sha256 of a calibrate model, one disc_depths, two SVM fits and every criterion-9 artifact, made in ``root``."""
    from phototact import PhantomConfig, SensorGeometry, color_delta, contact_solve, default_membrane
    from phototact.calibration import disc_depths, load_model
    from phototact.cli import dispatch
    from phototact.detection import save_detector, train_svm
    from phototact.phantom import reading_pair
    from test_acceptance import PIPELINE_SPEC, run_pipeline
    from test_detection import _svm_problem

    hashes = {}
    # One 320x240 capture gives 15,380 rows: three 4,096-row batches and a 3,092-row last batch.
    calib = root / "calib.json"
    assert dispatch(["calibrate", "--captures", "1", "--epochs", "10", "--seed", "0", "--out", str(calib)]) == 0
    hashes["calib.json"] = sha256(calib.read_bytes())

    geom = SensorGeometry()
    membrane = default_membrane(geom)
    cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
    ref, contact = reading_pair(contact_solve(cfg, geom, membrane), membrane, 5)
    depths = disc_depths(load_model(calib), color_delta(ref, contact, geom))
    hashes["disc_depths"] = sha256(np.ascontiguousarray(depths).tobytes())

    # Criterion 9 fits 2 rows; these fits sum over criterion 5's 224 rows and over 700, where a BLAS-threaded
    # Gram matrix z @ z.T rounds differently at 2 threads.
    for n in (224, 700):
        save_detector(root / f"svm{n}.json", train_svm(*_svm_problem(n, False, seed=n), c=1.0))
        hashes[f"svm{n}.json"] = sha256((root / f"svm{n}.json").read_bytes())

    spec = root / "spec.json"
    spec.write_text(json.dumps(PIPELINE_SPEC))
    run_pipeline(root / "pipeline", spec)
    for path in sorted((root / "pipeline").rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):  # manifests carry durations
            hashes[str(path.relative_to(root))] = sha256(path.read_bytes())
    return hashes


def hashes_at(threads: int, root: Path) -> dict:
    root.mkdir()
    src = str(TESTS.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, __file__, str(root)], env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_artifacts_equal_at_one_and_two_blas_threads(tmp_path):
    one = hashes_at(1, tmp_path / "one")
    two = hashes_at(2, tmp_path / "two")
    assert len(one) >= 19  # the model, the depths, the two fits and at least criterion 9's 15 artifacts
    assert sorted(name for name in one.keys() | two.keys() if one.get(name) != two.get(name)) == []


if __name__ == "__main__":
    print(json.dumps(artifact_hashes(Path(sys.argv[1])), sort_keys=True))
