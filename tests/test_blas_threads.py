"""Artifact bytes do not depend on the BLAS thread count, nor on the AVX-512 code paths an AVX-512 CPU selects.

Each test process has one thread count, fixed when OpenBLAS loads, so the
artifacts are made in child processes, one with ``OPENBLAS_NUM_THREADS=1``
and one with ``=2``, and their sha256 maps must be equal.  ``cli.dispatch``
runs ``calibrate`` and ``characterize`` at one BLAS thread fewer, so the
model is trained outside ``dispatch``, at the child's count, and so are its
depths inferred.  On a CPU with AVX-512, two more children at 2 threads
force a path that such a CPU may or may not select, and must give the
2-thread map: OpenBLAS's SkylakeX kernel (``OPENBLAS_CORETYPE``), and numpy
without its X86_V4 and later targets (``NPY_DISABLE_CPU_FEATURES``), which
leaves X86_V3.  Forcing the older Haswell kernel changes 13 of the 30
artifacts (the models, the depths, the SVM fits, the characterize tables,
the depth map, the detector, the detect result and the reports), so it is
not compared.
Run as a script, ``python tests/test_blas_threads.py DIR`` makes the artifacts
in DIR and prints, as the last line of stdout, a JSON object: the OpenBLAS
kernel and numpy SIMD targets it ran under, and the artifacts' sha256 map.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(root: Path) -> dict:
    """sha256 of a calibrate model, one disc_depths, two SVM fits and every criterion-9 artifact, made in ``root``."""
    from phototact import PhantomConfig, SensorGeometry, color_delta, contact_solve, default_membrane, defaults
    from phototact.calibration import TrainConfig, build_calib_dataset, disc_depths, load_model, save_model, train_mlp
    from phototact.cli import blas_threads
    from phototact.detection import save_detector, train_svm
    from phototact.phantom import reading_pair
    from test_acceptance import PIPELINE_SPEC, run_pipeline
    from test_detection import _svm_problem

    threads = blas_threads()
    assert threads in (None, int(os.environ["OPENBLAS_NUM_THREADS"]))
    hashes = {}
    # `calibrate --captures 1 --epochs 10 --seed 0`, trained at the child's BLAS count. One 320x240 capture gives
    # 15,380 rows: three 4,096-row batches and a 3,092-row last batch.
    geom = SensorGeometry()
    calib = root / "calib.json"
    features, truth_depths = build_calib_dataset(1, geom, seed=0)
    save_model(calib, train_mlp(features, truth_depths, TrainConfig(epochs=10, seed=0)))
    hashes["calib.json"] = sha256(calib.read_bytes())

    cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
    ref, contact = reading_pair(contact_solve(cfg, geom), default_membrane(geom), 5)
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
    assert blas_threads() == threads  # every verb gave the count back
    return hashes


def made_in_child(threads: int, root: Path, **forced) -> dict:
    """The script's JSON object from a child process at ``threads`` BLAS threads, with the ``forced`` variables
    added to its environment, making its artifacts in ``root``."""
    root.mkdir()
    src = str(TESTS.parent / "src")
    env = {**os.environ, **forced, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, __file__, str(root)], env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def differing(one: dict, two: dict) -> list:
    return sorted(name for name in one.keys() | two.keys() if one.get(name) != two.get(name))


@pytest.fixture(scope="module")
def two_threads(tmp_path_factory):
    return made_in_child(2, tmp_path_factory.mktemp("blas") / "two")


def test_artifacts_equal_at_one_and_two_blas_threads(tmp_path, two_threads):
    one = made_in_child(1, tmp_path / "one")["hashes"]
    assert len(one) >= 19  # the model, the depths, the two fits and at least criterion 9's 15 artifacts
    assert differing(one, two_threads["hashes"]) == []


def runs_avx512():
    """Whether numpy dispatches AVX-512 code here (X86_V4 in numpy 2.4, AVX512_SKX before it). Forcing the
    SkylakeX kernel on a CPU without AVX-512 stops the process with an illegal instruction."""
    from phototact.cli import simd_targets

    return bool({"X86_V4", "AVX512_SKX"} & set(simd_targets() or ()))


@pytest.mark.skipif(not runs_avx512(), reason="the forced paths need a CPU with AVX-512")
@pytest.mark.parametrize("forced, took_effect", [
    ({"OPENBLAS_CORETYPE": "SkylakeX"}, lambda core, targets: core == "SkylakeX"),
    ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
     lambda core, targets: not {"X86_V4", "AVX512_SKX"} & set(targets)),
], ids=["openblas-skylakex", "numpy-x86-v3"])
def test_artifacts_equal_under_forced_avx512_paths(tmp_path, two_threads, forced, took_effect):
    made = made_in_child(2, tmp_path / "forced", **forced)
    assert took_effect(made["blas_core"], made["simd_targets"]), made
    assert differing(made["hashes"], two_threads["hashes"]) == []


if __name__ == "__main__":
    from phototact.cli import blas_core, simd_targets

    hashes = artifact_hashes(Path(sys.argv[1]))
    print(json.dumps({"blas_core": blas_core(), "simd_targets": simd_targets(), "hashes": hashes}, sort_keys=True))
