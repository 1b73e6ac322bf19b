"""Every artifact and every stdout of criterion 9's 100x80 pipeline, pinned by sha256.

That pipeline's ``characterize`` writes a null threshold and force
resolution, so a second run pins ``characterize`` at 100x80 on the hue
oracle model, whose threshold (0.03 N) and resolution (0.005 N) are not null.
The benchmark's three workloads are pinned at its default 320x240 geometry:
``calibrate``, and ``characterize`` and the detection verbs on the model of
its set-up.

``test_capture_bytes.py`` pins the captures, which come out the same under
every CPU kernel. The model, the depth maps, the detector, the reports and
the characterize tables also round with the OpenBLAS kernel and numpy's SIMD
targets, so these hashes hold only under the kernels and targets in
``MADE_UNDER``; under any other, the test skips and names them. The manifests are
left out, since they carry wall-clock durations. A change that alters these
bytes on purpose updates the table here, and that diff is its declaration.
"""

import contextlib
import functools
import hashlib
import io
import json

import pytest

import test_acceptance
from conftest import linear_hue_model
from phototact import cli, defaults
from phototact.calibration import save_model
from phototact.characterization import characterize
from phototact.cli import blas_core, simd_targets

# (OpenBLAS kernel, numpy SIMD targets) pairs the hashes hold under: the pair they were made under, and numpy held at
# X86_V3 on the same kernel, which test_blas_threads.py shows gives the same bytes.
MADE_UNDER = {("SkylakeX", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")), ("SkylakeX", ("X86_V3",))}
ARTIFACTS = {
    "calib.json": "55d9e7916edcfa6bf7dceabbc2fea4688ad04f8f6ea3f8c5168a91ed22d43734",
    "char/summary.json": "7c2d6cb4e730c3a76e6d9da0db2ad0a573a929b72524b5973a6b9340714dc71a",
    "char/sweeps.csv": "0d023b7da1a484bcba1ab249f77aa6bc1eb03c05a1b533027ec10d8f84aea428",
    "char/trials.csv": "611cb67b24406cc07684a740433731d2d655624bb675eb4a215ee4399d7ce67f",
    "data/manifest.csv": "0d57a90474189c2cea72165a2c566e54189c55e2e796fb75560e2af42f70c8fc",
    "data/neg_m1000_p0_contact.ppm": "28f584b133e9e3579643e75786cffe0583ab8d1d84ef70c4347283b651cc690b",
    "data/neg_m1000_p0_ref.ppm": "d38b3b4da0a8d923c5dbc1cbe7eb13f8bbf7036fb21328412bec58806d3c17c2",
    "data/neg_m1000_p0_truth.dmap": "dbc3a36ccb6280a7bea18caacf110a75ad7ba441e836408fc5f8fc1cb4d2e4be",
    "data/neg_m1000_p1_contact.ppm": "1784dfa2207bd0cef5598e1d9f5539cc6eb44ea7ed728ac2ed957ac9f396bf68",
    "data/neg_m1000_p1_ref.ppm": "c7a23436690d371d52efa19b8be7b0fe3cd886e5c695a71b88839b75912dc7bd",
    "data/neg_m1000_p1_truth.dmap": "dbc3a36ccb6280a7bea18caacf110a75ad7ba441e836408fc5f8fc1cb4d2e4be",
    "data/pos_d6_b3_p0_contact.ppm": "832445bdf797b89f89653fabf6ecadba91805b6052aa340d68d08f4810aa8b70",
    "data/pos_d6_b3_p0_ref.ppm": "1396674fc6f965302c67f4c7abcb02b6f94004235e293956b24923f584043dc7",
    "data/pos_d6_b3_p0_truth.dmap": "ac1b35233c3c103ea089883a99b5b3d17cd657f41562e7c192446584a94b1dff",
    "data/pos_d6_b3_p1_contact.ppm": "2d1991bb49fec4b48140523e85817af0b347f8abcdf97e427bd0f65e6d815462",
    "data/pos_d6_b3_p1_ref.ppm": "741b87a6a66117e3f1154820da388972bca0f6e03600d1621a92a463615582ac",
    "data/pos_d6_b3_p1_truth.dmap": "ac1b35233c3c103ea089883a99b5b3d17cd657f41562e7c192446584a94b1dff",
    "detect.json": "db4ace234ef9721e7b10add601858dbfed3ecc6ae766349c86078ad58f3492d0",
    "detector.json": "4e7fd02774e0706f4ba7b0f46b6fd934fe7e63fb93c27600409de90b0f1695d3",
    "imprint.ppm": "63a67a51f77b6fcbc07ea59afba01520fadc79e56d78fb57755d8260a05656e1",
    "press_contact.ppm": "63d2137f19cf2d7b9ba7fc5977ce96b54cf9b8bcda0f1f2c8fa791d248b200c1",
    "press_ref.ppm": "2a4f39559a8d0bb0b2701be4c6df9290e042344b8656e3d5e1ff14e3152ba727",
    "press_truth.dmap": "ac1b35233c3c103ea089883a99b5b3d17cd657f41562e7c192446584a94b1dff",
    "recon.dmap": "346da935f678efaf4be93b7fc708d820b5198de2feb62f86d644e37b3f811638",
    "report.csv": "c47fe7689adcb1bc5604c605032d7fc663f7dd15f80826510b8914b02a60bae8",
    "report.json": "7ddfe24e0abb8d7e30097122af86585ace371b48a6248157fe14d74e8d279f4c",
}
EMPTY = hashlib.sha256(b"").hexdigest()
STDOUTS = {
    "phantom": EMPTY,
    "imprint": EMPTY,
    "calibrate": EMPTY,
    "reconstruct": EMPTY,
    "dataset": EMPTY,
    "train-detector": "443a0de01a9c475a170c3265103053b1bdfe391bf543f024b8d62587f7ec7dd4",
    "detect": "e464eacbe137555b1257318863a1139fc3a7cf85fd40a7dff00d01248622a9ff",
    "evaluate": "d634d3583d8b987676663d151c5679c382eb26fb5c8c044ca25062804d6b638c",
    "characterize": "872b4f6a2b81af6927f530d0dd5502efbf4d5669f246899aef559db77dc78abc",
}

# The tables of test_oracle_characterize_bytes_are_pinned's output directory.
ORACLE_CHARACTERIZE = {
    "summary.json": "066ae2a315c2ca409a565a6c0a3afbbf0c829dff11a291e3710ced9f1dcbcfb0",
    "sweeps.csv": "8fb34810258652934b0f8da29673e31f2bc0fc03ebb60a89cfa684d4bbd3ad4d",
    "trials.csv": "591bfeb93dd4baf733d64c8aad98b9b822cf1e2375f0a17f8652f7ca0d580743",
}
ORACLE_CHARACTERIZE_STDOUT = "ae42b78a8b866f7138092dbcc19b581411723258fe22141e7504358342858088"

# calib.json of the benchmark's calibrate run at the default 320x240 geometry (CALIBRATE_ARGV).
CALIBRATE_ARGV = ["calibrate", "--captures", "1", "--epochs", "50", "--batch-size", "4096", "--seed", "0"]
CALIBRATE_MODEL = "39d86a34170ac6805224dd211a4d2b6641526ea27fcfc2ecec4d77176cab4cd6"

# The benchmark's characterize and detection workloads at --seed 0, 320x240: the set-up model, the cut force grid and
# depth steps, and the cut dataset spec.  The verb seeds are the benchmark's offsets from --seed.
SETUP_ARGV = ["calibrate", "--captures", "2", "--epochs", "10", "--batch-size", "4096", "--seed", "0"]
SETUP_MODEL = "280431c007be3e87c206c8bc792f3e74e9b5710d308fb996800a5b3ba09f3be1"
WORKLOAD_FORCES_N = (0.05, 0.08, 0.11)
WORKLOAD_STEPS_MM = (0.2, 0.5)
WORKLOAD_SPEC = {
    "diameters_mm": [4.0, 8.0],
    "burial_depths_mm": [2.0, 5.0],
    "presses_per_positive": 2,
    "positive_mass_g": 1000.0,
    "negative_masses_g": [1000.0, 1200.0],
    "presses_per_negative_mass": 4,
}
CHARACTERIZE_WORKLOAD = {
    "summary.json": "6196fca676be14114c474e5a1ed2be27078f1f0a1d10e1e606c301140bf47714",
    "sweeps.csv": "070ede44e9fba874d4da4b2116d894cb88c64eaaa4a412b68ab48710d4321169",
    "trials.csv": "0b417e5ac6ca0fb6f6094dd66d2c37e104502667b89d9a49b992d5fa634c71fd",
}
DETECTION_WORKLOAD = {
    "detector.json": "3edfc6e2a4ea8e337846c562ec4c994dddcc661b6eea17d1d0c61c6df08842b3",
    "report.json": "eb272b24eba394b66d9a9edf250cab87772fa9780605810c8cd593202e804aea",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def skip_unless_made_under():
    here = (blas_core(), simd_targets())
    if here not in MADE_UNDER:
        pytest.skip(f"hashes hold under the (OpenBLAS kernel, SIMD targets) pairs {sorted(MADE_UNDER)}; "
                    f"this run has kernel {here[0]} with SIMD targets {here[1]}")


def test_pipeline_bytes_are_pinned(tmp_path, monkeypatch):
    skip_unless_made_under()
    stdouts = {}

    def recording(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = dispatch(argv)
        stdouts[argv[0]] = sha256(out.getvalue().encode())
        return code

    dispatch = test_acceptance.dispatch
    monkeypatch.setattr(test_acceptance, "dispatch", recording)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(test_acceptance.PIPELINE_SPEC))
    root = tmp_path / "run"
    test_acceptance.run_pipeline(root, spec)
    artifacts = {str(path.relative_to(root)): sha256(path.read_bytes()) for path in sorted(root.rglob("*"))
                 if path.is_file() and not path.name.endswith(".manifest.json")}
    assert artifacts == ARTIFACTS
    assert stdouts == STDOUTS


def test_oracle_characterize_bytes_are_pinned(tmp_path):
    """``characterize --seed 3`` at 100x80 on the hue oracle, whose threshold and force resolution are not null."""
    skip_unless_made_under()
    model = tmp_path / "oracle.json"
    save_model(model, linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM))
    out = tmp_path / "char"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = test_acceptance.dispatch(["characterize", *test_acceptance.SMALL, "--calibration", str(model),
                                         "--seed", "3", "--out", str(out)])
    assert code == 0
    tables = {path.name: sha256(path.read_bytes()) for path in sorted(out.iterdir())}
    assert tables == ORACLE_CHARACTERIZE
    assert sha256(stdout.getvalue().encode()) == ORACLE_CHARACTERIZE_STDOUT


def test_calibrate_workload_bytes_are_pinned(tmp_path):
    """One capture and 50 epochs at batch 4096 at 320x240: the training step at the size the benchmark times it."""
    skip_unless_made_under()
    out = tmp_path / "calib.json"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = test_acceptance.dispatch([*CALIBRATE_ARGV, "--out", str(out)])
    assert code == 0
    assert sha256(out.read_bytes()) == CALIBRATE_MODEL
    assert stdout.getvalue() == ""


@pytest.fixture(scope="module")
def setup_model(tmp_path_factory):
    """The benchmark's set-up model: two captures, 10 epochs."""
    path = tmp_path_factory.mktemp("setup") / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert test_acceptance.dispatch([*SETUP_ARGV, "--out", str(path)]) == 0
    return path


def test_characterize_workload_bytes_are_pinned(tmp_path, monkeypatch, setup_model):
    """``characterize --seed 0`` on the set-up model over the benchmark's cut force grid and depth steps."""
    skip_unless_made_under()
    assert sha256(setup_model.read_bytes()) == SETUP_MODEL
    monkeypatch.setattr(cli, "characterize",
                        functools.partial(characterize, forces=WORKLOAD_FORCES_N, steps=WORKLOAD_STEPS_MM))
    out = tmp_path / "char"
    with contextlib.redirect_stdout(io.StringIO()):
        code = test_acceptance.dispatch(["characterize", "--calibration", str(setup_model), "--seed", "0",
                                         "--out", str(out)])
    assert code == 0
    assert {path.name: sha256(path.read_bytes()) for path in sorted(out.iterdir())} == CHARACTERIZE_WORKLOAD


def test_detection_workload_bytes_are_pinned(tmp_path, setup_model):
    """``dataset --seed 7`` on the cut spec, then ``train-detector --seed 5`` and ``evaluate`` on the set-up model."""
    skip_unless_made_under()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(WORKLOAD_SPEC))
    data = ["--dataset", str(tmp_path / "data"), "--calibration", str(setup_model)]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["dataset", "--spec", str(spec), "--seed", "7", "--out", str(tmp_path / "data")],
                     ["train-detector", *data, "--seed", "5", "--out", str(tmp_path / "detector.json")],
                     ["evaluate", *data, "--detector", str(tmp_path / "detector.json"),
                      "--out", str(tmp_path / "report.json")]):
            assert test_acceptance.dispatch(argv) == 0, argv[0]
    assert {name: sha256((tmp_path / name).read_bytes()) for name in DETECTION_WORKLOAD} == DETECTION_WORKLOAD
