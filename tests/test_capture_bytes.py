"""The capture bytes at 100x80, pinned by sha256.

The pinned files are the ones that come out the same under every CPU
kernel: the ``phantom --seed 3`` capture pair, its ``imprint``, and the PPMs
and ``manifest.csv`` of a 4-sample ``dataset``.  Models, depth maps and
detectors are left out, since they round differently under other OpenBLAS
kernels and numpy SIMD levels.  A change that alters these bytes on purpose
updates the hashes here and says why.
"""

import hashlib
import json

from phototact.cli import dispatch

SMALL = ["--width", "100", "--height", "80", "--mm-per-pixel", "0.1"]
SPEC = {
    "diameters_mm": [4.0],
    "burial_depths_mm": [2.0],
    "presses_per_positive": 2,
    "positive_mass_g": 1000.0,
    "negative_masses_g": [1000.0],
    "presses_per_negative_mass": 2,
}
EXPECTED = {
    "data/manifest.csv": "e1d81f406d2b5ee531fb79d997dfa54daebd90feb6c647c8c2b227d22a614777",
    "data/neg_m1000_p0_contact.ppm": "28f584b133e9e3579643e75786cffe0583ab8d1d84ef70c4347283b651cc690b",
    "data/neg_m1000_p0_ref.ppm": "d38b3b4da0a8d923c5dbc1cbe7eb13f8bbf7036fb21328412bec58806d3c17c2",
    "data/neg_m1000_p1_contact.ppm": "1784dfa2207bd0cef5598e1d9f5539cc6eb44ea7ed728ac2ed957ac9f396bf68",
    "data/neg_m1000_p1_ref.ppm": "c7a23436690d371d52efa19b8be7b0fe3cd886e5c695a71b88839b75912dc7bd",
    "data/pos_d4_b2_p0_contact.ppm": "e86a057cfec7933734ec51876ce1c6733efb8d86fcb7cbc238906a42776cda5d",
    "data/pos_d4_b2_p0_ref.ppm": "1396674fc6f965302c67f4c7abcb02b6f94004235e293956b24923f584043dc7",
    "data/pos_d4_b2_p1_contact.ppm": "84f1cdd03f5229c092042ece2dd9f2a0e0233fbc2a5e0ef48a75d023fd3ff647",
    "data/pos_d4_b2_p1_ref.ppm": "741b87a6a66117e3f1154820da388972bca0f6e03600d1621a92a463615582ac",
    "imprint.ppm": "63a67a51f77b6fcbc07ea59afba01520fadc79e56d78fb57755d8260a05656e1",
    "press_contact.ppm": "63d2137f19cf2d7b9ba7fc5977ce96b54cf9b8bcda0f1f2c8fa791d248b200c1",
    "press_ref.ppm": "2a4f39559a8d0bb0b2701be4c6df9290e042344b8656e3d5e1ff14e3152ba727",
}


def run(argv):
    return dispatch([str(a) for a in argv])


def capture_hashes(root):
    """sha256 of each pinned file, made in ``root``, by its path relative to ``root``."""
    assert run(["phantom", *SMALL, "--seed", 3, "--out-prefix", root / "press"]) == 0
    assert run(["imprint", "--ref", root / "press_ref.ppm", "--contact", root / "press_contact.ppm",
                "--out", root / "imprint.ppm"]) == 0
    (root / "spec.json").write_text(json.dumps(SPEC))
    assert run(["dataset", *SMALL, "--spec", root / "spec.json", "--seed", 3, "--out", root / "data"]) == 0
    paths = [*root.glob("*.ppm"), *(root / "data").glob("*.ppm"), root / "data" / "manifest.csv"]
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def test_capture_bytes_are_pinned(tmp_path):
    assert capture_hashes(tmp_path) == EXPECTED
