"""Golden-file test: the CLI's outputs are frozen byte for byte.

Each invocation runs `main` in-process into a fresh output directory, and
the SHA-256 of every file it writes is compared with the table below.  The
seven README commands (with --emit-svg) are joined by three invocations that
reach the remaining branches: a single-coupling spectrum, a dos run at g = 1
(no log fit) and one whose well is too shallow for the below-eps_c fit.
The top-level and the six subcommand --help texts are frozen the same way,
wrapped at COLUMNS=80; argparse's layout may differ in another Python
minor version.

The table was frozen with the numpy and scipy versions in FROZEN_WITH.  A
change of either may move last digits; the test still runs then, and the
failure names both versions.  Any regeneration is an output change.  To
print the table for the current code:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from rabi_esqpt.cli import main

SWEEP = ["--ratio", "40", "--g-min", "0", "--g-max", "3", "--g-steps", "61",
         "--levels", "20"]

INVOCATIONS = {
    "spectrum_sweep": ["spectrum", *SWEEP, "--emit-svg"],
    "gapmap_sweep": ["gapmap", *SWEEP, "--emit-svg"],
    "dos_r1000": ["dos", "--ratio", "1000", "--g", "1.2", "--window", "10", "--emit-svg"],
    "observables_r1000": ["observables", "--ratio", "1000", "--g", "1.2", "--emit-svg"],
    "probabilities_r1000": ["probabilities", "--ratio", "1000", "--g", "1.2",
                            "--eps-max", "0", "--emit-svg"],
    "asymptotics_power": ["asymptotics", "--g", "1.0", "--emit-svg"],
    "asymptotics_log": ["asymptotics", "--g", "1.4", "--emit-svg"],
    "spectrum_single": ["spectrum", "--ratio", "40", "--g", "1.4", "--levels", "10",
                        "--emit-svg"],
    "dos_threshold": ["dos", "--ratio", "40", "--g", "1.0", "--window", "4", "--emit-svg"],
    "dos_shallow_well": ["dos", "--ratio", "60", "--g", "1.05", "--window", "6",
                         "--points", "21"],
}

FROZEN_WITH = {"numpy": "2.4.6", "scipy": "1.17.1", "python": "3.11.7"}

GOLDEN = {
    "spectrum_sweep": {
        "spectrum.csv":
            "6c37074b7335f68637569017e06477fa81732046136906ffe5dea43bd59ed0b1",
        "spectrum.svg":
            "34ebb97a87d6d8949c259f6aeec274895a81f23be0ec086bbd96d50cad60918c",
    },
    "gapmap_sweep": {
        "gapmap.csv":
            "02d21a3dc9e1f0c1e82a736bb288cd3ee85f2fe28f8232a516aff87fa2ddf9c8",
        "gapmap.svg":
            "fc7e25193e13d62540256f5cd18cfe6f69d949946c3509eca081e71920f2c0af",
        "gapmap_summary.json":
            "ded21a3787a25768ad3f545b5ec7e2aa8e8ffbcb6ed1c482d6c44860f86d4a39",
    },
    "dos_r1000": {
        "dos.svg":
            "47abd0255c30374fae20d3d6c1ad2707edf763c900138990a2069b696fe6767a",
        "dos_quantum.csv":
            "76227f1dadffd092e0320b90776467a2730c46f045c58ef1927c7019964f9969",
        "dos_semiclassical.csv":
            "29919701a2e9bb917b7d6c465862a75ae509c507265680bb546cd7681cd4411c",
        "dos_summary.json":
            "81f52e09aecd49a0b60434006fdb07d5e951ef11ef46c78b517e8a5f41020a54",
    },
    "observables_r1000": {
        "observables.svg":
            "87fe2060bcb87d35f69d5e0a0f75e6b360ce45916a7f054c125aa483115d4801",
        "observables_quantum.csv":
            "25c5c111c167d9390d0b21456fa7b996e5caeae74b809489f2518a2d476c37b2",
        "observables_semiclassical.csv":
            "46e6ce5c19204340af0e289eb35e434f9c0467029cebc4d36b58019ebab176e8",
        "observables_summary.json":
            "2ece27890a2db36392dd64c0ee3fab08a599ad88eebfc4c55e9226328bc7e6c1",
    },
    "probabilities_r1000": {
        "probabilities.csv":
            "16bacb69fc5030fbe4882a21260bb4dc9789263c0a92fdfeac79e6af65f03424",
        "probabilities.svg":
            "14bcdbab2c58bed3986089917032b93a65ea49154aa5e9b9fc6312fb94c88d7b",
        "probabilities_summary.json":
            "31377272692208e178dbe453efd5bca2e4e1a16c7a6a1eb36a458a77e1712ce7",
    },
    "asymptotics_power": {
        "asymptotics.json":
            "f56082cec1d8b3e838046a14b934a4298aad23efa5bd0aa83ffd91be9529396c",
        "asymptotics.svg":
            "e61d45b0fc04130083071f93b6e3ff2ed9ca3f56279556aec0424c50719fb3cf",
        "asymptotics_curve.csv":
            "56985a1d8470c74beb63148232859a38169dcad75fdad87c4c011c517d4e4c53",
    },
    "asymptotics_log": {
        "asymptotics.json":
            "62db7c5eeefe96cc4b80f3b26423775a29702d046de4ee6ef36cac458f015f08",
        "asymptotics.svg":
            "b42252efb5fbd242f7c3b1021b9884ed291dfe5944e5075ababf3f9b819c857d",
        "asymptotics_curve.csv":
            "a5cc9c5b9b157dfc4fb84ab8f5afd1c971fbbdf0eb4c7928d7d7bcd0a2c919da",
    },
    "spectrum_single": {
        "spectrum.csv":
            "62557b58621faa78e0ff6d3eec8698a6d01a70cc9ae63463c0373887395c78f7",
        "spectrum.svg":
            "bf191d9e52266548a60428336e1b2e7cf0e7b131087db4d96e779cc65a40bcce",
    },
    "dos_threshold": {
        "dos.svg":
            "57dddedda6c307c662895fcd2e228e7dd643fc0bb6be9d1fbc14fb73efce78a0",
        "dos_quantum.csv":
            "53252f5ed12198ab884d701230fe7340c9986c30974605fe85599ab8a6b8ffe0",
        "dos_semiclassical.csv":
            "a220064774803fbbdc152c278d2c1f2a8466ff31061bce1631b24142dd3c5567",
        "dos_summary.json":
            "9116f76450decd77f5896c9169cc66cb5dfb81447f7cce11d068ff9b23b16de1",
    },
    "dos_shallow_well": {
        "dos_quantum.csv":
            "fd6a4fdf749be8a058eaa925444420af25d57d1403423375b6712a33180b1973",
        "dos_semiclassical.csv":
            "21cd161029df502daa782489072601311072dbb22c388c9198b704b3ae09470e",
        "dos_summary.json":
            "ebbad5341e6912644b9203b2f421cfac1bf76f2c9304e98b6ae6eb04fcebd418",
    },
}


# SHA-256 of each --help text at COLUMNS=80, by subcommand ("" is the top level)
HELP = {
    "": "5ab5683f0a2445fae0364da2416e4990129bddf2e9853ffc950308cb38dcece6",
    "spectrum": "266288ae796cc814e5d1395d204f9305adbdf1d8ca4c5d13b30bdafdb8ea8a93",
    "gapmap": "c20b7297303cd7991a3ccb105652317c227e99940d9d2f232ec005c2afd26bf8",
    "dos": "afbb78f675c6bb512d0cd71245ea37a678515fd6f9a9d417a8092d348a602f4c",
    "observables": "8a10d7dccbf0d8822ae2048c57ae219406fc2502e51ab0871c2c9c0159e79fc6",
    "probabilities": "9930ccb9553693d42e2034171c76a426cf93fabaa94320ba2ededd2c37c02cba",
    "asymptotics": "8dbdc37a3fd7482a96b965ade24aa39fcc060c7c7fc1175e066c4fa07cdc20af",
}


def help_hash(command: str) -> str:
    """SHA-256 of the --help text of `command`, wrapped to $COLUMNS."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main([command, "--help"] if command else ["--help"])
    assert code == 0
    return hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()


def output_hashes(name: str, root: Path) -> dict[str, str]:
    """Run one invocation into root/name; SHA-256 of each file it wrote."""
    out = root / name
    code = main([*INVOCATIONS[name], "--out", str(out)])
    assert code == 0, f"{name} exited with {code}"
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


def test_golden_table_covers_every_invocation():
    assert set(GOLDEN) == set(INVOCATIONS)
    assert sum(len(files) for files in GOLDEN.values()) == 31


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_outputs_match_golden_hashes(name, tmp_path):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert output_hashes(name, tmp_path) == GOLDEN[name], (
        f"outputs of {name} differ from the table frozen with {FROZEN_WITH}; "
        f"running with {versions}"
    )


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_matches_golden_hash(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_hash(command) == HELP[command], (
        f"--help of {command or 'rabi-esqpt'} differs from the text frozen with "
        f"Python {FROZEN_WITH['python']}; running with {platform.python_version()}"
    )


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        print(f'FROZEN_WITH = {{"numpy": "{np.__version__}", "scipy": "{scipy.__version__}", '
              f'"python": "{platform.python_version()}"}}')
        print()
        print("GOLDEN = {")
        for name in INVOCATIONS:
            print(f'    "{name}": {{')
            for fname, digest in output_hashes(name, Path(tmp)).items():
                print(f'        "{fname}":\n            "{digest}",')
            print("    },")
        print("}")
        print()
        print("HELP = {")
        for command in HELP:
            print(f'    "{command}": "{help_hash(command)}",')
        print("}")
    sys.exit(0)
