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
            "122b75a569cf6e3e8bc963f2c7eb20978a65f87fe9b03e1bfd7af44e638f2537",
        "spectrum.svg":
            "34ebb97a87d6d8949c259f6aeec274895a81f23be0ec086bbd96d50cad60918c",
    },
    "gapmap_sweep": {
        "gapmap.csv":
            "67d220ded710b9a2c283536351f874f6c15ba11c4b4fc401c9e3b7ee9d0d32d3",
        "gapmap.svg":
            "4203416645ee1d91f205aa8c986cbfd32ffc7d8a9353c8afb4b975cab8c2d7d8",
        "gapmap_summary.json":
            "4321900f18efbd1e6a2d8b8861e58b338f9dea91158a61ce41dafb5292bd7dfd",
    },
    "dos_r1000": {
        "dos.svg":
            "47abd0255c30374fae20d3d6c1ad2707edf763c900138990a2069b696fe6767a",
        "dos_quantum.csv":
            "34ed19eb1cc9d02ab727d9619fccd811c265d40e0bcd37a4cbd513fcf1514151",
        "dos_semiclassical.csv":
            "b730397660e3a629e56cb9077ea64776818ef686b05a7f409d8d6d9cd1788807",
        "dos_summary.json":
            "a8fd1da262e8b6ac172d364d1b1eb3d0231eee1c6085cdd71ef7a3b229e1e029",
    },
    "observables_r1000": {
        "observables.svg":
            "87fe2060bcb87d35f69d5e0a0f75e6b360ce45916a7f054c125aa483115d4801",
        "observables_quantum.csv":
            "199130a7c67737a258074c6ba5c7e10e7c7dc7e1dad6698ba4144ac6f331af2b",
        "observables_semiclassical.csv":
            "54f7d1c72286e22ca940cc256e43500f5660b9c83641fb64e55370317480fa40",
        "observables_summary.json":
            "d4deb992bb325774b9274a22606c42d7026e37898c8a55c24a99473e98942cce",
    },
    "probabilities_r1000": {
        "probabilities.csv":
            "d3a72ad8ce67f5f371f3752fa3dbe5109bfa6914f339e6124f52d8e409ea4b68",
        "probabilities.svg":
            "14bcdbab2c58bed3986089917032b93a65ea49154aa5e9b9fc6312fb94c88d7b",
        "probabilities_summary.json":
            "841f83bf310a2c02f57b34581db47d4b77f4a9dc7a30a5e1675ca1a2c277d337",
    },
    "asymptotics_power": {
        "asymptotics.json":
            "fd5a0592be8e11bc7c0eadd0f22fedac03493e330dfbd0944e2d072d35991cd5",
        "asymptotics.svg":
            "e61d45b0fc04130083071f93b6e3ff2ed9ca3f56279556aec0424c50719fb3cf",
        "asymptotics_curve.csv":
            "dc74b3ad3158668dd096b8989657a1bf4c6d7d96ad6196bf4dc5a2d653fba391",
    },
    "asymptotics_log": {
        "asymptotics.json":
            "22ec08f78d3685bcd2db9125802b3180571113e6e4de33fa91bf7bd7808ec169",
        "asymptotics.svg":
            "b42252efb5fbd242f7c3b1021b9884ed291dfe5944e5075ababf3f9b819c857d",
        "asymptotics_curve.csv":
            "b1f1dc37a95ff50fd4cc73e0e885f978db632ba523496919b96ef43d1fe381eb",
    },
    "spectrum_single": {
        "spectrum.csv":
            "db5a0249e488715b39ec5b8abd241bb9a8588b776b4e78c7b71aa7ea676a9e4c",
        "spectrum.svg":
            "bf191d9e52266548a60428336e1b2e7cf0e7b131087db4d96e779cc65a40bcce",
    },
    "dos_threshold": {
        "dos.svg":
            "57dddedda6c307c662895fcd2e228e7dd643fc0bb6be9d1fbc14fb73efce78a0",
        "dos_quantum.csv":
            "97ffb7f23c6ed7c3e67f8709544af8df66931945e04c57289b646bf82c0fb9b8",
        "dos_semiclassical.csv":
            "b514c1c0b0e3cb3e97627e8b763abaf6f42d5378668185413f2c14ba06ca5866",
        "dos_summary.json":
            "d8e917ad545cb079fdb20f1512b9f35e52d869da7a7b202f90be3fa678ba2374",
    },
    "dos_shallow_well": {
        "dos_quantum.csv":
            "7cf5dcd667b72e187bc7fb260cce829df5d1604912a132c016a65c87a5d32ab0",
        "dos_semiclassical.csv":
            "6e47487b4e287ec69f57a09f4fdb4370b31ee6c3c307a2ce80f063c28c9c3d38",
        "dos_summary.json":
            "8a7fdf0ac17aec65ae4edbfacb8016b7be3e7b6fc4fa5acbfc615288986481e2",
    },
}


# SHA-256 of each --help text at COLUMNS=80, by subcommand ("" is the top level)
HELP = {
    "": "5ab5683f0a2445fae0364da2416e4990129bddf2e9853ffc950308cb38dcece6",
    "spectrum": "76e598202dd72a26eb857124881570668a0292beda66a46eb98043180a8a4ff3",
    "gapmap": "b36590b5cc61fdb2eaa6522c14b4be6fc4a72ed826ee44091ab5fe7a408ccb79",
    "dos": "afbb78f675c6bb512d0cd71245ea37a678515fd6f9a9d417a8092d348a602f4c",
    "observables": "8a10d7dccbf0d8822ae2048c57ae219406fc2502e51ab0871c2c9c0159e79fc6",
    "probabilities": "e1f664b3078fd219868059f72cd88659c94320c43c7c52477b413c661f9428df",
    "asymptotics": "8cf24cdf41857a37f7e51dcdfca87a3ab15e7af722734ef51f4754a6a7edf539",
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
