"""Golden-file test: the CLI's outputs are frozen byte for byte.

Each invocation runs `main` in-process into a fresh output directory, and
the SHA-256 of every file it writes is compared with the table below.  The
seven README commands (with --emit-svg) are joined by three invocations that
reach the remaining branches: a single-coupling spectrum, a dos run at g = 1
(no log fit) and one whose well is too shallow for the below-eps_c fit.

The table was frozen with the numpy and scipy versions in FROZEN_WITH.  A
change of either may move last digits; the test still runs then, and the
failure names both versions.  Any regeneration is an output change.  To
print the table for the current code:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
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

FROZEN_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

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
            "00aa35755ca1494c42776d4ab432d9a3fffb4d32867b328a035af54576a31225",
        "dos_summary.json":
            "5e096c1f72dcccb0e6b248e9c5cfed37c4b67ca61ff43c2f431afefb9cb3d4f0",
    },
    "observables_r1000": {
        "observables.svg":
            "87fe2060bcb87d35f69d5e0a0f75e6b360ce45916a7f054c125aa483115d4801",
        "observables_quantum.csv":
            "25c5c111c167d9390d0b21456fa7b996e5caeae74b809489f2518a2d476c37b2",
        "observables_semiclassical.csv":
            "f35ba545c483ae2f70ae2a67a5bc0c2c5b1a1d9ad3e1e581f0b8cc0c522ee658",
        "observables_summary.json":
            "6384c641d69ea711f720b1123b6c08e57b7196ef70c443a38697702373646260",
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
            "aed1e825b4a87d8649e061ec849bc8c9e1d0e9588ba9cae0d1c37aca0339435b",
        "asymptotics.svg":
            "e61d45b0fc04130083071f93b6e3ff2ed9ca3f56279556aec0424c50719fb3cf",
        "asymptotics_curve.csv":
            "7c980ba6408adea728eef2c69878431a0d99679031902bd5d947c6ac877cfc60",
    },
    "asymptotics_log": {
        "asymptotics.json":
            "464803eea001b833d8b6e22a72f165f9e45b805a7dc85c9c555ffe5f833f040d",
        "asymptotics.svg":
            "b42252efb5fbd242f7c3b1021b9884ed291dfe5944e5075ababf3f9b819c857d",
        "asymptotics_curve.csv":
            "951390ac427da54a57bb1625a235dd067fdb11c5fdc828d83d55647a565d13cc",
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
            "f4076b2578b5a325f318a1d26dea8e90007105386c23c52af5417e4882893a6d",
        "dos_summary.json":
            "b5b4666b633e16bf45a31ebf90e1628277e58cca3c248c1354d7eff1db67c921",
    },
    "dos_shallow_well": {
        "dos_quantum.csv":
            "fd6a4fdf749be8a058eaa925444420af25d57d1403423375b6712a33180b1973",
        "dos_semiclassical.csv":
            "7ace691fd95162199ce7111a1d1d3c21bd1c6c796d82b93731848946d6e1a829",
        "dos_summary.json":
            "0b9f93fea6ed23f51cdedf023839b935da02575ed7b0f1097b2a6e858fdb24b7",
    },
}


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(f'FROZEN_WITH = {{"numpy": "{np.__version__}", "scipy": "{scipy.__version__}"}}')
        print()
        print("GOLDEN = {")
        for name in INVOCATIONS:
            print(f'    "{name}": {{')
            for fname, digest in output_hashes(name, Path(tmp)).items():
                print(f'        "{fname}":\n            "{digest}",')
            print("    },")
        print("}")
    sys.exit(0)
