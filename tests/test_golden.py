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
            "551be302fc6b938240247da38412cabb1c29a96b1b16cf30dac5d0b2df36cb93",
        "spectrum.svg":
            "34ebb97a87d6d8949c259f6aeec274895a81f23be0ec086bbd96d50cad60918c",
    },
    "gapmap_sweep": {
        "gapmap.csv":
            "56b6c61b0f1a838be876d85c53096f6bc680f1cc81718429353047384ee5ba99",
        "gapmap.svg":
            "fc7e25193e13d62540256f5cd18cfe6f69d949946c3509eca081e71920f2c0af",
        "gapmap_summary.json":
            "544f21f1815eaa2c7498216c3da598d957924bbc97d9b2eacf77a03e3e4c5b55",
    },
    "dos_r1000": {
        "dos.svg":
            "47abd0255c30374fae20d3d6c1ad2707edf763c900138990a2069b696fe6767a",
        "dos_quantum.csv":
            "f0294189f4969f685d53d74f3f1f58a23c2a6cfbc5641d4bb91f46ad39a1115a",
        "dos_semiclassical.csv":
            "b730397660e3a629e56cb9077ea64776818ef686b05a7f409d8d6d9cd1788807",
        "dos_summary.json":
            "7589c61ba756e874f2491feebb6a8a0a24d3db065ce8eafdb7401ddaab100449",
    },
    "observables_r1000": {
        "observables.svg":
            "87fe2060bcb87d35f69d5e0a0f75e6b360ce45916a7f054c125aa483115d4801",
        "observables_quantum.csv":
            "a2bf4471595153d74c86a1f233964664e674ad08c16e8450386b66566349a9fd",
        "observables_semiclassical.csv":
            "54f7d1c72286e22ca940cc256e43500f5660b9c83641fb64e55370317480fa40",
        "observables_summary.json":
            "e8e3e738bb05cc39ac9b069152ee7ba144aff093ff2b31baa7e9421eb18a8c86",
    },
    "probabilities_r1000": {
        "probabilities.csv":
            "080eb7e25d15b9c1e59666ef94377829561060b6122099777f62db6333cb9577",
        "probabilities.svg":
            "14bcdbab2c58bed3986089917032b93a65ea49154aa5e9b9fc6312fb94c88d7b",
        "probabilities_summary.json":
            "a1b07386359d8ffa15296e5b128f3c9f181efd6779024056f4654d39655b6ee4",
    },
    "asymptotics_power": {
        "asymptotics.json":
            "ccae34dd74c4f279cdfac5721253f724c7bafa44d2c2d5073aa13fd9809b372b",
        "asymptotics.svg":
            "e61d45b0fc04130083071f93b6e3ff2ed9ca3f56279556aec0424c50719fb3cf",
        "asymptotics_curve.csv":
            "dc74b3ad3158668dd096b8989657a1bf4c6d7d96ad6196bf4dc5a2d653fba391",
    },
    "asymptotics_log": {
        "asymptotics.json":
            "1862d2c4effc7cbf339171fd200fcdbe711dcc58c24ef6fa6a02e3b321f20b49",
        "asymptotics.svg":
            "b42252efb5fbd242f7c3b1021b9884ed291dfe5944e5075ababf3f9b819c857d",
        "asymptotics_curve.csv":
            "b1f1dc37a95ff50fd4cc73e0e885f978db632ba523496919b96ef43d1fe381eb",
    },
    "spectrum_single": {
        "spectrum.csv":
            "9d89e03b03f962a7e0d5cae96b4031f6d281dc8e8a2c55a347eb11f8aa708dfd",
        "spectrum.svg":
            "bf191d9e52266548a60428336e1b2e7cf0e7b131087db4d96e779cc65a40bcce",
    },
    "dos_threshold": {
        "dos.svg":
            "57dddedda6c307c662895fcd2e228e7dd643fc0bb6be9d1fbc14fb73efce78a0",
        "dos_quantum.csv":
            "77915b8881b50dde396bd0c59644a0aa39e5840365e9152437140318fd305da7",
        "dos_semiclassical.csv":
            "b514c1c0b0e3cb3e97627e8b763abaf6f42d5378668185413f2c14ba06ca5866",
        "dos_summary.json":
            "8e2bcf5e0532d0f6c5d281a4e2f8478a69fc584aa47ee729ce85844f0e4da90a",
    },
    "dos_shallow_well": {
        "dos_quantum.csv":
            "8b493bbf45eb6e572385d244486cf66b658db8eecce4eef0d068744a9fd8ee6f",
        "dos_semiclassical.csv":
            "6e47487b4e287ec69f57a09f4fdb4370b31ee6c3c307a2ce80f063c28c9c3d38",
        "dos_summary.json":
            "bb80a1a733a3b721c43706c82e7a46d29f96abd1f060c9c3b924779ba58855f0",
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
