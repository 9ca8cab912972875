"""Golden-file test: the CLI's outputs are frozen byte for byte.

Each invocation runs `main` in-process into a fresh output directory, and
the SHA-256 of every file it writes is compared with the table below.  The
seven README commands (with --emit-svg) are joined by three invocations that
reach the remaining branches: a single-coupling spectrum, a dos run at g = 1
(no log fit) and one whose well is too shallow for the below-eps_c fit.
The top-level and the six subcommand --help texts are frozen the same way,
wrapped at COLUMNS=80; argparse's layout may differ in another Python
minor version.  The seven help hashes were found to match on Python 3.10.13
and 3.12.1, as on 3.11.7 (the CLI imported with numpy and scipy stubbed out,
since argparse alone writes the help); on 3.13.0 the top-level help wraps
differently, so 3.13 needs its own HELP table.  The file hashes are verified
on 3.11 only.

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
            "27e421922693a664c78b2182716eb12ee6ac533d50bb826a98587821f76f56a0",
        "dos_semiclassical.csv":
            "69c2fadd716987d8825a863a8948e903e156917bdabdb8dc9d33547275af22e9",
        "dos_summary.json":
            "67f68c980a43ca2bc71f43ac5792080eaafac51925de5bcbf8e138cfef010778",
    },
    "observables_r1000": {
        "observables.svg":
            "87fe2060bcb87d35f69d5e0a0f75e6b360ce45916a7f054c125aa483115d4801",
        "observables_quantum.csv":
            "aba78b788b6d32d479cc2564dc7e2efe277746c6c780989a7550f4b4fa7542c7",
        "observables_semiclassical.csv":
            "8897b93f85835687d6f09e7172c2696dbb607c3a88e883d857437da52e525278",
        "observables_summary.json":
            "4bbb7a90e0425ec1da2e78384fd4f3b83097e91af6b388d7dc5b10f64a1ba4a2",
    },
    "probabilities_r1000": {
        "probabilities.csv":
            "09764a3579fcae9bcd4f521f632eac2d9b3b87c91472bb4cf66715a13fcbf03c",
        "probabilities.svg":
            "14bcdbab2c58bed3986089917032b93a65ea49154aa5e9b9fc6312fb94c88d7b",
        "probabilities_summary.json":
            "19746c366da456481cbc336d04395ef790d4511ad413dd17d694ea4f4a812a95",
    },
    "asymptotics_power": {
        "asymptotics.json":
            "d7540e4cfa43422b49e49dcb393abdd5baa89c23b3f7bfda05676599bb6df75e",
        "asymptotics.svg":
            "e61d45b0fc04130083071f93b6e3ff2ed9ca3f56279556aec0424c50719fb3cf",
        "asymptotics_curve.csv":
            "460e5339e23fb183cf52e447bc818317447dd5d5404a7888472a9e6d0f78a1c1",
    },
    "asymptotics_log": {
        "asymptotics.json":
            "707806560673f9d746289b90a92542f80cb709335d076dfb9d1988a1d7a66c8c",
        "asymptotics.svg":
            "b42252efb5fbd242f7c3b1021b9884ed291dfe5944e5075ababf3f9b819c857d",
        "asymptotics_curve.csv":
            "73373e77345cb24e202d0809a9e0c490fd0d89f19ff0f7a1ec8016ddc8d88361",
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
            "71651e9db34f0ef43eec3019cc318f7122f966b58957591c975a05699c0524b1",
        "dos_semiclassical.csv":
            "646580a8efccd8070972194ab700ed6289da1d7ccc22e3bb599c7da2a72c319b",
        "dos_summary.json":
            "a727df1c6bceaa0cbe52aa3d679f5bbc59bad4a6e1c31a915a8420fbb0fbc4fb",
    },
    "dos_shallow_well": {
        "dos_quantum.csv":
            "45fd1c1dab98612d12d0caf1a44c663ac0430e9883af391118ce8b2a3355888f",
        "dos_semiclassical.csv":
            "6511df7ddd2110d65a9ee6e8c3be479e518c8431ac475284bc818ec4ca9ac9ab",
        "dos_summary.json":
            "c326cd42859be7ea4f22ee85a44643b02d5a36b84efdb5fa0176915fadf02b10",
    },
}


# SHA-256 of each --help text at COLUMNS=80, by subcommand ("" is the top level)
HELP = {
    "": "5ab5683f0a2445fae0364da2416e4990129bddf2e9853ffc950308cb38dcece6",
    "spectrum": "76e598202dd72a26eb857124881570668a0292beda66a46eb98043180a8a4ff3",
    "gapmap": "b36590b5cc61fdb2eaa6522c14b4be6fc4a72ed826ee44091ab5fe7a408ccb79",
    "dos": "d197f186f8c06b0f1c5575c909d893707ee252e0c34bd8bd8ab8713d6e6d46e1",
    "observables": "d0dd6d2c38337ea7569933d887b753ed28a7d412213e8a87382e315992264005",
    "probabilities": "e1f664b3078fd219868059f72cd88659c94320c43c7c52477b413c661f9428df",
    "asymptotics": "a42f2a3845bfe594d7d0bd2badd05d7fd354dc724f9a659e1444a32edb16748e",
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
