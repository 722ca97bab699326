"""Exact stdout bytes of fixed CLI commands.

Each case runs `python -m projconst ARGS` in a fresh interpreter, from
`tests/golden/` so that document paths are relative, and compares its stdout
byte for byte with `tests/golden/<case>.stdout`.  The files were captured
from the same commands; to add a case, run it the same way and commit its
stdout.  Every listed command is exact or prints floats from pure-Python
`math` (`bm --params` of a non-exact a, `bm --optimize`), which do not
change with the numpy version; `selftest` and `minproj --oracle` print
floats that do, so they are not listed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import projconst

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "minproj-ker3": ["minproj", "ker3.json"],
    "minproj-diag3": ["minproj", "diag3.json"],
    "minproj-rational5": ["minproj", "rational5.json"],
    "zerosum-line-N2": ["zerosum", "line.json", "--copies", "2"],
    "zerosum-line-N3": ["zerosum", "line.json", "--copies", "3"],
    "zerosum-line-N4": ["zerosum", "line.json", "--copies", "4"],
    "zerosum-ker3-N2": ["zerosum", "ker3.json", "--copies", "2"],
    "zerosum-diag3-N3": ["zerosum", "diag3.json", "--copies", "3"],
    "plan-7_2": ["plan", "--lambda", "7/2"],
    "plan-5": ["plan", "--lambda", "5"],
    "plan-33_2": ["plan", "--lambda", "33/2"],
    "plan-3_2": ["plan", "--lambda", "3/2"],
    "plan-4_3-demo-ker3": ["plan", "--lambda", "4/3", "--demo", "ker3.json", "--steps", "0"],
    "bm-params-4": ["bm", "--params", "4"],
    "bm-params-2": ["bm", "--params", "2"],
    "bm-params-1_3": ["bm", "--params", "1/3"],
    "bm-optimize": ["bm", "--optimize"],
    "bm-model-4": ["bm", "--model", "4"],
}


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(Path(projconst.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "projconst", *args], cwd=GOLDEN,
                          env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_bytes(case):
    done = run_cli(CASES[case])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{case}.stdout").read_bytes()
