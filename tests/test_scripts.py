"""Smoke tests for the scripts under `scripts/`.

Each script runs in a fresh interpreter on a small input and must exit 0
with the printed table below.  `decomposition_bound_scan.py` also builds the
three exact sequence models and prints their window norms and inverse checks.
"""

import os
import subprocess
import sys
from pathlib import Path

import projconst

SCRIPTS = Path(__file__).parent.parent / "scripts"

TABLE = """\
  n   lambda (exact)   predicted 2-2/n
--------------------------------------
  2                1                 1
  3              4/3               4/3
"""

SCAN = """\
       a      g(a) exact    g(a) float
----------------------------------------
     1/4           243/2    121.500000
     1/2              50     50.000000
     3/4          605/18     33.611111
       1              27     27.000000

grid minimum: g(1) = 27 = 27.000000
closed form:  a* = 2.732050807569, g* = 19.392304845413
golden sect.: a* = 0.999999999958, g* = 27.000000000753 (48 iterations)
previous record: 19.485281374239
improvement:     0.092977 (strict: True)

exact sequence models:
     a  sqrt(2a+1)    K(a)   norm lower bounds  inverse
----------------------------------------------------------------
   3/2           2    14/3               2 / 2  ok
     4           3     9/2               3 / 3  ok
    12           5    35/6               5 / 5  ok
"""


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(Path(projconst.__file__).parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_projection_constants_table():
    proc = run_script("projection_constants_table.py", "--max-dim", "3", "--skip-oracle")
    assert (proc.returncode, proc.stdout) == (0, TABLE), proc.stderr


def test_decomposition_bound_scan():
    proc = run_script("decomposition_bound_scan.py", "--grid-max", "1", "--window", "64")
    assert (proc.returncode, proc.stdout) == (0, SCAN), proc.stderr
