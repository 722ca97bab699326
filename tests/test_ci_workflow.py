"""The CI workflow must not go stale in silence.

`.github/workflows/tests.yml` names test files and benchmark paths, and
expects `selftest` to end with a summary line that counts the criteria.  A
renamed file or a new criterion would break the workflow only when it runs;
these tests break at once instead, and the import check of the installed
package runs here on the source tree.  Needs nothing beyond pytest.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from projconst.acceptance import CRITERIA

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _workflow() -> str:
    return WORKFLOW.read_text()


def test_every_named_path_exists():
    paths = set(re.findall(r"(?<![\w/$.-])((?:tests|perfbench)/[\w./-]*\w)", _workflow()))
    assert {"tests/test_certificate.py", "tests/test_certificate_differential.py",
            "tests/certificate_reference.py", "tests/test_kron_differential.py",
            "tests/test_pivot_sequence.py", "tests/test_projection_lp_differential.py",
            "tests/projection_lp_reference.py", "tests/test_zerosum.py",
            "tests/test_blocks_differential.py", "tests/test_records.py",
            "tests/test_planner.py", "tests/test_perturbation_differential.py",
            "tests/test_simplex.py", "perfbench/run.py", "perfbench/tests"} <= paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []


def test_expected_selftest_summary_counts_every_criterion():
    assert re.findall(r"OK \(\d+ criteria\)", _workflow()) == [f"OK ({len(CRITERIA)} criteria)"]


def test_import_check_passes_on_the_source_tree_and_fails_on_a_dataclass():
    (check,) = re.findall(r"python -c '(import sys, projconst, projconst\.cli;[^']*)'",
                          _workflow())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = lambda code: subprocess.run([sys.executable, "-c", code], env=env,
                                      capture_output=True, text=True)
    assert run(check).returncode == 0
    failed = run("import dataclasses; " + check)
    assert failed.returncode == 1
    assert failed.stderr == "import projconst.cli loaded ['dataclasses', 'inspect']\n"
