"""Benchmark reports stay byte-identical.

Runs each of the benchmark's four CLI workloads in a fresh interpreter, as
the benchmark does (PYTHONHASHSEED=0), and compares the exit code and the
stdout sha256 with perfbench/golden.json, which this test only reads.
`verify all` is among them: every suite runs through the invariant-space
core, so its report pins that core end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("workload", ["gl2-epsilon", "va-sigma", "cyclic-sigma",
                                      "verify-all"])
def test_report_matches_golden(workload):
    expected = GOLDEN[workload]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "nullcone_lab.cli", *expected["argv"]],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == expected["exit_code"], proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == expected["stdout_sha256"]
