"""The example scripts: exit status and byte-frozen stdout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,digest",
    [
        (
            "conjecture_scan.py",
            ("--gmax", "5"),
            "eaaab774bf9b092423a4731dc4959e5aa292e9009653078789dabacf654e725f",
        ),
        (
            "dimension_tables.py",
            ("--primes", "5,7,11", "--gmax", "4", "--c", "0"),
            "848784633bae89f6e72a9dfc2ce772fd83ccec6eae96d92c0c2a163d3b8ae156",
        ),
        (
            "leading_terms.py",
            ("--gmax", "3", "--full"),
            "d7098eaf0760d5de2f6e31b76d49e0ab76e3af40f8a21ba9f3d223a0b031fe18",
        ),
    ],
)
def test_script_stdout_frozen(script, args, digest):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == digest
