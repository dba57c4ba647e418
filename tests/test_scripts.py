"""The example scripts: exit status and byte-frozen stdout."""

import hashlib
import importlib.util
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


def _load(script):
    spec = importlib.util.spec_from_file_location(script[:-3], ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_delta_verification_raises_on_mismatch(monkeypatch):
    # --quantity delta checks each cell against the collapsed signed
    # recursion, so a planted wrong recursion stops the table
    script = _load("dimension_tables.py")
    monkeypatch.setattr(script, "delta_direct", lambda p, g: (0,) * ((p - 1) // 2))
    monkeypatch.setattr(sys, "argv", ["dimension_tables.py", "--primes", "5", "--gmax", "2"])
    with pytest.raises(ArithmeticError, match="signed recursion disagrees at p=5, g=1, c=0"):
        script.main()


def test_leading_terms_exits_1_on_a_false_claim(monkeypatch, capsys):
    # B_2 = 7/6 (N_2 = B_2 3! gains 3! in the integer table) falsifies the
    # Bernoulli leading terms: the script names each false claim, still
    # prints the true ones, and exits 1
    from tqftdims import polylab

    script = _load("leading_terms.py")
    true_nums = polylab._bern_nums
    monkeypatch.setattr(
        polylab, "_bern_nums", lambda k: [n + 6 * (j == 2) for j, n in enumerate(true_nums(k))]
    )
    monkeypatch.setattr(sys, "argv", ["leading_terms.py", "--gmax", "2"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "  FAILED: signed top layer matches the Bernoulli form\n" in out
    assert "  verified: signed count has total degree 2g-1\n" in out


CODE_SAMPLE = '''"""A module docstring
over two lines."""

# a comment-only line
total = (
    1  # a trailing comment
    + 2
)


def f():
    """A function docstring."""
    return """a string
that is not a docstring"""
'''


def test_code_lines_counts_tokens_outside_comments_and_docstrings():
    # the four lines of the expression, the def, and both lines of the string
    assert _load("code_lines.py").code_lines(CODE_SAMPLE) == 7
