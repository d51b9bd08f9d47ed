from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_reports_its_falsifying_example(tmp_path):
    """Under the project's warning filters, a failing hypothesis test ends
    in its report.  Hypothesis's explain phase imports libcst, which warns
    about ``mypy_extensions.TypedDict``; turned into an error, that warning
    aborts the whole run with INTERNALERROR (exit 3) instead."""
    pytest.importorskip("libcst")
    test = tmp_path / "test_always_fails.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_always_fails(n):\n"
        "    assert n is None\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(test)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
