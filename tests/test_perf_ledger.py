from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_importing_the_ledger_leaves_numpy_out():
    """A child's peak RSS starts at its spawner's, so the ledger, which
    spawns every command it measures, must not pull numpy into its own."""
    code = "import sys, perf_ledger; print(sorted(name for name in ('numpy', 'readweight') if name in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], cwd=TOOLS, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "[]"), done.stderr
