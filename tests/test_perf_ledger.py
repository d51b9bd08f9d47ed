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


def test_a_command_reports_its_cpu_time():
    """``run_command`` takes CPU time (user + system) from the same
    ``os.wait4`` that gives the peak, beside the wall time."""
    sys.path.insert(0, str(TOOLS))
    try:
        import perf_ledger
    finally:
        sys.path.remove(str(TOOLS))
    wall, cpu, rss, stdout = perf_ledger.run_command(["-c", "pass"], TOOLS)
    assert cpu >= 0 and wall > 0 and rss > 0 and stdout == ""
    assert perf_ledger.summary([(wall, cpu, rss)])["cpu_s_samples"] == [round(cpu, 3)]
