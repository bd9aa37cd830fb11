"""Smoke tests: every example script runs end-to-end.

Examples are the public face of the library; these tests keep them from
rotting.  Scripts with a size argument run at reduced scale; all are
checked for a zero exit code and their headline output markers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


def run_example(name: str, *args: str, timeout: int = 420):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=EXAMPLES,
        env=env,
    )


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "P_linear" in result.stdout
        assert "FOF" in result.stdout

    def test_power_spectrum_evolution(self, tmp_path):
        result = run_example("power_spectrum_evolution.py", "16")
        assert result.returncode == 0, result.stderr
        assert "measured P(k) at z" in result.stdout
        assert "growth of the fundamental mode" in result.stdout

    def test_cluster_halos(self):
        result = run_example("cluster_halos.py", "16")
        assert result.returncode == 0, result.stderr
        assert "FOF:" in result.stdout

    def test_distributed_fft_demo(self):
        result = run_example("distributed_fft_demo.py", timeout=180)
        assert result.returncode == 0, result.stderr
        assert "max deviation from numpy.fft.fftn: 0.00e+00" in result.stdout
        assert "passive copies" in result.stdout

    def test_bgq_performance_models(self):
        result = run_example("bgq_performance_models.py", timeout=180)
        assert result.returncode == 0, result.stderr
        assert "13.94" in result.stdout  # paper headline appears
        assert "Table I" in result.stdout

    def test_cluster_assembly(self):
        result = run_example("cluster_assembly.py", "16")
        assert result.returncode == 0, result.stderr
        assert "checkpoint restart reproduces" in result.stdout

    def test_vlasov_validation(self):
        result = run_example("vlasov_validation.py", timeout=420)
        assert result.returncode == 0, result.stderr
        assert "cosh" in result.stdout
        assert "dimensionality wall" in result.stdout
