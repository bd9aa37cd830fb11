"""Tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import main


class TestMain:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PFlops" in out
        assert "13.9" in out  # headline

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fly"])

    @pytest.mark.slow
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "FOF halos" in out
        assert "P(k)" in out

    def test_module_invocation(self):
        """The documented entry point works as a subprocess."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "reproduction" in result.stdout

    def test_import_leaves_analysis_unloaded(self):
        """``import repro`` and the CLI module load only what a run
        needs: no analysis package, HALOFIT, emulator or spline code."""
        absent = [
            "repro.analysis",
            "repro.core.pipeline",
            "repro.cosmology.halofit",
            "repro.cosmology.emulator",
            "scipy.interpolate",
        ]
        code = (
            "import sys, repro, repro.__main__\n"
            f"print([m for m in {absent!r} if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @staticmethod
    def _loaded_scipy(code):
        """Run ``code`` in a fresh interpreter, then list the ``scipy``
        modules it left loaded."""
        code += "\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
        result = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip().splitlines()[-1]

    def test_import_loads_no_scipy(self):
        """``import repro`` and the CLI module load no scipy module."""
        assert self._loaded_scipy("import repro, repro.__main__") == "[]"

    def test_run_leaves_scipy_solvers_unloaded(self, tmp_path):
        """An f64 and an f32 PM run integrate their cosmology and FFT
        their grids without scipy's integrators, FFTs or root finders."""
        code = "from repro.__main__ import main\n" + "".join(
            f"assert main(['-q', 'run', '--steps', '1', '--n-per-dim', '8', "
            f"'--backend', 'pm', '--precision', '{prec}', "
            f"'--outdir', {str(tmp_path / prec)!r}]) == 0\n"
            for prec in ("f64", "f32")
        )
        loaded = self._loaded_scipy(code)
        for module in ("scipy.integrate", "scipy.fft", "scipy.optimize"):
            assert f"'{module}'" not in loaded


class TestRunCommand:
    """The checkpointed fault-tolerant ``run`` command."""

    def _base(self, outdir):
        return ["run", "--steps", "2", "--n-per-dim", "8",
                "--outdir", str(outdir)]

    def test_writes_rotation_and_resumes(self, tmp_path):
        out = tmp_path / "ck"
        assert main(self._base(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names and all(n.startswith("ckpt_") for n in names)
        # resuming a finished run is a no-op and exits cleanly
        assert main(["run", "--resume", str(out)]) == 0

    def test_resume_from_empty_dir_starts_fresh(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["run", "--steps", "1", "--n-per-dim", "8",
                     "--resume", str(out)]) == 0
        assert any(p.name.startswith("ckpt_") for p in out.iterdir())

    def test_bad_decomposition_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self._base(tmp_path) + ["--decomposition", "2,2"])

    def test_overload_depth_below_cutoff_rejected(self, tmp_path, capsys):
        """Depth 0.5 Mpc/h under a 24 Mpc/h cutoff: one line naming
        both, non-zero exit, nothing stepped or written."""
        out = tmp_path / "shallow"
        with pytest.raises(SystemExit) as exc:
            main(self._base(out) + ["--decomposition", "2,1,1",
                                    "--overload-depth", "0.5"])
        message = str(exc.value.code)
        assert "0.5" in message and "24" in message and "rcut" in message
        assert "\n" not in message
        assert not out.exists()

    @pytest.mark.parametrize(
        "retired", [{"worker_groups": 2}, {"executor": "process"}]
    )
    def test_retired_executor_config_is_a_one_line_exit(
        self, tmp_path, retired
    ):
        import json

        from repro.config import SimulationConfig

        cfg = SimulationConfig(box_size=64.0, n_per_dim=8, n_steps=1,
                               workers=2)
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**cfg.to_dict(), **retired}))
        with pytest.raises(SystemExit) as exc:
            main(self._base(tmp_path / "out") + ["--config", str(path)])
        message = str(exc.value.code)
        assert "'thread'" in message and "\n" not in message
        # the CLI offers the two remaining backends only
        with pytest.raises(SystemExit) as exc:
            main(self._base(tmp_path / "out") + ["--executor", "process"])
        assert exc.value.code == 2

    def test_retired_overlap_flag_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ovl"
        with pytest.raises(SystemExit) as exc:
            main(self._base(out) + ["--overlap"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--overlap" in err and "Traceback" not in err
        assert not out.exists()

    def test_internal_value_error_keeps_its_traceback(
        self, tmp_path, monkeypatch
    ):
        """Only a rejected shape (ConfigError) becomes the one-line
        exit; a ValueError from inside construction is a bug and
        propagates."""
        import repro

        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(repro, "HACCSimulation", broken)
        with pytest.raises(ValueError, match="internal"):
            main(self._base(tmp_path / "bug"))

    def test_bad_rank_death_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self._base(tmp_path) + ["--inject-rank-death", "nope"])

    @pytest.mark.chaos
    def test_recovered_rank_death_exits_zero(self, tmp_path):
        out = tmp_path / "chaos"
        argv = self._base(out) + [
            "--n-per-dim", "16", "--decomposition", "2,1,1",
            "--overload-depth", "14",
            "--inject-rank-death", "1:1", "--fault-seed", "2012",
        ]
        assert main(argv) == 0
        from repro.resilience.faults import get_fault_plan

        # the command restores the null plan on the way out
        assert not get_fault_plan().enabled

    @pytest.mark.chaos
    def test_unrecovered_rank_death_exits_two(self, tmp_path):
        out = tmp_path / "chaos2"
        argv = self._base(out) + [
            "--n-per-dim", "16", "--decomposition", "2,1,1",
            "--overload-depth", "14",
            "--inject-rank-death", "1:0", "--no-recovery", "--health",
            "--fault-seed", "2012",
        ]
        assert main(argv) == 2

    @pytest.mark.chaos
    def test_retry_absorbs_comm_faults(self, tmp_path):
        out = tmp_path / "chaos3"
        argv = self._base(out) + [
            "--n-per-dim", "16", "--decomposition", "2,1,1",
            "--overload-depth", "14",
            "--retry", "--inject-comm-failures", "1.0",
            "--inject-comm-max", "2", "--fault-seed", "2012",
        ]
        assert main(argv) == 0
