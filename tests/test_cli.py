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
        # the inventory names every subpackage of src/repro
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        line = next(l for l in out.splitlines() if l.startswith("subpackages:"))
        named = {s.strip() for s in line.split(":", 1)[1].split(",")}
        packages = {p.parent.name for p in root.glob("*/__init__.py")}
        assert packages <= named, sorted(packages - named)

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fly"])

    def test_run_summary(self, capsys):
        assert main(["run", "--steps", "2", "--n-per-dim", "8",
                     "--backend", "pm", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "FOF halos" in out
        assert "P(k)" in out

    @pytest.mark.parametrize(
        "argv", [["demo"], ["profile"], ["runs", "show", "latest"]],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_retired_command_is_a_usage_error(self, capsys, argv):
        """``run`` is the one driver and ``report`` the one reader."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

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

    def test_plain_run_leaves_analysis_and_report_unloaded(self):
        """A plain undecomposed PM or treepm run imports only what it
        calls: no analysis package or profile renderer (no
        ``--summary`` / ``--profile``), no telemetry, health or ledger,
        no distributed FFT or decomposed-run modules, no
        ``numpy.polynomial``."""
        absent = [
            "repro.analysis",
            "repro.instrument.report",
            "repro.instrument.store",
            "repro.instrument.analysis",
            "repro.instrument.health",
            "repro.instrument.telemetry",
            "repro.fft",
            "repro.parallel.overload",
            "repro.parallel.decomposition",
            "repro.parallel.topology",
            "repro.parallel.comm",
            "numpy.polynomial",
        ]
        code = "import sys\nfrom repro.__main__ import main\n" + "".join(
            "assert main(['-q', 'run', '--steps', '1', '--n-per-dim', "
            f"'8', '--backend', '{backend}']) == 0\n"
            for backend in ("pm", "treepm")
        ) + f"print([m for m in {absent!r} if m in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

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

    def test_ledgered_run_loads_no_scipy(self, tmp_path):
        """Writing the manifest (telemetry header and ledger entry)
        records scipy's version without importing scipy."""
        code = (
            "from repro.__main__ import main\n"
            "assert main(['-q', 'run', '--steps', '1', '--n-per-dim', "
            "'8', '--backend', 'pm', "
            f"'--telemetry', {str(tmp_path / 'run.jsonl')!r}, "
            f"'--ledger', {str(tmp_path / 'ledger')!r}]) == 0\n"
        )
        assert self._loaded_scipy(code) == "[]"


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

    def test_overload_depth_past_half_a_domain_rejected(self, tmp_path):
        """At 16^3 the default depth (rcut plus one cell, 16 Mpc/h) is
        half of a 32 Mpc/h domain: one ``run:`` line naming the depth
        and the width, exit 1, no traceback, nothing written."""
        out = tmp_path / "deep"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--n-per-dim", "16",
             "--steps", "1", "--decomposition", "2,1,1",
             "--outdir", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("run: "), lines
        assert "16" in lines[0] and "32" in lines[0]
        assert not out.exists()

    def test_overload_depth_without_decomposition_rejected(
        self, tmp_path
    ):
        """An undecomposed run has no overload shell: the depth flag is
        a one-line exit, not silently dropped."""
        out = tmp_path / "undecomposed"
        with pytest.raises(SystemExit) as exc:
            main(self._base(out) + ["--overload-depth", "0.1"])
        message = str(exc.value.code)
        assert message.startswith("run: ") and "decomposition" in message
        assert "\n" not in message
        assert not out.exists()

    @pytest.mark.parametrize("decomposed", [True, False])
    def test_manifest_records_the_decomposition(self, tmp_path, decomposed):
        import json

        stream = tmp_path / "run.jsonl"
        argv = ["-q", "run", "--steps", "1", "--n-per-dim", "8",
                "--backend", "pm", "--telemetry", str(stream)]
        if decomposed:
            argv += ["--decomposition", "2,1,1", "--overload-depth", "14"]
        assert main(argv) == 0
        with open(stream, encoding="utf-8") as fh:
            manifest = json.loads(fh.readline())
        if decomposed:
            assert manifest["decomposition"] == [2, 1, 1]
            assert manifest["overload_depth"] == 14.0
        else:
            assert "decomposition" not in manifest
            assert "overload_depth" not in manifest

    def test_profile_run_is_ledgered(self, tmp_path, capsys):
        """A ledgered ``run --profile`` keeps its spans and counters in
        the run's trace, once: the run dir holds no other copy."""
        from repro.instrument import NullRegistry, RunLedger, use

        root = tmp_path / "ledger"
        with use(NullRegistry()):  # the run's live registry ends here
            assert main(["-q", "run", "--steps", "1", "--n-per-dim", "8",
                         "--backend", "pm", "--profile",
                         "--ledger", str(root)]) == 0
        out = capsys.readouterr().out
        assert "self s" in out and "model/paper" in out
        ledger = RunLedger(root)
        entry = ledger.get("latest")
        assert entry.n_steps == 1
        assert ledger.load_trace(entry)["counters"]
        assert sorted(p.name for p in ledger.run_dir(entry).iterdir()) == [
            "entry.json", "manifest.json", "trace.json",
        ]

    def test_trace_is_the_span_export(self, tmp_path):
        """``--trace`` alone turns the registry on and writes the run's
        spans and counters as a Chrome trace."""
        from repro.instrument import NullRegistry, use
        from repro.instrument.exporters import load_chrome_trace

        path = tmp_path / "run.json"
        with use(NullRegistry()):
            assert main(["-q", "run", "--steps", "2", "--n-per-dim", "8",
                         "--backend", "pm", "--trace", str(path)]) == 0
        trace = load_chrome_trace(path)
        assert [s.path for s in trace["spans"]].count("step") == 2
        assert trace["counters"]

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

    @pytest.mark.parametrize(
        "flag",
        [
            ["--overlap"],
            ["--retry"],
            ["--retry-max-attempts", "4"],
            ["--inject-comm-failures", "0.5"],
            ["--inject-comm-tags", "x"],
            ["--inject-comm-max", "1"],
            ["--jsonl", "spans.jsonl"],
            ["--csv", "spans.csv"],
            ["--bench-record", "nightly"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_retired_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "ovl"
        with pytest.raises(SystemExit) as exc:
            main(self._base(out) + flag)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag[0] in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, expected",
        [
            (["--keep-last", "0"], "keep_last must be >= 1"),
            (["--checkpoint-every", "-1"], "every_steps must be >= 1"),
            (["--checkpoint-every", "0"], "every_steps must be >= 1"),
            (["--checkpoint-seconds", "0"], "every_seconds must be > 0"),
        ],
        ids=["keep-last 0", "checkpoint-every -1", "checkpoint-every 0",
             "checkpoint-seconds 0"],
    )
    def test_bad_checkpoint_flag_is_a_one_line_exit(
        self, tmp_path, monkeypatch, flag, expected
    ):
        """A rotation depth or schedule the checkpointer rejects exits
        before the initial conditions are built; a zero interval is
        rejected, not read as 'every step'."""
        import repro

        def built(*args, **kwargs):
            raise AssertionError("the simulation was built")

        monkeypatch.setattr(repro, "HACCSimulation", built)
        out = tmp_path / "ck"
        with pytest.raises(SystemExit) as exc:
            main(self._base(out) + flag)
        message = str(exc.value.code)
        assert message.startswith("run: ") and expected in message
        assert "\n" not in message
        assert not out.exists()

    def test_resume_under_another_config_is_a_one_line_exit(self, tmp_path):
        """``--resume DIR --config FILE`` continues only the run FILE
        asks for; an equal config resumes as before."""
        import json

        from repro.config import SimulationConfig

        def config_file(name, **fields):
            cfg = SimulationConfig(box_size=64.0, n_per_dim=8,
                                   backend="pm", **fields)
            path = tmp_path / name
            path.write_text(json.dumps(cfg.to_dict()))
            return str(path)

        ran = config_file("ran.json", n_steps=2)
        other = config_file("other.json", n_steps=4, seed=7)
        out = tmp_path / "ck"
        assert main(["run", "--config", ran, "--outdir", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", other, "--resume", str(out)])
        message = str(exc.value.code)
        assert message.startswith("run: ") and "\n" not in message
        assert message.endswith("(differing fields: n_steps, seed)")
        assert sorted(p.name for p in out.iterdir()) == written
        assert main(["run", "--config", ran, "--resume", str(out)]) == 0

    @pytest.mark.parametrize(
        "fault, expected",
        [
            (["--decomposition", "2,1,1", "--overload-depth", "14",
              "--inject-rank-death", "0:5"], "the run has 2 ranks"),
            (["--inject-rank-death", "0:0"], "decomposed"),
            (["--decomposition", "2,1,1", "--overload-depth", "14",
              "--inject-rank-death", "2:0"], "past the run's last step 1"),
            (["--inject-slowdown", "fft:0.1"], "'fft'"),
            (["--backend", "pm", "--decomposition", "2,1,1",
              "--overload-depth", "14", "--inject-rank-death", "0:0"],
             "decomposed short-range"),
            (["--backend", "pm", "--inject-slowdown", "shortrange:0.1"],
             "sections: none"),
        ],
    )
    def test_fault_the_run_cannot_have_is_a_one_line_exit(
        self, tmp_path, fault, expected
    ):
        """A rank it lacks, an undecomposed or PM-only run, a step past
        the end or a section no hook reads: rejected before the first
        step."""
        out = tmp_path / "bad-fault"
        with pytest.raises(SystemExit) as exc:
            main(self._base(out) + ["--n-per-dim", "16"] + fault)
        message = str(exc.value.code)
        assert message.startswith("run: ") and expected in message
        assert "\n" not in message
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
