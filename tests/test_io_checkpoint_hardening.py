"""Tests for the hardened checkpoint layer (``repro.io.checkpoint``).

Suffix normalization, the format-3 layout (stored members, zlib CRC32
manifest), format-2 back-compat (CRC32C) on a committed file, typed load
errors (foreign files, future versions, malformed manifests),
crash-mid-write torn files, rotation fallback, scheduling, and atomic
publication.
"""

from __future__ import annotations

import json
import shutil
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.io import (
    CheckpointError,
    Checkpointer,
    CheckpointSchedule,
    crc32c,
    find_latest_valid,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from repro.resilience import NullFaultPlan


#: a format-2 checkpoint of ``tiny_sim()`` after one step, written by the
#: format-2 writer (CRC32C manifest, deflated members)
FORMAT2_FIXTURE = Path(__file__).parent / "data" / "ckpt_format2_tiny.npz"


def rewrite(src, dst, edit_meta=None, **array_edits):
    """Copy checkpoint ``src`` to ``dst`` with its manifest passed
    through ``edit_meta`` and arrays replaced, keeping everything else."""
    with np.load(src) as data:
        arrays = {k: np.array(data[k]) for k in data.files
                  if k != "metadata"}
        meta = json.loads(str(data["metadata"]))
    if edit_meta is not None:
        edit_meta(meta)
    arrays.update(array_edits)
    np.savez(dst, metadata=json.dumps(meta), **arrays)
    return dst


def tiny_sim(
    n_steps: int = 2, faults=NullFaultPlan(), **overrides
) -> HACCSimulation:
    base = dict(
        box_size=64.0,
        n_per_dim=8,
        z_initial=20.0,
        z_final=10.0,
        n_steps=n_steps,
        backend="pm",
        seed=5,
    )
    base.update(overrides)
    return HACCSimulation(SimulationConfig(**base), faults=faults)


class TestCRC32C:
    def test_known_vector(self):
        # the canonical CRC32C check value (RFC 3720 appendix)
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_array_matches_its_bytes(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert crc32c(arr) == crc32c(arr.tobytes())

    def test_sensitive_to_single_bit(self):
        data = bytearray(b"hello checkpoint")
        before = crc32c(bytes(data))
        data[5] ^= 0x01
        assert crc32c(bytes(data)) != before


class TestSuffixHandling:
    """Regression tests for the ``with_suffix`` fix: plain names gain
    ``.npz``, existing ``.npz`` (any case) is normalized not doubled,
    and dotted science names keep their full stem."""

    def test_plain_name_gains_suffix(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "ckpt", sim)
        assert path == tmp_path / "ckpt.npz"
        assert path.exists()

    def test_existing_suffix_not_doubled(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "ckpt.npz", sim)
        assert path == tmp_path / "ckpt.npz"

    def test_uppercase_suffix_normalized(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "ckpt.NPZ", sim)
        assert path == tmp_path / "ckpt.npz"

    def test_dotted_stem_survives(self, tmp_path):
        # with_suffix alone would truncate "z0.5" to "z0.npz"
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "z0.5", sim)
        assert path == tmp_path / "z0.5.npz"
        load_checkpoint(path)  # round-trips

    def test_load_roundtrip_preserves_state(self, tmp_path):
        sim = tiny_sim()
        sim.step()
        path = save_checkpoint(tmp_path / "mid", sim)
        restored = load_checkpoint(path)
        assert np.array_equal(
            restored.particles.positions, sim.particles.positions
        )
        assert np.array_equal(
            restored.particles.momenta, sim.particles.momenta
        )
        assert restored.a == sim.a
        assert restored._step_index == sim._step_index
        assert restored.config == sim.config


class TestTypedErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(tmp_path / "nope.npz")
        assert exc.value.path == tmp_path / "nope.npz"

    def test_foreign_npz_reports_found_keys(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, alpha=np.arange(3), beta=np.ones(2))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        msg = str(exc.value)
        assert "metadata" in msg
        assert "alpha" in msg and "beta" in msg

    def test_not_a_zip_at_all(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_future_format_version_rejected(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "ok", sim)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "metadata"}
            meta = json.loads(str(data["metadata"]))
        meta["format_version"] = 99
        np.savez(
            tmp_path / "future.npz",
            metadata=json.dumps(meta),
            **arrays,
        )
        with pytest.raises(CheckpointError, match="newer"):
            load_checkpoint(tmp_path / "future.npz")

    def test_missing_version_rejected(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "ok", sim)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "metadata"}
            meta = json.loads(str(data["metadata"]))
        del meta["format_version"]
        np.savez(
            tmp_path / "nover.npz", metadata=json.dumps(meta), **arrays
        )
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(tmp_path / "nover.npz")

    def test_checksum_mismatch_detected(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "ok", sim)
        with np.load(path) as data:
            arrays = {k: np.array(data[k]) for k in data.files
                      if k != "metadata"}
            meta = json.loads(str(data["metadata"]))
        # corrupt one array *after* the manifest was recorded
        arrays["momenta"] = arrays["momenta"] + 1e-8
        np.savez(
            tmp_path / "rot.npz", metadata=json.dumps(meta), **arrays
        )
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(tmp_path / "rot.npz")

    def test_verify_returns_metadata(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "ok", sim)
        meta = verify_checkpoint(path)
        assert meta["format_version"] == 3
        assert set(meta["checksums"]) == {
            "positions", "momenta", "masses", "ids", "a",
        }


    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["checksums"].update(velocities="00000000"),
            lambda m: m.update(checksums=["positions"]),
            lambda m: m.pop("step_index"),
            lambda m: m.update(step_index=-1),
            lambda m: m.update(step_index="1"),
        ],
        ids=["unknown-array", "list-checksums", "no-step-index",
             "negative-step-index", "string-step-index"],
    )
    def test_malformed_manifest_is_typed(self, tmp_path, edit):
        path = save_checkpoint(tmp_path / "ok", tiny_sim())
        bad = rewrite(path, tmp_path / "bad.npz", edit)
        with pytest.raises(CheckpointError):
            verify_checkpoint(bad)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


class TestFormat3Layout:
    """Format 3 stores members uncompressed under a zlib CRC32 manifest;
    with nothing to fail in inflate, the CRCs alone catch payload
    flips."""

    def test_members_are_stored(self, tmp_path):
        path = save_checkpoint(tmp_path / "ok", tiny_sim())
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
        assert {i.filename for i in infos} == {
            "metadata.npy", "positions.npy", "momenta.npy", "masses.npy",
            "ids.npy", "a.npy",
        }
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)

    def test_manifest_is_zlib_crc32(self, tmp_path):
        sim = tiny_sim()
        sim.step()
        meta = verify_checkpoint(save_checkpoint(tmp_path / "ok", sim))
        positions = sim.particles.positions
        assert meta["checksums"]["positions"] == (
            f"{zlib.crc32(positions.tobytes()):08x}"
        )

    @pytest.mark.parametrize(
        "member", ["metadata", "positions", "momenta", "masses", "ids", "a"]
    )
    def test_payload_byteflip_in_every_member_detected(self, tmp_path,
                                                       member):
        path = save_checkpoint(tmp_path / "ok", tiny_sim())
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(f"{member}.npy")
        with np.load(path) as data:
            nbytes = data[member].nbytes
        raw = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack_from(
            "<HH", raw, info.header_offset + 26
        )
        start = info.header_offset + 30 + name_len + extra_len
        # the middle byte of the array data after the .npy header
        offset = start + info.compress_size - nbytes + nbytes // 2
        raw[offset] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            verify_checkpoint(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestFormat2BackCompat:
    """A committed checkpoint written by the format-2 writer still
    verifies (CRC32C), loads bit for bit, and resumes."""

    @staticmethod
    def raw_members():
        with np.load(FORMAT2_FIXTURE) as data:
            return {k: np.array(data[k]) for k in data.files
                    if k != "metadata"}

    def test_verifies_through_crc32c(self, monkeypatch):
        import repro.io.checkpoint as ckmod

        checked = []

        def spy(arr):
            checked.append(arr.shape)
            return crc32c(arr)

        monkeypatch.setattr(ckmod, "crc32c", spy)
        meta = verify_checkpoint(FORMAT2_FIXTURE)
        assert meta["format_version"] == 2
        assert meta["step_index"] == 1
        assert len(checked) == 5
        raw = self.raw_members()
        assert meta["checksums"] == {
            k: f"{crc32c(v):08x}" for k, v in raw.items()
        }

    def test_loads_raw_members_bitwise(self):
        raw = self.raw_members()
        sim = load_checkpoint(FORMAT2_FIXTURE)
        for k in ("positions", "momenta", "masses", "ids"):
            got = getattr(sim.particles, k)
            assert got.dtype == raw[k].dtype
            assert np.array_equal(got, raw[k])
        assert sim.a == float(raw["a"])
        assert sim._step_index == 1

    def test_format3_roundtrip_steps_bitwise(self, tmp_path):
        direct = load_checkpoint(FORMAT2_FIXTURE)
        path = save_checkpoint(tmp_path / "v3", direct)
        assert verify_checkpoint(path)["format_version"] == 3
        via_v3 = load_checkpoint(path)
        direct.step()
        via_v3.step()
        for k in ("positions", "momenta"):
            assert np.array_equal(
                getattr(via_v3.particles, k), getattr(direct.particles, k)
            )
        assert via_v3.a == direct.a

    def test_perturbed_array_fails_checksum(self, tmp_path):
        raw = self.raw_members()
        bad = rewrite(FORMAT2_FIXTURE, tmp_path / "rot.npz",
                      momenta=raw["momenta"] + 1e-8)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            verify_checkpoint(bad)

    def _mixed_rotation(self, tmp_path):
        """ckpt_000001 is the format-2 fixture, ckpt_000002 a format-3
        file one step later."""
        shutil.copyfile(FORMAT2_FIXTURE, tmp_path / "ckpt_000001.npz")
        sim = load_checkpoint(FORMAT2_FIXTURE)
        sim.step()
        newest = Checkpointer(tmp_path).checkpoint(sim)
        return sim, newest

    def test_mixed_rotation_picks_newest(self, tmp_path):
        _, newest = self._mixed_rotation(tmp_path)
        assert newest.name == "ckpt_000002.npz"
        assert find_latest_valid(tmp_path) == newest

    def test_cli_resume_falls_back_to_format2(self, tmp_path):
        from repro.__main__ import main

        ref, newest = self._mixed_rotation(tmp_path)
        with open(newest, "r+b") as fh:
            fh.truncate(newest.stat().st_size // 2)
        assert main(["-q", "run", "--resume", str(tmp_path)]) == 0
        resumed = load_checkpoint(find_latest_valid(tmp_path))
        assert resumed._step_index == 2
        for k in ("positions", "momenta"):
            assert np.array_equal(
                getattr(resumed.particles, k), getattr(ref.particles, k)
            )
        assert resumed.a == ref.a


    def test_cli_resume_verifies_each_file_once(self, tmp_path, monkeypatch):
        """A resume reads and verifies the file it restores once; a torn
        newest file costs one more (failed) read and is counted as a
        survived checkpoint fault."""
        from repro.__main__ import main
        from repro.io import checkpoint

        _, newest = self._mixed_rotation(tmp_path)
        reads = []
        load = checkpoint._load_verified

        def counted(path):
            reads.append(Path(path).name)
            return load(path)

        monkeypatch.setattr(checkpoint, "_load_verified", counted)
        assert main(["-q", "run", "--resume", str(tmp_path)]) == 0
        assert reads == ["ckpt_000002.npz"]
        with open(newest, "r+b") as fh:
            fh.truncate(newest.stat().st_size // 2)
        reads.clear()
        plan = checkpoint.FaultPlan(seed=0)
        found = checkpoint.load_latest_valid(tmp_path, faults=plan)
        assert found[0].name == "ckpt_000001.npz"
        assert found[1]._step_index == 1
        assert reads == ["ckpt_000002.npz", "ckpt_000001.npz"]
        assert plan.recovered == {"checkpoint": 1}

class TestCrashMidWrite:
    """A crash can tear the file at any byte: every truncation point
    must surface as CheckpointError, never as garbage physics."""

    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_truncation_always_detected(self, tmp_path, frac):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "torn", sim)
        size = path.stat().st_size
        keep = max(1, int(size * frac))
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bitflips_detected(self, tmp_path):
        sim = tiny_sim()
        path = save_checkpoint(tmp_path / "flip", sim)
        size = path.stat().st_size
        raw = bytearray(path.read_bytes())
        hits = 0
        for offset in (size // 4, size // 2, (3 * size) // 4):
            corrupted = bytearray(raw)
            corrupted[offset] ^= 0x10
            path.write_bytes(bytes(corrupted))
            try:
                load_checkpoint(path)
            except CheckpointError:
                hits += 1
        # zip-member CRCs plus the array manifest catch payload flips
        assert hits == 3

    def test_no_temp_litter_after_save(self, tmp_path):
        sim = tiny_sim()
        save_checkpoint(tmp_path / "clean", sim)
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["clean.npz"]


class TestRotationFallback:
    def _write_rotation(self, tmp_path, n=3):
        sim = tiny_sim(n_steps=n)
        ck = Checkpointer(tmp_path, keep_last=n)
        paths = []
        for _ in range(n):
            sim.step()
            paths.append(ck.maybe_checkpoint(sim))
        return sim, paths

    def test_latest_valid_is_newest(self, tmp_path):
        _, paths = self._write_rotation(tmp_path)
        assert find_latest_valid(tmp_path) == paths[-1]

    @pytest.mark.parametrize("frac", [0.05, 0.5, 0.95])
    def test_falls_back_past_torn_newest(self, tmp_path, frac):
        _, paths = self._write_rotation(tmp_path)
        size = paths[-1].stat().st_size
        with open(paths[-1], "r+b") as fh:
            fh.truncate(max(1, int(size * frac)))
        assert find_latest_valid(tmp_path) == paths[-2]

    def test_falls_back_two_generations(self, tmp_path):
        _, paths = self._write_rotation(tmp_path)
        for p in paths[-2:]:
            with open(p, "r+b") as fh:
                fh.truncate(10)
        assert find_latest_valid(tmp_path) == paths[0]

    def test_none_when_all_corrupt(self, tmp_path):
        _, paths = self._write_rotation(tmp_path)
        for p in paths:
            p.write_bytes(b"gone")
        assert find_latest_valid(tmp_path) is None

    def test_none_for_missing_directory(self, tmp_path):
        assert find_latest_valid(tmp_path / "absent") is None

    def test_skips_newest_with_malformed_manifest(self, tmp_path):
        _, paths = self._write_rotation(tmp_path)
        tmp = rewrite(paths[-1], tmp_path / "malformed.npz",
                      lambda m: m["checksums"].update(velocities="0"))
        tmp.replace(paths[-1])
        assert find_latest_valid(tmp_path) == paths[-2]

    def test_foreign_files_ignored(self, tmp_path):
        _, paths = self._write_rotation(tmp_path)
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "ckpt_zzz.npz").write_bytes(b"not matching")
        assert find_latest_valid(tmp_path) == paths[-1]

    def test_keep_last_prunes_oldest(self, tmp_path):
        sim = tiny_sim(n_steps=5)
        ck = Checkpointer(tmp_path, keep_last=2)
        for _ in range(5):
            sim.step()
            ck.maybe_checkpoint(sim)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt_000004.npz", "ckpt_000005.npz"]
        assert ck.n_written == 5


class TestCheckpointSchedule:
    def test_needs_a_trigger(self):
        with pytest.raises(ValueError):
            CheckpointSchedule()

    def test_every_steps(self):
        s = CheckpointSchedule(every_steps=3)
        assert [s.due(i) for i in range(1, 8)] == [
            False, False, True, False, False, True, False,
        ]

    def test_every_seconds_with_fake_clock(self):
        t = {"now": 0.0}
        s = CheckpointSchedule(every_seconds=10.0, clock=lambda: t["now"])
        t["now"] = 5.0
        assert not s.due(1)
        t["now"] = 11.0
        assert s.due(2)
        s.wrote()
        t["now"] = 15.0
        assert not s.due(3)

    def test_either_trigger_fires(self):
        t = {"now": 0.0}
        s = CheckpointSchedule(
            every_steps=100, every_seconds=1.0, clock=lambda: t["now"]
        )
        t["now"] = 2.0
        assert s.due(1)  # wall clock fired long before step 100

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointSchedule(every_steps=0)
        with pytest.raises(ValueError):
            CheckpointSchedule(every_seconds=0.0)


class TestCheckpointerDriver:
    def test_run_with_checkpointer_writes_final(self, tmp_path):
        sim = tiny_sim(n_steps=3)
        ck = Checkpointer(
            tmp_path, schedule=CheckpointSchedule(every_steps=2)
        )
        sim.run(checkpointer=ck)
        names = sorted(p.name for p in tmp_path.iterdir())
        # step 2 by schedule, step 3 forced at end of run
        assert names == ["ckpt_000002.npz", "ckpt_000003.npz"]

    def test_final_step_not_written_twice(self, tmp_path):
        sim = tiny_sim(n_steps=2)
        ck = Checkpointer(
            tmp_path, schedule=CheckpointSchedule(every_steps=1)
        )
        sim.run(checkpointer=ck)
        assert ck.n_written == 2  # steps 1 and 2, no duplicate final

    def test_resume_is_bitwise_identical(self, tmp_path):
        ref = tiny_sim(n_steps=4)
        ref.run()

        sim = tiny_sim(n_steps=4)
        ck = Checkpointer(tmp_path)
        sim.step()
        sim.step()
        ck.maybe_checkpoint(sim)

        resumed = load_checkpoint(find_latest_valid(tmp_path))
        resumed.run()
        assert np.array_equal(
            resumed.particles.positions, ref.particles.positions
        )
        assert np.array_equal(
            resumed.particles.momenta, ref.particles.momenta
        )
        assert resumed.a == ref.a

    def test_resume_solves_afresh_and_stays_bitwise(self, tmp_path):
        """A resumed run cannot inherit the closing half-kick's force
        (it is never checkpointed): its first step pays two long-range
        solves, and the result is still the uninterrupted run's bits."""
        ref = tiny_sim(n_steps=3, n_per_dim=16)
        ref.run()
        assert ref.stepper.n_long_range_evals == 4

        sim = tiny_sim(n_steps=3, n_per_dim=16)
        sim.step()
        Checkpointer(tmp_path).maybe_checkpoint(sim)

        resumed = load_checkpoint(find_latest_valid(tmp_path))
        resumed.step()
        assert resumed.stepper.n_long_range_evals == 2
        resumed.run()
        assert resumed.stepper.n_long_range_evals == 3
        assert np.array_equal(
            resumed.particles.positions, ref.particles.positions
        )
        assert np.array_equal(
            resumed.particles.momenta, ref.particles.momenta
        )

    def test_checkpoint_write_keeps_the_reused_force(self, tmp_path):
        plain = tiny_sim(n_steps=3)
        plain.run()
        ckpt = tiny_sim(n_steps=3)
        ckpt.run(checkpointer=Checkpointer(
            tmp_path, schedule=CheckpointSchedule(every_steps=1)
        ))
        assert ckpt.stepper.n_long_range_evals == 4
        assert plain.stepper.n_long_range_evals == 4

    def _write_with_config(self, tmp_path, monkeypatch, sim, **fields):
        """Checkpoint ``sim`` with extra keys in its stored config, the
        way files written before a field was retired look."""
        import repro.io.checkpoint as ckmod

        real = ckmod._checkpoint_metadata

        def with_fields(sim_, checksums):
            meta = real(sim_, checksums)
            meta["config"].update(fields)
            return meta

        monkeypatch.setattr(ckmod, "_checkpoint_metadata", with_fields)
        return save_checkpoint(tmp_path / "old", sim)

    def test_checkpoint_with_retired_worker_groups_resumes(
        self, tmp_path, monkeypatch
    ):
        ref = tiny_sim(n_steps=3, workers=2, executor="thread")
        ref.run()
        sim = tiny_sim(n_steps=3, workers=2, executor="thread")
        sim.step()
        path = self._write_with_config(
            tmp_path, monkeypatch, sim, worker_groups=1
        )
        resumed = load_checkpoint(path)
        resumed.run()
        assert resumed.config == ref.config
        assert np.array_equal(
            resumed.particles.positions, ref.particles.positions
        )
        assert np.array_equal(
            resumed.particles.momenta, ref.particles.momenta
        )

    def test_checkpoint_with_retired_overlap_resumes(
        self, tmp_path, monkeypatch
    ):
        """A decomposed thread@2 run checkpointed with ``overlap: true``
        in its stored config (as overlapped runs wrote it) resumes on
        the one dispatch schedule, bitwise."""
        shape = dict(
            n_steps=2, n_per_dim=24, z_initial=25.0, z_final=0.0,
            backend="treepm", step_spacing="loga", seed=1,
            workers=2, executor="thread",
        )
        dims = (2, 1, 1)
        config = SimulationConfig(box_size=64.0, **shape)
        with HACCSimulation(config, decomposition_dims=dims) as ref:
            ref.run()
        with HACCSimulation(config, decomposition_dims=dims) as sim:
            sim.step()
            path = self._write_with_config(
                tmp_path, monkeypatch, sim, overlap=True
            )
        with load_checkpoint(path, decomposition_dims=dims) as resumed:
            resumed.run()
            assert resumed.config == ref.config
            assert np.array_equal(
                resumed.particles.positions, ref.particles.positions
            )
            assert np.array_equal(
                resumed.particles.momenta, ref.particles.momenta
            )

    def test_checkpoint_asking_for_process_is_a_config_error(
        self, tmp_path, monkeypatch
    ):
        from repro.config import ConfigError

        path = self._write_with_config(
            tmp_path, monkeypatch, tiny_sim(), executor="process"
        )
        with pytest.raises(ConfigError, match="'thread'"):
            load_checkpoint(path)

    def test_keep_last_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, keep_last=0)


@pytest.mark.chaos
class TestInjectedCheckpointFaults:
    def test_injected_truncation_forces_fallback(self, tmp_path):
        from repro.resilience import FaultPlan

        plan = FaultPlan(seed=2012).with_checkpoint_corruption(
            write_index=1, mode="truncate"
        )
        sim = tiny_sim(n_steps=2, faults=plan)
        ck = Checkpointer(tmp_path)
        sim.step()
        first = ck.maybe_checkpoint(sim)
        sim.step()
        ck.maybe_checkpoint(sim)
        assert plan.injected["checkpoint"] == 1
        assert find_latest_valid(tmp_path, faults=plan) == first
        # falling back across the corrupt file counts as a survived
        # checkpoint fault
        assert plan.recovered.get("checkpoint") == 1

    def test_injected_bitflip_detected(self, tmp_path):
        from repro.resilience import FaultPlan

        plan = FaultPlan(seed=2012).with_checkpoint_corruption(
            write_index=0, mode="bitflip"
        )
        sim = tiny_sim(faults=plan)
        path = save_checkpoint(tmp_path / "flip", sim)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
