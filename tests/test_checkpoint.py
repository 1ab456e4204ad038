"""Sweep-level checkpoint/restart: format, integrity, and the
kill-and-resume acceptance bar.

The headline guarantee (ISSUE acceptance criteria): kill a rank
mid-sweep with a seeded :class:`FaultPlan`, observe the failure within
seconds with the dead rank's identity and traceback, then resume from
the last checkpoint and obtain factors and core **bit-identical** to an
uninterrupted run — for ``mp_rahosi_dt``, ``mp_hooi_dt`` and
``mp_sthosvd``.
"""

import io
import json
import os
import time

import numpy as np
import pytest

from repro.core.errors import CheckpointError
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import IterationRecord, RankAdaptiveOptions
from repro.distributed import checkpoint
from repro.distributed.checkpoint import (
    SweepCheckpoint,
    decode_history,
    encode_history,
    tensor_digest,
)
from repro.distributed.mp_hooi import mp_hooi_dt, mp_rahosi_dt
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.vmpi.faults import FaultPlan
from repro.vmpi.mp_comm import CommConfig, RankFailureError


def _example_checkpoint() -> SweepCheckpoint:
    rng = np.random.default_rng(0)
    return SweepCheckpoint(
        algorithm="mp_hooi_dt",
        iteration=2,
        shape=(8, 7, 6),
        grid_dims=(2, 1, 1),
        ranks=(3, 3, 2),
        factors=[rng.standard_normal((n, r)) for n, r in [(8, 3), (7, 3), (6, 2)]],
        rng_state={
            "bit_generator": "PCG64",
            "state": {"state": 2**100 + 7, "inc": 2**90 + 3},
            "has_uint32": 0,
            "uinteger": 0,
        },
        x_digest="abc123",
        extra={"ttm_count": 11, "history": [], "nested": {"a": [1, 2]}},
    )


class TestTensorDigest:
    def test_deterministic(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert tensor_digest(x) == tensor_digest(x.copy())

    def test_sensitive_to_values(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        y = x.copy()
        y[0, 0, 0] += 1e-12
        assert tensor_digest(x) != tensor_digest(y)

    def test_sensitive_to_dtype_and_shape(self):
        x = np.arange(6.0)
        assert tensor_digest(x) != tensor_digest(x.astype(np.float32))
        assert tensor_digest(x) != tensor_digest(x.reshape(2, 3))

    def test_noncontiguous_input(self):
        x = np.arange(24.0).reshape(4, 6)
        assert tensor_digest(x[:, ::2]) == tensor_digest(
            np.ascontiguousarray(x[:, ::2])
        )


class TestHistoryCodec:
    def test_roundtrip(self):
        history = [
            IterationRecord(
                iteration=1,
                ranks_used=(2, 2, 2),
                error=0.5,
                satisfied=False,
                storage_size=100,
                seconds=0.1,
            ),
            IterationRecord(
                iteration=2,
                ranks_used=(3, 3, 2),
                error=0.2,
                satisfied=True,
                storage_size=140,
                seconds=0.2,
                truncated_ranks=(2, 2, 2),
                truncated_error=0.25,
                truncated_storage=90,
            ),
        ]
        encoded = encode_history(history)
        json.dumps(encoded)  # must be JSON-able as-is
        assert decode_history(encoded) == history


class TestSweepCheckpointIO:
    def test_save_load_roundtrip(self, tmp_path):
        ck = _example_checkpoint()
        path = ck.save(tmp_path / "ck.npz")
        back = SweepCheckpoint.load(path)
        assert back.algorithm == ck.algorithm
        assert back.iteration == ck.iteration
        assert back.shape == ck.shape
        assert back.grid_dims == ck.grid_dims
        assert back.ranks == ck.ranks
        # PCG64 state holds >64-bit ints; they must survive JSON
        assert back.rng_state == ck.rng_state
        assert back.x_digest == ck.x_digest
        assert back.extra == ck.extra
        for a, b in zip(back.factors, ck.factors):
            np.testing.assert_array_equal(a, b)

    def test_atomic_overwrite_leaves_no_temp(self, tmp_path):
        ck = _example_checkpoint()
        path = tmp_path / "ck.npz"
        ck.save(path)
        ck.iteration = 3
        ck.save(path)
        assert os.listdir(tmp_path) == ["ck.npz"]
        assert SweepCheckpoint.load(path).iteration == 3

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.ones(3))
        with pytest.raises(CheckpointError, match="missing header"):
            SweepCheckpoint.load(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="could not read"):
            SweepCheckpoint.load(path)

    def test_tampered_factor_rejected(self, tmp_path):
        ck = _example_checkpoint()
        path = str(tmp_path / "ck.npz")
        ck.save(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["factor0"] = arrays["factor0"].copy()
        arrays["factor0"][0, 0] += 1.0  # silent corruption
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="integrity digest"):
            SweepCheckpoint.load(path)

    def test_tampered_header_rejected(self, tmp_path):
        ck = _example_checkpoint()
        path = str(tmp_path / "ck.npz")
        ck.save(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["header"][()]))
        header["iteration"] = 99
        arrays["header"] = np.array(json.dumps(header))
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="integrity digest"):
            SweepCheckpoint.load(path)

    def test_unknown_version_rejected(self, tmp_path):
        ck = _example_checkpoint()
        path = str(tmp_path / "ck.npz")
        ck.save(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["header"][()]))
        header["version"] = 999
        arrays["header"] = np.array(json.dumps(header))
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="version 999"):
            SweepCheckpoint.load(path)


class TestDurability:
    """Crash-consistency of ``save()``: torn writes detected, failed
    replaces leave the previous checkpoint intact, and the rename is
    ordered to disk with a directory fsync."""

    def test_torn_write_detected(self, tmp_path):
        ck = _example_checkpoint()
        path = str(tmp_path / "ck.npz")
        ck.save(path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])  # torn tail
        with pytest.raises(CheckpointError):
            SweepCheckpoint.load(path)

    def test_failed_replace_preserves_previous(self, tmp_path, monkeypatch):
        ck = _example_checkpoint()
        path = str(tmp_path / "ck.npz")
        ck.save(path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        ck.iteration = 99
        with pytest.raises(CheckpointError, match="could not write"):
            ck.save(path)
        monkeypatch.undo()
        # previous checkpoint intact and loadable, temp cleaned up
        assert os.listdir(tmp_path) == ["ck.npz"]
        assert SweepCheckpoint.load(path).iteration == 2

    def test_failed_write_leaves_no_first_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fsync", _raise_enospc)
        ck = _example_checkpoint()
        path = str(tmp_path / "ck.npz")
        with pytest.raises(CheckpointError, match="could not write"):
            ck.save(path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == []

    def test_directory_fsync_ordered_after_replace(self, tmp_path, monkeypatch):
        import repro.distributed.checkpoint as cp

        events = []
        real_replace = os.replace
        monkeypatch.setattr(
            os,
            "replace",
            lambda s, d: (events.append("replace"), real_replace(s, d))[1],
        )
        monkeypatch.setattr(
            cp, "_fsync_dir", lambda d: events.append(("fsync_dir", d))
        )
        _example_checkpoint().save(tmp_path / "ck.npz")
        assert events == ["replace", ("fsync_dir", str(tmp_path))]


def _raise_enospc(fd):
    raise OSError(28, "No space left on device")


class TestValidateResume:
    def _ck(self):
        return _example_checkpoint()

    def test_matching_config_passes(self):
        self._ck().validate_resume(
            algorithm="mp_hooi_dt",
            shape=(8, 7, 6),
            grid_dims=(2, 1, 1),
            x_digest="abc123",
        )

    def test_wrong_algorithm(self):
        with pytest.raises(CheckpointError, match="written by"):
            self._ck().validate_resume(
                algorithm="mp_sthosvd",
                shape=(8, 7, 6),
                grid_dims=(2, 1, 1),
            )

    def test_wrong_shape(self):
        with pytest.raises(CheckpointError, match="shape"):
            self._ck().validate_resume(
                algorithm="mp_hooi_dt",
                shape=(8, 7, 7),
                grid_dims=(2, 1, 1),
            )

    def test_wrong_grid(self):
        with pytest.raises(CheckpointError, match="grid"):
            self._ck().validate_resume(
                algorithm="mp_hooi_dt",
                shape=(8, 7, 6),
                grid_dims=(1, 2, 1),
            )

    def test_wrong_tensor_digest(self):
        with pytest.raises(CheckpointError, match="digest"):
            self._ck().validate_resume(
                algorithm="mp_hooi_dt",
                shape=(8, 7, 6),
                grid_dims=(2, 1, 1),
                x_digest="different",
            )


class TestKillAndResumeRAHOSI:
    """Acceptance: seeded kill mid-sweep -> fast detection -> resume
    bit-identical, for the rank-adaptive driver."""

    def test_kill_and_resume_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 7, 6))
        opts = RankAdaptiveOptions(max_iters=3, seed=0)
        run = dict(timeout=120)

        clean, s_clean = mp_rahosi_dt(x, 0.3, (1, 1, 1), (2, 1, 1), opts, **run)
        n_ops = len(s_clean.trace.records)
        assert n_ops > 10

        ck = str(tmp_path / "ra.npz")
        plan = FaultPlan.kill(1, op_index=n_ops - 1)
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as ei:
            mp_rahosi_dt(
                x, 0.3, (1, 1, 1), (2, 1, 1), opts,
                checkpoint_path=ck,
                comm_config=CommConfig(fault_plan=plan),
                **run,
            )
        assert time.monotonic() - t0 < 5.0
        assert ei.value.failed_ranks == (1,)
        assert "rank 1" in str(ei.value)
        assert "remote traceback" in str(ei.value)
        assert os.path.exists(ck)

        resumed, s_res = mp_rahosi_dt(
            x, 0.3, (1, 1, 1), (2, 1, 1), opts, resume_from=ck, **run
        )
        np.testing.assert_array_equal(resumed.core, clean.core)
        assert len(resumed.factors) == len(clean.factors)
        for a, b in zip(resumed.factors, clean.factors):
            np.testing.assert_array_equal(a, b)
        # deterministic diagnostics line up too (seconds excluded)
        assert [h.iteration for h in s_res.history] == [
            h.iteration for h in s_clean.history
        ]
        assert [h.ranks_used for h in s_res.history] == [
            h.ranks_used for h in s_clean.history
        ]
        assert [h.error for h in s_res.history] == [
            h.error for h in s_clean.history
        ]
        assert s_res.converged == s_clean.converged


class TestKillAndResumeSTHOSVD:
    """Acceptance: same bar for the d=4 STHOSVD driver."""

    def test_kill_and_resume_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 5, 4, 4))
        kwargs = dict(ranks=(3, 3, 2, 2), timeout=120)

        clean = mp_sthosvd(x, (2, 1, 1, 1), **kwargs)

        ck = str(tmp_path / "st.npz")
        # 3 collectives per mode: op 11 lands mid-mode-3, after the
        # mode-2 checkpoint.
        plan = FaultPlan.kill(1, op_index=11)
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as ei:
            mp_sthosvd(
                x, (2, 1, 1, 1),
                checkpoint_path=ck,
                comm_config=CommConfig(fault_plan=plan),
                **kwargs,
            )
        assert time.monotonic() - t0 < 5.0
        assert ei.value.failed_ranks == (1,)
        assert "remote traceback" in str(ei.value)
        assert os.path.exists(ck)
        assert SweepCheckpoint.load(ck).algorithm == "mp_sthosvd"

        resumed = mp_sthosvd(x, (2, 1, 1, 1), resume_from=ck, **kwargs)
        np.testing.assert_array_equal(resumed.core, clean.core)
        for a, b in zip(resumed.factors, clean.factors):
            np.testing.assert_array_equal(a, b)


class TestKillAndResumeHOOI:
    def test_kill_and_resume_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 7, 6))
        opts = HOOIOptions(max_iters=3)
        ranks = (3, 3, 2)

        clean, s_clean = mp_hooi_dt(x, ranks, (2, 1, 1), opts, timeout=120)
        n_ops = len(s_clean.trace.records)

        ck = str(tmp_path / "hooi.npz")
        plan = FaultPlan.kill(0, op_index=n_ops - 1)
        with pytest.raises(RankFailureError) as ei:
            mp_hooi_dt(
                x, ranks, (2, 1, 1), opts,
                checkpoint_path=ck,
                comm_config=CommConfig(fault_plan=plan),
                timeout=120,
            )
        assert ei.value.failed_ranks == (0,)
        assert os.path.exists(ck)

        resumed, s_res = mp_hooi_dt(
            x, ranks, (2, 1, 1), opts, resume_from=ck, timeout=120
        )
        np.testing.assert_array_equal(resumed.core, clean.core)
        for a, b in zip(resumed.factors, clean.factors):
            np.testing.assert_array_equal(a, b)
        # counters are restored from the checkpoint, so the resumed
        # run's diagnostics equal the uninterrupted run's
        assert s_res.per_iteration_ttms == s_clean.per_iteration_ttms

    def test_checkpoint_only_after_non_final_iterations(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 5, 4))
        ck = str(tmp_path / "hooi.npz")
        mp_hooi_dt(
            x, (2, 2, 2), (2, 1, 1), HOOIOptions(max_iters=2),
            checkpoint_path=ck, timeout=120,
        )
        back = SweepCheckpoint.load(ck)
        assert back.algorithm == "mp_hooi_dt"
        assert back.iteration == 1  # iteration 2 is final: never written
        assert back.ranks == (2, 2, 2)
        assert back.x_digest == tensor_digest(x)

    def test_resume_guard_rails(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 5, 4))
        ck = str(tmp_path / "hooi.npz")
        opts = HOOIOptions(max_iters=2)
        mp_hooi_dt(x, (2, 2, 2), (2, 1, 1), opts, checkpoint_path=ck, timeout=120)

        # different input tensor, same shape
        y = x + 1.0
        with pytest.raises(CheckpointError, match="digest"):
            mp_hooi_dt(y, (2, 2, 2), (2, 1, 1), opts, resume_from=ck, timeout=120)
        # mismatched target ranks
        with pytest.raises(CheckpointError, match="ranks"):
            mp_hooi_dt(x, (3, 2, 2), (2, 1, 1), opts, resume_from=ck, timeout=120)
        # nothing left to resume
        with pytest.raises(CheckpointError, match="nothing to resume"):
            mp_hooi_dt(
                x, (2, 2, 2), (2, 1, 1), HOOIOptions(max_iters=1),
                resume_from=ck, timeout=120,
            )
        # wrong driver for the checkpoint
        with pytest.raises(CheckpointError, match="written by"):
            mp_sthosvd(x, (2, 1, 1), ranks=(2, 2, 2), resume_from=ck, timeout=120)

    def test_orthogonality_guard_is_invisible_when_healthy(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5, 4))
        opts = HOOIOptions(max_iters=2)
        plain, _ = mp_hooi_dt(x, (2, 2, 2), (2, 1, 1), opts, timeout=120)
        guarded, _ = mp_hooi_dt(
            x, (2, 2, 2), (2, 1, 1), opts,
            orthogonality_tol=1e-6, timeout=120,
        )
        np.testing.assert_array_equal(plain.core, guarded.core)
        for a, b in zip(plain.factors, guarded.factors):
            np.testing.assert_array_equal(a, b)


def _with_cache_keys(blob: bytes) -> bytes:
    """``blob`` as the dimension-tree engine wrote it while it kept a
    contraction cache: factor ``versions`` and ``extra.cache_*`` in the
    header, signed again over the header as stored."""
    with np.load(io.BytesIO(blob)) as data:
        arrays = dict(data)
    header = json.loads(str(arrays["header"][()]))
    header["versions"] = [2 * header["iteration"]] * header["n_factors"]
    header["extra"].update(cache_hits=0, cache_misses=17)
    factors = [arrays[f"factor{i}"] for i in range(header["n_factors"])]
    header["digest"] = checkpoint._digest(header, factors)
    arrays["header"] = np.array(json.dumps(header))
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


class TestCheckpointWithCacheKeys:
    """A checkpoint that still carries the retired cache keys resumes
    bit-identically: the keys are read and ignored."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda x, **kw: mp_hooi_dt(
                x, (3, 3, 2), (2, 1, 1), HOOIOptions(max_iters=3), **kw
            ),
            lambda x, **kw: mp_rahosi_dt(
                x, 0.3, (1, 1, 1), (2, 1, 1),
                RankAdaptiveOptions(max_iters=3, seed=0), **kw,
            ),
        ],
        ids=["mp_hooi_dt", "mp_rahosi_dt"],
    )
    def test_resumes_bit_identical(self, tmp_path, run):
        x = np.random.default_rng(7).standard_normal((8, 7, 6))
        ck = tmp_path / "ck.npz"
        clean, _ = run(x, checkpoint_path=str(ck))
        old = tmp_path / "old.npz"
        old.write_bytes(_with_cache_keys(SweepCheckpoint.load(ck).to_bytes()))
        back = SweepCheckpoint.load(old)
        assert back.iteration >= 1
        assert back.extra["cache_misses"] == 17

        resumed, _ = run(x, resume_from=str(old))
        np.testing.assert_array_equal(resumed.core, clean.core)
        assert len(resumed.factors) == len(clean.factors)
        for a, b in zip(resumed.factors, clean.factors):
            np.testing.assert_array_equal(a, b)
