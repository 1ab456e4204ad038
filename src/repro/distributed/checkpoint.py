"""Versioned sweep-level checkpoints for the process-parallel drivers.

Long decompositions must not forfeit completed sweeps when a rank dies
(the fault model :mod:`repro.vmpi.faults` makes testable).  After each
outer iteration, rank 0 of :func:`~repro.distributed.mp_hooi.mp_hooi_dt`
/ :func:`~repro.distributed.mp_hooi.mp_rahosi_dt` — and after each
mode of :func:`~repro.distributed.mp_sthosvd.mp_sthosvd` — serializes
the replicated algorithm state into a single ``.npz`` file:

* a JSON *header* (format tag, version, algorithm, shape, grid,
  iteration counter, current ranks, the rng bit-generator state, the
  input-tensor digest, and an ``extra`` dict of driver-specific
  scalars) stored as a 0-d unicode array;
* the replicated factor matrices as ``factor0 .. factor{d-1}``;
* a SHA-256 *integrity digest* over the header (sans the digest field)
  and the raw factor bytes, verified on load.

Because the drivers keep factors replicated and every dimension-tree
traversal starts from the input block, this header is the *complete*
inter-sweep state: a resumed run re-roots the traversal at the input
block and replays the remaining iterations bit-identically to an
uninterrupted one (asserted by ``tests/test_checkpoint.py`` with exact
array equality).  Files written while the dimension-tree engine kept
a contraction cache also carry its factor-version counters and
``extra.cache_*``; the digest covers the header as stored, so they
still verify, and those keys are ignored.

Writes are atomic (temp file + ``os.replace``) so a crash mid-write
never corrupts the previous checkpoint.  All validation failures raise
:class:`~repro.core.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.errors import CheckpointError
from repro.core.rank_adaptive import IterationRecord

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "SweepCheckpoint",
    "decode_history",
    "encode_history",
    "tensor_digest",
]

CHECKPOINT_FORMAT = "repro-sweep-checkpoint"
CHECKPOINT_VERSION = 1


def tensor_digest(x: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape, and contiguous bytes.

    Stored in every checkpoint so ``resume_from=`` can refuse to
    continue against a different input tensor.
    """
    h = hashlib.sha256()
    h.update(str(x.dtype).encode())
    h.update(repr(tuple(x.shape)).encode())
    h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def encode_history(history: list[IterationRecord]) -> list[dict]:
    """JSON-able encoding of the RA-HOSI iteration history."""
    out = []
    for r in history:
        out.append(
            {
                "iteration": r.iteration,
                "ranks_used": list(r.ranks_used),
                "error": r.error,
                "satisfied": r.satisfied,
                "storage_size": r.storage_size,
                "seconds": r.seconds,
                "truncated_ranks": (
                    None
                    if r.truncated_ranks is None
                    else list(r.truncated_ranks)
                ),
                "truncated_error": r.truncated_error,
                "truncated_storage": r.truncated_storage,
            }
        )
    return out


def decode_history(encoded: list[dict]) -> list[IterationRecord]:
    """Inverse of :func:`encode_history`."""
    out = []
    for e in encoded:
        out.append(
            IterationRecord(
                iteration=int(e["iteration"]),
                ranks_used=tuple(int(r) for r in e["ranks_used"]),
                error=float(e["error"]),
                satisfied=bool(e["satisfied"]),
                storage_size=int(e["storage_size"]),
                seconds=float(e["seconds"]),
                truncated_ranks=(
                    None
                    if e["truncated_ranks"] is None
                    else tuple(int(r) for r in e["truncated_ranks"])
                ),
                truncated_error=e["truncated_error"],
                truncated_storage=e["truncated_storage"],
            )
        )
    return out


def _jsonable(obj: Any) -> Any:
    """Coerce numpy scalars/sequences into plain JSON types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _fsync_dir(dirname: str) -> None:
    """fsync a directory so a just-renamed entry survives a crash.

    Platforms without directory fds (Windows) simply skip: the rename
    is still atomic there, just not durability-ordered.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(dirname, flags)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def _digest(header: dict, factors: list[np.ndarray]) -> str:
    """Integrity digest: header (digest field excluded) + factor bytes."""
    clean = {k: v for k, v in header.items() if k != "digest"}
    h = hashlib.sha256()
    h.update(
        json.dumps(clean, sort_keys=True, separators=(",", ":")).encode()
    )
    for u in factors:
        h.update(str(u.dtype).encode())
        h.update(repr(tuple(u.shape)).encode())
        h.update(np.ascontiguousarray(u).tobytes())
    return h.hexdigest()


@dataclass
class SweepCheckpoint:
    """Complete inter-sweep state of one process-parallel run.

    ``iteration`` counts *completed* outer iterations (HOOI/RA-HOSI)
    or completed modes (STHOSVD); a resumed run continues at
    ``iteration + 1``.  ``rng_state`` restores the replicated
    generator RA-HOSI's ``expand_factor`` consumes.  ``extra`` holds
    driver-specific JSON-able state (history, convergence flags,
    per-iteration TTM counts, the truncation threshold, ...).
    """

    algorithm: str
    iteration: int
    shape: tuple[int, ...]
    grid_dims: tuple[int, ...]
    ranks: tuple[int, ...]
    factors: list[np.ndarray]
    rng_state: dict | None = None
    x_digest: str = ""
    extra: dict = field(default_factory=dict)

    def _header(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "algorithm": self.algorithm,
            "iteration": int(self.iteration),
            "shape": list(self.shape),
            "grid_dims": list(self.grid_dims),
            "ranks": list(self.ranks),
            "n_factors": len(self.factors),
            "rng_state": _jsonable(self.rng_state),
            "x_digest": self.x_digest,
            "extra": _jsonable(self.extra),
        }

    def to_bytes(self) -> bytes:
        """The checkpoint as one self-verifying ``.npz`` byte string.

        The same encoding :meth:`save` writes to disk; the elastic
        recovery layer ships these bytes to a buddy rank over the
        Transport instead of a shared filesystem (diskless
        checkpointing), and :meth:`from_bytes` integrity-checks them on
        rehydration exactly like :meth:`load` does for files.
        """
        header = self._header()
        header["digest"] = _digest(header, self.factors)
        arrays = {
            f"factor{i}": np.ascontiguousarray(u)
            for i, u in enumerate(self.factors)
        }
        arrays["header"] = np.array(json.dumps(header))
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    def save(self, path: str | os.PathLike) -> str:
        """Atomically and durably write the checkpoint.

        Write-to-temp + fsync + ``os.replace`` + directory fsync: a
        reader never observes a torn file, and once this returns the
        new checkpoint survives a crash of the whole machine, not just
        of this process.  Returns the final path.
        """
        path = os.fspath(path)
        payload = self.to_bytes()
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            # The file fsync above makes the *contents* durable, but the
            # rename itself lives in the directory: without a directory
            # fsync a crash right after os.replace can roll the entry
            # back to the previous checkpoint — or, for a first write,
            # to no file at all — despite save() having returned.
            _fsync_dir(os.path.dirname(path) or ".")
        except OSError as exc:
            raise CheckpointError(
                f"could not write checkpoint {path!r}: {exc}"
            ) from exc
        finally:
            if os.path.exists(tmp):  # pragma: no cover - replace raced
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        return path

    @classmethod
    def from_bytes(cls, data: bytes) -> "SweepCheckpoint":
        """Decode and integrity-check :meth:`to_bytes` output."""
        return cls._parse(io.BytesIO(data), "<bytes>")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "SweepCheckpoint":
        """Read and integrity-check a checkpoint."""
        path = os.fspath(path)
        return cls._parse(path, repr(path))

    @classmethod
    def _parse(cls, source, label: str) -> "SweepCheckpoint":
        try:
            with np.load(source, allow_pickle=False) as data:
                if "header" not in data:
                    raise CheckpointError(
                        f"{label} is not a repro checkpoint "
                        "(missing header)"
                    )
                header = json.loads(str(data["header"][()]))
                n = int(header.get("n_factors", 0))
                factors = [data[f"factor{i}"] for i in range(n)]
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"could not read checkpoint {label}: {exc}"
            ) from exc
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{label}: unknown checkpoint format "
                f"{header.get('format')!r}"
            )
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{label}: checkpoint version {header.get('version')} "
                f"unsupported (expected {CHECKPOINT_VERSION})"
            )
        stored = header.get("digest", "")
        if _digest(header, factors) != stored:
            raise CheckpointError(
                f"{label}: integrity digest mismatch — the checkpoint "
                "is corrupted or was modified"
            )
        return cls(
            algorithm=header["algorithm"],
            iteration=int(header["iteration"]),
            shape=tuple(int(n) for n in header["shape"]),
            grid_dims=tuple(int(g) for g in header["grid_dims"]),
            ranks=tuple(int(r) for r in header["ranks"]),
            factors=factors,
            rng_state=header["rng_state"],
            x_digest=header["x_digest"],
            extra=header["extra"],
        )

    def validate_resume(
        self,
        *,
        algorithm: str,
        shape: tuple[int, ...],
        grid_dims: tuple[int, ...],
        x_digest: str | None = None,
    ) -> None:
        """Refuse resumes against a different run configuration."""
        if self.algorithm != algorithm:
            raise CheckpointError(
                f"checkpoint was written by {self.algorithm!r}, cannot "
                f"resume with {algorithm!r}"
            )
        if tuple(self.shape) != tuple(shape):
            raise CheckpointError(
                f"checkpoint tensor shape {tuple(self.shape)} does not "
                f"match input shape {tuple(shape)}"
            )
        if tuple(self.grid_dims) != tuple(grid_dims):
            raise CheckpointError(
                f"checkpoint grid {tuple(self.grid_dims)} does not "
                f"match requested grid {tuple(grid_dims)}"
            )
        if (
            x_digest is not None
            and self.x_digest
            and self.x_digest != x_digest
        ):
            raise CheckpointError(
                "checkpoint input-tensor digest does not match the "
                "given tensor — resuming would silently mix runs"
            )
