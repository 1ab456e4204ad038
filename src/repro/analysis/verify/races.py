"""``races`` — tier-2 transport occupancy guard (SPMD223).

Every logical rank is its own OS process, so no two ranks share an
address space and the only thread that ever shares a rank's transport
is the ``CommConfig.overlap`` receive-prefetch worker.  Its contract is
one-in-flight: while a prefetched receive is outstanding the main
thread touches only NumPy buffers, and it joins the prefetch before
its next transport call.  ``CommConfig(race_detect=True)`` arms a
:class:`TransportGuard` on each rank's transport that certifies the
contract: a second thread entering the transport while another thread
is still inside raises :class:`RaceError` (SPMD223) naming both
threads and both call sites.

The guard belongs to one transport, so it needs no process-global
registry, and it never touches payload bytes or message order, so
clean guarded runs stay bit- and trace-identical to unguarded ones.
"""

from __future__ import annotations

import sys
import threading

from repro.analysis.verify.runtime import VerifyError

__all__ = ["RaceError", "TransportGuard"]

#: Stack frames kept per recorded call site.
_SITE_FRAMES = 3


class RaceError(VerifyError):
    """Two threads concurrently inside one transport (SPMD223)."""

    rule_id = "SPMD223"


def _site() -> str:
    """A short stack snippet of the calling transport entry, skipping
    the guard's own frames.

    This runs on every guarded transport call, so it walks raw frames
    with :func:`sys._getframe` instead of
    ``traceback.extract_stack()``, which materializes the whole stack."""
    frame = sys._getframe(1)
    parts: list[str] = []
    while frame is not None and len(parts) < _SITE_FRAMES:
        code = frame.f_code
        if "verify/races" not in code.co_filename.replace("\\", "/"):
            parts.append(
                f"{code.co_filename.rsplit('/', 1)[-1]}:"
                f"{frame.f_lineno} in {code.co_name}"
            )
        frame = frame.f_back
    return " | ".join(reversed(parts))


class TransportGuard:
    """Occupancy of one transport: at most one thread inside at a time.

    Reentrancy by the occupying thread is fine (collectives nest
    sends); any other thread entering before the occupant has fully
    exited raises :class:`RaceError`.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._mu = threading.Lock()
        # (occupying tid, thread name, depth, entry site) or None.
        self._owner: tuple[int, str, int, str] | None = None

    def enter(self) -> None:
        me = threading.get_ident()
        with self._mu:
            cur = self._owner
            if cur is None:
                self._owner = (
                    me, threading.current_thread().name, 1, _site()
                )
                return
            if cur[0] != me:
                raise RaceError(
                    "two threads concurrently inside rank "
                    f"{self.rank}'s transport: "
                    f"{threading.current_thread().name} enters at "
                    f"[{_site()}] while {cur[1]} is still inside since "
                    f"[{cur[3]}] — the overlap contract allows exactly "
                    "one user per transport"
                )
            self._owner = (cur[0], cur[1], cur[2] + 1, cur[3])

    def exit(self) -> None:
        with self._mu:
            cur = self._owner
            if cur is None:
                return
            self._owner = (
                None if cur[2] <= 1 else (cur[0], cur[1], cur[2] - 1, cur[3])
            )
