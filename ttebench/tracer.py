"""Outside-in span tracer: wraps each layer's public entry points.

The client installs the wrappers before a traced request; forked rank
processes inherit them.  Every span records name, start, end, parent, request
id and rank, plus counts (payload bytes, computed flops) at the same
boundary.  Spans stay in memory: a rank writes its spans to a file when its
program returns, the client when the run ends.  No program code changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: The installed tracer.  Forked ranks find it here: the wrappers they
#: inherit close over this object, so the rank program must use it too.
_ACTIVE: "Tracer | None" = None

#: (dotted module, attribute, span name) of wrapped functions.  Each is
#: replaced wherever a loaded ``repro`` module binds it.
FUNCTIONS = [
    ("repro.vmpi.mp_comm", "run_spmd", "launch.run_spmd"),
    ("repro.distributed.kernels", "mp_ttm", "sweep.mp_ttm"),
    ("repro.distributed.kernels", "mp_gram", "sweep.mp_gram"),
    ("repro.distributed.kernels", "mp_subspace_llsv", "sweep.mp_subspace_llsv"),
    ("repro.distributed.kernels", "mp_gram_evd_llsv", "sweep.mp_gram_evd_llsv"),
    ("repro.distributed.kernels", "mp_gather_core", "sweep.mp_gather_core"),
    ("repro.kernels", "ttm", "kernels.ttm"),
    ("repro.kernels", "gram", "kernels.gram"),
    ("repro.linalg.qrcp", "qrcp", "linalg.qrcp"),
    ("repro.linalg.evd", "gram_evd", "linalg.gram_evd"),
    ("repro.linalg.subspace", "subspace_iteration_llsv", "linalg.subspace_iteration_llsv"),
    ("repro.core.core_analysis", "solve_rank_truncation", "core.core_analysis"),
]
COLLECTIVES = ("allreduce", "reduce_scatter", "allgather", "bcast", "gather", "barrier")


def payload_bytes(obj: object) -> int:
    """Bytes of the arrays in a message or collective payload."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(payload_bytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(payload_bytes(o) for o in obj.values())
    return 0


def _ttm_counts(args, kwargs, out) -> dict:
    tensor, matrix = args[0], args[1]
    transpose = kwargs.get("transpose", False)
    rows = matrix.shape[1] if transpose else matrix.shape[0]
    return {
        "flops": 2 * rows * tensor.size,
        "bytes": tensor.nbytes + matrix.nbytes + out.nbytes,
        "dtype": tensor.dtype.char,
    }


def _gram_counts(args, kwargs, out) -> dict:
    # Symmetric product: n_mode * size flops, the paper's Table 1 count.
    tensor, mode = args[0], args[1]
    return {
        "flops": tensor.shape[mode] * tensor.size,
        "bytes": tensor.nbytes + out.nbytes,
        "dtype": tensor.dtype.char,
    }


COUNTERS = {"kernels.ttm": _ttm_counts, "kernels.gram": _gram_counts}


def _collective_counts(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, out) -> dict:
        bound = sig.bind(*args, **kwargs).arguments
        comm, group = args[0], bound.get("group")
        members = range(comm.size) if group is None else group
        return {"bytes": payload_bytes(bound.get("block")), "group": list(members)}

    return count


def _recv_counts(args, kwargs, out) -> dict:
    t, src, tag = args[:3]
    return {"src": src, "dst": t.rank, "tag": repr(tag), "bytes": payload_bytes(out)}


class TracedProgram:
    """Picklable wrapper of an SPMD program: one ``program`` span per rank,
    and the rank's spans written out when the program returns."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, comm, *args):
        tracer = _ACTIVE
        tracer.begin_rank(comm.rank)
        try:
            return tracer.call("program", self.fn, (comm, *args), {})
        finally:
            tracer.dump_rank()


class Tracer:
    """Span recorder and the wrappers that feed it.

    ``install`` replaces each layer's entry points with recording wrappers,
    ``uninstall`` restores them.  ``req`` tags spans with the current request;
    ranks write ``spans-<req>-<rank>.json`` into ``out_dir``.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.req = -1
        self.rank = -1
        self.transport: dict = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args: tuple, kwargs: dict, count=None):
        """``fn(*args, **kwargs)`` inside a span; ``count`` adds its counts."""
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.req, self.rank, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        if count is not None:
            rec[6] = count(args, kwargs, out)
        return out

    def begin_rank(self, rank: int) -> None:
        """In a forked rank: drop the client's inherited spans."""
        self.spans = []
        self._local.stack = []
        self.rank = rank
        self.transport = {}

    def dump_rank(self) -> None:
        path = self.out_dir / f"spans-{self.req}-{self.rank}.json"
        path.write_text(json.dumps({
            "req": self.req, "rank": self.rank,
            "spans": self.spans, "transport": self.transport,
        }))

    def load(self) -> tuple[list[list[list]], dict]:
        """Span lists (one per process and request; parent indices are local
        to each list) and rank-0 transport counters by request."""
        lists = [self.spans]
        transport = {}
        for path in sorted(self.out_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            lists.append(data["spans"])
            if data["rank"] == 0:
                transport[data["req"]] = data["transport"]
        return lists, transport

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        return wrapper

    def _wrap_launch(self, fn):
        tracer = self

        @functools.wraps(fn)
        def launch(prog, *args, **kwargs):
            return tracer.call("launch.run_spmd", fn, (TracedProgram(prog), *args), kwargs)

        return launch

    def _send_counts(self, args, kwargs, out) -> dict:
        t, dest, tag, payload = args[:4]
        self.transport = {"msgs": t.sent_messages, "bytes": t.sent_bytes, "shm_msgs": t.shm_messages}
        return {"src": t.rank, "dst": dest, "tag": repr(tag), "bytes": payload_bytes(payload)}

    def install(self) -> None:
        global _ACTIVE
        import importlib

        from repro.vmpi.mp_comm import ProcessComm
        from repro.vmpi.transport import Transport

        self.out_dir.mkdir(parents=True, exist_ok=True)
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repro"]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            if name == "launch.run_spmd":
                wrapped = self._wrap_launch(orig)
            else:
                wrapped = self._wrap(orig, name, COUNTERS.get(name))
            for mod in loaded:
                if vars(mod).get(attr) is orig:
                    self._patch(mod, attr, wrapped)
        for coll in COLLECTIVES:
            fn = getattr(ProcessComm, coll)
            self._patch(ProcessComm, coll, self._wrap(fn, f"mp_comm.{coll}", _collective_counts(fn)))
        self._patch(Transport, "send", self._wrap(Transport.send, "transport.send", self._send_counts))
        for attr in ("recv", "recv_prefetch"):
            fn = getattr(Transport, attr)
            self._patch(Transport, attr, self._wrap(fn, "transport.recv", _recv_counts))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        _ACTIVE = None
