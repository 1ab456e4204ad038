"""``protocol`` — whole-program collective-protocol model checker.

Where :mod:`~repro.analysis.verify.spmdlint` judges one call site at a
time, this module extracts a symbolic per-rank **protocol automaton**
from every SPMD function in a source tree — the ordered sequence of
collectives, point-to-point posts, loop trip counts, phase tags, and
rank-predicate branches a rank will execute — and model-checks all
rank projections against each other for schedule equivalence.  A
loosely synchronous program is correct exactly when every rank runs
the *same* collective schedule; a counterexample is reported as two
call sites ("rank A at X awaits ``allreduce``, rank B at Y issues
``reduce_scatter``").

The abstract interpretation is deliberately small but interprocedural:

* a constant/rank environment is threaded through simple assignments,
  so ``me = comm.rank`` and ``right = (me + 1) % comm.size`` are
  *resolved* to integers for each projected rank (default world size
  4) — ring-neighbor p2p patterns project to concrete peer graphs;
* rank-predicate branches (``rank == 0``, ``rank % 2``, ``rank < n``)
  are evaluated per rank; unresolvable rank-tainted predicates
  (``rank == root`` with symbolic ``root``) require both arms to carry
  equivalent collective schedules (the send-one-arm/recv-other-arm
  pairing idiom stays clean);
* loops carry their trip count symbolically — two ranks agree on a
  loop when they agree on its trip count *and* its body protocol;
* calls to other functions in the linted tree are inlined (depth- and
  cycle-guarded); unknown calls contribute no protocol events.

Rules (see :mod:`~repro.analysis.verify.rules`):

``SPMD121``
    A loop whose trip count is rank-dependent encloses a collective —
    ranks run different numbers of collective rounds and the group
    desynchronizes.
``SPMD122``
    Rank projections diverge structurally: a collective reachable for
    one rank has no matching collective at the same protocol position
    of another rank (conditional collective without a matching arm, a
    rank-dependent early return before a collective, diverging kinds
    or roots at a matched position).
``SPMD123``
    The same matched collective position carries different phase tags
    on different ranks — the trace lanes and recorder spans disagree
    across the group even though the schedule itself matches.
``SPMD124``
    A raw transport post/receive uses a tag in the reserved
    control-plane namespace (recovery buddy posts, shm free credits,
    finish notices, verifier rounds) — user traffic on those
    tags is consumed by the wrong state machine.
``SPMD125``
    A ``comm.send`` whose ``(dest, tag)`` no projected rank ever
    receives (or a ``comm.recv`` no rank ever sends to) — the
    whole-program p2p graph has a dangling edge.
``SPMD126``
    A protocol event (collective or p2p) issued after the rank's
    shutdown point (``comm.verify_shutdown()``): the transport drain
    contract is already closed when the event fires.

Suppression and baselining reuse the spmdlint machinery: the same
``# spmdlint: ignore[SPMD124]`` pragmas and the same line-insensitive
:class:`~repro.analysis.verify.rules.Baseline` fingerprints.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.analysis.verify.rules import Baseline, Finding, filter_findings
from repro.analysis.verify.spmdlint import (
    COLLECTIVES,
    _PRAGMA,
    _attr_chain,
    _collective_kind,
    _is_comm_value,
    _mentions_rank,
    _p2p_kind,
    _rank_taint,
    _root_arg,
)

__all__ = [
    "DEFAULT_WORLD",
    "RESERVED_TAG_KINDS",
    "check_paths",
    "check_source",
]

#: Default projected world size.  Four ranks cover parity predicates
#: (``rank % 2``), root predicates (``rank == 0``), and neighbor
#: arithmetic without blowing up the projection product.
DEFAULT_WORLD = 4

#: Tag kinds owned by the runtime's control planes.  User traffic on a
#: raw transport channel must stay out of this namespace: ``buddy`` is
#: the elastic-recovery snapshot ring
#: (:mod:`repro.distributed.recovery`), ``shmfree`` the segment-pool
#: credits, ``fin`` the finished-rank notices, ``ctl``/``vfy``/``vok``
#: the tier-2 verifier rounds, and ``p2p`` the user send/recv wrapper.
RESERVED_TAG_KINDS = frozenset(
    {"buddy", "shmfree", "fin", "ctl", "vfy", "vok", "p2p"}
)

#: Raw transport entry points whose tag argument shares the wire's tag
#: namespace (``comm.send``/``recv`` wrap user tags as ``("p2p", tag)``
#: and therefore cannot collide).
_RAW_TAG_CALLS = frozenset({"_post", "_recv_body", "ctrl_send", "ctrl_recv"})

#: Inlining guards.
_MAX_INLINE_DEPTH = 12
_MAX_LOOP_TRIP = 64


# ---------------------------------------------------------------------------
# protocol events (the projection alphabet)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One call site of the protocol, rendered as ``path:line``."""

    path: str
    line: int
    func: str

    def render(self) -> str:
        return f"{self.path}:{self.line} in {self.func}"


@dataclass(frozen=True)
class CollEvent:
    kind: str
    root: object  # resolved int, symbolic str, or None
    phase: str | None
    site: Site


@dataclass(frozen=True)
class P2PEvent:
    kind: str  # "send" | "recv"
    peer: int | None  # resolved global rank, or None when symbolic
    tag: object  # resolved literal, or None when symbolic
    site: Site


@dataclass(frozen=True)
class LoopEvent:
    trip: object  # int when resolved, str symbol otherwise
    body: tuple["Event", ...]
    site: Site


@dataclass(frozen=True)
class EndEvent:
    """A rank-terminating statement (return) or shutdown point."""

    kind: str  # "return" | "shutdown"
    site: Site


Event = Union[CollEvent, P2PEvent, LoopEvent, EndEvent]


# ---------------------------------------------------------------------------
# program table
# ---------------------------------------------------------------------------


@dataclass
class _Func:
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: "_Module"
    is_spmd: bool


@dataclass
class _Module:
    path: str
    lines: list[str]
    consts: dict[str, object] = field(default_factory=dict)
    funcs: dict[str, _Func] = field(default_factory=dict)

    def suppressed(self, line: int, rule_id: str) -> bool:
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        m = _PRAGMA.search(text)
        if m is None:
            return False
        ids = m.group(1)
        if ids is None:
            return True
        return rule_id in {s.strip() for s in ids.split(",")}

    def source_at(self, line: int) -> str:
        if 0 < line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def _is_spmd_function(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = fn.args
    for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if a.arg == "comm":
            return True
        if a.annotation is not None and "Comm" in ast.unparse(a.annotation):
            return True
    return False


def _build_module(path: str, source: str) -> _Module:
    tree = ast.parse(source, filename=path)
    mod = _Module(path=path, lines=source.splitlines())

    def scan(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.funcs.setdefault(
                    stmt.name,
                    _Func(stmt.name, stmt, mod, _is_spmd_function(stmt)),
                )
            elif isinstance(stmt, ast.ClassDef):
                scan(stmt.body)

    scan(tree.body)
    # Module-level string/int constants (``_BUDDY_TAG = "buddy"``) feed
    # the tag evaluation of SPMD124.
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                stmt.value, ast.Constant
            ):
                mod.consts[target.id] = stmt.value.value
    return mod


# ---------------------------------------------------------------------------
# expression evaluation under a rank environment
# ---------------------------------------------------------------------------


class _Unknown:
    """Sentinel for "not statically evaluable"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<?>"


UNKNOWN = _Unknown()


def _eval(node: ast.expr, env: dict[str, object]) -> object:
    """Best-effort evaluation of ``node`` under ``env``.

    ``env`` maps names to ints/strings/tuples; ``comm.rank`` and
    ``comm.size`` read the reserved ``@rank`` / ``@size`` entries.
    Returns :data:`UNKNOWN` for anything not statically evaluable.
    """
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id, UNKNOWN)
    if isinstance(node, ast.Attribute):
        if node.attr == "rank" and _is_comm_value(node.value):
            return env.get("@rank", UNKNOWN)
        if node.attr == "size" and _is_comm_value(node.value):
            return env.get("@size", UNKNOWN)
        return env.get(_attr_chain(node), UNKNOWN)
    if isinstance(node, ast.Tuple):
        items = [_eval(e, env) for e in node.elts]
        return tuple(
            None if isinstance(i, _Unknown) else i for i in items
        )
    if isinstance(node, ast.UnaryOp):
        v = _eval(node.operand, env)
        if isinstance(v, _Unknown):
            return UNKNOWN
        try:
            if isinstance(node.op, ast.USub):
                return -v  # type: ignore[operator]
            if isinstance(node.op, ast.Not):
                return not v
        except TypeError:
            return UNKNOWN
        return UNKNOWN
    if isinstance(node, ast.BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if isinstance(a, _Unknown) or isinstance(b, _Unknown):
            return UNKNOWN
        try:
            if isinstance(node.op, ast.Add):
                return a + b  # type: ignore[operator]
            if isinstance(node.op, ast.Sub):
                return a - b  # type: ignore[operator]
            if isinstance(node.op, ast.Mult):
                return a * b  # type: ignore[operator]
            if isinstance(node.op, ast.Mod):
                return a % b  # type: ignore[operator]
            if isinstance(node.op, ast.FloorDiv):
                return a // b  # type: ignore[operator]
        except (TypeError, ZeroDivisionError):
            return UNKNOWN
        return UNKNOWN
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        a = _eval(node.left, env)
        b = _eval(node.comparators[0], env)
        if isinstance(a, _Unknown) or isinstance(b, _Unknown):
            return UNKNOWN
        op = node.ops[0]
        try:
            if isinstance(op, ast.Eq):
                return a == b
            if isinstance(op, ast.NotEq):
                return a != b
            if isinstance(op, ast.Lt):
                return a < b  # type: ignore[operator]
            if isinstance(op, ast.LtE):
                return a <= b  # type: ignore[operator]
            if isinstance(op, ast.Gt):
                return a > b  # type: ignore[operator]
            if isinstance(op, ast.GtE):
                return a >= b  # type: ignore[operator]
        except TypeError:
            return UNKNOWN
        return UNKNOWN
    if isinstance(node, ast.BoolOp):
        vals = [_eval(v, env) for v in node.values]
        if any(isinstance(v, _Unknown) for v in vals):
            return UNKNOWN
        if isinstance(node.op, ast.And):
            return all(bool(v) for v in vals)
        return any(bool(v) for v in vals)
    return UNKNOWN


def _range_trip(call: ast.Call, env: dict[str, object]) -> object:
    """Trip count of a ``range(...)`` iterator, or :data:`UNKNOWN`."""
    args = [_eval(a, env) for a in call.args]
    if any(not isinstance(a, int) or isinstance(a, bool) for a in args):
        return UNKNOWN
    ints = [int(a) for a in args]  # type: ignore[arg-type]
    if len(ints) == 1:
        return max(0, ints[0])
    if len(ints) == 2:
        return max(0, ints[1] - ints[0])
    if len(ints) == 3 and ints[2] != 0:
        lo, hi, step = ints
        if step > 0:
            return max(0, -(-(hi - lo) // step))
        return max(0, -(-(lo - hi) // -step))
    return UNKNOWN


# ---------------------------------------------------------------------------
# projection: one rank's protocol event stream
# ---------------------------------------------------------------------------


class _TooDeep(Exception):
    pass


class _Checker:
    """Shared state of one whole-program check: the function table,
    accumulated findings (deduplicated by fingerprint-equivalent key),
    and the projected world size."""

    def __init__(self, modules: list[_Module], world: int) -> None:
        self.modules = modules
        self.world = world
        self.findings: list[Finding] = []
        self._seen: set[tuple[str, str, int, str]] = set()
        # name -> list of candidate functions across all modules
        self.by_name: dict[str, list[_Func]] = {}
        for mod in modules:
            for fn in mod.funcs.values():
                self.by_name.setdefault(fn.name, []).append(fn)

    def add(
        self, rule_id: str, mod: _Module, line: int, message: str
    ) -> None:
        if mod.suppressed(line, rule_id):
            return
        key = (rule_id, mod.path, line, message[:80])
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(rule_id, mod.path, line, message, mod.source_at(line))
        )

    def resolve_call(self, call: ast.Call) -> _Func | None:
        """The linted function a call targets, if unambiguous."""
        fn = call.func
        name = ""
        if isinstance(fn, ast.Name):
            name = fn.id
        elif isinstance(fn, ast.Attribute):
            name = fn.attr
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None


class _Projector:
    """Project one rank's protocol events out of a function body."""

    def __init__(
        self,
        checker: _Checker,
        func: _Func,
        rank: int,
        env: dict[str, object],
        depth: int = 0,
        stack: frozenset[str] = frozenset(),
    ) -> None:
        self.checker = checker
        self.func = func
        self.mod = func.module
        self.rank = rank
        self.env = env
        self.depth = depth
        self.stack = stack
        self.taint = _rank_taint(func.node)
        self.phase: str | None = None
        self.events: list[Event] = []
        self._terminated = False
        # Set when a rank-dependent branch may have returned early:
        # (site of the return, predicate text).  A collective emitted
        # while this is set strands the returned ranks -> SPMD122.
        self.maybe_returned: tuple[Site, str] | None = None

    # -- helpers ------------------------------------------------------------

    def site(self, node: ast.AST) -> Site:
        return Site(
            self.mod.path, getattr(node, "lineno", 1), self.func.name
        )

    def _emit(self, ev: Event) -> None:
        if isinstance(ev, CollEvent) and self.maybe_returned is not None:
            ret_site, test = self.maybe_returned
            self.maybe_returned = None
            self.checker.add(
                "SPMD122",
                self.mod,
                ev.site.line,
                f"comm.{ev.kind}() at {ev.site.render()} is "
                f"unreachable for ranks that took the rank-dependent "
                f"early return at {ret_site.render()} (under "
                f"{test!r}) — those ranks never join the collective "
                "and the group hangs",
            )
        self.events.append(ev)

    def _as_int(self, value: object) -> int | None:
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        return value

    # -- statement walk -----------------------------------------------------

    def run(self) -> list[Event]:
        self._walk_body(self.func.node.body)
        return self.events

    def _walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if self._terminated:
                return
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._do_assign(stmt)
        elif isinstance(stmt, ast.Expr):
            self._do_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self._do_if(stmt)
        elif isinstance(stmt, ast.For):
            self._do_for(stmt)
        elif isinstance(stmt, ast.While):
            self._do_while(stmt)
        elif isinstance(stmt, ast.With):
            self._do_with(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._do_expr(stmt.value)
            self._emit(EndEvent("return", self.site(stmt)))
            self._terminated = True
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            # Loop bodies are projected once (not unrolled), so a
            # break/continue marks the body as control-divergent only
            # when it is itself under a rank-dependent branch — which
            # the arm comparison of _do_if already surfaces.
            pass
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._scan_nested_for_findings(handler.body)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested defs project when called
        else:
            # Generic statements may still hide calls (e.g. assert).
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    self._do_call(sub, emit=True)

    # -- assignments --------------------------------------------------------

    def _do_assign(
        self, stmt: ast.Assign | ast.AnnAssign | ast.AugAssign
    ) -> None:
        value = stmt.value
        if value is not None:
            for sub in ast.walk(value):
                if isinstance(sub, ast.Call):
                    self._do_call(sub, emit=True)
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        else:
            targets = [stmt.target]
        if isinstance(stmt, ast.AugAssign) or value is None:
            for t in targets:
                if isinstance(t, ast.Name):
                    self.env.pop(t.id, None)
            return
        resolved = _eval(value, self.env)
        for t in targets:
            if isinstance(t, ast.Name):
                if isinstance(resolved, _Unknown):
                    self.env.pop(t.id, None)
                else:
                    self.env[t.id] = resolved
            elif (
                isinstance(t, ast.Attribute)
                and t.attr == "phase"
                and _is_comm_value(t.value)
            ):
                self.phase = (
                    resolved if isinstance(resolved, str) else None
                )

    # -- calls --------------------------------------------------------------

    def _do_expr(self, value: ast.expr) -> None:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Call):
                self._do_call(sub, emit=True)

    def _do_call(self, call: ast.Call, *, emit: bool) -> None:
        kind = _collective_kind(call)
        if kind is not None:
            root_node = _root_arg(kind, call)
            root: object = None
            if root_node is not None:
                resolved = _eval(root_node, self.env)
                root = (
                    ast.unparse(root_node)
                    if isinstance(resolved, _Unknown)
                    else resolved
                )
            self._emit(CollEvent(kind, root, self.phase, self.site(call)))
            return
        p2p = _p2p_kind(call)
        if p2p is not None:
            self._emit(self._p2p_event(p2p, call))
            return
        fn = call.func
        if isinstance(fn, ast.Attribute):
            if fn.attr == "verify_shutdown" and _is_comm_value(fn.value):
                self._emit(EndEvent("shutdown", self.site(call)))
                return
            if fn.attr in _RAW_TAG_CALLS:
                self._check_raw_tag(fn.attr, call)
                return
        callee = self.checker.resolve_call(call)
        if (
            callee is not None
            and callee.is_spmd
            and callee.name != self.func.name
            and callee.name not in self.stack
            and self.depth < _MAX_INLINE_DEPTH
        ):
            sub = _Projector(
                self.checker,
                callee,
                self.rank,
                {"@rank": self.rank, "@size": self.checker.world},
                self.depth + 1,
                self.stack | {self.func.name},
            )
            sub.phase = self.phase
            self.events.extend(sub.run())

    def _p2p_event(self, kind: str, call: ast.Call) -> P2PEvent:
        # comm.send(dest, payload, tag=...) / comm.recv(src, tag=...)
        peer_node = call.args[0] if call.args else None
        tag_node: ast.expr | None = None
        for kw in call.keywords:
            if kw.arg == "tag":
                tag_node = kw.value
        if tag_node is None:
            idx = 2 if kind == "send" else 1
            if len(call.args) > idx:
                tag_node = call.args[idx]
        peer: int | None = None
        if peer_node is not None:
            peer = self._as_int(_eval(peer_node, self.env))
        tag: object = 0
        if tag_node is not None:
            resolved = _eval(tag_node, self.env)
            tag = None if isinstance(resolved, _Unknown) else resolved
        return P2PEvent(kind, peer, tag, self.site(call))

    def _check_raw_tag(self, attr: str, call: ast.Call) -> None:
        """SPMD124: raw transport traffic in a reserved tag namespace."""
        tag_node: ast.expr | None = None
        if attr in ("_post", "ctrl_send") and len(call.args) >= 2:
            tag_node = call.args[1]
        elif attr in ("_recv_body", "ctrl_recv") and len(call.args) >= 2:
            tag_node = call.args[1]
        for kw in call.keywords:
            if kw.arg == "tag":
                tag_node = kw.value
        if tag_node is None:
            return
        env = dict(self.mod.consts)
        env.update(self.env)
        resolved = _eval(tag_node, env)
        kinds: list[str] = []
        if isinstance(resolved, str):
            kinds = [resolved]
        elif isinstance(resolved, tuple):
            kinds = [k for k in resolved if isinstance(k, str)]
        hit = next((k for k in kinds if k in RESERVED_TAG_KINDS), None)
        if hit is None:
            return
        self.checker.add(
            "SPMD124",
            self.mod,
            call.lineno,
            f"raw transport {attr}() at "
            f"{self.site(call).render()} uses tag kind {hit!r}, which "
            "is reserved for the runtime control plane (recovery "
            "buddy posts, shm free credits, finish notices, "
            "verifier rounds) — user traffic on this tag is consumed "
            "by the wrong state machine; pick a tag outside "
            f"{sorted(RESERVED_TAG_KINDS)}",
        )

    # -- control flow -------------------------------------------------------

    def _scan_nested_for_findings(self, body: Sequence[ast.stmt]) -> None:
        """Project a dead/alternate arm purely for its own findings
        (raw-tag scans, nested rank branches), discarding its events."""
        sub = _Projector(
            self.checker,
            self.func,
            self.rank,
            dict(self.env),
            self.depth,
            self.stack,
        )
        sub.phase = self.phase
        sub.taint = self.taint
        sub._walk_body(list(body))

    def _project_arm(self, body: Sequence[ast.stmt]) -> "_Projector":
        sub = _Projector(
            self.checker,
            self.func,
            self.rank,
            dict(self.env),
            self.depth,
            self.stack,
        )
        sub.phase = self.phase
        sub.taint = self.taint
        sub.maybe_returned = self.maybe_returned
        sub._walk_body(list(body))
        return sub

    def _do_if(self, stmt: ast.If) -> None:
        verdict = _eval(stmt.test, self.env)
        if isinstance(verdict, bool):
            taken = stmt.body if verdict else stmt.orelse
            dead = stmt.orelse if verdict else stmt.body
            self._scan_nested_for_findings(dead)
            self._walk_body(list(taken))
            return
        rank_dep = _mentions_rank(stmt.test, self.taint)
        body = self._project_arm(stmt.body)
        orelse = self._project_arm(stmt.orelse)
        if rank_dep:
            # Unresolvable rank predicate: membership of each arm is
            # unknown, so both arms must carry equivalent collective
            # protocols (p2p may differ — the pairing idiom).  A bare
            # early return is fine *so far*: it only becomes a finding
            # if a collective follows it (tracked via maybe_returned).
            mism = _first_mismatch(
                _strip_trailing_end(_comparable(body.events)),
                _strip_trailing_end(_comparable(orelse.events)),
            )
            if mism is not None:
                self._report_arm_mismatch(stmt, mism)
            merged = body.events if body.events else orelse.events
            self.events.extend(merged)
            # Keep the p2p posts of the arm we did not take visible to
            # the whole-program send/recv matcher.
            other = orelse.events if body.events else []
            for ev in other:
                if isinstance(ev, P2PEvent):
                    self._emit(
                        P2PEvent(ev.kind, None, ev.tag, ev.site)
                    )
            if body._terminated and orelse._terminated:
                self._terminated = True
            elif body._terminated or orelse._terminated:
                arm = body if body._terminated else orelse
                ret = next(
                    (
                        e
                        for e in reversed(arm.events)
                        if isinstance(e, EndEvent)
                    ),
                    None,
                )
                site = ret.site if ret is not None else self.site(stmt)
                self.maybe_returned = (site, ast.unparse(stmt.test))
        else:
            # Replicated data decision: every rank takes the same arm.
            self.events.extend(body.events)
            for ev in orelse.events:
                if isinstance(ev, P2PEvent):
                    self._emit(ev)
            if body._terminated and orelse._terminated:
                self._terminated = True
        for arm in (body, orelse):
            if arm.maybe_returned is not None:
                self.maybe_returned = arm.maybe_returned
        if body.phase == orelse.phase:
            self.phase = body.phase

    def _report_arm_mismatch(
        self, stmt: ast.If, mism: "_Mismatch"
    ) -> None:
        a, b = mism.a, mism.b
        if (
            isinstance(a, CollEvent)
            and isinstance(b, CollEvent)
            and a.kind == b.kind
            and a.root == b.root
        ):
            self.checker.add(
                "SPMD123",
                self.mod,
                a.site.line,
                f"phase tag diverges across the arms of the "
                f"rank-dependent conditional at line {stmt.lineno}: "
                f"comm.{a.kind}() at {a.site.render()} runs under "
                f"phase {a.phase!r} but its matching arm at "
                f"{b.site.render()} runs under phase {b.phase!r}",
            )
            return
        a_txt = _describe(a)
        b_txt = _describe(b)
        line = a.site.line if a is not None else stmt.lineno
        self.checker.add(
            "SPMD122",
            self.mod,
            line,
            "rank-dependent conditional at line "
            f"{stmt.lineno} ({ast.unparse(stmt.test)!r}) has no "
            f"matching collective arm: ranks taking one arm run "
            f"{a_txt} while ranks taking the other run {b_txt} — "
            "part of the group never joins the collective",
        )

    def _do_for(self, stmt: ast.For) -> None:
        if isinstance(stmt.target, ast.Name):
            self.env.pop(stmt.target.id, None)
        trip: object = UNKNOWN
        if (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "range"
        ):
            trip = _range_trip(stmt.iter, self.env)
        self._do_loop(stmt, stmt.iter, trip)

    def _do_while(self, stmt: ast.While) -> None:
        self._do_loop(stmt, stmt.test, UNKNOWN)

    def _do_loop(
        self, stmt: ast.For | ast.While, ctrl: ast.expr, trip: object
    ) -> None:
        sub = self._project_arm(stmt.body)
        body_ev, body_phase = sub.events, sub.phase
        if isinstance(stmt, ast.For):
            self._scan_nested_for_findings(stmt.orelse)
        has_coll = _contains_coll(body_ev)
        rank_dep = _mentions_rank(ctrl, self.taint)
        if isinstance(trip, _Unknown):
            if rank_dep and has_coll:
                coll = _first_coll(body_ev)
                assert coll is not None
                self.checker.add(
                    "SPMD121",
                    self.mod,
                    stmt.lineno,
                    f"loop at line {stmt.lineno} "
                    f"({ast.unparse(ctrl)!r}) has a rank-dependent "
                    f"trip count and encloses comm.{coll.kind}() at "
                    f"{coll.site.render()} — ranks run different "
                    "numbers of collective rounds and the group "
                    "desynchronizes",
                )
            symbol = f"{self.mod.path}:{stmt.lineno}"
            self._emit(LoopEvent(symbol, tuple(body_ev), self.site(stmt)))
        else:
            n = int(trip)  # type: ignore[arg-type]
            self._emit(
                LoopEvent(min(n, _MAX_LOOP_TRIP), tuple(body_ev),
                          self.site(stmt))
            )
        if body_phase is not None:
            self.phase = body_phase

    def _do_with(self, stmt: ast.With) -> None:
        pushed = False
        prev = self.phase
        for item in stmt.items:
            ctx = item.context_expr
            if isinstance(ctx, ast.Call):
                name = ""
                if isinstance(ctx.func, ast.Name):
                    name = ctx.func.id
                elif isinstance(ctx.func, ast.Attribute):
                    name = ctx.func.attr
                if name.endswith("phase") and len(ctx.args) >= 2:
                    tag = _eval(ctx.args[1], self.env)
                    if isinstance(tag, str):
                        self.phase = tag
                        pushed = True
                else:
                    self._do_call(ctx, emit=True)
        self._walk_body(stmt.body)
        if pushed:
            self.phase = prev


# ---------------------------------------------------------------------------
# cross-rank comparison
# ---------------------------------------------------------------------------


@dataclass
class _Mismatch:
    a: Event | None  # rank A's event at the diverging position
    b: Event | None  # rank B's event at the diverging position
    in_loop: LoopEvent | None = None


def _comparable(events: Iterable[Event]) -> list[Event]:
    """The cross-rank comparison stream: collectives, collective
    loops, and terminal events.  P2P events legitimately differ per
    rank (ring and pairing patterns) and are matched globally instead;
    a loop whose body holds only p2p traffic is likewise dropped."""
    out: list[Event] = []
    for e in events:
        if isinstance(e, P2PEvent):
            continue
        if isinstance(e, LoopEvent) and not _contains_coll(e.body):
            continue
        out.append(e)
    return out


def _strip_trailing_end(events: list[Event]) -> list[Event]:
    """Drop a trailing return from an arm's comparison stream: a bare
    rank-dependent early return is judged by what *follows* the branch
    (see ``maybe_returned``), not by the arm comparison itself."""
    out = list(events)
    while out and isinstance(out[-1], EndEvent) and out[-1].kind == "return":
        out.pop()
    return out


def _contains_coll(events: Iterable[Event]) -> bool:
    return _first_coll(events) is not None


def _first_coll(events: Iterable[Event]) -> CollEvent | None:
    for e in events:
        if isinstance(e, CollEvent):
            return e
        if isinstance(e, LoopEvent):
            sub = _first_coll(e.body)
            if sub is not None:
                return sub
    return None


def _describe(ev: Event | None) -> str:
    if ev is None:
        return "no collective at all"
    if isinstance(ev, CollEvent):
        root = f"(root={ev.root})" if ev.root is not None else ""
        return f"comm.{ev.kind}(){root} at {ev.site.render()}"
    if isinstance(ev, LoopEvent):
        return f"a collective loop at {ev.site.render()}"
    if isinstance(ev, EndEvent):
        verb = "returns" if ev.kind == "return" else "shuts down"
        return f"{verb} at {ev.site.render()}"
    return f"comm.{ev.kind}() at {ev.site.render()}"  # pragma: no cover


def _first_mismatch(
    a: list[Event], b: list[Event]
) -> _Mismatch | None:
    """First position where two comparison streams diverge."""
    for ea, eb in zip(a, b):
        if isinstance(ea, CollEvent) and isinstance(eb, CollEvent):
            if (
                ea.kind != eb.kind
                or ea.root != eb.root
                or ea.phase != eb.phase
            ):
                return _Mismatch(ea, eb)
            continue
        if isinstance(ea, LoopEvent) and isinstance(eb, LoopEvent):
            sub = _first_mismatch(
                _comparable(ea.body), _comparable(eb.body)
            )
            if sub is not None:
                sub.in_loop = sub.in_loop or ea
                return sub
            if ea.trip != eb.trip and (
                _contains_coll(ea.body) or _contains_coll(eb.body)
            ):
                return _Mismatch(ea, eb, in_loop=ea)
            continue
        if isinstance(ea, EndEvent) and isinstance(eb, EndEvent):
            continue
        return _Mismatch(ea, eb)
    if len(a) != len(b):
        longer, shorter = (a, b) if len(a) > len(b) else (b, a)
        extra = longer[len(shorter)]
        last = shorter[-1] if shorter else None
        if len(a) > len(b):
            return _Mismatch(extra, last)
        return _Mismatch(last, extra)
    return None


def _check_divergence(
    checker: _Checker,
    func: _Func,
    projections: dict[int, list[Event]],
) -> None:
    """Compare every rank's projection against rank 0's."""
    base = _comparable(projections[0])
    for r in range(1, checker.world):
        other = _comparable(projections[r])
        mism = _first_mismatch(base, other)
        if mism is None:
            continue
        a, b = mism.a, mism.b
        if (
            isinstance(a, CollEvent)
            and isinstance(b, CollEvent)
            and a.kind == b.kind
            and a.root == b.root
            and a.phase != b.phase
        ):
            checker.add(
                "SPMD123",
                func.module,
                a.site.line,
                f"phase tag diverges at a matched protocol position: "
                f"rank 0 tags comm.{a.kind}() at {a.site.render()} "
                f"with phase {a.phase!r} but rank {r} tags the same "
                f"collective at {b.site.render()} with phase "
                f"{b.phase!r} — the trace lanes and recorder spans "
                "disagree across the group",
            )
            return
        if mism.in_loop is not None and not (
            isinstance(a, CollEvent) and isinstance(b, CollEvent)
            and a.kind != b.kind
        ):
            loop = mism.in_loop
            coll = _first_coll(loop.body) or (
                a if isinstance(a, CollEvent) else None
            )
            coll_txt = (
                f" enclosing comm.{coll.kind}() at {coll.site.render()}"
                if coll is not None
                else ""
            )
            trips = ""
            if isinstance(a, LoopEvent) and isinstance(b, LoopEvent):
                trips = (
                    f" (rank 0 runs {a.trip} iterations, rank {r} "
                    f"runs {b.trip})"
                )
            checker.add(
                "SPMD121",
                func.module,
                loop.site.line,
                f"loop at {loop.site.render()}{coll_txt} has a "
                f"rank-dependent trip count{trips} — ranks run "
                "different numbers of collective rounds and the "
                "group desynchronizes",
            )
            return
        line = (
            a.site.line
            if a is not None
            else (b.site.line if b is not None else 1)
        )
        checker.add(
            "SPMD122",
            func.module,
            line,
            f"rank projections of {func.name}() diverge: rank 0 "
            f"{_awaits(a)} while rank {r} {_awaits(b)} — the group "
            "disagrees on the matched collective at this position",
        )
        return


def _awaits(ev: Event | None) -> str:
    if ev is None:
        return "issues no further collective"
    if isinstance(ev, CollEvent):
        root = f" root={ev.root}" if ev.root is not None else ""
        return (
            f"awaits comm.{ev.kind}(){root} at {ev.site.render()}"
        )
    if isinstance(ev, EndEvent):
        verb = "returns" if ev.kind == "return" else "shuts down"
        return f"{verb} at {ev.site.render()}"
    if isinstance(ev, LoopEvent):
        return f"enters the collective loop at {ev.site.render()}"
    return f"issues comm.{ev.kind}() at {ev.site.render()}"


# ---------------------------------------------------------------------------
# whole-program p2p matching (SPMD125) and shutdown order (SPMD126)
# ---------------------------------------------------------------------------


def _flatten(events: Iterable[Event]) -> list[Event]:
    out: list[Event] = []
    for e in events:
        if isinstance(e, LoopEvent):
            out.append(e)
            out.extend(_flatten(e.body))
        else:
            out.append(e)
    return out


def _tags_compatible(a: object, b: object) -> bool:
    return a is None or b is None or a == b


def _check_p2p(
    checker: _Checker,
    func: _Func,
    projections: dict[int, list[Event]],
) -> None:
    sends: list[tuple[int, P2PEvent]] = []
    recvs: list[tuple[int, P2PEvent]] = []
    for r, events in projections.items():
        for ev in _flatten(events):
            if isinstance(ev, P2PEvent):
                (sends if ev.kind == "send" else recvs).append((r, ev))
    if not sends and not recvs:
        return
    reported: set[int] = set()
    for r, s in sends:
        ok = any(
            (s.peer is None or s.peer == rr)
            and (rv.peer is None or rv.peer == r)
            and _tags_compatible(s.tag, rv.tag)
            for rr, rv in recvs
        )
        if not ok and s.site.line not in reported:
            reported.add(s.site.line)
            near = recvs[0][1].site.render() if recvs else "anywhere"
            tags = sorted({repr(rv.tag) for _, rv in recvs}) or ["none"]
            checker.add(
                "SPMD125",
                func.module,
                s.site.line,
                f"comm.send() at {s.site.render()} (rank {r} -> "
                f"{'?' if s.peer is None else s.peer}, tag {s.tag!r}) "
                f"has no matching comm.recv() in any rank projection "
                f"(nearest recv: {near}, recv tags: "
                f"{', '.join(tags)}) — the message is never consumed",
            )
    for r, rv in recvs:
        ok = any(
            (s.peer is None or s.peer == r)
            and (rv.peer is None or rv.peer == rr)
            and _tags_compatible(s.tag, rv.tag)
            for rr, s in sends
        )
        if not ok and rv.site.line not in reported:
            reported.add(rv.site.line)
            near = sends[0][1].site.render() if sends else "anywhere"
            checker.add(
                "SPMD125",
                func.module,
                rv.site.line,
                f"comm.recv() at {rv.site.render()} (rank {r} <- "
                f"{'?' if rv.peer is None else rv.peer}, tag "
                f"{rv.tag!r}) has no matching comm.send() in any rank "
                f"projection (nearest send: {near}) — the wait can "
                "only end in a timeout",
            )


def _check_shutdown(
    checker: _Checker,
    func: _Func,
    projections: dict[int, list[Event]],
) -> None:
    for _r, events in projections.items():
        flat = _flatten(events)
        shut: EndEvent | None = None
        for ev in flat:
            if isinstance(ev, EndEvent) and ev.kind == "shutdown":
                shut = ev
            elif shut is not None and isinstance(
                ev, (CollEvent, P2PEvent)
            ):
                what = (
                    f"comm.{ev.kind}()"
                    if isinstance(ev, (CollEvent, P2PEvent))
                    else "a protocol event"
                )
                checker.add(
                    "SPMD126",
                    func.module,
                    ev.site.line,
                    f"{what} at {ev.site.render()} is issued after "
                    f"the rank's shutdown point at "
                    f"{shut.site.render()} — verify_shutdown() "
                    "closes the transport drain contract, so later "
                    "traffic is unaccounted (leak reports and "
                    "counters are already final)",
                )
                return


# ---------------------------------------------------------------------------
# driving
# ---------------------------------------------------------------------------


def _scan_raw_tags(checker: _Checker, mod: _Module) -> None:
    """SPMD124 sweep over *every* function (not just SPMD entry
    points): raw transport posts live in helper classes too — the
    recovery manager's buddy ring is the sanctioned escape
    a committed baseline records."""
    for func in mod.funcs.values():
        proj = _Projector(checker, func, 0, {"@rank": 0, "@size": 1})
        # Light const-propagation so ``tag = (_BUDDY_TAG, seq)`` feeds
        # the reserved-namespace test of the later ``_post(.., tag)``.
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                t = node.targets[0]
                if isinstance(t, ast.Name):
                    env = dict(mod.consts)
                    env.update(proj.env)
                    val = _eval(node.value, env)
                    if not isinstance(val, _Unknown):
                        proj.env[t.id] = val
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _RAW_TAG_CALLS:
                    proj._check_raw_tag(node.func.attr, node)


def _check_program(modules: list[_Module], world: int) -> list[Finding]:
    checker = _Checker(modules, world)
    for mod in modules:
        _scan_raw_tags(checker, mod)
        for func in mod.funcs.values():
            if not func.is_spmd:
                continue
            projections: dict[int, list[Event]] = {}
            for r in range(world):
                proj = _Projector(
                    checker,
                    func,
                    r,
                    {"@rank": r, "@size": world},
                )
                projections[r] = proj.run()
            _check_divergence(checker, func, projections)
            _check_p2p(checker, func, projections)
            _check_shutdown(checker, func, projections)
    checker.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return checker.findings


def check_source(
    source: str, path: str = "<string>", *, world: int = DEFAULT_WORLD
) -> list[Finding]:
    """Model-check one source string; returns findings in line order."""
    return _check_program([_build_module(path, source)], world)


def check_paths(
    paths: Sequence[str | Path],
    *,
    world: int = DEFAULT_WORLD,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    baseline: Baseline | None = None,
) -> list[Finding]:
    """Model-check files and directories (``.py`` files, recursively).

    All files are loaded into one program table, so calls across
    modules inline whenever the callee's name is unambiguous.
    """
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    modules = [_build_module(str(f), f.read_text()) for f in files]
    findings = _check_program(modules, world)
    return filter_findings(
        findings, select=select, ignore=ignore, baseline=baseline
    )
