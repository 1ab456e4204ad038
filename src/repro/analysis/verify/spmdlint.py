"""``spmdlint`` — static AST lint for SPMD driver code (tier 1).

Models every ``comm.*`` collective call site in a Python source tree
and flags the schedule bugs that silently corrupt or deadlock loosely
synchronous programs (the code shape of the TuckerMPI-style drivers in
:mod:`repro.distributed`):

``SPMD101``
    A collective reachable only under rank-dependent control flow —
    ``if comm.rank == 0: comm.allreduce(...)`` — or a rank-dependent
    early return/raise that makes a *later* collective unreachable for
    some ranks.  Either way part of the group never arrives and the
    collective stalls until the timeout.
``SPMD102``
    Root/kind drift: the two branches of a rank-dependent conditional
    both issue collectives but with different kinds or roots, or a
    ``root=`` argument is itself rank-dependent — the group members
    disagree on the collective they are executing.
``SPMD103``
    A ``comm.send`` with no ``comm.recv`` counterpart anywhere in the
    file (or vice versa), including tag sets that cannot match.
``SPMD104``
    Unseeded RNG inside an SPMD region (``np.random.default_rng()``
    with no seed, or the legacy process-global ``np.random.*`` /
    ``random.*`` functions): replicated decisions derived from it
    diverge across ranks, desynchronizing the collective schedule.
``SPMD105``
    A ``SharedMemory`` handle that escapes the creating function
    (returned, or stored on an attribute/container) without a
    ``close()``/``unlink()`` in the same scope — the lifecycle can no
    longer be audited locally.  Sanctioned pool code annotates the
    site with ``# spmdlint: ignore[SPMD105]``.
``SPMD106``
    A phase-tag string literal outside the shared vocabulary
    (``repro.vmpi.trace.PHASES``): a ``phase=`` argument or default, a
    ``<x>.phase = "..."`` assignment, or the first argument of a
    cost-ledger charge (``.compute/.sequential/.comm/.gather``).  The
    trace lanes, the flight recorder's spans, and the measured-vs-modeled
    attribution all join on these names, so a drifted literal silently
    drops time from every report.  The empty string (untagged) is
    allowed; non-literal tags (f-strings, variables) are not checked.

The linter is heuristic by design: it tracks rank taint through simple
assignments (``me = comm.rank``, ``coords = grid.coords(comm.rank)``)
but does not do inter-procedural analysis.  The replicated-payload
idiom — preparing a rank-dependent payload inside a branch and calling
the collective *outside* it — is deliberately clean::

    payload = build() if comm.rank == 0 else None
    payload = comm.bcast(payload, root=0)   # every rank calls this

Inline suppression: ``# spmdlint: ignore[SPMD101,SPMD105]`` (or a bare
``# spmdlint: ignore``) on the flagged line.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

from repro.analysis.verify.rules import Baseline, Finding, filter_findings

__all__ = ["COLLECTIVES", "P2P_OPS", "lint_paths", "lint_source"]

#: The collective subset of the mini-MPI communicator API.
COLLECTIVES = frozenset(
    {"allreduce", "reduce_scatter", "allgather", "alltoall", "bcast",
     "gather", "barrier"}
)

#: Point-to-point operations (matched per file by SPMD103).
P2P_OPS = frozenset({"send", "recv"})

#: Rooted collectives whose ``root`` argument SPMD102 compares.
_ROOTED = frozenset({"bcast", "gather"})

#: Cost-ledger charge methods whose first argument is a phase tag
#: (``ledger.comm("gram_comm", ...)``; ``comm.gather(payload, root)``
#: never passes a string literal first, so the overlap is harmless).
_LEDGER_CHARGES = frozenset({"compute", "sequential", "comm", "gather"})

_PHASES_CACHE: frozenset[str] | None = None


def _phase_vocabulary() -> frozenset[str]:
    """The shared phase vocabulary, ``repro.vmpi.trace.PHASES``.

    Imported dynamically: the verify package is a strict-typing island
    (``mypy --strict`` in CI) and must not pull the numeric stack into
    its build just to read one frozenset of strings.
    """
    global _PHASES_CACHE
    if _PHASES_CACHE is None:
        mod = importlib.import_module("repro.vmpi.trace")
        phases = mod.PHASES
        assert isinstance(phases, frozenset)
        _PHASES_CACHE = frozenset(str(p) for p in phases)
    return _PHASES_CACHE

#: Names a communicator object may travel under.
_COMM_NAMES = frozenset({"comm"})

_PRAGMA = re.compile(r"#\s*spmdlint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")

#: Legacy process-global RNG entry points (always unseeded per-process).
_GLOBAL_RNG = re.compile(
    r"^(np|numpy)\.random\.(rand|randn|random|randint|random_sample|"
    r"choice|permutation|shuffle|normal|uniform|standard_normal)$"
    r"|^random\.(random|randint|randrange|choice|shuffle|uniform|"
    r"sample|gauss)$"
)


def _attr_chain(node: ast.AST) -> str:
    """Dotted-name text of an attribute chain (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_comm_value(node: ast.AST) -> bool:
    """True when ``node`` denotes a communicator (``comm``,
    ``self.comm``, ``engine.comm``, ...)."""
    if isinstance(node, ast.Name):
        return node.id in _COMM_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _COMM_NAMES
    return False


def _collective_kind(node: ast.Call) -> str | None:
    """The collective name when ``node`` is ``<comm>.<collective>()``."""
    fn = node.func
    if (
        isinstance(fn, ast.Attribute)
        and fn.attr in COLLECTIVES
        and _is_comm_value(fn.value)
    ):
        return fn.attr
    return None


def _p2p_kind(node: ast.Call) -> str | None:
    fn = node.func
    if (
        isinstance(fn, ast.Attribute)
        and fn.attr in P2P_OPS
        and _is_comm_value(fn.value)
    ):
        return fn.attr
    return None


def _mentions_rank(node: ast.AST, tainted: frozenset[str]) -> bool:
    """Does an expression depend on the caller's rank?

    True for ``comm.rank`` / ``<x>.comm.rank`` attribute reads and for
    any name in the taint set.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            if _is_comm_value(sub.value):
                return True
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
    return False


def _rank_taint(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    """Names assigned (directly or transitively) from ``comm.rank``.

    One forward pass in source order over simple single-target
    assignments — enough for the ``me = comm.rank`` and
    ``coords = grid.coords(comm.rank)`` idioms.
    """
    tainted: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        if value is None or len(targets) != 1:
            continue
        target = targets[0]
        if isinstance(target, ast.Name) and _mentions_rank(
            value, frozenset(tainted)
        ):
            tainted.add(target.id)
    return frozenset(tainted)


def _rng_call(node: ast.Call) -> str | None:
    """SPMD104 classification of an RNG call, or ``None``."""
    chain = _attr_chain(node.func)
    if chain.endswith("default_rng") and not node.args and not node.keywords:
        return "np.random.default_rng() without a seed"
    if _GLOBAL_RNG.match(chain):
        return f"process-global RNG call {chain}()"
    return None


class _CollectiveSite:
    """One collective call site with its rank-dependence context."""

    def __init__(
        self, kind: str, node: ast.Call, rank_dep: bool, root_text: str | None
    ) -> None:
        self.kind = kind
        self.node = node
        self.rank_dep = rank_dep
        self.root_text = root_text


def _root_arg(kind: str, node: ast.Call) -> ast.expr | None:
    """The ``root`` argument of a rooted collective call, if present."""
    if kind not in _ROOTED:
        return None
    for kw in node.keywords:
        if kw.arg == "root":
            return kw.value
    if len(node.args) >= 2:
        return node.args[1]
    return None


class _FunctionLinter(ast.NodeVisitor):
    """Walk one function body tracking rank-dependent control flow."""

    def __init__(
        self,
        linter: "_ModuleLinter",
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        is_spmd: bool,
    ) -> None:
        self.linter = linter
        self.fn = fn
        self.is_spmd = is_spmd
        self.tainted = _rank_taint(fn)
        #: depth of enclosing rank-dependent branches
        self._rank_depth = 0
        #: when inside a rank-dep If that has collectives in both
        #: branches, SPMD102 owns the diagnosis — SPMD101 stands down.
        self._suppress_101 = 0
        #: (line, col) of rank-dependent early exits seen so far
        self._early_exits: list[tuple[int, str]] = []
        #: collectives in source order: (line, rank_dep)
        self._ordered: list[tuple[int, bool]] = []

    # -- collection helpers -------------------------------------------------

    def _collect_collectives(
        self, nodes: list[ast.stmt]
    ) -> list[_CollectiveSite]:
        """Collective calls in a branch subtree (shallow convenience)."""
        out: list[_CollectiveSite] = []
        for stmt in nodes:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    kind = _collective_kind(sub)
                    if kind is not None:
                        root = _root_arg(kind, sub)
                        out.append(
                            _CollectiveSite(
                                kind,
                                sub,
                                True,
                                None
                                if root is None
                                else ast.unparse(root),
                            )
                        )
        return out

    # -- statement visitors -------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        rank_dep = _mentions_rank(node.test, self.tainted)
        if not rank_dep:
            self.generic_visit(node)
            return
        body_c = self._collect_collectives(node.body)
        else_c = self._collect_collectives(node.orelse)
        both = bool(body_c) and bool(else_c)
        if both:
            # Both branches communicate: compare the schedules.
            sig_a = [(c.kind, c.root_text) for c in body_c]
            sig_b = [(c.kind, c.root_text) for c in else_c]
            if sig_a != sig_b:
                self.linter.add(
                    "SPMD102",
                    node,
                    "branches of a rank-dependent conditional issue "
                    f"diverging collective schedules {sig_a} vs {sig_b} — "
                    "group members will disagree on the matched collective",
                )
        self._rank_depth += 1
        if both:
            self._suppress_101 += 1
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        if both:
            self._suppress_101 -= 1
        self._rank_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._visit_rank_loop(node, node.test)

    def visit_For(self, node: ast.For) -> None:
        self._visit_rank_loop(node, node.iter)

    def _visit_rank_loop(
        self, node: ast.While | ast.For, ctrl: ast.expr
    ) -> None:
        rank_dep = _mentions_rank(ctrl, self.tainted)
        if rank_dep:
            self._rank_depth += 1
        self.generic_visit(node)
        if rank_dep:
            self._rank_depth -= 1

    def _note_early_exit(self, node: ast.stmt, what: str) -> None:
        if self._rank_depth > 0:
            self._early_exits.append((node.lineno, what))

    def visit_Return(self, node: ast.Return) -> None:
        self._note_early_exit(node, "return")
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        self._note_early_exit(node, "raise")
        self.generic_visit(node)

    def visit_Break(self, node: ast.Break) -> None:
        self._note_early_exit(node, "break")

    def visit_Continue(self, node: ast.Continue) -> None:
        self._note_early_exit(node, "continue")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.linter.lint_function(node)  # nested: fresh context

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.linter.lint_function(node)

    # -- call sites ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        kind = _collective_kind(node)
        if kind is not None:
            self._check_collective(kind, node)
        else:
            p2p = _p2p_kind(node)
            if p2p is not None:
                self.linter.note_p2p(p2p, node)
            elif self.is_spmd:
                reason = _rng_call(node)
                if reason is not None:
                    self.linter.add(
                        "SPMD104",
                        node,
                        f"{reason} inside an SPMD region — replicated "
                        "decisions will diverge across ranks; seed it "
                        "identically on every rank",
                    )
        self.generic_visit(node)

    def _check_collective(self, kind: str, node: ast.Call) -> None:
        rank_dep = self._rank_depth > 0
        self._ordered.append((node.lineno, rank_dep))
        if rank_dep and not self._suppress_101:
            self.linter.add(
                "SPMD101",
                node,
                f"comm.{kind}() is reachable only under rank-dependent "
                "control flow — ranks outside the branch never join the "
                "collective and the group stalls until the timeout",
            )
        root = _root_arg(kind, node)
        if root is not None and _mentions_rank(root, self.tainted):
            self.linter.add(
                "SPMD102",
                node,
                f"comm.{kind}() root argument {ast.unparse(root)!r} is "
                "rank-dependent — group members will name different roots",
            )

    # -- post pass ----------------------------------------------------------

    def finish(self) -> None:
        """Rank-dependent early exits that strand a later collective."""
        for line, what in self._early_exits:
            later = [
                c_line
                for c_line, c_rank_dep in self._ordered
                if c_line > line and not c_rank_dep
            ]
            if later:
                self.linter.add_at(
                    "SPMD101",
                    line,
                    f"rank-dependent early {what} skips the collective at "
                    f"line {later[0]} on some ranks — the remaining group "
                    "members stall until the timeout",
                )


class _ModuleLinter:
    """Per-file lint state: findings, pragmas, p2p bookkeeping."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self.findings: list[Finding] = []
        self._sends: list[tuple[int, str | None]] = []
        self._recvs: list[tuple[int, str | None]] = []

    # -- finding emission ---------------------------------------------------

    def _suppressed(self, line: int, rule_id: str) -> bool:
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        m = _PRAGMA.search(text)
        if m is None:
            return False
        ids = m.group(1)
        if ids is None:
            return True
        return rule_id in {s.strip() for s in ids.split(",")}

    def add(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.add_at(rule_id, getattr(node, "lineno", 1), message)

    def add_at(self, rule_id: str, line: int, message: str) -> None:
        if self._suppressed(line, rule_id):
            return
        source = (
            self.lines[line - 1].strip()
            if 0 < line <= len(self.lines)
            else ""
        )
        self.findings.append(
            Finding(rule_id, self.path, line, message, source)
        )

    # -- p2p matching (file scope) ------------------------------------------

    @staticmethod
    def _tag_text(node: ast.Call) -> str | None:
        for kw in node.keywords:
            if kw.arg == "tag":
                return ast.unparse(kw.value)
        # positional: send(dest, payload, tag) / recv(src, tag)
        fn = node.func
        attr = fn.attr if isinstance(fn, ast.Attribute) else ""
        idx = 2 if attr == "send" else 1
        if len(node.args) > idx:
            return ast.unparse(node.args[idx])
        return None  # default tag 0

    def note_p2p(self, kind: str, node: ast.Call) -> None:
        entry = (node.lineno, self._tag_text(node))
        (self._sends if kind == "send" else self._recvs).append(entry)

    def finish_p2p(self) -> None:
        if self._sends and not self._recvs:
            for line, _ in self._sends:
                self.add_at(
                    "SPMD103",
                    line,
                    "comm.send() with no comm.recv() anywhere in this "
                    "file — the message is never consumed (shm segments "
                    "stay in flight; verify mode reports the leak)",
                )
        if self._recvs and not self._sends:
            for line, _ in self._recvs:
                self.add_at(
                    "SPMD103",
                    line,
                    "comm.recv() with no comm.send() anywhere in this "
                    "file — the wait can only end in a timeout",
                )
        if self._sends and self._recvs:
            # Literal tag sets that cannot overlap are still a mismatch.
            def literals(entries: list[tuple[int, str | None]]) -> set[str]:
                return {t if t is not None else "0" for _, t in entries}

            sent, recvd = literals(self._sends), literals(self._recvs)
            if (
                all(t.isdigit() for t in sent | recvd)
                and not sent & recvd
            ):
                line = self._sends[0][0]
                self.add_at(
                    "SPMD103",
                    line,
                    f"send tags {sorted(sent)} and recv tags "
                    f"{sorted(recvd)} cannot match",
                )

    # -- shm lifecycle (SPMD105) --------------------------------------------

    def lint_shm(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        created: dict[str, int] = {}
        closed: set[str] = set()
        escaped: dict[str, int] = {}
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn:
                    continue
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                chain = _attr_chain(node.value.func)
                if chain.endswith("SharedMemory"):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            created[target.id] = node.lineno
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in ("close", "unlink") and isinstance(
                    node.func.value, ast.Name
                ):
                    closed.add(node.func.value.id)
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id in created:
                        escaped.setdefault(sub.id, node.lineno)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        for sub in ast.walk(node.value):
                            if (
                                isinstance(sub, ast.Name)
                                and sub.id in created
                            ):
                                escaped.setdefault(sub.id, node.lineno)
        for name, line in escaped.items():
            if name in closed:
                continue
            self.add_at(
                "SPMD105",
                line,
                f"SharedMemory handle {name!r} escapes "
                f"{fn.name}() without a close()/unlink() in the same "
                "scope — its lifecycle can no longer be audited locally "
                "(annotate sanctioned pool code with "
                "'# spmdlint: ignore[SPMD105]')",
            )

    # -- phase vocabulary (SPMD106) -----------------------------------------

    def _check_phase(self, value: str, node: ast.expr, where: str) -> None:
        if value == "":  # untagged is always allowed
            return
        if value in _phase_vocabulary():
            return
        self.add(
            "SPMD106",
            node,
            f"phase tag {value!r} ({where}) is not in the shared "
            "vocabulary repro.vmpi.trace.PHASES — trace lanes, the flight "
            "recorder's spans, and the measured-vs-modeled attribution join on "
            "these names, so a drifted literal silently drops time from "
            "every report; add it to PHASES or fix the spelling",
        )

    def lint_phases(self) -> None:
        """Flag phase-tag string literals outside the PHASES vocabulary."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "phase"
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                    ):
                        self._check_phase(
                            kw.value.value, kw.value, "phase= argument"
                        )
                fn = node.func
                if (
                    isinstance(fn, ast.Attribute)
                    and fn.attr in _LEDGER_CHARGES
                    and node.args
                ):
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, str
                    ):
                        self._check_phase(
                            first.value, first, f"{fn.attr}() charge"
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                pos = list(a.posonlyargs) + list(a.args)
                for arg, default in zip(
                    pos[len(pos) - len(a.defaults) :], a.defaults
                ):
                    if (
                        arg.arg == "phase"
                        and isinstance(default, ast.Constant)
                        and isinstance(default.value, str)
                    ):
                        self._check_phase(
                            default.value, default, "phase default"
                        )
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if (
                        default is not None
                        and arg.arg == "phase"
                        and isinstance(default, ast.Constant)
                        and isinstance(default.value, str)
                    ):
                        self._check_phase(
                            default.value, default, "phase default"
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "phase"
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)
                    ):
                        self._check_phase(
                            node.value.value,
                            node.value,
                            "phase attribute assignment",
                        )

    # -- driving ------------------------------------------------------------

    @staticmethod
    def _is_spmd_function(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """An SPMD region: any parameter named/annotated as a comm."""
        args = fn.args
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if a.arg in _COMM_NAMES:
                return True
            if a.annotation is not None and "Comm" in ast.unparse(
                a.annotation
            ):
                return True
        return False

    def lint_function(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        walker = _FunctionLinter(self, fn, self._is_spmd_function(fn))
        for stmt in fn.body:
            walker.visit(stmt)
        walker.finish()
        self.lint_shm(fn)

    def run(self) -> list[Finding]:
        # Top-level and class-level functions get a fresh context each;
        # nested defs are dispatched by the walker itself.
        def _scan(body: list[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self.lint_function(stmt)
                elif isinstance(stmt, ast.ClassDef):
                    _scan(stmt.body)

        _scan(self.tree.body)
        self.finish_p2p()
        self.lint_phases()
        self.findings.sort(key=lambda f: (f.line, f.rule_id))
        return self.findings


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source string; returns findings in line order."""
    tree = ast.parse(source, filename=path)
    return _ModuleLinter(path, source, tree).run()


def lint_paths(
    paths: list[str | Path],
    *,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    baseline: Baseline | None = None,
) -> list[Finding]:
    """Lint files and directories (``.py`` files, recursively)."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_source(f.read_text(), str(f)))
    return filter_findings(
        findings, select=select, ignore=ignore, baseline=baseline
    )
