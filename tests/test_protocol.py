"""Tier-1b protocol model checker: fixture corpus and CLI.

A corpus of small SPMD programs with known-good and known-mismatched
collective schedules, asserting the exact rule ID (SPMD121–126) and
that counterexamples carry *both* call sites.  Plus the repo-level
invariant behind CI's `protocol-and-race` job: the checker reports
zero findings over `src/repro` modulo the committed baseline of
sanctioned control-plane escapes.
"""

from pathlib import Path

from repro.analysis.verify.cli import lint_main
from repro.analysis.verify.protocol import (
    RESERVED_TAG_KINDS,
    check_paths,
    check_source,
)
from repro.analysis.verify.rules import Baseline

REPO = Path(__file__).resolve().parent.parent


def ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# known-good programs: the idioms the repo's drivers actually use
# ---------------------------------------------------------------------------


class TestCleanPrograms:
    def test_straight_line_collectives(self):
        src = """
def prog(comm, x):
    y = comm.allreduce(x)
    y = comm.bcast(y, root=0)
    comm.barrier()
    return y
"""
        assert check_source(src) == []

    def test_rank_independent_loop(self):
        src = """
def prog(comm, x, max_iters):
    for it in range(max_iters):
        x = comm.allreduce(x)
    return x
"""
        assert check_source(src) == []

    def test_symbolic_iterable_loop(self):
        src = """
def prog(comm, modes, x):
    for m in modes:
        x = comm.reduce_scatter(x)
    return x
"""
        assert check_source(src) == []

    def test_ring_neighbors_resolve(self):
        """``(rank ± 1) % size`` projects to a concrete peer graph in
        which every send finds its receive."""
        src = """
def prog(comm, x):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(right, x, tag=5)
    return comm.recv(left, tag=5)
"""
        assert check_source(src) == []

    def test_root_fanout_pairing_idiom(self):
        """send-in-one-arm / recv-in-the-other under ``rank == root``
        is the sanctioned pairing idiom, not a divergence."""
        src = """
def prog(comm, x, root):
    if comm.rank == root:
        for r in range(comm.size):
            if r != root:
                comm.send(r, x, tag=3)
    else:
        x = comm.recv(root, tag=3)
    return x
"""
        assert check_source(src) == []

    def test_early_return_after_last_collective(self):
        """``if rank != root: return None`` after the gather — the
        repo-wide post-collective idiom (mp_gather_core) — is clean."""
        src = """
def prog(comm, x, root):
    g = comm.gather(x, root=root)
    if comm.rank != root:
        return None
    return g
"""
        assert check_source(src) == []

    def test_interprocedural_inlining(self):
        src = """
def helper(comm, x):
    return comm.allreduce(x)

def prog(comm, x):
    y = helper(comm, x)
    return helper(comm, y)
"""
        assert check_source(src) == []

    def test_convergence_bcast_idiom(self):
        """Data-dependent break after a root-0 bcast (the rahosi
        convergence pattern): every rank sees the same payload, so the
        break is replicated — clean."""
        src = """
def prog(comm, x, max_iters):
    for it in range(max_iters):
        x = comm.allreduce(x)
        payload = comm.bcast(x, root=0)
        if payload is None:
            break
    return x
"""
        assert check_source(src) == []


# ---------------------------------------------------------------------------
# known-mismatched programs: one per rule, exact IDs + two call sites
# ---------------------------------------------------------------------------


class TestSPMD121:
    def test_rank_dependent_trip_count(self):
        src = """
def prog(comm, x):
    for i in range(comm.rank + 1):
        x = comm.allreduce(x)
    return x
"""
        fs = check_source(src, "fx.py")
        assert ids(fs) == ["SPMD121"]
        # counterexample: the loop site and the enclosed collective.
        assert "fx.py:3" in fs[0].message
        assert "fx.py:4" in fs[0].message
        assert "allreduce" in fs[0].message

    def test_tainted_while_loop(self):
        src = """
def prog(comm, x):
    n = comm.rank
    while n > 0:
        comm.barrier()
        n = n - 1
    return x
"""
        assert ids(check_source(src)) == ["SPMD121"]

    def test_size_dependent_trip_is_fine(self):
        src = """
def prog(comm, x):
    for i in range(comm.size):
        x = comm.allreduce(x)
    return x
"""
        assert check_source(src) == []


class TestSPMD122:
    def test_conditional_collective_kind_mismatch(self):
        """The headline counterexample: rank A awaits allreduce while
        rank B issues reduce_scatter."""
        src = """
def prog(comm, x):
    if comm.rank == 0:
        x = comm.allreduce(x)
    else:
        x = comm.reduce_scatter(x)
    return x
"""
        fs = check_source(src, "fx.py")
        assert ids(fs) == ["SPMD122"]
        msg = fs[0].message
        assert "rank 0" in msg
        assert "allreduce" in msg and "reduce_scatter" in msg
        assert "fx.py:4" in msg and "fx.py:6" in msg

    def test_one_armed_symbolic_root_collective(self):
        src = """
def prog(comm, x, root):
    if comm.rank == root:
        x = comm.allreduce(x)
    return x
"""
        assert ids(check_source(src)) == ["SPMD122"]

    def test_rank_dependent_early_return_strands_collective(self):
        src = """
def prog(comm, x, root):
    if comm.rank != root:
        return None
    return comm.allreduce(x)
"""
        fs = check_source(src, "fx.py")
        assert ids(fs) == ["SPMD122"]
        assert "fx.py:4" in fs[0].message  # the early return
        assert "fx.py:5" in fs[0].message  # the stranded collective

    def test_mismatch_through_helper(self):
        src = """
def helper(comm, x):
    return comm.allreduce(x)

def prog(comm, x):
    if comm.rank == 0:
        return helper(comm, x)
    return x
"""
        assert ids(check_source(src)) == ["SPMD122"]


class TestSPMD123:
    def test_phase_tag_diverges_across_ranks(self):
        src = """
def prog(comm, x):
    if comm.rank % 2 == 0:
        comm.phase = "ttm"
    else:
        comm.phase = "gram"
    return comm.allreduce(x)
"""
        fs = check_source(src, "fx.py")
        assert ids(fs) == ["SPMD123"]
        msg = fs[0].message
        assert "'ttm'" in msg and "'gram'" in msg

    def test_same_phase_both_arms_is_fine(self):
        src = """
def prog(comm, x):
    if comm.rank % 2 == 0:
        comm.phase = "ttm"
    else:
        comm.phase = "ttm"
    return comm.allreduce(x)
"""
        assert check_source(src) == []


class TestSPMD124:
    def test_raw_post_in_buddy_namespace(self):
        src = """
def prog(comm, x):
    comm._t._post(1, ("buddy", 7), b"x")
    return x
"""
        fs = check_source(src)
        assert ids(fs) == ["SPMD124"]
        assert "'buddy'" in fs[0].message

    def test_tag_via_module_constant(self):
        src = """
_MY_TAG = "buddy"

def prog(comm, x):
    tag = (_MY_TAG, 3)
    comm._t._post(1, tag, b"x")
    return x
"""
        assert ids(check_source(src)) == ["SPMD124"]

    def test_reserved_kinds_cover_control_planes(self):
        assert {"buddy", "shmfree", "fin", "ctl", "vfy", "vok",
                "p2p"} <= set(RESERVED_TAG_KINDS)

    def test_user_namespace_is_fine(self):
        src = """
def prog(comm, x):
    comm._t._post(1, ("mytag", 7), b"x")
    return x
"""
        assert check_source(src) == []

    def test_pragma_suppresses(self):
        src = """
def prog(comm, x):
    comm._t._post(1, ("buddy", 7), b"x")  # spmdlint: ignore[SPMD124]
    return x
"""
        assert check_source(src) == []


class TestSPMD125:
    def test_tag_mismatch(self):
        src = """
def prog(comm, x):
    if comm.rank == 0:
        comm.send(1, x, tag=1)
    if comm.rank == 1:
        x = comm.recv(0, tag=2)
    return x
"""
        fs = check_source(src, "fx.py")
        assert ids(fs) == ["SPMD125", "SPMD125"]
        # both dangling edges name the nearest candidate site.
        assert "fx.py:6" in fs[0].message
        assert "fx.py:4" in fs[1].message

    def test_send_with_no_recv_at_all(self):
        src = """
def prog(comm, x):
    if comm.rank == 0:
        comm.send(1, x, tag=9)
    return x
"""
        assert ids(check_source(src)) == ["SPMD125"]


class TestSPMD126:
    def test_collective_after_shutdown(self):
        src = """
def prog(comm, x):
    x = comm.allreduce(x)
    comm.verify_shutdown()
    comm.barrier()
    return x
"""
        fs = check_source(src, "fx.py")
        assert ids(fs) == ["SPMD126"]
        assert "fx.py:4" in fs[0].message  # the shutdown point
        assert "fx.py:5" in fs[0].message  # the late barrier

    def test_shutdown_last_is_fine(self):
        src = """
def prog(comm, x):
    x = comm.allreduce(x)
    comm.verify_shutdown()
    return x
"""
        assert check_source(src) == []


# ---------------------------------------------------------------------------
# repo-level invariant and CLI plumbing
# ---------------------------------------------------------------------------


class TestRepoInvariant:
    def test_repo_protocol_clean_modulo_baseline(self, monkeypatch):
        """The acceptance bar: zero findings over src/repro with the
        committed baseline of sanctioned control-plane escapes.

        Fingerprints hash the path as scanned, so this runs from the
        repo root with a relative path — the same invocation CI uses.
        """
        monkeypatch.chdir(REPO)
        baseline = Baseline.load("baselines/protocol-baseline.json")
        fs = check_paths(["src/repro"], baseline=baseline)
        assert fs == [], [f.render() for f in fs]

    def test_baseline_covers_only_sanctioned_owners(self):
        """Unbaselined findings exist and live exactly in the modules
        that own the reserved namespaces (recovery's buddy ring) —
        the baseline is not hiding real user-code escapes."""
        fs = check_paths([str(REPO / "src/repro")])
        assert fs, "expected sanctioned SPMD124 escapes without baseline"
        assert {f.rule_id for f in fs} == {"SPMD124"}
        assert {Path(f.path).name for f in fs} == {"recovery.py"}


class TestCLI:
    def test_protocol_flag_catches_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def prog(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        x = comm.allreduce(x)\n"
            "    else:\n"
            "        x = comm.reduce_scatter(x)\n"
            "    return x\n"
        )
        rc = lint_main(["--protocol", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SPMD122" in out

    def test_without_flag_protocol_rules_stay_silent(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def prog(comm, x):\n"
            "    for i in range(comm.rank + 1):\n"
            "        x = comm.allreduce(x)\n"
            "    return x\n"
        )
        rc = lint_main([str(bad)])
        out = capsys.readouterr().out
        assert "SPMD121" not in out
        assert rc in (0, 1)  # spmdlint may have its own opinion

    def test_strict_with_baseline_is_clean_on_repo(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        rc = lint_main(
            [
                "--protocol",
                "--strict",
                "--baseline",
                "baselines/protocol-baseline.json",
                "src/repro",
            ]
        )
        capsys.readouterr()
        assert rc == 0
