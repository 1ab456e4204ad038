"""Tier-1 static lint: rule positives, negatives, and the CLI."""

from pathlib import Path

from repro.analysis.verify import lint_paths, lint_source
from repro.analysis.verify.cli import lint_main
from repro.analysis.verify.rules import (
    RULES,
    Baseline,
    Finding,
    filter_findings,
)


def ids(findings):
    return [f.rule_id for f in findings]


class TestRuleRegistry:
    def test_ids_unique_and_well_formed(self):
        assert len(RULES) == 19
        for rid, r in RULES.items():
            assert rid == r.id
            assert rid.startswith("SPMD")
            assert r.tier in ("static", "dynamic")
            assert r.severity in ("error", "warning")

    def test_static_dynamic_split(self):
        static = {r.id for r in RULES.values() if r.tier == "static"}
        assert static == {f"SPMD10{i}" for i in range(1, 7)} | {
            f"SPMD12{i}" for i in range(1, 7)
        }


class TestSPMD101:
    def test_collective_in_rank_branch(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.allreduce(np.ones(3))
"""
        assert ids(lint_source(src)) == ["SPMD101"]

    def test_taint_through_assignment(self):
        src = """
def prog(comm):
    me = comm.rank
    if me > 0:
        comm.barrier()
"""
        assert ids(lint_source(src)) == ["SPMD101"]

    def test_taint_through_grid_coords(self):
        src = """
def prog(comm, grid):
    coords = grid.coords(comm.rank)
    if coords[0] == 0:
        comm.barrier()
"""
        assert ids(lint_source(src)) == ["SPMD101"]

    def test_alltoall_in_coords_branch(self):
        # The relayout the Gram used to skip on non-root members: an
        # all-to-all only the coordinate-0 member of a mode group calls.
        src = """
def prog(comm, grid, block, mode):
    coords = grid.coords(comm.rank)
    if coords[mode] == 0:
        block = comm.alltoall(block, 1, mode)
    return block
"""
        assert ids(lint_source(src)) == ["SPMD101"]

    def test_rank_dependent_early_return_before_collective(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank != 0:
        return None
    comm.allreduce(np.ones(2))
"""
        assert ids(lint_source(src)) == ["SPMD101"]

    def test_payload_prep_pattern_is_clean(self):
        # The sanctioned idiom: rank-dependent payload, collective
        # outside the branch (mp_hooi's checkpoint broadcast).
        src = """
import numpy as np
def prog(comm):
    payload = np.ones(3) if comm.rank == 0 else None
    payload = comm.bcast(payload, root=0)
    if comm.rank == 0:
        extra = payload * 2
    return payload
"""
        assert lint_source(src) == []

    def test_early_return_after_last_collective_is_clean(self):
        # mp_sthosvd's tail: non-roots return None after the final
        # collective — nothing later is stranded.
        src = """
import numpy as np
def prog(comm):
    out = comm.gather(np.ones(2), root=0)
    if comm.rank != 0:
        return None
    return out
"""
        assert lint_source(src) == []

    def test_coords_branch_without_collective_is_clean(self):
        src = """
def prog(comm, grid):
    coords = grid.coords(comm.rank)
    if coords[1] == 0:
        local = 1.0
    else:
        local = 0.0
    return local
"""
        assert lint_source(src) == []

    def test_pragma_suppression(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.allreduce(np.ones(3))  # spmdlint: ignore[SPMD101]
"""
        assert lint_source(src) == []

    def test_bare_pragma_suppresses_everything(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.allreduce(np.ones(3))  # spmdlint: ignore
"""
        assert lint_source(src) == []


class TestSPMD102:
    def test_diverging_branch_schedules(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.bcast(np.ones(3), root=0)
    else:
        comm.allreduce(np.ones(3))
"""
        assert "SPMD102" in ids(lint_source(src))

    def test_differing_roots_across_branches(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.bcast(np.ones(3), root=0)
    else:
        comm.bcast(None, root=1)
"""
        assert "SPMD102" in ids(lint_source(src))

    def test_rank_dependent_root_argument(self):
        src = """
def prog(comm):
    comm.bcast(None, root=comm.rank)
"""
        assert ids(lint_source(src)) == ["SPMD102"]

    def test_identical_branch_schedules_are_not_102(self):
        # Same kind+root on both sides: schedules match (SPMD101 is
        # also silent — every rank still reaches one bcast).
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        out = comm.bcast(np.ones(3), root=0)
    else:
        out = comm.bcast(None, root=0)
    return out
"""
        assert lint_source(src) == []


class TestSPMD103:
    def test_send_without_recv(self):
        src = """
import numpy as np
def prog(comm):
    comm.send(1, np.ones(2), tag=3)
"""
        assert "SPMD103" in ids(lint_source(src))

    def test_recv_without_send(self):
        src = """
def prog(comm):
    return comm.recv(0, tag=1)
"""
        assert "SPMD103" in ids(lint_source(src))

    def test_disjoint_literal_tags(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.send(1, np.ones(2), tag=1)
    else:
        got = comm.recv(0, tag=2)
"""
        assert "SPMD103" in ids(lint_source(src))

    def test_matched_pair_is_clean(self):
        src = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.send(1, np.ones(2), tag=1)
    else:
        got = comm.recv(0, tag=1)
"""
        assert "SPMD103" not in ids(lint_source(src))


class TestSPMD104:
    def test_unseeded_default_rng(self):
        src = """
import numpy as np
def prog(comm):
    rng = np.random.default_rng()
    return rng.normal()
"""
        assert ids(lint_source(src)) == ["SPMD104"]

    def test_global_rng_call(self):
        src = """
import numpy as np
def prog(comm):
    return np.random.randn(3)
"""
        assert ids(lint_source(src)) == ["SPMD104"]

    def test_seeded_rng_is_clean(self):
        src = """
import numpy as np
def prog(comm):
    rng = np.random.default_rng(1234)
    return rng.normal()
"""
        assert lint_source(src) == []

    def test_outside_spmd_region_is_clean(self):
        src = """
import numpy as np
def helper():
    return np.random.default_rng()
"""
        assert lint_source(src) == []


class TestSPMD105:
    def test_returned_handle(self):
        src = """
from multiprocessing.shared_memory import SharedMemory
def make(n):
    shm = SharedMemory(create=True, size=n)
    return shm
"""
        assert ids(lint_source(src)) == ["SPMD105"]

    def test_handle_stored_on_attribute(self):
        src = """
from multiprocessing import shared_memory
class Pool:
    def grab(self, n):
        shm = shared_memory.SharedMemory(create=True, size=n)
        self.segs[shm.name] = shm
"""
        assert ids(lint_source(src)) == ["SPMD105"]

    def test_closed_handle_is_clean(self):
        src = """
from multiprocessing.shared_memory import SharedMemory
def roundtrip(n):
    shm = SharedMemory(create=True, size=n)
    data = bytes(shm.buf[:4])
    shm.close()
    return data
"""
        assert lint_source(src) == []


class TestSPMD106:
    def test_drifted_phase_keyword(self):
        src = """
def kernel(comm, block):
    comm.allreduce(block, phase="gramm")
"""
        assert "SPMD106" in ids(lint_source(src))

    def test_drifted_phase_default(self):
        src = """
def kernel(comm, block, phase="ttm_typo"):
    comm.allreduce(block)
"""
        assert "SPMD106" in ids(lint_source(src))

    def test_drifted_phase_attribute(self):
        src = """
def prog(comm):
    comm.phase = "lsv"
"""
        assert "SPMD106" in ids(lint_source(src))

    def test_drifted_ledger_charge(self):
        src = """
def price(ledger):
    ledger.comm("subspace_com", 10.0, 2.0)
"""
        assert "SPMD106" in ids(lint_source(src))

    def test_known_phases_and_untagged_are_clean(self):
        src = """
def kernel(comm, block, phase="ttm"):
    comm.phase = "llsv"
    comm.phase = ""
    comm.allreduce(block, phase="gram")

def price(ledger):
    ledger.comm("gram_comm", 10.0)
    ledger.compute("evd", 1.0, 2.0)
"""
        assert "SPMD106" not in ids(lint_source(src))

    def test_non_literal_tags_are_skipped(self):
        src = """
def kernel(comm, block, phase):
    comm.allreduce(block, phase=phase)
    ledger.comm(f"{phase}_comm", 4.0)
"""
        assert "SPMD106" not in ids(lint_source(src))

    def test_vocabulary_matches_trace_module(self):
        from repro.vmpi.trace import PHASES

        srcs = [f'def f(comm, x):\n    comm.phase = "{p}"\n' for p in PHASES]
        for src in srcs:
            assert "SPMD106" not in ids(lint_source(src))


class TestFilteringAndBaseline:
    SRC = """
import numpy as np
def prog(comm):
    if comm.rank == 0:
        comm.allreduce(np.ones(3))
    rng = np.random.default_rng()
"""

    def test_select(self):
        found = lint_source(self.SRC)
        only = filter_findings(found, select={"SPMD104"})
        assert ids(only) == ["SPMD104"]

    def test_ignore(self):
        found = lint_source(self.SRC)
        rest = filter_findings(found, ignore={"SPMD104"})
        assert "SPMD104" not in ids(rest)

    def test_baseline_roundtrip(self, tmp_path):
        found = lint_source(self.SRC, "prog.py")
        bl = Baseline.from_findings(found)
        path = tmp_path / "baseline.json"
        bl.save(path)
        loaded = Baseline.load(path)
        assert filter_findings(found, baseline=loaded) == []

    def test_fingerprint_is_line_number_insensitive(self):
        a = Finding("SPMD101", "f.py", 10, "msg", "comm.barrier()")
        b = Finding("SPMD101", "f.py", 99, "other msg", "comm.barrier()")
        assert a.fingerprint() == b.fingerprint()


class TestCLI:
    def test_clean_tree_exits_zero(self, capsys):
        # The acceptance gate: the fixed tree has zero findings.
        rc = lint_main(["src/repro/distributed", "src/repro/vmpi"])
        assert rc == 0

    def test_full_package_is_clean(self):
        assert lint_paths(["src/repro"]) == []

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
        )
        rc = lint_main([str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SPMD101" in out
        assert f"{bad}:3" in out

    def test_warnings_only_strict_flag(self, tmp_path):
        warn = tmp_path / "warn.py"
        warn.write_text(
            "import numpy as np\n"
            "def prog(comm):\n"
            "    return np.random.default_rng()\n"
        )
        assert lint_main([str(warn)]) == 0
        assert lint_main([str(warn), "--strict"]) == 1

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["definitely/not/here.py"]) == 2

    def test_unknown_rule_id_exits_two(self, capsys):
        assert lint_main(["src/repro/vmpi", "--select", "SPMD999"]) == 2

    def test_write_and_apply_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
        )
        bl = tmp_path / "baseline.json"
        assert lint_main([str(bad), "--write-baseline", str(bl)]) == 0
        assert lint_main([str(bad), "--baseline", str(bl)]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in RULES:
            assert rid in out

    def test_umbrella_dispatch(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
