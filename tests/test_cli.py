"""End-to-end CLI driver tests (artifact-style parameter files)."""

import json
import re

import pytest

from repro.analysis.attribution import parse_attribution_report
from repro.cli import (
    hooi_main,
    hooi_script,
    main,
    sthosvd_main,
    sthosvd_script,
)
from repro.core.errors import ConfigError
from repro.observability.profile import validate_chrome_trace
from repro.observability.telemetry import validate_telemetry_jsonl

STHOSVD_CFG = """
Print options = true
Print timings = true
Noise = 0.0001
SV Threshold = 0.0
Perform STHOSVD = true
Processor grid dims = 1 2 2 2
Global dims = 20 20 20 20
Ranks = 4 4 4 4
"""

HOOI_CFG = """
Print options = true
Print timings = true
Dimension Tree Memoization = {dt}
HOOI Adapt core tensor gather type = false
Noise = 0.0001
HOOI-Adapt Threshold = {adapt}
HOOI max iters = {iters}
SVD Method = {svd}
Processor grid dims = 1 2 2 1
Global dims = 20 20 20 20
Construction Ranks = 4 4 4 4
Decomposition Ranks = {dranks}
"""


def _write(tmp_path, text, name="param.cfg"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


class TestSTHOSVDDriver:
    def test_fixed_rank(self, tmp_path, capsys):
        rc = sthosvd_main(["--parameter-file", _write(tmp_path, STHOSVD_CFG)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "STHOSVD ranks: (4, 4, 4, 4)" in out
        assert "Simulated wall time" in out
        assert "Gram" in out

    def test_error_specified(self, tmp_path, capsys):
        cfg = STHOSVD_CFG.replace("SV Threshold = 0.0", "SV Threshold = 0.01")
        sthosvd_main(["--parameter-file", _write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert "STHOSVD ranks: (4, 4, 4, 4)" in out

    def test_prints_options(self, tmp_path, capsys):
        sthosvd_main(["--parameter-file", _write(tmp_path, STHOSVD_CFG)])
        out = capsys.readouterr().out
        assert "global dims = 20 20 20 20" in out


class TestHOOIDriver:
    @pytest.mark.parametrize(
        "dt,svd,label",
        [
            ("false", 0, "HOOI"),
            ("true", 0, "HOOI-DT"),
            ("false", 2, "HOSI"),
            ("true", 2, "HOSI-DT"),
        ],
    )
    def test_fixed_rank_variants(self, tmp_path, capsys, dt, svd, label):
        cfg = HOOI_CFG.format(
            dt=dt, adapt=0.0, iters=2, svd=svd, dranks="4 4 4 4"
        )
        rc = hooi_main(["--parameter-file", _write(tmp_path, cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"Running {label}" in out
        assert "iteration 2: approximation error" in out
        assert "Final ranks: (4, 4, 4, 4)" in out

    def test_rank_adaptive(self, tmp_path, capsys):
        cfg = HOOI_CFG.format(
            dt="true", adapt=0.01, iters=3, svd=2, dranks="6 6 6 6"
        )
        hooi_main(["--parameter-file", _write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert "rank-adaptive HOSI-DT" in out
        assert "truncated to (4, 4, 4, 4)" in out
        assert "Converged: True" in out

    def test_bad_svd_method(self, tmp_path):
        cfg = HOOI_CFG.format(
            dt="true", adapt=0.0, iters=2, svd=7, dranks="4 4 4 4"
        )
        with pytest.raises(ConfigError):
            hooi_main(["--parameter-file", _write(tmp_path, cfg)])

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError):
            hooi_main(
                ["--parameter-file", _write(tmp_path, "Noise = 0.1\n")]
            )


# Small fixed-rank configs for the (real multi-process) checkpoint path.
MP_HOOI_CFG = """
Print options = false
Print timings = false
Dimension Tree Memoization = true
Noise = 0.0001
HOOI-Adapt Threshold = 0.0
HOOI max iters = 2
SVD Method = 0
Processor grid dims = 2 1 1
Global dims = 10 9 8
Construction Ranks = 3 3 2
Decomposition Ranks = 3 3 2
"""

MP_STHOSVD_CFG = """
Print options = false
Print timings = false
Noise = 0.0001
SV Threshold = 0.0
Processor grid dims = 2 1 1
Global dims = 10 9 8
Ranks = 3 3 2
"""


def _final_error(out: str) -> str:
    m = re.search(r"Final relative error: (\S+)", out)
    assert m, out
    return m.group(1)


class TestCheckpointResumeCLI:
    def test_hooi_checkpoint_then_resume(self, tmp_path, capsys):
        pfile = _write(tmp_path, MP_HOOI_CFG)
        ckdir = tmp_path / "ck"
        rc = main(
            ["hooi", "--parameter-file", pfile, "--checkpoint-dir", str(ckdir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Checkpointing to" in out
        assert (ckdir / "checkpoint.npz").exists()
        assert (ckdir / "parameters.cfg").read_text() == MP_HOOI_CFG
        err_run = _final_error(out)

        rc = main(["resume", str(ckdir / "checkpoint.npz")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Resuming mp_hooi_dt" in out
        assert _final_error(out) == err_run

    def test_sthosvd_checkpoint_then_resume(self, tmp_path, capsys):
        pfile = _write(tmp_path, MP_STHOSVD_CFG)
        ckdir = tmp_path / "ck"
        rc = main(
            [
                "sthosvd",
                "--parameter-file",
                pfile,
                "--checkpoint-dir",
                str(ckdir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Running STHOSVD on 2 processes" in out
        err_run = _final_error(out)

        rc = main(["resume", str(ckdir / "checkpoint.npz")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Resuming mp_sthosvd" in out
        assert _final_error(out) == err_run

    def test_checkpoint_dir_parameter_key(self, tmp_path, capsys):
        ckdir = tmp_path / "from-params"
        cfg = MP_HOOI_CFG + f"Checkpoint dir = {ckdir}\n"
        rc = hooi_main(["--parameter-file", _write(tmp_path, cfg)])
        assert rc == 0
        assert (ckdir / "checkpoint.npz").exists()
        capsys.readouterr()

    def test_resume_without_parameter_snapshot(self, tmp_path, capsys):
        pfile = _write(tmp_path, MP_HOOI_CFG)
        ckdir = tmp_path / "ck"
        main(
            ["hooi", "--parameter-file", pfile, "--checkpoint-dir", str(ckdir)]
        )
        capsys.readouterr()
        (ckdir / "parameters.cfg").unlink()
        assert main(["resume", str(ckdir / "checkpoint.npz")]) == 2
        (error,) = capsys.readouterr().err.strip().splitlines()
        assert error.startswith("repro resume: error:")
        assert "no parameter file" in error


# HOSI-DT on 2 processes; with a threshold and ranks 2 2 2 it grows
# once, so its first sweep is checkpointed.
MP_HOSI_CFG = """
Print options = false
Dimension Tree Memoization = true
Noise = 0.0001
HOOI-Adapt Threshold = {adapt}
HOOI max iters = 4
SVD Method = 2
Processor grid dims = {grid}
Processors = 2
Global dims = 12 10 8
Construction Ranks = 3 3 2
Decomposition Ranks = {dranks}
"""


def _history(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("iteration")]


class TestOneRequestPerFile:
    """Every subcommand reads a parameter file the same way."""

    @pytest.mark.parametrize("dranks", ["2 2 2", "auto"])
    def test_run_hooi_is_rank_adaptive(self, tmp_path, capsys, dranks):
        pfile = _write(
            tmp_path, MP_HOSI_CFG.format(adapt=5e-4, grid="2 1 1", dranks=dranks)
        )
        ckdir = str(tmp_path / "ck")
        assert main(
            ["hooi", "--parameter-file", pfile, "--checkpoint-dir", ckdir]
        ) == 0
        want = capsys.readouterr().out
        assert main(["run", "--algorithm", "hooi", "--parameter-file", pfile]) == 0
        out = capsys.readouterr().out
        assert "Converged: True" in out
        assert _history(out) == _history(want)
        assert _final_error(out) == _final_error(want)

    def test_run_sthosvd_prints_one_answer_on_both_wires(
        self, tmp_path, capsys
    ):
        # Mode 0 is split over 2 ranks, so its Gram runs the all-to-all
        # relayout; only the header's backend names the wire.
        cfg = MP_STHOSVD_CFG.replace("SV Threshold = 0.0", "SV Threshold = 1e-3")
        pfile = _write(tmp_path, cfg)
        outs = {}
        for wire in ("tcp", "shm"):
            argv = ["run", "--backend", wire, "--algorithm", "sthosvd"]
            assert main([*argv, "--parameter-file", pfile]) == 0
            out = capsys.readouterr().out
            assert f"(2x1x1 grid, {wire} backend)" in out
            outs[wire] = out.replace(f" {wire} backend)", " backend)")
        assert "Final relative error:" in outs["shm"]
        assert outs["tcp"] == outs["shm"]

    def test_auto_grid_checkpoint_then_resume(self, tmp_path, capsys):
        cfg = MP_HOOI_CFG.replace(
            "Processor grid dims = 2 1 1",
            "Processor grid dims = auto\nProcessors = 2",
        )
        pfile = _write(tmp_path, cfg)
        ckdir = tmp_path / "ck"
        rc = main(
            ["hooi", "--parameter-file", pfile, "--checkpoint-dir", str(ckdir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Auto-tuned grid for hooi-dt at P=2" in out
        err_run = _final_error(out)

        assert main(["resume", str(ckdir / "checkpoint.npz")]) == 0
        out = capsys.readouterr().out
        assert "Resuming mp_hooi_dt" in out
        assert _final_error(out) == err_run

    @pytest.mark.parametrize(
        "written, resumed",
        [(5e-4, 0.0), (0.0, 5e-4)],
        ids=["mp_rahosi_dt-without-threshold", "mp_hooi_dt-with-threshold"],
    )
    def test_resume_refuses_other_hooi_driver(
        self, tmp_path, capsys, written, resumed
    ):
        pfile = _write(
            tmp_path, MP_HOSI_CFG.format(adapt=written, grid="2 1 1", dranks="2 2 2")
        )
        ckdir = tmp_path / "ck"
        main(["hooi", "--parameter-file", pfile, "--checkpoint-dir", str(ckdir)])
        capsys.readouterr()
        other = _write(
            tmp_path,
            MP_HOSI_CFG.format(adapt=resumed, grid="2 1 1", dranks="2 2 2"),
            name="other.cfg",
        )
        rc = main(
            ["resume", str(ckdir / "checkpoint.npz"), "--parameter-file", other]
        )
        assert rc == 2
        (error,) = capsys.readouterr().err.strip().splitlines()
        assert error.startswith("repro resume: error:")
        assert "HOOI-Adapt Threshold" in error

    def test_prof_with_auto_grid_and_ranks(self, tmp_path, capsys):
        pfile = _write(
            tmp_path, MP_HOSI_CFG.format(adapt=5e-4, grid="auto", dranks="auto")
        )
        trace_out = tmp_path / "trace.json"
        rc = main(
            [
                "prof", "hooi", "--parameter-file", pfile,
                "--trace-out", str(trace_out),
                "--metrics-out", str(tmp_path / "metrics.json"),
                "--report",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        trace = json.loads(trace_out.read_text())
        validate_chrome_trace(trace)
        lanes = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert lanes == {0, 1}
        assert parse_attribution_report(out)

    def test_top_logs_one_final_record_per_rank(self, tmp_path, capsys):
        pfile = _write(tmp_path, MP_HOOI_CFG)
        jsonl = tmp_path / "top.jsonl"
        rc = main(
            [
                "top", "hooi", "--parameter-file", pfile, "--no-ui",
                "--interval", "0.2", "--jsonl", str(jsonl),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        counts = validate_telemetry_jsonl(jsonl.read_text().splitlines())
        assert counts["final"] == 2


class TestRunFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--np", "3", "--parameter-file", "{pfile}"], "--np"),
            (["--smoke", "--parameter-file", "{pfile}"], "--parameter-file"),
            (["--smoke", "--algorithm", "hooi"], "--algorithm"),
        ],
        ids=["np-without-smoke", "smoke-with-file", "smoke-with-algorithm"],
    )
    def test_ignored_flag_is_rejected(self, tmp_path, capsys, argv, flag):
        pfile = _write(tmp_path, MP_STHOSVD_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["run", *(a.format(pfile=pfile) for a in argv)])
        assert exc.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith("repro run: error:")
        assert flag in error

    def test_smoke_defaults_to_two_ranks(self, capsys):
        assert main(["run", "--smoke"]) == 0
        assert "smoke ok: 2 ranks" in capsys.readouterr().out


class TestUmbrellaDispatcher:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["-h"]) == 0
        assert "usage: repro" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--parameter-file", "{pfile}"],
            ["sthosvd", "--parameter-file", "{pfile}"],
        ],
        ids=["run", "sthosvd"],
    )
    def test_bad_parameter_file_is_one_line(self, tmp_path, capsys, argv):
        no_ranks = MP_STHOSVD_CFG.replace("Ranks = 3 3 2\n", "")
        pfile = _write(tmp_path, no_ranks)
        assert main([a.format(pfile=pfile) for a in argv]) == 2
        captured = capsys.readouterr()
        (error,) = captured.err.strip().splitlines()
        assert error == (
            f"repro {argv[0]}: error: missing required parameter 'ranks'"
        )
        assert "Traceback" not in captured.out + captured.err

    def test_missing_parameter_file_is_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.cfg")
        assert main(["sthosvd", "--parameter-file", missing]) == 2
        (error,) = capsys.readouterr().err.strip().splitlines()
        assert error.startswith("repro sthosvd: error:")
        assert "absent.cfg" in error

    def test_sthosvd_script_reports_bad_file(self, tmp_path, capsys):
        no_ranks = STHOSVD_CFG.replace("Ranks = 4 4 4 4\n", "")
        pfile = _write(tmp_path, no_ranks)
        assert sthosvd_script(["--parameter-file", pfile]) == 2
        captured = capsys.readouterr()
        (error,) = captured.err.strip().splitlines()
        assert error == (
            "repro-sthosvd: error: missing required parameter 'ranks'"
        )
        assert "Traceback" not in captured.out + captured.err

    def test_hooi_script_reports_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.cfg")
        assert hooi_script(["--parameter-file", missing]) == 2
        (error,) = capsys.readouterr().err.strip().splitlines()
        assert error.startswith("repro-hooi: error:")
        assert "absent.cfg" in error
