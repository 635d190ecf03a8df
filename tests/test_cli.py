import argparse
import errno
import functools
import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import longwalk
from longwalk import cli, experiments, numkit, ring, svgplot
from longwalk.svgplot import SvgPlot

# children run in tmp_path, so a relative PYTHONPATH would not find the package;
# a RuntimeWarning fails a child as pyproject's filterwarnings fails a test
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(longwalk.__file__).resolve().parent.parent),
               PYTHONWARNINGS="error::RuntimeWarning")


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "longwalk.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=CLI_ENV,
    )


def subcommand_flags(command):
    """The dests of a subcommand's flags, without the output settings and
    the flag that picks the experiment or protocol."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [a.dest for a in sub._actions if a.option_strings and a.dest not in
            ("help", "out_dir", "reproducible", "experiment", "protocol")]


def option(dest):
    return "--" + dest.replace("_", "-")


# which flags each experiment and protocol reads (README, "CLI")
SWEEP_READS = {
    "fig2a": {"d", "alpha_minus_d", "l", "g_min", "g_max", "g_points"},
    "fig2bcd": {"d", "alpha_minus_d", "l_min", "l_max"},
    "figS2a": {"L", "alpha", "g_min", "g_max", "g_points"},
    "figS2b": {"alpha"},
    "figS2c": {"alpha"},
    "figS3": {"alpha"},
}
TRANSFER_READS = {
    "chain": {"d", "alpha", "l", "epsilon", "g"},
    "uniform": {"d", "alpha", "L"},
    "ring": {"d", "alpha", "L", "g"},
}
# runs that read all they are given; --g is dropped where --epsilon is added,
# because the two exclude each other
TRANSFER_BASE = {
    "chain": {"alpha": "1.2", "l": "8"},
    "uniform": {"alpha": "0", "L": "4"},
    "ring": {"alpha": "1", "L": "8", "g": "0.02"},
}
FLAG_VALUES = {"d": "2", "alpha": "1.0", "alpha_minus_d": "0.1", "l": "8", "l_min": "4",
               "l_max": "8", "L": "8", "g_min": "0.1", "g_max": "1", "g_points": "3",
               "epsilon": "0.1", "g": "0.01"}
UNREAD = (
    [("sweep", e, f) for e, reads in SWEEP_READS.items()
     for f in subcommand_flags("sweep") if f not in reads]
    + [("transfer", p, f) for p, reads in TRANSFER_READS.items()
       for f in subcommand_flags("transfer") if f not in reads]
)


class TestChainSpectrumCommand:
    def test_uniform_l2_csv(self, tmp_path):
        res = run_cli(
            ["chain-spectrum", "--d", "1", "--alpha", "1", "--l", "2",
             "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        csv = (tmp_path / "chain_spectrum_d1_a1_l2.csv").read_text().splitlines()
        assert csv[0].startswith("# schema: longwalk.chain-spectrum.v1")
        assert csv[1] == "k,E_k,t_k_0,parity"
        energies = [float(line.split(",")[1]) for line in csv[2:]]
        np.testing.assert_allclose(
            energies, [np.sqrt(3), 1, 0, -1, -np.sqrt(3)], atol=1e-12
        )
        payload = json.loads((tmp_path / "chain_spectrum_d1_a1_l2.json").read_text())
        assert abs(payload["Q"] ** 2 - 5 / 3) <= 1e-10
        assert payload["L"] == 10

    def test_help_names_every_json_key(self, tmp_path, capsys):
        assert cli.main(["chain-spectrum", "--d", "1", "--alpha", "0.8", "--l", "8",
                         "--out-dir", str(tmp_path)]) == 0
        keys = set(json.loads((tmp_path / "chain_spectrum_d1_a0.8_l8.json").read_text()))
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main(["chain-spectrum", "--help"])
        named = re.findall(r"\w+", capsys.readouterr().out.split("JSON:")[1])
        assert keys - {"manifest"} <= set(named), keys - set(named)

    def test_missing_flag_usage_error(self, tmp_path):
        # the driver's signature decides, as for every other command: exit 3
        res = run_cli(["chain-spectrum", "--d", "1", "--alpha", "1"], cwd=tmp_path)
        assert res.returncode == 3
        assert res.stderr == "error: chain-spectrum requires --l\n"

    def test_precision_guard_exit_3(self, tmp_path):
        # the guard binds the dense exact transfer only
        res = run_cli(
            ["transfer", "--protocol", "chain", "--d", "3", "--alpha", "1.5", "--l", "60",
             "--out-dir", str(tmp_path / "out")], cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "maximal admissible l is 28" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_spectrum_past_the_guard(self, tmp_path):
        # dqds and interlacing keep each value's relative accuracy past the
        # guard; the weights they cannot resolve read 0 and are counted
        res = run_cli(
            ["chain-spectrum", "--d", "3", "--alpha", "1.5", "--l", "60",
             "--out-dir", str(tmp_path), "--reproducible"], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "chain_spectrum_d3_a1.5_l60.json").read_text())
        rows = (tmp_path / "chain_spectrum_d3_a1.5_l60.csv").read_text().splitlines()[2:]
        zeros = sum(float(row.split(",")[2]) == 0.0 for row in rows)
        assert payload["unresolved_weights"] == zeros > 0  # 108 of 121 on AVX2 and AVX-512


class TestTransferCommand:
    def test_uniform_protocol(self, tmp_path):
        res = run_cli(
            ["transfer", "--protocol", "uniform", "--d", "1", "--alpha", "0",
             "--L", "4", "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "transfer_uniform.json").read_text())
        assert payload["fidelity_exact"] >= 1 - 1e-9
        assert abs(payload["T"] - np.pi / 2) <= 1e-12

    def test_chain_protocol_meets_target(self, tmp_path):
        res = run_cli(
            ["transfer", "--protocol", "chain", "--d", "1", "--alpha", "1.2",
             "--l", "24", "--epsilon", "0.01", "--out-dir", str(tmp_path)],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "transfer_chain.json").read_text())
        assert payload["infidelity_exact"] <= 0.01
        assert payload["bound_conditions_met"] == [True, True]

    # at L = 4096 (d=1), L = 64 (d=2) and L = 24 (d=3) the (N+2) site matrix
    # would exceed numkit.DENSE_DIM_CAP; the folded parity sectors do not
    @pytest.mark.parametrize("d, L", [(1, 100), (1, 4096), (2, 64), (3, 8), (3, 24)])
    def test_ring_protocol_reports_both(self, tmp_path, d, L):
        res = run_cli(
            ["transfer", "--protocol", "ring", "--d", str(d), "--alpha", "1",
             "--L", str(L), "--g", "0.02", "--out-dir", str(tmp_path)],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "transfer_ring.json").read_text())
        assert "infidelity_exact" in payload and "infidelity_perturbative" in payload
        # 2S is an envelope: the ring's report makes no validity claim
        assert "infidelity_envelope" in payload and "bound_conditions_met" not in payload
        rel = abs(payload["infidelity_exact"] - payload["infidelity_perturbative"])
        assert rel <= 0.2 * payload["infidelity_exact"]

    def test_regime_mismatch_exit_2(self, tmp_path):
        res = run_cli(
            ["transfer", "--protocol", "chain", "--d", "1", "--alpha", "0.2",
             "--l", "8", "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 2

    def test_uniform_two_sites_exit_3(self, tmp_path):
        # N = 2 leaves no middle site: T would be infinite and the JSON invalid
        res = run_cli(
            ["transfer", "--protocol", "uniform", "--d", "1", "--alpha", "0",
             "--L", "2", "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "N = L^d >= 3" in res.stderr
        assert not (tmp_path / "transfer_uniform.json").exists()

    def test_ring_past_exact_limit_exit_3(self, tmp_path):
        res = run_cli(
            ["transfer", "--protocol", "ring", "--d", "1", "--alpha", "1",
             "--L", "16380", "--g", "0.02", "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "ring d=1 L=16380" in res.stderr and "largest exact size is L=16378" in res.stderr

    @pytest.mark.parametrize("d, L, largest", [(3, 70, 68), (1, 10**9, 16378)])
    def test_ring_size_error_names_largest_exact_size(self, tmp_path, capsys, d, L, largest):
        # (d, L) alone decide the check: no array of size L, no spectrum
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = cli.main(["transfer", "--protocol", "ring", "--d", str(d), "--alpha", "1",
                             "--L", str(L), "--g", "0.02", "--out-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert f"ring d={d} L={L}:" in err and f"largest exact size is L={largest}" in err
        assert peak < 2**25
        assert not out.exists()

    @pytest.mark.parametrize("protocol, flags, missing", [
        ("chain", ["--alpha", "1.2"], "--l"),
        ("ring", ["--alpha", "1", "--L", "100"], "--g"),
        ("ring", ["--L", "100", "--g", "0.02"], "--alpha"),
    ])
    def test_required_flag_missing_exit_3(self, tmp_path, capsys, protocol, flags, missing):
        out = tmp_path / "out"
        argv = ["transfer", "--protocol", protocol, *flags, "--out-dir", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"error: --protocol {protocol} requires {missing}\n"
        assert not out.exists()

    def test_g_and_epsilon_exclude_each_other(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transfer", "--protocol", "chain", "--alpha", "1.2", "--l", "24",
                      "--g", "0.001", "--epsilon", "0.3", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uniform_regime_mismatch_exit_2(self, tmp_path):
        res = run_cli(
            ["transfer", "--protocol", "uniform", "--d", "1", "--alpha", "0.8",
             "--L", "10", "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 2

    @pytest.mark.parametrize("argv, code, message", [
        (["transfer", "--protocol", "ring", "--alpha", "1", "--L", "100", "--g", "inf"], 3,
         "g must be positive and finite"),
        (["transfer", "--protocol", "ring", "--alpha", "nan", "--L", "100", "--g", "0.02"], 3,
         "alpha must be >= 0"),
        (["transfer", "--protocol", "chain", "--alpha", "1.2", "--l", "8", "--g", "inf"], 3,
         "coupling g must be positive and finite"),
        (["transfer", "--protocol", "ring", "--alpha", "1", "--L", "100", "--g", "1e300"], 4,
         "mu overflows"),
        (["transfer", "--protocol", "uniform", "--alpha", "nan", "--L", "8"], 3,
         "alpha must be finite, got nan"),
        (["chain-spectrum", "--d", "1", "--alpha", "inf", "--l", "8"], 3,
         "alpha must be finite and >= 0, got inf"),
        (["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "nan"], 3,
         "alpha must be >= 0, got nan"),
        (["transfer", "--protocol", "chain", "--d", "1", "--alpha", "1.2", "--l", "8",
          "--g", "1e300"], 4, "overflows at g=1e+300"),
        # Omega_res underflows to 0, so T = pi / Omega_res overflows
        (["transfer", "--protocol", "chain", "--d", "1", "--alpha", "1.2", "--l", "24",
          "--g", "5e-324"], 4, "the transfer time overflows at g=5e-324"),
        (["transfer", "--protocol", "ring", "--d", "1", "--alpha", "1", "--L", "100",
          "--g", "5e-324"], 4, "the transfer time overflows at g=5e-324"),
    ])
    def test_non_finite_exits(self, tmp_path, capsys, argv, code, message):
        # a non-finite input is a domain error (3), a non-finite result from
        # finite input a numerical failure (4); neither writes NaN to a file
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--protocol", "chain", "--alpha", "1.2", "--l", "24", "--epsilon", "1e-300"],
        ["--protocol", "chain", "--alpha", "1.2", "--l", "24", "--g", "1e-300"],
        ["--protocol", "ring", "--d", "1", "--alpha", "1", "--L", "100", "--g", "1e-300"],
    ])
    def test_phase_without_a_correct_digit_exit_4(self, tmp_path, capsys, argv):
        # T is so long that eps * max|E| * T >= 1: E T keeps no digit of the
        # phase, so the fidelity would be noise reported as a result
        out = tmp_path / "out"
        assert cli.main(["transfer", *argv, "--out-dir", str(out)]) == 4
        assert "no correct digit" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_site_solve_exit_4(self, tmp_path, monkeypatch, capsys):
        # LAPACK's dstevd reports a nonzero info: no transfer, no files
        monkeypatch.setattr(numkit, "_dstevd", lambda: lambda *args: 1)
        out = tmp_path / "out"
        argv = ["transfer", "--protocol", "chain", "--alpha", "1.2", "--l", "24",
                "--out-dir", str(out)]
        assert cli.main(argv) == 4
        assert "dstevd failed with info=1" in capsys.readouterr().err
        assert not out.exists()

    def test_ring_nearest_neighbour_limit(self, tmp_path, capsys):
        # alpha = inf keeps only the nearest-neighbour bonds
        out = tmp_path / "out"
        argv = ["transfer", "--protocol", "ring", "--alpha", "inf", "--L", "100", "--g", "0.02"]
        assert cli.main([*argv, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "transfer_ring.json").read_text())
        assert 0.0 <= payload["fidelity_exact"] <= 1.0


class TestOutputFailures:
    """An output that cannot be written exits 5, a MemoryError 6: one line on
    stderr, no traceback, and no output file left behind."""

    RING = ["transfer", "--protocol", "ring", "--alpha", "1", "--L", "100", "--g", "0.02"]

    def test_out_dir_that_cannot_be_a_directory_exit_5(self, tmp_path, capsys, monkeypatch):
        # --out-dir under a regular file is refused before the driver runs
        calls, transfer = [], ring.ring_exact_transfer

        @functools.wraps(transfer)
        def recording(*args, **kwargs):
            calls.append(args)
            return transfer(*args, **kwargs)

        monkeypatch.setattr(ring, "ring_exact_transfer", recording)
        (tmp_path / "F").write_text("")
        assert cli.main([*self.RING, "--out-dir", str(tmp_path / "F" / "x")]) == 5
        out, err = capsys.readouterr()
        assert err.startswith("cannot write outputs: ") and "Not a directory" in err
        assert err.count("\n") == 1 and "Traceback" not in err and out == ""
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["F"]

    def test_a_failed_write_leaves_no_output_exit_5(self, tmp_path, capsys, monkeypatch):
        # the CSVs and the SVG are written, then the report fails: they are
        # removed, and so is the directory the run created, but nothing else
        (tmp_path / "keep.txt").write_text("not an output")

        def full(path, payload):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(cli, "write_json", full)
        for out in (tmp_path / "new" / "out", tmp_path):
            argv = ["sweep", "--experiment", "figS3", "--alpha", "1", "--out-dir", str(out)]
            assert cli.main(argv) == 5
            err = capsys.readouterr().err
            assert err.startswith("cannot write outputs: [Errno 28] No space left on device")
            assert err.count("\n") == 1 and "Traceback" not in err
            assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]

    def test_memory_error_exit_6(self, tmp_path, capsys, monkeypatch):
        transfer = ring.ring_exact_transfer

        message = "Unable to allocate 7.3 GiB for an array with shape (20000, 8190)"

        @functools.wraps(transfer)
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(ring, "ring_exact_transfer", exhausted)
        out = tmp_path / "out"
        assert cli.main([*self.RING, "--out-dir", str(out)]) == 6
        assert capsys.readouterr().err == f"out of memory: {message}\n"
        assert not out.exists()


def run_argv(run):
    """The argv that picks a run: chain-spectrum, a transfer protocol or a sweep."""
    if run == "chain-spectrum":
        return [run]
    return ["transfer", "--protocol", run] if run in TRANSFER_READS else [
        "sweep", "--experiment", run]


class TestSweepCommand:
    @pytest.mark.parametrize("run,extra", [
        ("fig2bcd", ["--alpha-minus-d", "0.2", "--l-max", "24"]),
        ("figS3", ["--alpha", "1"]),
        ("fig2a", []),
        ("figS2a", []),
        ("figS2b", ["--alpha", "1.0"]),
        ("figS2c", ["--alpha", "1.0"]),
        # panels b and c, whose semilog axis comes from the regime
        ("fig2bcd", ["--alpha-minus-d", "-0.2"]),
        ("fig2bcd", ["--alpha-minus-d", "0"]),
        # the other commands run through the same writer
        ("chain-spectrum", ["--d", "1", "--alpha", "1", "--l", "24"]),
        ("chain", ["--d", "1", "--alpha", "1.2", "--l", "24", "--epsilon", "0.01"]),
        ("uniform", ["--d", "1", "--alpha", "0", "--L", "4"]),
        ("ring", ["--d", "1", "--alpha", "1", "--L", "100", "--g", "0.02"]),
    ])
    def test_reproducible_outputs_byte_identical(self, tmp_path, run, extra):
        # identical flags (same relative out-dir) run from two scratch roots
        roots = (tmp_path / "run1", tmp_path / "run2")
        for root in roots:
            root.mkdir()
            res = run_cli(
                [*run_argv(run), *extra, "--out-dir", "out", "--reproducible"], cwd=root,
            )
            assert res.returncode == 0, res.stderr
        d1, d2 = roots[0] / "out", roots[1] / "out"
        files1 = sorted(p.name for p in d1.iterdir())
        assert files1 == sorted(p.name for p in d2.iterdir())
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    @pytest.mark.parametrize("experiment", ["figS2b", "figS2c"])
    def test_nearest_neighbour_q2_sweep_plots_no_point(self, tmp_path, capsys, experiment):
        # alpha = inf has no finite x to plot: the SVG is an empty frame
        # that says so, and the CSV and JSON are written as usual
        argv = ["sweep", "--experiment", experiment, "--alpha", "inf", "--reproducible"]
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / f"{experiment}.csv").read_text().splitlines()
        assert rows[1] == "alpha,exponent,target,passed" and rows[2].startswith("inf,")
        report = json.loads((tmp_path / f"{experiment}_report.json").read_text())
        assert "manifest" in report
        svg = (tmp_path / f"{experiment}.svg").read_text()
        assert "2 points left out" in svg and "<circle" not in svg

    def test_q2_report_carries_fit_diagnostics(self, tmp_path):
        # each report entry names the correction terms its fit took, as
        # [b, k] pairs for L^-b / ln^k L; the CSV keeps its columns
        argv = ["sweep", "--experiment", "figS2b", "--reproducible", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        rows = (tmp_path / "figS2b.csv").read_text().splitlines()
        assert rows[1] == "alpha,exponent,target,passed"
        results = json.loads((tmp_path / "figS2b_report.json").read_text())["results"]
        assert [r["alpha"] for r in results] == list(experiments.RING_1D_ALPHAS)
        for r in results:
            assert sorted(r) == ["alpha", "corrections", "error", "exponent", "passed", "target"]
            terms = experiments.ring_q2_target(1, r["alpha"])[1]
            assert r["corrections"] == [list(term) for term in terms]

    def test_fig2bcd_slope_report(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "0.2",
             "--out-dir", str(tmp_path), "--reproducible"], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "fig2bcd_report.json").read_text())
        assert abs(payload["slope"] - 0.2) <= 0.03
        assert payload["saturation"]["passed"] is True
        assert "manifest" in payload and "timestamp" not in payload["manifest"]
        assert "warnings" not in payload
        assert "warning" not in res.stdout

    def test_fig2bcd_nearest_neighbor_verdict(self, tmp_path, capsys):
        # alpha >= d+1 is outside the sweeps' scope: a run with no pass flag
        argv = ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "1.5",
                "--out-dir", str(tmp_path), "--reproducible"]
        assert cli.main(argv) == 0
        assert ("saturation [nearest-neighbor]: nearest-neighbor regime: outside sweep scope\n"
                in capsys.readouterr().out)
        sat = json.loads((tmp_path / "fig2bcd_report.json").read_text())["saturation"]
        assert sat["tolerance"] is None and sat["passed"] is None

    def test_fig2bcd_writes_depths_past_the_guard(self, tmp_path):
        # at alpha = 1.8 the precision guard admits l <= 52 only, for the
        # dense exact transfer; Q needs none, so all 39 depths 4, 6, ..., 80
        # are written
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "0.8",
             "--l-max", "80", "--out-dir", str(tmp_path), "--reproducible"], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        rows = (tmp_path / "fig2d_delta0.8.csv").read_text().splitlines()[2:]
        sizes = [float(row.split(",")[0]) for row in rows]
        assert sizes == [3.0 * 2**l - 2 for l in range(4, 81, 2)]
        assert "warnings" not in json.loads((tmp_path / "fig2bcd_report.json").read_text())
        assert "warning" not in res.stdout

    def test_fig2bcd_past_the_float_range_exit_3(self, tmp_path):
        # L = 3 2^l - 2 overflows a float above l = 1022
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "0.5",
             "--l-max", "1024", "--out-dir", str(tmp_path / "out")], cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "2 <= l <= 1022 for d=1, alpha=1.5" in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bounds, named", [
        (["--l-min", "9", "--l-max", "20"], "l_min=9: l must be even with 2 <= l <= 1022"),
        (["--l-max", "1024"], "l_max=1024: l must be even with 2 <= l <= 1022"),
        (["--l-min", "40", "--l-max", "20"], "no depths in [40, 20]")],
        ids=["odd-l-min", "l-max-past-the-float-range", "empty-range"])
    def test_fig2bcd_names_the_depth_bound_at_fault(self, tmp_path, bounds, named):
        # both bounds are checked before any chain is built; the first chain
        # that failed named only its depth ("got 9", "got 1024")
        res = run_cli(["sweep", "--experiment", "fig2bcd", *bounds,
                       "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
        assert res.returncode == 3
        # alpha=1.2 ends the message or is followed by more
        assert f"error: {named} for d=1, alpha=1.2 " in res.stderr.replace("\n", " ")
        assert not (tmp_path / "out").exists()

    def test_figs3_bandwidth_log_fit(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "figS3", "--alpha", "1",
             "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "figS3_report.json").read_text())
        entry = payload["results"][0]
        assert entry["bandwidth_log_r2"] >= 0.99
        assert entry["delta0_ok"] is True
        assert "timestamp" in payload["manifest"]

    def test_one_timestamp_per_run(self, tmp_path, capsys):
        # without --reproducible the manifest and the SVG comment carry the
        # one stamp the run takes
        assert cli.main(["sweep", "--experiment", "figS3", "--alpha", "1",
                         "--out-dir", str(tmp_path)]) == 0
        stamp = json.loads((tmp_path / "figS3_report.json").read_text())["manifest"]["timestamp"]
        assert f"<!-- generated {stamp} -->" in (tmp_path / "figS3.svg").read_text()

    def test_unknown_experiment_exit_2(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "fig9z", "--out-dir", str(tmp_path)],
            cwd=tmp_path,
        )
        assert res.returncode == 2

    @staticmethod
    def one_unresolved_point(experiment, evaluator, g, args, monkeypatch, tmp_path, capsys):
        # the point has no relative deviation, so it is counted in the report
        # instead of divided by (which wrote Infinity, no JSON, and failed the
        # verdict).  The numkit evaluator the sweep ends in returns a unit
        # amplitude, so 1 - F is 0.0 exactly on every CPU's code paths, where
        # a g that rounds 1 - F to 0 does so only on some
        monkeypatch.setattr(numkit, evaluator, lambda *args: np.ones(np.shape(args[-1]), complex))
        argv = ["sweep", "--experiment", experiment, *args, "--g-min", g, "--g-max", g,
                "--g-points", "1", "--reproducible", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        row = (tmp_path / f"{experiment}.csv").read_text().splitlines()[2].split(",")
        assert float(row[1]) == 0.0 and float(row[2]) > 0.0

        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        report = json.loads((tmp_path / f"{experiment}_report.json").read_text(),
                            parse_constant=no_constant)
        assert report["unresolved_exact_points"] == 1
        assert report["max_relative_deviation"] == 0.0 and report["relative_ok"] is True
        assert f"{experiment} relative_ok: PASS" in capsys.readouterr().out

    def test_figs2a_counts_an_exact_infidelity_of_zero(self, monkeypatch, tmp_path, capsys):
        # the ring's amplitude is endpoint_amplitude's
        self.one_unresolved_point("figS2a", "endpoint_amplitude", "0.1", [], monkeypatch,
                                  tmp_path, capsys)

    def test_fig2a_counts_an_exact_infidelity_of_zero(self, monkeypatch, tmp_path, capsys):
        # the chain's is spectral_amplitude's, on its site matrices' spectra
        self.one_unresolved_point("fig2a", "spectral_amplitude", "0.001", ["--l", "8"],
                                  monkeypatch, tmp_path, capsys)

    def test_fig2a_two_curve_csv(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "fig2a", "--out-dir", str(tmp_path),
             "--reproducible"], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "fig2a.csv").read_text().splitlines()
        assert lines[1].startswith("g,eps_exact,eps_perturbative")
        assert len(lines) - 2 >= 30
        payload = json.loads((tmp_path / "fig2a_report.json").read_text())
        assert payload["relative_ok"] is True
        assert payload["envelope_ok"] is True
        assert (tmp_path / "fig2a.svg").read_text().startswith("<svg")

    def test_fig2a_past_the_guard_exit_3(self, tmp_path, capsys):
        # its spectrum runs at l = 300; the dense exact transfer stops at 210
        out = tmp_path / "out"
        assert cli.main(["sweep", "--experiment", "fig2a", "--l", "300",
                         "--out-dir", str(out)]) == 3
        assert "maximal admissible l is 210" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_count_does_not_change_output(self, tmp_path):
        # figS3's per-alpha fits, three at its default alphas, are the thread
        # pool's only work
        outs = {}
        for threads in ("1", "4"):
            env = dict(CLI_ENV, LONGWALK_THREADS=threads)
            sub = tmp_path / f"t{threads}"
            sub.mkdir()
            res = subprocess.run(
                [sys.executable, "-m", "longwalk.cli", "sweep", "--experiment",
                 "figS3", "--out-dir", "out", "--reproducible"],
                capture_output=True, text=True, cwd=sub, env=env,
            )
            assert res.returncode == 0, res.stderr
            outs[threads] = {p.name: p.read_bytes() for p in (sub / "out").iterdir()}
        assert {name for name in outs["1"] if name.endswith((".csv", ".json"))} == {
            f"figS3_alpha{alpha:g}.csv" for alpha in experiments.FIGS3_ALPHAS} | {
            "figS3_report.json"}
        assert outs["1"] == outs["4"]

    def test_serial_unless_threads_set(self, monkeypatch):
        monkeypatch.delenv("LONGWALK_THREADS", raising=False)
        assert experiments.thread_count() == 1
        monkeypatch.setenv("LONGWALK_THREADS", "3")
        assert experiments.thread_count() == 3

    def test_invalid_thread_count_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LONGWALK_THREADS", "abc")
        argv = ["sweep", "--experiment", "figS3", "--alpha", "1", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 3
        assert "LONGWALK_THREADS must be an integer, got 'abc'" in capsys.readouterr().err

    def test_numerical_failure_exit_4(self, monkeypatch):
        import numpy as np

        from longwalk import chain

        def boom(d, alpha, l):
            raise np.linalg.LinAlgError("synthetic solver breakdown")

        monkeypatch.setattr(chain, "build_effective_chain", boom)
        rc = cli.main(["chain-spectrum", "--d", "1", "--alpha", "1", "--l", "2"])
        assert rc == 4

    @pytest.mark.parametrize("flags, named", [
        (["--g-min", "0.001", "--g-max", "0.1", "--g-points", "0"], "--g-points"),
        (["--g-min", "0.001", "--g-max", "0.1", "--g-points", "-3"], "--g-points"),
        (["--g-min", "0", "--g-max", "0.1"], "--g-min"),
        (["--g-min", "0.001"], "--g-max"),
        (["--g-points", "5"], "--g-points"),
        # one point cannot span two bounds: --g-max would be dropped
        (["--g-min", "1e-3", "--g-max", "1e-2", "--g-points", "1"], "--g-points"),
    ])
    def test_malformed_g_grid_exit_3(self, tmp_path, flags, named):
        res = run_cli(
            ["sweep", "--experiment", "fig2a", *flags, "--out-dir", str(tmp_path)],
            cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert named in res.stderr

    def test_fig2bcd_below_half_d_exit_2(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "-0.6",
             "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "the chain protocol covers alpha >= d/2" in res.stderr

    @pytest.mark.parametrize("d, alpha, alpha_minus_d", [("1", "0.2", "-0.8"),
                                                         ("2", "0.8", "-1.2")])
    @pytest.mark.parametrize("run", ["transfer", "fig2a", "fig2bcd"])
    def test_chain_runs_refuse_alpha_below_half_d_alike(self, tmp_path, capsys, run, d, alpha,
                                                         alpha_minus_d):
        # one rule, scaling.chain_regime: exit 2 before any output is written
        out = tmp_path / "out"
        argv = (["transfer", "--protocol", "chain", "--alpha", alpha, "--l", "8"]
                if run == "transfer" else
                ["sweep", "--experiment", run, "--alpha-minus-d", alpha_minus_d])
        assert cli.main([*argv, "--d", d, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha=")
        assert err.endswith(" < d/2: the chain protocol covers alpha >= d/2\n")
        assert not out.exists()

    def test_fig2bcd_negative_alpha_exit_2(self, tmp_path):
        # alpha = -0.5 is below d/2 before it is below 0: a regime error, not a domain one
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "-1.5",
             "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 2
        assert res.stderr == "error: alpha=-0.5 < d/2: the chain protocol covers alpha >= d/2\n"

    @pytest.mark.parametrize("d", ["1", "2"])
    @pytest.mark.parametrize("delta", ["1e-17", "-1e-17"])
    def test_fig2bcd_alpha_minus_d_rounding_to_zero(self, tmp_path, d, delta):
        # d + delta == d: the run is the alpha - d = 0 run (panel c, semilog
        # plot, log verdict) under its own title
        for name, value in (("eps", delta), ("zero", "0")):
            res = run_cli(
                ["sweep", "--experiment", "fig2bcd", "--d", d, f"--alpha-minus-d={value}",
                 "--out-dir", name, "--reproducible"], cwd=tmp_path,
            )
            assert res.returncode == 0, res.stderr
        eps, zero = tmp_path / "eps", tmp_path / "zero"
        sat = json.loads((eps / "fig2bcd_report.json").read_text())["saturation"]
        assert sat["regime"] == "log" and sat["passed"] is True
        svg = (eps / f"fig2c_delta{delta}.svg").read_text()
        assert svg.replace(f"alpha - d = {delta}", "alpha - d = 0") == \
            (zero / "fig2c_delta0.svg").read_text()
        assert (eps / f"fig2c_delta{delta}.csv").read_bytes() == \
            (zero / "fig2c_delta0.csv").read_bytes()

    @pytest.mark.parametrize("d", ["1", "2"])
    def test_exponent_notation_negative_value(self, tmp_path, d):
        # "-1e-17" is a value, not an option name: same run as "--alpha-minus-d=-1e-17"
        for name, flags in (("space", ["--alpha-minus-d", "-1e-17"]),
                            ("equals", ["--alpha-minus-d=-1e-17"])):
            argv = ["sweep", "--experiment", "fig2bcd", "--d", d, *flags,
                    "--out-dir", str(tmp_path / name), "--reproducible"]
            assert cli.main(argv) == 0
        csv = "fig2c_delta-1e-17.csv"
        assert (tmp_path / "space" / csv).read_bytes() == (tmp_path / "equals" / csv).read_bytes()

    def test_fig2bcd_short_constant_grid_exit_3(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "-0.2", "--l-max", "10",
             "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "needs 5 admissible depths; [8, 10] has 2" in res.stderr

    @pytest.mark.parametrize("flag, delta", [("-0.3", 0.3), ("0", 0.0)])
    def test_fig2a_alpha_minus_d_is_alpha_minus_d(self, tmp_path, flag, delta):
        # delta is d - alpha, so --alpha-minus-d x means delta = -x
        res = run_cli(
            ["sweep", "--experiment", "fig2a", "--alpha-minus-d", flag,
             "--out-dir", str(tmp_path), "--reproducible"], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "fig2a.csv").read_text().splitlines()[2:]
        got = np.array([[float(v) for v in line.split(",")] for line in lines])
        ref = experiments.fig2a(alpha_minus_d=-delta)
        keys = ("g", "eps_exact", "eps_perturbative", "envelope", "bound", "bound_conditions")
        np.testing.assert_array_equal(got, np.column_stack([ref[k] for k in keys]))

    def test_manifest_lists_only_the_flags_given(self, tmp_path):
        argv = ["sweep", "--experiment", "fig2bcd", "--d", "1", "--alpha-minus-d", "0.5",
                "--l-max", "20", "--out-dir", str(tmp_path), "--reproducible"]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "fig2bcd_report.json").read_text())["manifest"]
        assert manifest["parameters"] == {
            "experiment": "fig2bcd", "d": 1, "alpha_minus_d": 0.5, "l_max": 20}

    def test_transfer_manifest_lists_only_the_flags_given(self, tmp_path):
        argv = ["transfer", "--protocol", "ring", "--alpha", "1", "--L", "100", "--g", "0.02",
                "--out-dir", str(tmp_path), "--reproducible"]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "transfer_ring.json").read_text())["manifest"]
        # --d is not given but has a parser default, so it is recorded
        assert manifest["parameters"] == {
            "protocol": "ring", "d": 1, "alpha": 1.0, "L": 100, "g": 0.02}

    def test_csv_17_digit_roundtrip(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "0.5",
             "--l-max", "20", "--out-dir", str(tmp_path), "--reproducible"],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        from longwalk import scaling

        series = scaling.q_scaling_sweep(1, 1.5, 4, 20)
        lines = (tmp_path / "fig2d_delta0.5.csv").read_text().splitlines()[2:]
        got = np.array([[float(v) for v in line.split(",")] for line in lines])
        # 17 significant digits round-trip float64 exactly
        np.testing.assert_array_equal(got[:, 0], series.sizes)
        np.testing.assert_array_equal(got[:, 1], series.values)


class TestFlagsRead:
    @pytest.mark.parametrize("command, choice, flag", UNREAD)
    def test_unread_flag_exit_3(self, tmp_path, capsys, command, choice, flag):
        if command == "sweep":
            argv = ["sweep", "--experiment", choice]
        else:
            base = dict(TRANSFER_BASE[choice])
            if flag == "epsilon":
                base.pop("g", None)
            argv = ["transfer", "--protocol", choice,
                    *(a for k, v in base.items() for a in (option(k), v))]
        out = tmp_path / "out"
        argv += [option(flag), FLAG_VALUES[flag], "--out-dir", str(out)]
        assert cli.main(argv) == 3
        assert f"does not read {option(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_sweep_flag_is_read_by_some_driver(self):
        drivers = [driver for driver, _ in cli._runs()["sweep"].values()]
        params = [inspect.signature(driver).parameters for driver in drivers]
        for flag in subcommand_flags("sweep"):
            name = "g_grid" if flag.startswith("g_") else flag
            assert any(name in p or (flag == "alpha" and "alphas" in p) for p in params), flag

    def test_every_transfer_flag_is_in_a_protocol_row(self):
        # each protocol's driver reads exactly its README row, and some driver reads each flag
        params = {p: set(inspect.signature(driver).parameters)
                  for p, (driver, _) in cli._runs()["transfer"].items()}
        assert params == TRANSFER_READS
        assert set(subcommand_flags("transfer")) == set().union(*params.values())


def readme_commands():
    """The ``longwalk ...`` lines of README's CLI code block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("longwalk ")]


class TestReadme:
    def test_cli_block_covers_every_command(self):
        assert {argv[0] for argv in readme_commands()} == {"chain-spectrum", "transfer", "sweep"}

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_command_runs(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out-dir", str(tmp_path), "--reproducible"]) == 0, \
            capsys.readouterr().err

    def test_readme_commands_never_import_scipy(self, tmp_path):
        # numpy alone serves the library: importing scipy.linalg would cost
        # the cold CLI about 215 ms and 27 MB
        script = (
            "import sys\n"
            "from longwalk import cli\n"
            f"for argv in {readme_commands()!r}:\n"
            f"    assert cli.main([*argv, '--out-dir', {str(tmp_path)!r}]) == 0, argv\n"
            "assert 'scipy' not in sys.modules\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             cwd=tmp_path, env=CLI_ENV)
        assert res.returncode == 0, res.stderr


class TestJsonWriter:
    def test_numpy_scalars_and_arrays_round_trip(self, tmp_path):
        from longwalk import cli

        # np.float64 subclasses float and never reaches the fallback; float32 does
        payload = {"i": np.int64(7), "f": np.float32(0.5), "b": np.bool_(True),
                   "a": np.array([[1, 2], [3, 4]])}
        path = tmp_path / "out.json"
        cli.write_json(path, payload)
        back = json.loads(path.read_text())
        assert back == {"i": 7, "f": 0.5, "b": True, "a": [[1, 2], [3, 4]]}
        assert type(back["i"]) is int and type(back["b"]) is bool

    def test_other_objects_raise_type_error(self, tmp_path):
        from longwalk import cli

        with pytest.raises(TypeError, match="not JSON serializable"):
            cli.write_json(tmp_path / "out.json", {"x": object()})


class TestSvgPlot:
    def test_left_out_points_are_counted(self):
        plot = SvgPlot("t", "x", "y", ylog=True)
        plot.add("a", [1.0, 2.0, 3.0, 4.0], [1.0, 0.0, np.nan, 2.0])
        plot.add("b", [np.inf], [1.0])
        svg = plot.render()
        assert "3 points left out" in svg
        assert svg.count("<polyline") == 2
        plot = SvgPlot("t", "x", "y", xlog=True)
        plot.add("a", [0.0], [1.0])
        assert "1 point left out" in plot.render()

    def test_zero_tick_has_no_sign(self):
        # ceil(-0.3 / 0.5) is -0.0: the first tick is zero, and reads "0"
        labels = [svgplot._fmt(t) for t in svgplot._ticks(-0.3, 2.0, False)]
        assert labels == ["0", "0.5", "1", "1.5", "2"]

    def test_a_plot_that_drops_nothing_has_no_note(self):
        plot = SvgPlot("t", "x", "y")
        plot.add("a", [1.0, 2.0], [0.0, -1.0])
        assert "left out" not in plot.render()

    @staticmethod
    def synthetic_plot(case):
        """Plots that reach each branch of render() that no CLI reference
        reaches: empty frames, the left-out note, a comment, every style and
        more series than colours."""
        xs, ys = [0.5, 1.0, 2.5, 4.0, 7.5], [-1.25, 0.5, 2.0, 1.5, 3.75]
        logs = dict(xlog=True, ylog=True)
        plot = SvgPlot(case, "x", "y", **(logs if "log" in case else {}))
        if case in ("linear", "comment"):
            plot.add("a", xs, ys)
        elif case == "log":
            plot.add("a", [1e-3, 0.02, 0.5, 7.0, 300.0], [2e-9, 3e-7, 4e-4, 0.05, 0.9],
                     "line+dots")
        elif case == "log one left out":
            plot.add("a", [0.0, 1.0, 10.0], [1.0, 2.0, 30.0])
        elif case == "log left out":
            plot.add("a", [1.0, 2.0, 3.0, 4.0], [1.0, 0.0, np.nan, 20.0], "dots")
            plot.add("b", [np.inf, 5.0], [1.0, -2.0])
        elif case in ("line", "dots", "line+dots"):
            plot.add(case, xs, ys, case)
        elif case == "seven series":
            for i in range(7):
                plot.add(f"s{i}", xs, [y + i for y in ys], ("line", "dots", "line+dots")[i % 3])
        return plot.render("generated 2026-01-01T00:00:00+00:00" if case == "comment" else None)

    # sha256 of each synthetic plot's SVG, pinned before the writer was
    # rewritten, so that a rewrite that moves any byte fails; re-pinned once
    # where the zero tick read "-0" and now reads "0", no other byte moved
    SYNTHETIC_SHA256 = {
        "comment": "99c33214cf425bc51d72dfc86eab4750db3df1e3e15f01a7f57d2233ee245d17",
        "dots": "1df0d3829dd1bc63929ef3eb38f8fc316a19247b8ae371c50c21286cff08ade9",
        "line": "1913be606cbcd48ecd3671752b6c274a7fee9c7d437c794303182635111405c6",
        "line+dots": "17bbab2ac10f6e1ff2b9bcbc351d93d7c42ae9786fa0b9639c540bcb6643f252",
        "linear": "d2b78ca71a5fa892b4f0034dd78f7fc1f8c2f65641a13e87525a45378d4216a1",
        "linear empty": "3ed6039ab9acc8a6f021ad8f15a0cfa4ef62d35e248ffeb19de0e384e0bec220",
        "log": "8b8b93e0901595a012ffa7be44a457f8bbc3d6303d171493de24b38b5f1a1788",
        "log empty": "0834682770e582ed2529e57ed43ce3e677e9d103e260a5c6d6c15f5a4482b694",
        "log left out": "33f58bda2c354a8e173269977be790cd461af388c0bbc76a2d24e3e154c452d2",
        "log one left out": "9e8f81fb820f3dc805c4f815144654164d6b554dd54978a02f792aea425437ac",
        "seven series": "7250353d8ebaa7657f5f76bd0a317096c6d93f39b35ca38a1e773366c034c154",
    }

    @pytest.mark.parametrize("case", sorted(SYNTHETIC_SHA256))
    def test_synthetic_plots_are_unchanged(self, case):
        svg = self.synthetic_plot(case).encode()
        assert hashlib.sha256(svg).hexdigest() == self.SYNTHETIC_SHA256[case]
