import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longwalk

# children run in tmp_path, so a relative PYTHONPATH would not find the package
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(longwalk.__file__).resolve().parent.parent))


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "longwalk.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=CLI_ENV,
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

    def test_missing_flag_usage_error(self, tmp_path):
        res = run_cli(["chain-spectrum", "--d", "1", "--alpha", "1"], cwd=tmp_path)
        assert res.returncode == 2
        assert "usage" in (res.stderr + res.stdout).lower()

    def test_precision_guard_exit_3(self, tmp_path):
        res = run_cli(
            ["chain-spectrum", "--d", "3", "--alpha", "1.5", "--l", "60",
             "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "maximal admissible l" in res.stderr


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

    # at L = 4096 (d=1) and L = 64 (d=2) the (N+2) site matrix would exceed
    # numkit.DENSE_DIM_CAP; the folded parity sectors do not
    @pytest.mark.parametrize("d, L", [(1, 100), (1, 4096), (2, 64)])
    def test_ring_protocol_reports_both(self, tmp_path, d, L):
        res = run_cli(
            ["transfer", "--protocol", "ring", "--d", str(d), "--alpha", "1",
             "--L", str(L), "--g", "0.02", "--out-dir", str(tmp_path)],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "transfer_ring.json").read_text())
        assert "infidelity_exact" in payload and "infidelity_perturbative" in payload
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

    def test_uniform_regime_mismatch_exit_2(self, tmp_path):
        res = run_cli(
            ["transfer", "--protocol", "uniform", "--d", "1", "--alpha", "0.8",
             "--L", "10", "--out-dir", str(tmp_path)], cwd=tmp_path,
        )
        assert res.returncode == 2


class TestSweepCommand:
    @pytest.mark.parametrize("experiment,extra", [
        ("fig2bcd", ["--alpha-minus-d", "0.2", "--l-max", "24"]),
        ("figS3", ["--alpha", "1"]),
        ("fig2a", []),
        ("figS2a", []),
        ("figS2b", ["--alpha", "1.0"]),
        ("figS2c", ["--alpha", "1.0"]),
    ])
    def test_reproducible_outputs_byte_identical(self, tmp_path, experiment, extra):
        # identical flags (same relative out-dir) run from two scratch roots
        roots = (tmp_path / "run1", tmp_path / "run2")
        for root in roots:
            root.mkdir()
            res = run_cli(
                ["sweep", "--experiment", experiment, *extra,
                 "--out-dir", "out", "--reproducible"], cwd=root,
            )
            assert res.returncode == 0, res.stderr
        d1, d2 = roots[0] / "out", roots[1] / "out"
        files1 = sorted(p.name for p in d1.iterdir())
        assert files1 == sorted(p.name for p in d2.iterdir())
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

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
        assert payload["warnings"] == []
        assert "warning" not in res.stdout

    def test_fig2bcd_reports_skipped_depths(self, tmp_path):
        # at alpha = 1.8 the precision guard admits l <= 52 only
        res = run_cli(
            ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "0.8",
             "--l-max", "80", "--out-dir", str(tmp_path), "--reproducible"], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        warnings = json.loads((tmp_path / "fig2bcd_report.json").read_text())["warnings"]
        skipped = list(range(54, 81, 2))
        assert [w.split(" ")[0] for w in warnings] == [f"l={l}" for l in skipped]
        lines = [line for line in res.stdout.splitlines() if line.startswith("warning: ")]
        assert lines == [f"warning: {w}" for w in warnings]

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

    def test_unknown_experiment_exit_2(self, tmp_path):
        res = run_cli(
            ["sweep", "--experiment", "fig9z", "--out-dir", str(tmp_path)],
            cwd=tmp_path,
        )
        assert res.returncode == 2

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

    def test_thread_count_does_not_change_output(self, tmp_path):
        outs = {}
        for threads in ("1", "4"):
            env = dict(CLI_ENV, LONGWALK_THREADS=threads)
            sub = tmp_path / f"t{threads}"
            sub.mkdir()
            res = subprocess.run(
                [sys.executable, "-m", "longwalk.cli", "sweep", "--experiment",
                 "figS2c", "--alpha", "1.0", "--out-dir", "out", "--reproducible"],
                capture_output=True, text=True, cwd=sub, env=env,
            )
            assert res.returncode == 0, res.stderr
            outs[threads] = (sub / "out" / "figS2c.csv").read_bytes()
        assert outs["1"] == outs["4"]

    def test_serial_unless_threads_set(self, monkeypatch):
        from longwalk import experiments

        monkeypatch.delenv("LONGWALK_THREADS", raising=False)
        assert experiments.thread_count() == 1
        monkeypatch.setenv("LONGWALK_THREADS", "3")
        assert experiments.thread_count() == 3

    def test_numerical_failure_exit_4(self, monkeypatch):
        import numpy as np

        from longwalk import cli

        def boom(args):
            raise np.linalg.LinAlgError("synthetic solver breakdown")

        monkeypatch.setitem(cli.build_parser.__globals__, "cmd_chain_spectrum", boom)
        rc = cli.main(["chain-spectrum", "--d", "1", "--alpha", "1", "--l", "2"])
        assert rc == 4

    @pytest.mark.parametrize("flags, named", [
        (["--g-min", "0.001", "--g-max", "0.1", "--g-points", "0"], "--g-points"),
        (["--g-min", "0.001", "--g-max", "0.1", "--g-points", "-3"], "--g-points"),
        (["--g-min", "0", "--g-max", "0.1"], "--g-min"),
        (["--g-min", "0.001"], "--g-max"),
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

    @pytest.mark.parametrize("flag, delta", [("-0.3", 0.3), ("0", 0.0)])
    def test_fig2a_alpha_minus_d_is_alpha_minus_d(self, tmp_path, flag, delta):
        # fig2a runs alpha = d - delta, so --alpha-minus-d x means delta = -x
        from longwalk import experiments

        res = run_cli(
            ["sweep", "--experiment", "fig2a", "--alpha-minus-d", flag,
             "--out-dir", str(tmp_path), "--reproducible"], cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "fig2a.csv").read_text().splitlines()[2:]
        got = np.array([[float(v) for v in line.split(",")] for line in lines])
        ref = experiments.fig2a(delta=delta)
        keys = ("g", "eps_exact", "eps_perturbative", "envelope", "bound", "bound_conditions")
        np.testing.assert_array_equal(got, np.column_stack([ref[k] for k in keys]))

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
