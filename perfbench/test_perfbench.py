"""Self-tests of the benchmark harness: seeded op lists, the timing
wrappers and the oracle gate.  Run with ``python3 -m pytest perfbench``."""

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_op_list(name):
    w = workloads.WORKLOADS[name]()
    first = w.op_list(7, 4)
    assert first == workloads.WORKLOADS[name]().op_list(7, 4)
    assert first != w.op_list(8, 4)
    assert len(first) == 4 and all(first)


def test_pass_count_is_fixed_by_run_length():
    w = workloads.Sweeps()
    assert w.passes_for(20) == round(20 / w.nominal_pass_s)
    assert w.passes_for(0.1) == w.min_passes


def _snapshot():
    snap = {}
    for layer in tracing.LAYERS:
        mod = importlib.import_module(f"longwalk.{layer}")
        snap[layer] = dict(vars(mod))
    snap["SvgPlot.render"] = importlib.import_module("longwalk.svgplot").SvgPlot.render
    return snap


def test_wrappers_restore_every_attribute_on_exception():
    before = _snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.patched():
            numkit = importlib.import_module("longwalk.numkit")
            experiments = importlib.import_module("longwalk.experiments")
            assert numkit.linear_fit is not before["numkit"]["linear_fit"]
            assert experiments._map is not before["experiments"]["_map"]
            numkit.linear_fit([0.0, 1.0], [1.0, 3.0])
            raise RuntimeError("boom")
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        if key == "SvgPlot.render":
            assert after[key] is attrs
            continue
        assert after[key].keys() == attrs.keys()
        changed = [a for a in attrs if after[key][a] is not attrs[a]]
        assert changed == [], f"longwalk.{key} not restored: {changed}"
    assert [s.name for s in tracer.spans] == ["numkit.linear_fit"]


def test_spans_in_map_workers_carry_the_callers_parent(monkeypatch):
    monkeypatch.setenv("LONGWALK_THREADS", "2")
    tracer = tracing.Tracer()
    with tracer.patched():
        experiments = importlib.import_module("longwalk.experiments")
        numkit = importlib.import_module("longwalk.numkit")
        experiments._map(lambda k: numkit.linear_fit([0.0, 1.0, 2.0], [0.0, k, 2 * k]),
                         [1.0, 2.0, 3.0, 4.0])
    by_id = {s.id: s for s in tracer.spans}
    fits = [s for s in tracer.spans if s.name == "numkit.linear_fit"]
    assert len(fits) == 4
    for s in fits:
        task = by_id[s.parent]
        assert task.name == "experiments._map.task"
        assert by_id[task.parent].name == "experiments._map"
    metrics = tracing.layer_metrics(tracer.spans, passes=1)
    assert metrics["experiments.map.workers"] == 2
    assert metrics["numkit.linear_fit.calls"] == 4
    assert 0.0 < metrics["experiments.map.efficiency"] <= 1.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [tracing.Span(1, "p", None, 0.0, 10.0),
             tracing.Span(2, "c", 1, 1.0, 4.0),
             tracing.Span(3, "c", 1, 2.0, 6.0),
             tracing.Span(4, "c", 1, 8.0, 12.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(36)]
    value, pct = run.tail(samples)
    assert pct == 72
    assert sum(x > value for x in samples) >= 10
    with pytest.raises(ValueError):
        run.tail(samples[:10])


@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    w = workloads.ExactLarge()
    w.setup(tmp_path_factory.mktemp("exact"))
    return w


def test_oracle_gate_counts_a_perturbed_uniform_fidelity(exact, monkeypatch):
    op = Op("uniform", (("d", 2), ("L", 20), ("alpha", 0.5)))
    clean = run.Runner(exact)
    clean.run_pass([op])
    assert clean.attempted == 1 and clean.failures == []

    simulate = exact.uniform.simulate_uniform
    monkeypatch.setattr(exact.uniform, "simulate_uniform", lambda p: simulate(p) - 1e-6)
    perturbed = run.Runner(exact)
    perturbed.run_pass([op])
    assert perturbed.attempted == 1 and len(perturbed.failures) == 1
    result = run._result(perturbed, {}, [])
    assert result["failed"] == 1 and result["correct"] is False


def test_oracle_gate_counts_a_perturbed_ring_fidelity(exact, monkeypatch):
    op = Op("ring-d1", (("d", 1), ("L", 200), ("alpha", 1.0)))
    transfer = exact.ring.ring_exact_transfer

    def perturbed(*args):
        out = transfer(*args)
        return out.__class__(**{**out.__dict__, "infidelity_exact": 2 * out.infidelity_exact})

    monkeypatch.setattr(exact.ring, "ring_exact_transfer", perturbed)
    runner = run.Runner(exact)
    runner.run_pass([op])
    assert len(runner.failures) == 1 and "leading order" in runner.failures[0]


def test_guard_edge_chain_failures_are_counted_but_known(exact):
    runner = run.Runner(exact)
    runner.run_pass([Op("chain", (("d", 1), ("alpha", 0.5), ("l", 84), ("eps", 1e-2)))])
    result = run._result(runner, {}, [])
    assert result["failed"] == 1 and result["correct"] is True
    assert runner.failures == [] and len(runner.known) == 1


def _chain_op(d, alpha, l, eps):
    return Op("chain", (("d", d), ("alpha", alpha), ("l", l), ("eps", eps)))


def test_a_raising_guard_edge_chain_op_is_not_known(exact, monkeypatch):
    def boom(*args):
        raise FloatingPointError("boom")

    monkeypatch.setattr(exact.transfer, "exact_transfer", boom)
    runner = run.Runner(exact)
    runner.run_pass([_chain_op(1, 0.5, 84, 1e-2)])
    assert runner.known == [] and "raised" in runner.failures[0]
    assert run._result(runner, {}, [])["correct"] is False


def test_a_newly_failing_chain_op_is_not_known(exact, monkeypatch):
    op = _chain_op(3, 1.5, 28, 1e-2)  # passes on the baseline library
    clean = run.Runner(exact)
    clean.run_pass([op])
    assert clean.log[0][2] is None

    transfer = exact.transfer.exact_transfer

    def perturbed(*args):
        out = transfer(*args)
        return out.__class__(**{**out.__dict__, "infidelity_exact": 2 * out.infidelity_bound})

    monkeypatch.setattr(exact.transfer, "exact_transfer", perturbed)
    runner = run.Runner(exact)
    runner.run_pass([op])
    assert runner.known == [] and "rigorous bound" in runner.failures[0]
    assert run._result(runner, {}, [])["correct"] is False


def test_reach_ladder_runs_the_cap_itself(exact, monkeypatch):
    sizes = []

    def fake_run(scale):
        def run_op(op):
            sizes.append(op.p["L"])
            return (op.p["L"] / scale) ** 3, None
        return run_op

    monkeypatch.setattr(exact.ring, "DENSE_L_CAP_1D", 2000, raising=False)
    monkeypatch.setattr(exact, "check", lambda op, out: None)
    monkeypatch.setattr(exact, "run", fake_run(4000.0))
    assert exact.reach(1, 1.0, lambda *a: None) == (2000.0, "capped")
    assert sizes[-1] == 2000
    assert all(b / a <= workloads.REACH_RATIO for a, b in zip(sizes, sizes[1:]))

    monkeypatch.setattr(exact, "run", fake_run(1850.0))
    value, flag = exact.reach(1, 1.0, lambda *a: None)
    assert flag == "interpolated" and value == pytest.approx(1850.0, rel=1e-9)


def test_sweep_verdicts_skip_only_the_documented_reds():
    w = workloads.Sweeps()
    res = {"results": [{"alpha": 1.4, "passed": False}, {"alpha": 2.2, "passed": False},
                       {"alpha": 1.0, "passed": True}]}
    assert w.check(Op("fig_s2b"), res) is None
    res["results"][2]["passed"] = False
    assert "alpha=1.0" in w.check(Op("fig_s2b"), res)
    assert w.check(Op("fig_s2c"), {"results": [{"alpha": 1.4, "passed": False}]}) is not None
