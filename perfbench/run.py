"""longwalk benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {cli-cold,sweeps,exact-large} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last stdout line carries every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it carries every per-layer metric, taken
from timing wrappers installed on the longwalk modules, plus the tracing
overhead against untraced passes of the same run.  The line before it is a
JSON report with the environment, sample counts, tail percentile, per-op
failures and workload notes.  Run from the root of a source checkout: the
library is imported from ``src/`` beside this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # set-up samples per run: this process plus two fresh ones


def tail(samples: list[float]) -> tuple[float, int]:
    """Value and rank of the highest percentile with at least ten samples
    beyond it (nearest-rank definition)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    pct = (100 * (n - 10)) // n
    return xs[math.ceil(pct * n / 100) - 1], pct


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "git_commit": commit,
        "seed": seed,
        **{v: os.environ.get(v) for v in
           ("LONGWALK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def child(args, *extra, env=None) -> dict:
    """Run this script again in a fresh interpreter; return its last line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Times passes of a workload and tallies oracle failures."""

    def __init__(self, workload):
        self.w = workload
        self.kind_s: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.known: list[str] = []
        self.log: list[tuple[str, float, str | None]] = []

    @property
    def attempted(self) -> int:
        return len(self.log)

    @property
    def op_s(self) -> list[float]:
        return [elapsed for _, elapsed, _ in self.log]

    def record(self, op, elapsed, failure, raised=False):
        """Log one op; a failed check is a known baseline failure only if
        the workload lists the op as one and the op did not raise."""
        self.log.append((op.kind, elapsed, failure))
        key = op.kind if op.kind != "chain" else f"chain-d{op.p['d']}"
        self.kind_s.setdefault(key, []).append(elapsed)
        if failure is not None:
            entry = f"{op.label()}: {failure}"
            known = not raised and self.w.known_failure(op)
            (self.known if known else self.failures).append(entry)

    def run_pass(self, ops) -> float:
        t0 = time.perf_counter()
        for op in ops:
            t_op = time.perf_counter()
            raised = False
            try:
                elapsed, result = self.w.run(op)
                failure = self.w.check(op, result)
            except Exception as exc:  # an op that raises counts as failed
                elapsed, failure, raised = time.perf_counter() - t_op, f"raised {exc!r}", True
            self.record(op, elapsed, failure, raised)
        return time.perf_counter() - t0

    def exact_ms(self) -> dict[str, float]:
        """Per-kind medians; the chain kind averages its two configurations."""
        med = {k: 1e3 * statistics.median(v) for k, v in self.kind_s.items()}
        out = {f"exact_ms.{k}": med[k] for k in ("ring-d1", "ring-d2", "uniform") if k in med}
        chains = [v for k, v in med.items() if k.startswith("chain-d")]
        if chains:
            out["exact_ms.chain"] = statistics.mean(chains)
        return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--passes-only", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "longwalk" / "__init__.py").is_file():
        print(f"error: no longwalk sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Byte-compile the package first, as an install would, so that every
    # process the benchmark times loads the same cached bytecode whatever
    # PYTHONDONTWRITEBYTECODE says; a no-op once the cache is current.
    compileall.compile_dir(SRC / "longwalk", quiet=1)
    t_setup = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = load_spec()
    w = workloads.WORKLOADS[args.workload]()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=ROOT / ".bench_work"))
    try:
        w.setup(work)
        setup_s = time.perf_counter() - t_setup
        import longwalk

        if Path(longwalk.__file__).resolve().parent.parent != SRC:
            raise RuntimeError(f"longwalk imported from {longwalk.__file__}, not {SRC}")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.passes_only:
            runner = Runner(w)
            plan = w.op_list(args.seed, args.passes_only)
            w.prepare(plan)
            passes = [runner.run_pass(ops) for ops in plan]
            print(json.dumps({"pass_s": passes, "ops": runner.log}))
            return 0
        report, result = (measure_traced if args.trace else measure)(args, w, work, setup_s, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    report["env"] = environment(args.seed)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def _result(runner, metrics: dict, names_units) -> dict:
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures) + len(runner.known),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names_units},
    }


def _report(args, w, runner, passes, **extra) -> dict:
    failed = len(runner.failures) + len(runner.known)
    return {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "passes": passes, "samples": len(runner.op_s),
        "fail_frac": failed / max(1, runner.attempted),
        "failures": dict(Counter(runner.failures)),
        "known_baseline_failures": dict(Counter(runner.known)),
        "notes": w.notes(),
        "kind_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(runner.kind_s.items())},
        **runner.exact_ms(),
        **extra,
    }


def measure(args, w, work, setup_s, spec):
    setups = [setup_s] + [child(args, "--setup-only")["setup_s"]
                          for _ in range(SETUP_REPEATS - 1)]
    runner = Runner(w)
    plan = w.op_list(args.seed, w.passes_for(args.seconds))
    w.prepare(plan)
    pass_s = [runner.run_pass(ops) for ops in plan]
    p50 = statistics.median(runner.op_s)
    tail_s, pct = tail(runner.op_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "suite_s": statistics.median(pass_s),
        "ops_per_s": len(runner.op_s) / sum(pass_s),
        "op_ms.p50": 1e3 * p50,
        "op_ms.tail": 1e3 * tail_s,
        "peak_rss_mb": w.peak_rss_mb(),
    }
    report = _report(args, w, runner, len(plan), tail_percentile=pct,
                     setup_samples_s=setups, pass_s=pass_s)
    return report, _result(runner, metrics, [(m["name"], m["unit"]) for m in spec["end_to_end"]])


def measure_traced(args, w, work, setup_s, spec):
    """Alternate untraced and traced passes over half the run each; derive
    the per-layer metrics from the traced ones."""
    import tracing

    each = max(2, (w.passes_for(args.seconds) + 1) // 2)
    plan = w.op_list(args.seed, 2 * each)
    w.prepare(plan)
    plain, traced = Runner(w), Runner(w)
    tracer = tracing.Tracer()
    plain_s, traced_s = [], []
    for i in range(each):
        plain_s.append(plain.run_pass(plan[2 * i]))
        with w.traced(tracer):
            traced_s.append(traced.run_pass(plan[2 * i + 1]))
    metrics = tracing.layer_metrics(tracer.spans, each)
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    metrics.update(plain.exact_ms())
    extra_metrics, extra = w.trace_extras(
        seed=args.seed, passes=each, plain_pass_s=plain_s, record=plain.record,
        rerun=lambda flags, env: child(args, *flags, env=env))
    metrics.update(extra_metrics)
    plain.failures += traced.failures
    plain.known += traced.known
    plain.log += traced.log
    names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    for n, _ in names:
        metrics.setdefault(n, 0.0)  # layers this workload does not reach
    report = _report(args, w, plain, 2 * each, plain_pass_s=plain_s, traced_pass_s=traced_s,
                     layers_seen=sorted({s.name for s in tracer.spans}), **extra)
    return report, _result(plain, metrics, names)


if __name__ == "__main__":
    sys.exit(main())
