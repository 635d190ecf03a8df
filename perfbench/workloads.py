"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of passes over its ops, runs
one op at a time in a closed loop with a single caller, times the call
into longwalk, and checks the result against an independent oracle.
Library modules are imported in ``setup`` so that import time falls into
the set-up measurement, and every library call goes through a module
attribute so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple = ()  # (name, value) pairs

    @property
    def p(self) -> dict:
        return dict(self.params)

    def label(self) -> str:
        args = ",".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in self.params)
        return f"{self.kind}({args})" if args else self.kind


# ---------------------------------------------------------------- oracles
# Each returns None when the result agrees with its oracle, else the reason.

def uniform_oracle(fidelity: float, closed_form: float) -> str | None:
    """Explicit N-site evolution vs the three-level closed form, to 1e-8."""
    if abs(fidelity - closed_form) <= 1e-8:
        return None
    return f"fidelity {fidelity!r} vs three-level {closed_form!r}"


def chain_oracle(infidelity: float, bound: float, conditions) -> str | None:
    """Exact infidelity may not exceed the rigorous bound where it applies."""
    if not all(conditions) or infidelity <= bound:
        return None
    return f"exact infidelity {infidelity:.6g} > rigorous bound {bound:.6g}"


def ring_oracle(exact: float, perturbative: float, tolerance: float) -> str | None:
    """Exact vs leading-order infidelity within the relative tolerance."""
    rel = abs(exact - perturbative) / exact
    if rel <= tolerance:
        return None
    return f"exact {exact:.6g} vs leading order {perturbative:.6g} (rel {rel:.3g})"


def _close(value, expected, rel=1e-12) -> bool:
    return math.isclose(value, expected, rel_tol=rel, abs_tol=0.0)


class Workload:
    name = ""
    nominal_pass_s = 1.0  # one pass on the 2-CPU machine the benchmark was defined on
    min_passes = 4  # at least 20 samples, so that the tail sits above the median

    def passes_for(self, seconds: float) -> int:
        """Fixed pass count for a run length, so that sample counts (and with
        them the tail percentile) do not depend on how fast the code under
        test is."""
        return max(self.min_passes, round(seconds / self.nominal_pass_s))

    def op_list(self, seed: int, passes: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self._pass(rng) for _ in range(passes)]

    def _pass(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def setup(self, work: Path) -> None:
        """Import the library, warm it up and build reference outputs."""

    def prepare(self, plan: list[list[Op]]) -> None:
        """Derive library-computed inputs of the planned ops, untimed and
        untraced, before the first pass."""

    def run(self, op: Op):
        """Run one op; return (seconds spent in the timed call, result)."""
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError

    def known_failure(self, op: Op) -> bool:
        """Ops whose oracle check fails on the baseline library."""
        return False

    @contextlib.contextmanager
    def traced(self, tracer):
        with tracer.patched():
            yield

    def trace_extras(self, seed, passes, plain_pass_s, record, rerun) -> tuple[dict, dict]:
        """Layer metrics that wrappers cannot see, measured after the traced
        run's ``passes`` untraced and ``passes`` traced passes; returns
        (metrics, report entries).  ``record(op, seconds, failure)`` counts
        an extra op; ``rerun(flags, env)`` runs this benchmark in a fresh
        process and returns its last line."""
        return {}, {}

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def notes(self) -> dict:
        return {}


# ---------------------------------------------------------------- cli-cold

CLI_COMMANDS = {
    "chain-spectrum": ["chain-spectrum", "--d", "1", "--alpha", "1", "--l", "24"],
    "transfer-chain": ["transfer", "--protocol", "chain", "--d", "1", "--alpha", "1.2",
                       "--l", "24", "--epsilon", "0.01"],
    "transfer-uniform": ["transfer", "--protocol", "uniform", "--d", "1", "--alpha", "0",
                         "--L", "4"],
    "transfer-ring": ["transfer", "--protocol", "ring", "--d", "1", "--alpha", "1",
                      "--L", "100", "--g", "0.02"],
    "sweep-fig2bcd": ["sweep", "--experiment", "fig2bcd", "--alpha-minus-d", "0.2"],
    "sweep-figS3": ["sweep", "--experiment", "figS3", "--alpha", "1"],
}
# Relative, so that the run manifests inside the JSON outputs (which list
# output paths) are byte-identical between the reference and every op.
CLI_OUT = ["--out-dir", "out", "--reproducible"]


class CliCold(Workload):
    """The README commands, each a fresh interpreter, in seeded order."""

    name = "cli-cold"
    nominal_pass_s = 3.6

    def __init__(self):
        self._tracer = None
        self.child_peak_kb = 0
        self.bytes_written = 0

    def _pass(self, rng):
        names = list(CLI_COMMANDS)
        rng.shuffle(names)
        return [Op(n) for n in names]

    def setup(self, work):
        self.work = work
        self.cli = importlib.import_module("longwalk.cli")
        lw = importlib.import_module("longwalk")
        # Absolute, from the imported package: a relative PYTHONPATH breaks
        # as soon as a child runs in another directory.
        self.env = dict(os.environ, PYTHONPATH=str(Path(lw.__file__).resolve().parent.parent))
        self.reference = {}
        for name, args in CLI_COMMANDS.items():
            ref = work / "reference" / name
            ref.mkdir(parents=True)
            cwd = os.getcwd()
            os.chdir(ref)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main([*args, *CLI_OUT])
            finally:
                os.chdir(cwd)
            if code != 0:
                raise RuntimeError(f"reference run of {name} exited with {code}")
            self.reference[name] = _data_files(ref / "out")
        self.expected = self._headlines()

    def _headlines(self) -> dict:
        """Headline numbers of each command from in-process library calls,
        with the JSON file and the dotted key path that hold each."""
        chain_mod = importlib.import_module("longwalk.chain")
        transfer = importlib.import_module("longwalk.transfer")
        uniform = importlib.import_module("longwalk.uniform")
        ring = importlib.import_module("longwalk.ring")
        experiments = importlib.import_module("longwalk.experiments")

        ch = chain_mod.build_effective_chain(1, 1.0, 24)
        rep = chain_mod.q_factor(chain_mod.chain_spectrum(ch))
        ch2 = chain_mod.build_effective_chain(1, 1.2, 24)
        g = transfer.choose_g(chain_mod.chain_spectrum(ch2), 0.01)
        tc = transfer.exact_transfer(transfer.attach_endpoints(ch2, g))
        proto = uniform.build_uniform_protocol(1, 0.0, 4)
        tr = ring.ring_exact_transfer(1, 100, 1.0, 0.02)
        f2 = experiments.fig2bcd(d=1, alpha_minus_d=0.2)
        s3 = experiments.fig_s3(alphas=[1.0])["results"][0]
        return {
            "chain-spectrum": ("chain_spectrum_d1_a1_l24.json",
                               {"L": ch.L, "Q": rep.q, "t_l_0": rep.t_endpoint_zero_mode,
                                "min_gap": rep.min_gap}),
            "transfer-chain": ("transfer_chain.json",
                               {"T": tc.T, "g": g, "fidelity_exact": tc.fidelity_exact,
                                "infidelity_perturbative": tc.infidelity_perturbative,
                                "infidelity_bound": tc.infidelity_bound}),
            "transfer-uniform": ("transfer_uniform.json",
                                 {"T": proto.T, "N": proto.N, "w": proto.w,
                                  "fidelity_exact": uniform.simulate_uniform(proto)}),
            "transfer-ring": ("transfer_ring.json",
                              {"T": tr.T, "fidelity_exact": tr.fidelity_exact,
                               "infidelity_perturbative": tr.infidelity_perturbative,
                               "infidelity_envelope": tr.infidelity_bound}),
            "sweep-fig2bcd": ("fig2bcd_report.json", {"slope": f2["slope"]}),
            "sweep-figS3": ("figS3_report.json",
                            {"results.0.delta0_slope": s3["delta0_slope"],
                             "results.0.bandwidth_log_r2": s3["bandwidth_log_r2"]}),
        }

    @contextlib.contextmanager
    def traced(self, tracer):
        self._tracer = tracer
        try:
            yield
        finally:
            self._tracer = None

    def run(self, op):
        run_dir = Path(tempfile.mkdtemp(dir=self.work))
        try:
            argv = [*CLI_COMMANDS[op.kind], *CLI_OUT]
            if self._tracer is None:
                cmd = [sys.executable, "-m", "longwalk.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "tracing.py"),
                       "--spans", str(run_dir / "spans.json"), "--", *argv]
            with open(run_dir / "stdout", "wb") as out, open(run_dir / "stderr", "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=run_dir, env=self.env, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
            files = _data_files(run_dir / "out")
            self.bytes_written += sum(p.stat().st_size for p in (run_dir / "out").glob("*"))
            if self._tracer is not None and proc.returncode == 0:
                offset = max((s.id for s in self._tracer.spans), default=0)
                self._tracer.spans.extend(tracing.load(run_dir / "spans.json", offset))
            stderr = (run_dir / "stderr").read_text(errors="replace")[-500:]
            return elapsed, (proc.returncode, files, stderr)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def check(self, op, result):
        code, files, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        ref = self.reference[op.kind]
        if files.keys() != ref.keys():
            return f"outputs {sorted(files)} differ from reference {sorted(ref)}"
        for name, data in files.items():
            if data != ref[name]:
                return f"{name} is not byte-identical to the reference"
        fname, expected = self.expected[op.kind]
        payload = json.loads(files[fname])
        for key, value in expected.items():
            got = payload
            for part in key.split("."):
                got = got[int(part)] if isinstance(got, list) else got[part]
            if not _close(got, value):
                return f"{fname}:{key} = {got!r}, library gives {value!r}"
        return self._oracle(op.kind, payload, files)

    def _oracle(self, kind, payload, files):
        tol = importlib.import_module("longwalk.scaling").TOLERANCES["perturbative_relative"]
        if kind == "chain-spectrum":
            # alpha = d closed form: E_k = 2 cos((k+1) pi / (2l+2)), l = 24
            rows = files["chain_spectrum_d1_a1_l24.csv"].decode().splitlines()[2:]
            energies = [float(r.split(",")[1]) for r in rows]
            worst = max(abs(e - 2.0 * math.cos((k + 1) * math.pi / 50.0))
                        for k, e in enumerate(energies))
            return None if worst <= 1e-10 else f"E_k off the closed form by {worst:.3g}"
        if kind == "transfer-chain":
            return chain_oracle(payload["infidelity_exact"], payload["infidelity_bound"],
                                payload["bound_conditions_met"])
        if kind == "transfer-uniform":
            uniform = importlib.import_module("longwalk.uniform")
            proto = uniform.build_uniform_protocol(1, 0.0, 4)
            closed = float(uniform.three_level_fidelity(proto, payload["T"])[0])
            return uniform_oracle(payload["fidelity_exact"], closed)
        if kind == "transfer-ring":
            return ring_oracle(payload["infidelity_exact"],
                               payload["infidelity_perturbative"], tol)
        if kind == "sweep-fig2bcd":
            return None if payload["saturation"]["passed"] else "fig2bcd verdict is red"
        if kind == "sweep-figS3":
            r = payload["results"][0]
            return None if r["delta0_ok"] and r["bandwidth_ok"] else "figS3 verdict is red"
        raise KeyError(kind)

    def trace_extras(self, seed, passes, plain_pass_s, record, rerun):
        metrics = import_split(self.env)
        metrics["cli.bytes_written"] = self.bytes_written / (2 * passes)
        return metrics, {}

    def peak_rss_mb(self):
        # The program runs in the children; report the largest of them.
        return self.child_peak_kb / 1024.0

    def notes(self):
        return {"bytes_written": self.bytes_written}


def _data_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*"))
            if p.suffix in (".csv", ".json")}


def import_split(env: dict, repeats: int = 3) -> dict[str, float]:
    """``python -X importtime -c 'import longwalk.cli'`` in fresh interpreters:
    medians of the total and of the numpy / scipy.linalg /
    scipy.sparse.linalg / longwalk shares, in ms."""
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import longwalk.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        rows = [(int(m[1]), int(m[2]), len(m[3]), m[4])
                for m in map(line.match, proc.stderr.splitlines()) if m]
        first = {}
        for self_us, cum_us, _, name in rows:
            first.setdefault(name, cum_us)
        samples.append({
            "cli.import_ms": sum(c for _, c, ind, n in rows
                                 if ind == 1 and n.startswith("longwalk")) / 1e3,
            "cli.import_ms.numpy": first.get("numpy", 0) / 1e3,
            "cli.import_ms.scipy.linalg": first.get("scipy.linalg", 0) / 1e3,
            "cli.import_ms.scipy.sparse.linalg": first.get("scipy.sparse.linalg", 0) / 1e3,
            "cli.import_ms.longwalk": sum(s for s, _, _, n in rows
                                          if n == "longwalk" or n.startswith("longwalk.")) / 1e3,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------- sweeps

SWEEP_DRIVERS = {
    "fig2a": ("fig2a", ()),
    "fig2bcd-0.2": ("fig2bcd", (("d", 1), ("alpha_minus_d", -0.2))),
    "fig2bcd+0": ("fig2bcd", (("d", 1), ("alpha_minus_d", 0.0))),
    "fig2bcd+0.2": ("fig2bcd", (("d", 1), ("alpha_minus_d", 0.2))),
    "fig_s2a": ("fig_s2a", ()),
    "fig_s2b": ("fig_s2b", ()),
    "fig_s2c": ("fig_s2c", ()),
    "fig_s3": ("fig_s3", ()),
    "uniform_slope_check": ("uniform_slope_check", (("d", 1), ("alpha", 0.2))),
}
# The two red cases documented in README.md: recorded, counted neither way.
DOCUMENTED_RED = {("fig_s2b", 1.4), ("fig_s2b", 2.2)}


def sweep_verdicts(driver: str, res: dict) -> dict[tuple, bool]:
    """Every pass/fail verdict a driver returns, keyed (driver, alpha, name)."""
    if driver == "fig2a":
        return {(driver, None, "relative_ok"): res["relative_ok"],
                (driver, None, "envelope_ok"): res["envelope_ok"]}
    if driver == "fig2bcd":
        return {(driver, res["alpha"], "saturation"): res["saturation"]["passed"]}
    if driver == "fig_s2a":
        return {(driver, None, "relative_ok"): res["relative_ok"]}
    if driver in ("fig_s2b", "fig_s2c"):
        return {(driver, r["alpha"], "passed"): r["passed"] for r in res["results"]}
    if driver == "fig_s3":
        return {(driver, r["alpha"], k): r[k] for r in res["results"]
                for k in ("delta0_ok", "bandwidth_ok")}
    if driver == "uniform_slope_check":
        return {(driver, res["alpha"], "passed"): res["passed"]}
    raise KeyError(driver)


class Sweeps(Workload):
    """The nine pinned figure drivers in process, in seeded order, under the
    library's default thread settings."""

    name = "sweeps"
    nominal_pass_s = 0.75

    def __init__(self):
        self.documented = {}

    def _pass(self, rng):
        names = list(SWEEP_DRIVERS)
        rng.shuffle(names)
        return [Op(n) for n in names]

    def setup(self, work):
        self.experiments = importlib.import_module("longwalk.experiments")
        # Warm-up pass: thread pool, BLAS and FFT plans.
        for name in SWEEP_DRIVERS:
            elapsed, res = self.run(Op(name))
            reason = self.check(Op(name), res)
            if reason is not None:
                raise RuntimeError(f"{name} is red at set-up: {reason}")

    def run(self, op):
        driver, kwargs = SWEEP_DRIVERS[op.kind]
        fn = getattr(self.experiments, driver)
        t0 = time.perf_counter()
        res = fn(**dict(kwargs))
        return time.perf_counter() - t0, res

    def check(self, op, result):
        driver = SWEEP_DRIVERS[op.kind][0]
        red = []
        for (drv, alpha, verdict), ok in sweep_verdicts(driver, result).items():
            if (drv, alpha) in DOCUMENTED_RED:
                self.documented[f"{drv} alpha={alpha}"] = bool(ok)
            elif not ok:
                red.append(f"{drv} alpha={alpha} {verdict}")
        return f"red verdicts: {', '.join(red)}" if red else None

    def trace_extras(self, seed, passes, plain_pass_s, record, rerun):
        # Plain serial baseline: its own process, both thread settings
        # fixed before numpy and longwalk are imported.
        env = dict(os.environ, LONGWALK_THREADS="1", OPENBLAS_NUM_THREADS="1")
        serial = rerun(["--passes-only", str(passes)], env)
        for kind, seconds, failure in serial["ops"]:
            record(Op(f"serial:{kind}"), seconds, failure)
        speedup = statistics.median(serial["pass_s"]) / statistics.median(plain_pass_s)
        return {"experiments.parallel_speedup": speedup}, {"serial_pass_s": serial["pass_s"]}

    def notes(self):
        return {"documented_red_passed": self.documented}


# ---------------------------------------------------------------- exact-large

RING_SIZES = {"ring-d1": (1, 2000), "ring-d2": (2, 44)}
# Both chain configurations sit at the edge of the precision guard
# (the deepest admissible l for their d and alpha).
CHAIN_EDGE = ((1, 0.5, 84), (3, 1.5, 28))
# (d, alpha, l, eps) of the guard-edge ops whose exact infidelity exceeds
# the rigorous bound on the baseline library (see NOTES.md).
KNOWN_CHAIN_FAILURES = {(1, 0.5, 84, 1e-2), (1, 0.5, 84, 1e-3), (3, 1.5, 28, 1e-3)}
UNIFORM_SIZE = (2, 140)
RING_ENVELOPE = 0.02
REACH_BUDGET_S = 1.0
REACH_START = {1: 600, 2: 24}
REACH_RATIO = 1.1


class ExactLarge(Workload):
    """Exact fidelities at the top of the dense caps, in process."""

    name = "exact-large"
    nominal_pass_s = 2.9

    def __init__(self):
        self._g = {}

    def _pass(self, rng):
        ops = [Op(kind, (("d", d), ("L", L), ("alpha", rng.uniform(0.8, 1.4))))
               for kind, (d, L) in RING_SIZES.items()]
        d, L = UNIFORM_SIZE
        ops.append(Op("uniform", (("d", d), ("L", L), ("alpha", rng.uniform(0.2, 0.8)))))
        # Two draws per chain configuration: with the chain ops in the
        # majority, the pooled median lands inside the (steady) d=1 chain
        # block instead of on the single uniform op, whose sparse
        # expm_multiply timing moves by about 30% from run to run.
        for d, alpha, l in CHAIN_EDGE * 2:
            ops.append(Op("chain", (("d", d), ("alpha", alpha), ("l", l),
                                    ("eps", rng.choice((1e-2, 1e-3))))))
        rng.shuffle(ops)
        return ops

    def setup(self, work):
        self.ring = importlib.import_module("longwalk.ring")
        self.uniform = importlib.import_module("longwalk.uniform")
        self.chain = importlib.import_module("longwalk.chain")
        self.transfer = importlib.import_module("longwalk.transfer")
        self.errors = importlib.import_module("longwalk.errors")
        self.tol = importlib.import_module("longwalk.scaling").TOLERANCES["perturbative_relative"]
        warm = [Op("ring-d1", (("d", 1), ("L", 200), ("alpha", 1.0))),
                Op("ring-d2", (("d", 2), ("L", 12), ("alpha", 1.0))),
                Op("uniform", (("d", 2), ("L", 20), ("alpha", 0.5))),
                Op("chain", (("d", 1), ("alpha", 0.5), ("l", 8), ("eps", 1e-2)))]
        for op in warm:
            _, res = self.run(op)
            reason = self.check(op, res)
            if reason is not None:
                raise RuntimeError(f"warm-up {op.label()} failed its oracle: {reason}")

    def prepare(self, plan):
        for op in (op for ops in plan for op in ops if op.kind.startswith("ring-")):
            self.ring_g(op.p["d"], op.p["L"], op.p["alpha"])

    def ring_g(self, d, L, alpha) -> float:
        """g for which the small-g envelope 2 Omega^2 q2 equals RING_ENVELOPE."""
        key = (d, L, alpha)
        if key not in self._g:
            summary = self.ring.ring_spectral_summary(self.ring.ring_spectrum(d, L, alpha))
            self._g[key] = math.sqrt(RING_ENVELOPE * L**d / (4.0 * summary.q2))
        return self._g[key]

    def run(self, op):
        p = op.p
        if op.kind.startswith(("ring-", "reach-")):
            g = self.ring_g(p["d"], p["L"], p["alpha"])
            t0 = time.perf_counter()
            out = self.ring.ring_exact_transfer(p["d"], p["L"], p["alpha"], g)
            return time.perf_counter() - t0, out
        if op.kind == "uniform":
            t0 = time.perf_counter()
            proto = self.uniform.build_uniform_protocol(p["d"], p["alpha"], p["L"])
            fid = self.uniform.simulate_uniform(proto)
            return time.perf_counter() - t0, (proto, fid)
        t0 = time.perf_counter()
        ch = self.chain.build_effective_chain(p["d"], p["alpha"], p["l"])
        g = self.transfer.choose_g(self.chain.chain_spectrum(ch), p["eps"])
        out = self.transfer.exact_transfer(self.transfer.attach_endpoints(ch, g))
        return time.perf_counter() - t0, out

    def check(self, op, result):
        if op.kind.startswith(("ring-", "reach-")):
            return ring_oracle(result.infidelity_exact, result.infidelity_perturbative,
                               self.tol)
        if op.kind == "uniform":
            proto, fid = result
            return uniform_oracle(fid, float(self.uniform.three_level_fidelity(proto, proto.T)[0]))
        return chain_oracle(result.infidelity_exact, result.infidelity_bound,
                            result.bound_conditions_met)

    def known_failure(self, op):
        # Dense "exact" evolution at the guard edge: eigensolver error
        # eps*||H||*T ~ 0.1 pushes the infidelity over the bound.
        p = op.p
        return op.kind == "chain" and (p["d"], p["alpha"], p["l"], p["eps"]) in KNOWN_CHAIN_FAILURES

    def trace_extras(self, seed, passes, plain_pass_s, record, rerun):
        rng = random.Random(f"reach:{seed}")
        metrics, flags = {}, {}
        for d in (1, 2):
            value, flag = self.reach(d, rng.uniform(0.8, 1.4), record)
            metrics[f"reach_L.ring-d{d}"] = value
            flags[f"reach_L.ring-d{d}.flag"] = flag
        return metrics, flags

    def reach(self, d: int, alpha: float, record) -> tuple[float, str]:
        """Largest ring size whose oracle-checked exact fidelity returns within
        REACH_BUDGET_S: walk a geometric ladder (ratio <= 1.1, even sizes) up
        from REACH_START[d], clamped to the library's dense cap, and
        interpolate log-log between the last size inside the budget and the
        first over it.  ``record(op, seconds, failure)`` sees every rung.
        Flags: "interpolated", "capped" (the cap ran within the budget and is
        the value, or a size check rejected the next rung and the value is
        the last rung run), "oracle" (a rung failed its check) or "floor"
        (the first rung was over budget).
        """
        kind = f"reach-d{d}"
        cap = getattr(self.ring, f"DENSE_L_CAP_{d}D", math.inf)
        last = None
        L = min(REACH_START[d], cap)
        while True:
            op = Op(kind, (("d", d), ("L", L), ("alpha", alpha)))
            try:
                elapsed, out = self.run(op)
            except self.errors.DomainError:
                return (float(last[0]), "capped") if last else (0.0, "capped")
            failure = self.check(op, out)
            record(op, elapsed, failure)
            if failure is not None:
                return (float(last[0]), "oracle") if last else (0.0, "oracle")
            if elapsed > REACH_BUDGET_S:
                if last is None:
                    return float(L), "floor"
                (l0, t0), (l1, t1) = last, (L, elapsed)
                if t1 <= t0:
                    return float(l0), "interpolated"
                frac = math.log(REACH_BUDGET_S / t0) / math.log(t1 / t0)
                return math.exp(math.log(l0) + frac * math.log(l1 / l0)), "interpolated"
            last = (L, elapsed)
            if L >= cap:
                return float(L), "capped"
            L = min(cap, max(L + 2, 2 * int(L * REACH_RATIO / 2)))


WORKLOADS = {w.name: w for w in (CliCold, Sweeps, ExactLarge)}
