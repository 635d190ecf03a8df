"""Command-line front end: protocol runs, figure sweeps, saturation reports.

Commands emit CSV for series, JSON for scalars/reports (with the run
manifest inline), and a simple SVG plot.  Identical flags give
byte-identical CSV/JSON; pass --reproducible to drop the wall-clock
timestamp from manifests and SVG comments as well.

Every command runs through one (driver, builder) table, ``_runs()``, and one
function, ``run_command``, that forwards flags and writes the outputs.

Exit codes: 0 success, 2 usage or regime error, 3 precision-guard (checked
before any chain spectrum) or other domain rejection, a flag nothing reads
or a required flag missing, 4 numerical failure, 5 an --out-dir or output
that cannot be written, 6 out of memory.  A failed run leaves no output file.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import chain as chain_mod
from . import experiments, ring, transfer, uniform
from .errors import DomainError, RegimeError
from .svgplot import SvgPlot

CSV_SCHEMA_VERSION = 1
# argparse reads "-1e-17" as an option name unless it matches here as a number
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_csv(path: Path, schema: str, header: list[str], columns: list) -> None:
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(f"# schema: longwalk.{schema}.v{CSV_SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_default(o):
    """A numpy scalar or array as the Python value or list its tolist() gives."""
    if isinstance(o, (np.generic, np.ndarray)):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _chain_spectrum_out(ch: chain_mod.EffectiveChain):
    spec = chain_mod.chain_spectrum(ch)
    report = chain_mod.q_factor(spec)
    stem = f"chain_spectrum_d{ch.d}_a{ch.alpha:g}_l{ch.l}"
    table = (stem, ["k", "E_k", "t_k_0", "parity"],
             [np.arange(spec.energies.shape[0]), spec.energies, spec.endpoint_amplitudes,
              spec.parities])
    # weights that numkit.jacobi_endpoint_weights cannot resolve read 0 in the CSV
    fields = {"L": ch.L, "Q": report.q, "t_l_0": report.t_endpoint_zero_mode,
              "min_gap": report.min_gap,
              "unresolved_weights": int(np.count_nonzero(spec.endpoint_amplitudes == 0.0))}
    return stem, [table], None, fields


def _outcome_out(protocol: str, bound_key: str):
    """Builder for a TransferOutcome; chain and ring differ in the bound's key,
    and only the chain's bound carries validity flags."""
    def build(out: transfer.TransferOutcome):
        fields = {key: getattr(out, key) for key in ("T", "g", "L", "fidelity_exact",
                  "infidelity_exact", "infidelity_perturbative")}
        fields[bound_key] = out.infidelity_bound
        if out.bound_conditions_met is not None:  # the chain's bound alone has conditions
            fields["bound_conditions_met"] = list(out.bound_conditions_met)
        return f"transfer_{protocol}", [], None, fields
    return build


def _uniform_out(proto: uniform.UniformProtocol):
    fid = uniform.simulate_uniform(proto)
    return "transfer_uniform", [], None, {
        "T": proto.T, "fidelity_exact": fid, "infidelity_exact": 1.0 - fid,
        "N": proto.N, "w": proto.w}


def _g_grid(flags: dict):
    """The --g-min/--g-max/--g-points grid; the three flags go together."""
    for flag in ("g_min", "g_max", "g_points"):
        opt = "--" + flag.replace("_", "-")
        if flag not in flags:
            raise DomainError(f"--g-min, --g-max and --g-points go together; {opt} is missing")
        if not 0 < flags[flag] < np.inf:
            raise DomainError(f"{opt} must be positive and finite, got {flags[flag]}")
    return np.geomspace(flags["g_min"], flags["g_max"], flags["g_points"])


def _driver_kwargs(label: str, driver, flags: dict) -> dict:
    """The flags given as driver keywords (--g-* build g_grid, --alpha is a
    one-point alphas grid).  A flag the driver does not read, or a driver
    parameter without a default that no flag gives, is a DomainError."""
    params = inspect.signature(driver).parameters
    kwargs = {}
    for flag, value in flags.items():
        name = "g_grid" if flag.startswith("g_") else (
            "alphas" if flag == "alpha" and "alphas" in params else flag)
        if name not in params:
            raise DomainError(f"{label} does not read --{flag.replace('_', '-')}")
        kwargs[name] = [value] if name == "alphas" else value
    missing = [name for name, p in params.items() if p.default is p.empty and name not in kwargs]
    if missing:
        raise DomainError(f"{label} requires --" + " and --".join(missing))
    if "g_grid" in kwargs:
        kwargs["g_grid"] = _g_grid(flags)
    return kwargs


def _g_sweep_out(experiment: str, title: str, extra: dict, report: tuple):
    """Builder for a g sweep (fig2a, figS2a): a CSV of g, the exact and the
    leading-order infidelity and the extra columns (header -> result key), the
    two infidelities against g on log axes, and the report's fields in order."""
    columns = {"g": "g", "eps_exact": "eps_exact", "eps_perturbative": "eps_perturbative",
               **extra}

    def build(res):
        table = (experiment, list(columns), [res[key] for key in columns.values()])
        plot = SvgPlot(title, "g", "infidelity", xlog=True, ylog=True)
        plot.add("exact", res["g"], res["eps_exact"], "line+dots")
        plot.add("perturbative", res["g"], res["eps_perturbative"], "line")
        return (f"{experiment}_report", [table], (experiment, plot),
                {key: res[key] for key in report})
    return build


def _sweep_fig2bcd(res):
    series, delta = res["series"], res["alpha_minus_d"]
    stem = f"fig2{res['panel']}_delta{delta:g}"
    plot = SvgPlot(f"Q vs distance (alpha - d = {delta:g})", "L", "Q",
                   xlog=True, ylog=res["regime"] not in ("constant", "log"))
    plot.add("Q", series.sizes, series.values, "line+dots")
    report = {key: res[key] for key in
              ("panel", "saturation", "convergence_ratio", "log_r2", "slope") if key in res}
    table = (stem, ["L", "Q"], [series.sizes, series.values])
    return "fig2bcd_report", [table], (stem, plot), report


def _sweep_q2_exponents(experiment, res):
    header = ["alpha", "exponent", "target", "passed"]
    alphas, exps, targets, passed = ([r[key] for r in res["results"]] for key in header)
    table = (experiment, header, [alphas, exps, targets, passed])
    plot = SvgPlot("extrapolated q2 exponents", "alpha", "exponent")
    plot.add("measured", alphas, exps, "dots")
    plot.add("target", alphas, targets, "line")
    report = {
        "window": res["window"],
        "sizes": list(res["sizes"]),
        "results": [{key: r[key] for key in ("alpha", "corrections", "exponent", "target",
                                             "error", "passed")}
                    for r in res["results"]],
    }
    return f"{experiment}_report", [table], (experiment, plot), report


def _sweep_figs3(res):
    tables, results = [], []
    plot = SvgPlot("gap and bandwidth scaling", "L", "delta0, W", xlog=True, ylog=True)
    for entry in res["results"]:
        al = entry["alpha"]
        tables.append((f"figS3_alpha{al:g}", ["L", "delta0", "bandwidth"],
                       [entry["sizes"], entry["delta0"], entry["bandwidth"]]))
        plot.add(f"delta0 a={al:g}", entry["sizes"], entry["delta0"], "line+dots")
        plot.add(f"W a={al:g}", entry["sizes"], entry["bandwidth"], "line")
        results.append({k: v for k, v in entry.items()
                        if k not in ("sizes", "delta0", "bandwidth")})
    return "figS3_report", tables, ("figS3", plot), {"results": results}


def _runs() -> dict:
    """command (or its protocol or experiment) -> (driver, builder).  The driver's
    signature is what the run reads and holds its defaults; the builder turns its
    result into the JSON stem, CSV tables as (stem, header, columns), an optional
    plot as (stem, SvgPlot) and the report fields.  Built per call, so that each
    driver is the module attribute of that moment (a tracer may have wrapped it)."""
    relative = ("max_relative_deviation", "relative_ok", "unresolved_exact_points")
    return {
        "chain-spectrum": (chain_mod.build_effective_chain, _chain_spectrum_out),
        "transfer": {
            "chain": (transfer.chain_transfer, _outcome_out("chain", "infidelity_bound")),
            "uniform": (uniform.build_uniform_protocol, _uniform_out),
            "ring": (ring.ring_exact_transfer, _outcome_out("ring", "infidelity_envelope")),
        },
        "sweep": {
            "fig2a": (experiments.fig2a, _g_sweep_out(
                "fig2a", "transfer infidelity vs coupling",
                {"envelope": "envelope", "bound": "bound", "conditions_met": "bound_conditions"},
                (*relative, "envelope_ok", "g_star"))),
            "fig2bcd": (experiments.fig2bcd, _sweep_fig2bcd),
            "figS2a": (experiments.fig_s2a, _g_sweep_out(
                "figS2a", "ring transfer infidelity vs coupling", {}, ("L", "alpha", *relative))),
            "figS2b": (experiments.fig_s2b, lambda res: _sweep_q2_exponents("figS2b", res)),
            "figS2c": (experiments.fig_s2c, lambda res: _sweep_q2_exponents("figS2c", res)),
            "figS3": (experiments.fig_s3, _sweep_figs3),
        },
    }


def run_command(args) -> int:
    """Forward the flags given to the run's driver, build the outputs from its
    result, write them with one manifest and print the results.

    --out-dir is created before the driver runs, so that a path that cannot
    be a directory fails (OSError) before any work; a run that fails after
    that removes the files it wrote and the directories it created."""
    params = {k: v for k, v in vars(args).items()
              if v is not None and k not in ("command", "out_dir", "reproducible")}
    choice_flag = {"transfer": "protocol", "sweep": "experiment"}.get(args.command)
    choice = params.get(choice_flag)
    flags = {k: v for k, v in params.items() if k != choice_flag}
    runs = _runs()[args.command]
    driver, build = runs[choice] if choice else runs
    label = f"--{choice_flag} {choice}" if choice else args.command
    kwargs = _driver_kwargs(label, driver, flags)
    out_dir = Path(args.out_dir)
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # innermost first
    paths = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem, tables, plot, fields = build(driver(**kwargs))
        command = args.command
        if command == "sweep":  # sweep reports and manifests name their experiment
            command, fields = f"sweep:{choice}", {"experiment": choice, **fields}
        # one stamp per run, for the manifest and the SVG comment alike
        stamp = None if args.reproducible else datetime.now(timezone.utc).isoformat()
        for table_stem, header, columns in tables:
            paths.append(out_dir / f"{table_stem}.csv")
            write_csv(paths[-1], choice or command, header, columns)
        if plot is not None:
            paths.append(out_dir / f"{plot[0]}.svg")
            paths[-1].write_text(plot[1].render(stamp and f"generated {stamp}"))
        manifest = {"command": command, "parameters": params, "artifact_version": __version__,
                    "outputs": [str(p) for p in paths]}
        if stamp:
            manifest["timestamp"] = stamp
        paths.append(out_dir / f"{stem}.json")
        write_json(paths[-1], {**fields, "manifest": manifest})
    except BaseException:
        for path in paths:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        for path in created:  # rmdir leaves a directory that is not empty
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    numbers = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in fields.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if numbers:
        print(f"{args.command} [{choice}]:" if choice else f"{args.command}:", *numbers)
    _print_verdicts(fields)
    print("wrote " + ", ".join(str(p) for p in paths))
    return 0


def _print_verdicts(report: dict) -> None:
    for key in ("relative_ok", "envelope_ok"):
        if key in report:
            print(f"{report['experiment']} {key}: {'PASS' if report[key] else 'FAIL'}")
    if "saturation" in report:
        sat = report["saturation"]
        print(f"saturation [{sat['regime']}]: {sat['verdict']}")
    for sub in report.get("results", []):
        oks = [sub["passed"]] if "passed" in sub else [
            v for k, v in sub.items() if k.endswith("_ok")]
        if oks:
            print(f"  alpha={sub['alpha']}: {'PASS' if all(oks) else 'FAIL'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longwalk",
        description="Time-independent long-range state-transfer protocols: "
                    "spectra, fidelities, and scaling sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--reproducible", action="store_true",
                        help="omit timestamps for byte-identical outputs")

    p = sub.add_parser("chain-spectrum", parents=[common],
                       help="channel spectrum, endpoint amplitudes, and Q",
                       epilog="CSV columns: k, E_k (descending), t_k_0 "
                              "(endpoint amplitude), parity (+-1). JSON: "
                              "L, Q, t_l_0, min_gap, unresolved_weights.")
    p.add_argument("--d", type=int, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float)
    p.add_argument("--l", type=int)

    p = sub.add_parser("transfer", parents=[common],
                       help="run one protocol instance and report fidelities")
    p.add_argument("--protocol", required=True, choices=("chain", "uniform", "ring"))
    p.add_argument("--d", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float)
    p.add_argument("--l", type=int, help="recursion depth (chain protocol)")
    p.add_argument("--L", type=int, help="side length (uniform/ring protocols)")
    coupling = p.add_mutually_exclusive_group()
    coupling.add_argument("--epsilon", type=float, help="target infidelity (chain: picks g)")
    coupling.add_argument("--g", type=float, help="explicit endpoint coupling (chain/ring)")

    p = sub.add_parser(
        "sweep", parents=[common], help="named figure reproductions",
        epilog="Each flag's help names the experiments that read it; any other one exits "
               "3 on it. CSV columns by experiment: fig2a/figS2a: g, eps_exact, eps_perturbative "
               "[, envelope, bound, conditions_met]; fig2bcd: L, Q; figS2b/figS2c: alpha, "
               "exponent, target, passed; figS3: L, delta0, bandwidth.",
    )
    p.add_argument("--experiment", required=True,
                   choices=("fig2a", "fig2bcd", "figS2a", "figS2b", "figS2c", "figS3"))
    p.add_argument("--d", type=int, choices=(1, 2), help="dimension (fig2a, fig2bcd)")
    p.add_argument("--alpha", type=float, help="alpha (figS2a), alpha grid (figS2b/c, figS3)")
    p.add_argument("--alpha-minus-d", type=float, help="alpha - d (fig2a, fig2bcd)")
    p.add_argument("--l", type=int, help="depth (fig2a)")
    p.add_argument("--l-min", type=int, help="smallest depth (fig2bcd)")
    p.add_argument("--l-max", type=int, help="largest depth (fig2bcd)")
    p.add_argument("--L", type=int, help="ring size (figS2a)")
    p.add_argument("--g-min", type=float, help="smallest coupling (fig2a, figS2a)")
    p.add_argument("--g-max", type=float, help="largest coupling (fig2a, figS2a)")
    p.add_argument("--g-points", type=int, help="log-spaced couplings (fig2a, figS2a)")
    for p in (parser, *sub.choices.values()):  # so that "--alpha-minus-d -1e-17" parses
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
