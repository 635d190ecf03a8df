"""Command-line front end: protocol runs, figure sweeps, saturation reports.

Commands emit CSV for series, JSON for scalars/reports (with the run
manifest inline), and a simple SVG plot.  Identical flags give
byte-identical CSV/JSON; pass --reproducible to drop the wall-clock
timestamp from manifests and SVG comments as well.

Exit codes: 0 success, 2 usage or regime error, 3 precision-guard or other
domain rejection, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
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


def _manifest(command: str, params: dict, outputs: list[str], reproducible: bool) -> dict:
    man = {
        "command": command,
        "parameters": params,
        "artifact_version": __version__,
        "outputs": outputs,
        "deviation_notes": [],
    }
    if not reproducible:
        man["timestamp"] = datetime.now(timezone.utc).isoformat()
    return man


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
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _svg_comment(reproducible: bool) -> str | None:
    if reproducible:
        return None
    return f"generated {datetime.now(timezone.utc).isoformat()}"


def cmd_chain_spectrum(args) -> int:
    ch = chain_mod.build_effective_chain(args.d, args.alpha, args.l)
    spec = chain_mod.chain_spectrum(ch)
    report = chain_mod.q_factor(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"chain_spectrum_d{args.d}_a{args.alpha:g}_l{args.l}"
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    k = np.arange(spec.energies.shape[0])
    write_csv(
        csv_path,
        "chain-spectrum",
        ["k", "E_k", "t_k_0", "parity"],
        [k, spec.energies, spec.endpoint_amplitudes, spec.parities],
    )
    params = {"d": args.d, "alpha": args.alpha, "l": args.l}
    payload = {
        "manifest": _manifest("chain-spectrum", params, [str(csv_path)], args.reproducible),
        "L": ch.L,
        "Q": report.q,
        "t_l_0": report.t_endpoint_zero_mode,
        "min_gap": report.min_gap,
    }
    write_json(json_path, payload)
    print(f"chain-spectrum: L={ch.L} Q={report.q:.6g} t_l_0={report.t_endpoint_zero_mode:.6g} "
          f"min_gap={report.min_gap:.6g}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _outcome_payload(out: transfer.TransferOutcome, g: float, L: int, bound_key: str) -> dict:
    return {
        "T": out.T,
        "g": g,
        "L": L,
        "fidelity_exact": out.fidelity_exact,
        "infidelity_exact": out.infidelity_exact,
        "infidelity_perturbative": out.infidelity_perturbative,
        bound_key: out.infidelity_bound,
        "bound_conditions_met": list(out.bound_conditions_met),
    }


def cmd_transfer(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = {k: getattr(args, k, None) for k in
              ("protocol", "d", "alpha", "l", "L", "epsilon", "g")}
    if args.protocol == "uniform":
        if args.L is None:
            raise DomainError("--protocol uniform requires --L")
        proto = uniform.build_uniform_protocol(args.d, args.alpha, args.L)
        fid = uniform.simulate_uniform(proto)
        payload = {
            "T": proto.T,
            "fidelity_exact": fid,
            "infidelity_exact": 1.0 - fid,
            "N": proto.N,
            "w": proto.w,
        }
    elif args.protocol == "chain":
        if args.l is None:
            raise DomainError("--protocol chain requires --l")
        if args.alpha < args.d / 2.0:
            raise RegimeError(
                f"alpha={args.alpha} < d/2: the chain protocol covers alpha >= d/2"
            )
        ch = chain_mod.build_effective_chain(args.d, args.alpha, args.l)
        if args.g is not None:
            g = args.g
        else:
            eps = 0.01 if args.epsilon is None else args.epsilon
            g = transfer.choose_g(chain_mod.chain_spectrum(ch), eps)
        out = transfer.exact_transfer(transfer.attach_endpoints(ch, g))
        payload = _outcome_payload(out, g, ch.L, "infidelity_bound")
    else:  # ring; argparse restricts the choices
        if args.L is None or args.g is None:
            raise DomainError("--protocol ring requires --L and --g")
        out = ring.ring_exact_transfer(args.d, args.L, args.alpha, args.g)
        payload = _outcome_payload(out, args.g, args.L, "infidelity_envelope")
    json_path = out_dir / f"transfer_{args.protocol}.json"
    payload["manifest"] = _manifest("transfer", params, [], args.reproducible)
    write_json(json_path, payload)
    print(f"transfer [{args.protocol}]: " +
          " ".join(f"{k}={v:.6g}" for k, v in payload.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool)))
    print(f"wrote {json_path}")
    return 0


def _g_grid(args):
    """The --g-min/--g-max/--g-points grid, or None for the experiment's default."""
    if args.g_min is None and args.g_max is None:
        return None
    if args.g_min is None or args.g_max is None:
        raise DomainError("--g-min and --g-max must be given together")
    for flag, value in (("--g-min", args.g_min), ("--g-max", args.g_max),
                        ("--g-points", args.g_points)):
        if not 0 < value < np.inf:
            raise DomainError(f"{flag} must be positive and finite, got {value}")
    return np.geomspace(args.g_min, args.g_max, args.g_points)


def _alpha_override(args) -> dict:
    return {} if args.alpha is None else {"alphas": [args.alpha]}


def _infidelity_plot(title: str, res: dict) -> SvgPlot:
    plot = SvgPlot(title, "g", "infidelity", xlog=True, ylog=True)
    plot.add("exact", res["g"], res["eps_exact"], "line+dots")
    plot.add("perturbative", res["g"], res["eps_perturbative"], "line")
    return plot


def _sweep_fig2a(args):
    # fig2a runs alpha = d - delta, so delta is minus the flag's alpha - d
    delta = 0.2 if args.alpha_minus_d is None else -args.alpha_minus_d
    res = experiments.fig2a(d=args.d, delta=delta, l=24 if args.l is None else args.l,
                            g_grid=_g_grid(args))
    table = ("fig2a",
             ["g", "eps_exact", "eps_perturbative", "envelope", "bound", "conditions_met"],
             [res["g"], res["eps_exact"], res["eps_perturbative"], res["envelope"],
              res["bound"], res["bound_conditions"]])
    plot = _infidelity_plot("transfer infidelity vs coupling", res)
    report = {key: res[key] for key in
              ("max_relative_deviation", "relative_ok", "envelope_ok", "g_star")}
    return [table], ("fig2a", plot), report


def _sweep_fig2bcd(args):
    delta = 0.2 if args.alpha_minus_d is None else args.alpha_minus_d
    res = experiments.fig2bcd(d=args.d, alpha_minus_d=delta,
                              l_min=args.l_min, l_max=args.l_max)
    series = res["series"]
    stem = f"fig2{res['panel']}_delta{delta:g}"
    logx = series.axis_mode != "linear"
    plot = SvgPlot(f"Q vs distance (alpha - d = {delta:g})", "L", "Q",
                   xlog=logx, ylog=series.axis_mode == "log-log")
    plot.add("Q", series.sizes, series.values, "line+dots")
    report = {key: res[key] for key in
              ("panel", "saturation", "convergence_ratio", "log_r2", "slope") if key in res}
    report["warnings"] = series.metadata["warnings"]
    return [(stem, ["L", "Q"], [series.sizes, series.values])], (stem, plot), report


def _sweep_figs2a(args):
    res = experiments.fig_s2a(L=args.L, alpha=args.alpha, g_grid=_g_grid(args))
    table = ("figS2a", ["g", "eps_exact", "eps_perturbative"],
             [res["g"], res["eps_exact"], res["eps_perturbative"]])
    plot = _infidelity_plot("ring transfer infidelity vs coupling", res)
    report = {key: res[key] for key in ("L", "alpha", "max_relative_deviation", "relative_ok")}
    return [table], ("figS2a", plot), report


def _sweep_q2_exponents(args, driver):
    res = driver(**_alpha_override(args))
    header = ["alpha", "exponent", "target", "passed"]
    alphas, exps, targets, passed = ([r[key] for r in res["results"]] for key in header)
    table = (args.experiment, header, [alphas, exps, targets, passed])
    plot = SvgPlot("extrapolated q2 exponents", "alpha", "exponent")
    plot.add("measured", alphas, exps, "dots")
    plot.add("target", alphas, targets, "line")
    report = {
        "window": res["window"],
        "sizes": list(res["sizes"]),
        "results": [{key: r[key] for key in ("alpha", "exponent", "target", "error", "passed")}
                    for r in res["results"]],
    }
    return [table], (args.experiment, plot), report


def _sweep_figs3(args):
    res = experiments.fig_s3(**_alpha_override(args))
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
    return tables, ("figS3", plot), {"results": results}


# experiment -> builder.  A builder runs one experiment and returns its CSV
# tables as (stem, header, columns), its plot as (stem, SvgPlot), and its
# report fields; cmd_sweep writes them all.
SWEEPS = {
    "fig2a": _sweep_fig2a,
    "fig2bcd": _sweep_fig2bcd,
    "figS2a": _sweep_figs2a,
    "figS2b": lambda args: _sweep_q2_exponents(args, experiments.fig_s2b),
    "figS2c": lambda args: _sweep_q2_exponents(args, experiments.fig_s2c),
    "figS3": _sweep_figs3,
}


def cmd_sweep(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables, (svg_stem, plot), fields = SWEEPS[args.experiment](args)
    paths = []
    for stem, header, columns in tables:
        paths.append(out_dir / f"{stem}.csv")
        write_csv(paths[-1], args.experiment, header, columns)
    paths.append(out_dir / f"{svg_stem}.svg")
    paths[-1].write_text(plot.render(_svg_comment(args.reproducible)))
    report = {"experiment": args.experiment, **fields}
    params = {k: v for k, v in vars(args).items() if k not in ("func",)}
    report["manifest"] = _manifest(f"sweep:{args.experiment}", params,
                                   [str(p) for p in paths], args.reproducible)
    json_path = out_dir / f"{args.experiment}_report.json"
    write_json(json_path, report)
    _print_verdicts(report)
    print(f"wrote {json_path} and {len(paths)} data/plot files in {out_dir}")
    return 0


def _print_verdicts(report: dict) -> None:
    for warning in report.get("warnings", []):
        print(f"warning: {warning}")
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
                              "L, Q, t_l_0, min_gap.")
    p.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_chain_spectrum)

    p = sub.add_parser("transfer", parents=[common],
                       help="run one protocol instance and report fidelities")
    p.add_argument("--protocol", required=True, choices=("chain", "uniform", "ring"))
    p.add_argument("--d", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--l", type=int, help="recursion depth (chain protocol)")
    p.add_argument("--L", type=int, help="side length (uniform/ring protocols)")
    p.add_argument("--epsilon", type=float, help="target infidelity (chain: picks g)")
    p.add_argument("--g", type=float, help="explicit endpoint coupling")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser(
        "sweep", parents=[common], help="named figure reproductions",
        epilog="CSV columns by experiment: fig2a/figS2a: g, eps_exact, "
               "eps_perturbative [, envelope, bound, conditions_met]; "
               "fig2bcd: L, Q; figS2b/figS2c: alpha, exponent, target, "
               "passed; figS3: L, delta0, bandwidth.",
    )
    p.add_argument("--experiment", required=True,
                   choices=("fig2a", "fig2bcd", "figS2a", "figS2b", "figS2c", "figS3"))
    p.add_argument("--d", type=int, default=1, choices=(1, 2))
    p.add_argument("--alpha", type=float, help="override the default alpha grid")
    p.add_argument("--alpha-minus-d", type=float, dest="alpha_minus_d",
                   help="alpha - d for fig2a (default -0.2) / fig2bcd (default 0.2)")
    p.add_argument("--l", type=int, help="depth for fig2a")
    p.add_argument("--l-min", type=int, dest="l_min")
    p.add_argument("--l-max", type=int, dest="l_max")
    p.add_argument("--L", type=int, help="ring size for figS2a")
    p.add_argument("--g-min", type=float, dest="g_min")
    p.add_argument("--g-max", type=float, dest="g_max")
    p.add_argument("--g-points", type=int, dest="g_points", default=36)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
