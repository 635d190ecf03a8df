"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here, not calibrated at runtime.  Criterion 8(ii) is parametrized
per alpha across the q2 regimes of ``experiments.ring_q2_target``,
and each target names the correction form its extrapolation fits
(README.md, "Ring q2 exponents").
"""

import time

import numpy as np
import pytest

from longwalk import chain, experiments, scaling, transfer, uniform

import block_lattice as blocks
from closed_forms import uniform_chain_analytic, zero_mode, zero_mode_analytic


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


CRIT1_GRID = [
    (d, frac * d, l, g)
    for d in (1, 2)
    for frac in (0.5, 0.75, 1.0, 1.25, 1.75)
    for l in (2, 4)
    for g in (0.01, 0.05)
]


def test_criterion_1_reduction_oracle():
    t0 = time.time()
    worst = 0.0
    for d, alpha, l, g in CRIT1_GRID:
        lat = blocks.build_block_lattice(d, alpha, l)
        dev = blocks.verify_reduction_dynamics(lat, g)
        worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 60
    report("1 reduction-oracle", ok,
           f"max fidelity deviation {worst:.2e} over {len(CRIT1_GRID)} cases "
           f"(tol 1e-10), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60


def test_criterion_2_uniform_protocol():
    t0 = time.time()
    worst_inf = 0.0
    cases = 0
    for d, alphas, sizes in [
        (1, (0.0, 0.25, 0.45), (100, 2000, 10000)),
        (2, (0.0, 0.5, 0.9), (10, 40, 100)),
    ]:
        for alpha in alphas:
            for L in sizes:
                proto = uniform.build_uniform_protocol(d, alpha, L)
                fid = uniform.simulate_uniform(proto)
                worst_inf = max(worst_inf, 1.0 - fid)
                cases += 1
    slope_err = 0.0
    for d, alphas in [(1, (0.0, 0.25, 0.45)), (2, (0.0, 0.5, 0.9))]:
        for alpha in alphas:
            res = experiments.uniform_slope_check(d, alpha)
            slope_err = max(slope_err, abs(res["slope"] - res["target"]))
    elapsed = time.time() - t0
    ok = worst_inf <= 1e-9 and slope_err <= 1e-6 and elapsed < 60
    report("2 uniform-protocol", ok,
           f"max infidelity {worst_inf:.2e} over {cases} runs (tol 1e-9); "
           f"max slope error {slope_err:.2e} (tol 1e-6), {elapsed:.1f}s")
    assert worst_inf <= 1e-9
    assert slope_err <= 1e-6
    assert elapsed < 60


def test_criterion_3_fig2a():
    t0 = time.time()
    res = experiments.fig2a()
    elapsed = time.time() - t0
    n = res["g"].shape[0]
    ok = res["relative_ok"] and res["envelope_ok"] and n >= 30 and elapsed < 60
    report("3 fig2a", ok,
           f"{n} g points, max relative deviation {res['max_relative_deviation']:.3f} "
           f"(tol 0.2 where eps<=0.1); envelope {'ok' if res['envelope_ok'] else 'violated'} "
           f"for g<=g*={res['g_star']:.2e}, {elapsed:.1f}s")
    assert n >= 30
    assert res["relative_ok"]
    assert res["envelope_ok"]
    assert elapsed < 60


def test_criterion_4_rigorous_bound():
    t0 = time.time()
    violations = []
    checked = 0
    for d in (1, 2):
        for frac in (0.5, 0.75, 1.0, 1.25, 1.75):
            for l in (2, 4, 6, 8, 10, 12):
                ch = chain.build_effective_chain(d, frac * d, l)
                spec = chain.chain_spectrum(ch)
                for eps_target in (0.05, 0.3):
                    g = transfer.choose_g(spec, eps_target)
                    out = transfer.exact_transfer(transfer.attach_endpoints(ch, g))
                    if all(out.bound_conditions_met):
                        checked += 1
                        if out.infidelity_exact > out.infidelity_bound:
                            violations.append((d, frac * d, l, eps_target))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 60
    report("4 rigorous-bound", ok,
           f"{checked} condition-satisfying cases, {len(violations)} violations, "
           f"{elapsed:.1f}s")
    assert violations == []
    assert elapsed < 60


def test_criterion_5_fig2bcd():
    t0 = time.time()
    b = experiments.fig2bcd(1, -0.2)
    conv_ok = b["convergence_ratio"] <= 0.01

    c = experiments.fig2bcd(1, 0.0)
    r2_ok = c["log_r2"] >= 0.999
    # closed-form comparison at alpha = d
    worst_cf = 0.0
    for l in range(8, 66, 2):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.0, l))
        q_num = chain.q_factor(spec).q
        pairs = uniform_chain_analytic(l)
        q_cf = np.sqrt(sum((r / e) ** 2 for k, (e, r) in enumerate(pairs) if k != l))
        worst_cf = max(worst_cf, abs(q_num - q_cf))
    cf_ok = worst_cf <= 1e-9

    slope_errs = {}
    for dalpha in (0.2, 0.5, 0.8):
        dres = experiments.fig2bcd(1, dalpha)
        slope_errs[dalpha] = abs(dres["slope"] - dalpha)
    slopes_ok = all(e <= 0.03 for e in slope_errs.values())
    elapsed = time.time() - t0
    ok = conv_ok and r2_ok and cf_ok and slopes_ok and elapsed < 60
    report("5 fig2bcd", ok,
           f"(b) conv ratio {b['convergence_ratio']:.4f} (tol 0.01); "
           f"(c) R2 {c['log_r2']:.6f} (tol 0.999), closed-form dev {worst_cf:.1e} (tol 1e-9); "
           f"(d) slope errors {({k: round(v, 4) for k, v in slope_errs.items()})} (tol 0.03), "
           f"{elapsed:.1f}s")
    assert conv_ok and r2_ok and cf_ok and slopes_ok
    assert elapsed < 60


@pytest.mark.parametrize("dalpha", [0.2, 0.5, 0.8])
def test_criterion_5_fig2bcd_to_the_float_range(dalpha):
    # Q takes no eigensolver, so fig2bcd runs to the deepest chain whose L
    # and bonds stay in the float range (l = 1022, L ~ 1.3e308 here)
    t0 = time.time()
    l_max = chain.max_depth(1, 1.0 + dalpha)
    res = experiments.fig2bcd(1, dalpha, l_max=l_max)
    depths = range(experiments.FIG2BCD_REGIMES["power"][1], l_max + 1, 2)
    sizes_ok = res["series"].sizes.tolist() == [float(3 * 2**l - 2) for l in depths]
    sat = res["saturation"]
    ok = sizes_ok and sat["passed"] and sat["tolerance"] == scaling.TOLERANCES["chain_slope"]
    report(f"5 fig2bcd to l={l_max} (alpha-d={dalpha})", ok,
           f"slope {res['slope']:.7f} (tol {sat['tolerance']}), {len(depths)} depths, "
           f"{time.time() - t0:.2f}s")
    assert sizes_ok and sat["passed"] is True
    assert sat["tolerance"] == scaling.TOLERANCES["chain_slope"]


def test_criterion_6_gap_scaling():
    t0 = time.time()
    # a > 1: gap bounded below by a positive constant
    gaps = {}
    for l in range(4, 82, 2):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 0.8, l))
        gaps[l] = chain.min_gap(spec)
    tail = [g for l, g in gaps.items() if l >= 12]
    a_gt_ok = min(tail) >= 0.9 * gaps[80]
    # a < 1: gap / a^l confined to an interval of spread <= 3
    spreads = {}
    for dalpha in (0.2, 0.5, 0.8):
        alpha = 1.0 + dalpha
        lmax = min(chain.max_admissible_l(1, alpha), 60)
        ratios = []
        for l in range(4, lmax + 1, 2):
            ch = chain.build_effective_chain(1, alpha, l)
            ratios.append(chain.min_gap(chain.chain_spectrum(ch)) / ch.a**l)
        spreads[dalpha] = max(ratios) / min(ratios)
    a_lt_ok = all(s <= 3.0 for s in spreads.values())
    elapsed = time.time() - t0
    ok = a_gt_ok and a_lt_ok and elapsed < 30
    report("6 gap-scaling", ok,
           f"a>1 tail/limit ratio ok: {a_gt_ok}; a<1 interval spreads "
           f"{({k: round(v, 3) for k, v in spreads.items()})} (tol 3.0), {elapsed:.1f}s")
    assert a_gt_ok and a_lt_ok
    assert elapsed < 30


def test_criterion_7_closed_forms():
    t0 = time.time()
    worst_zero = 0.0
    worst_norm = 0.0
    worst_kernel = 0.0
    for d in (1, 2, 3):
        for dalpha in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8):
            alpha = d + dalpha
            if alpha < 0:
                continue
            lmax = min(chain.max_admissible_l(d, alpha), 40)
            for l in sorted({4, 12, 24, lmax} & set(range(2, lmax + 1))):
                ch = chain.build_effective_chain(d, alpha, l)
                spec = chain.chain_spectrum(ch)
                amps = zero_mode_analytic(ch)
                # the zero mode's recursion and its eigensolver endpoint amplitude
                worst_zero = max(worst_zero, np.max(np.abs(zero_mode(ch) - amps)),
                                 abs(spec.t_l_0 - amps[0]))
                worst_norm = max(worst_norm, abs(np.linalg.norm(amps) - 1.0))
                h = np.diag(ch.bonds, 1) + np.diag(ch.bonds, -1)
                worst_kernel = max(
                    worst_kernel, np.max(np.abs(h @ amps)) / np.max(ch.bonds)
                )
    # alpha = d closed form vs numerics
    worst_uniform = 0.0
    for l in (2, 8, 24, 64):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.0, l))
        pairs = uniform_chain_analytic(l)
        worst_uniform = max(
            worst_uniform,
            np.max(np.abs(spec.energies - [p[0] for p in pairs])),
            np.max(np.abs(spec.endpoint_amplitudes / spec.t_l_0 - [p[1] for p in pairs])),
        )
    elapsed = time.time() - t0
    ok = (worst_zero <= 1e-9 and worst_uniform <= 1e-9
          and worst_norm <= 1e-12 and worst_kernel <= 1e-10)
    report("7 closed-forms", ok,
           f"zero-mode dev {worst_zero:.1e} (tol 1e-9); alpha=d dev {worst_uniform:.1e} "
           f"(tol 1e-9); norm dev {worst_norm:.1e} (tol 1e-12); kernel residual "
           f"{worst_kernel:.1e} (tol 1e-10), {elapsed:.1f}s")
    assert worst_zero <= 1e-9
    assert worst_uniform <= 1e-9
    assert worst_norm <= 1e-12
    assert worst_kernel <= 1e-10


def test_criterion_8i_ring_fig_s2a():
    t0 = time.time()
    res = experiments.fig_s2a()
    elapsed = time.time() - t0
    report("8i ring-figS2a", res["relative_ok"],
           f"L={res['L']} alpha={res['alpha']}: max relative deviation "
           f"{res['max_relative_deviation']:.3f} (tol 0.2 where eps<=0.1), {elapsed:.1f}s")
    assert res["relative_ok"]


@pytest.mark.parametrize("alpha", experiments.RING_1D_ALPHAS)
def test_criterion_8ii_ring_q2_exponents(alpha):
    sizes = [2**e for e in experiments.RING_1D_L_EXPONENTS]
    res = experiments.ring_q2_extrapolation(1, alpha, sizes, experiments.RING_1D_WINDOW)
    report(f"8ii ring-q2 alpha={alpha}", res["passed"],
           f"extrapolated {res['exponent']:.4f} vs target {res['target']:.2f} "
           f"(tol 0.1, error {res['error']:.4f})")
    assert res["passed"], (
        f"alpha={alpha}: extrapolated exponent {res['exponent']:.4f} misses "
        f"target {res['target']:.2f} by {res['error']:.4f} (> 0.1); see README.md, "
        f"\"Ring q2 exponents\""
    )


def test_criterion_8iii_ring_fig_s3():
    t0 = time.time()
    res = experiments.fig_s3()
    elapsed = time.time() - t0
    all_ok = all(e["delta0_ok"] and e["bandwidth_ok"] for e in res["results"])
    details = []
    for e in res["results"]:
        if "bandwidth_slope" in e:
            details.append(
                f"alpha={e['alpha']}: d0 slope {e['delta0_slope']:+.3f}, "
                f"W slope {e['bandwidth_slope']:+.3f}"
            )
        else:
            details.append(
                f"alpha={e['alpha']}: d0 slope {e['delta0_slope']:+.3f}, "
                f"W logfit R2 {e['bandwidth_log_r2']:.4f}"
            )
    report("8iii ring-figS3", all_ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert all_ok


def test_criterion_8_transfer_time_table():
    # T ~ sqrt(q2): exponents halve; the passing alphas reproduce the table
    t0 = time.time()
    sizes = [2**e for e in experiments.RING_1D_L_EXPONENTS]
    errs = {}
    for alpha in (0.5, 0.8, 1.0, 1.8):
        res = experiments.ring_q2_extrapolation(1, alpha, sizes,
                                                experiments.RING_1D_WINDOW)
        t_exp = res["exponent"] / 2.0
        errs[alpha] = abs(t_exp - experiments.ring_q2_target(1, alpha)[0] / 2.0)
    elapsed = time.time() - t0
    ok = all(e <= 0.1 for e in errs.values())
    report("8 transfer-time-table", ok,
           f"T-exponent errors {({k: round(v, 3) for k, v in errs.items()})} "
           f"(tol 0.1), {elapsed:.1f}s")
    assert ok


def test_criterion_9_ring_d2():
    t0 = time.time()
    res = experiments.fig_s2c()
    elapsed = time.time() - t0
    all_ok = all(r["passed"] for r in res["results"])
    detail = "; ".join(
        f"alpha={r['alpha']}: {r['exponent']:+.3f} vs {r['target']:+.1f}"
        for r in res["results"]
    )
    report("9 ring-d2", all_ok, detail + f" (tol 0.1), {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 600


def test_criterion_10_saturation():
    t0 = time.time()
    verdicts = {}
    # chain protocol across the regimes
    verdicts[0.7] = experiments.fig2bcd(1, -0.3)["saturation"]["passed"]
    verdicts[1.0] = experiments.fig2bcd(1, 0.0)["saturation"]["passed"]
    for dalpha in (0.2, 0.5, 0.8):
        verdicts[1.0 + dalpha] = experiments.fig2bcd(1, dalpha)["saturation"]["passed"]
    # ring protocol at alpha = 1: T ~ sqrt(L), the trapped-ion-like case
    sizes = [2**e for e in experiments.RING_1D_L_EXPONENTS]
    res = experiments.ring_q2_extrapolation(1, 1.0, sizes, experiments.RING_1D_WINDOW)
    verdicts["ring-1.0"] = bool(
        abs(res["exponent"] / 2.0 - 0.5) <= scaling.TOLERANCES["ring_sqrtL_exponent"]
    )
    elapsed = time.time() - t0
    ok = all(verdicts.values()) and elapsed < 120
    report("10 saturation", ok,
           f"verdicts {verdicts}; ring exponent {res['exponent'] / 2.0:.3f} "
           f"(target 0.5 within 0.05), {elapsed:.1f}s")
    assert all(verdicts.values()), verdicts
    assert elapsed < 120
