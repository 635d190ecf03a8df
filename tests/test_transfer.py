import math

import numpy as np
import pytest

from longwalk import chain, cli, experiments, numkit, ring, transfer
from longwalk.errors import DomainError

from closed_forms import uniform_chain_analytic
from site_oracle import evolve


def build_model(d, alpha, l, g):
    return transfer.attach_endpoints(chain.build_effective_chain(d, alpha, l), g)


def loop_site_matrix(model):
    """Oracle: the (2l+3)-site matrix over (X, 0..2l, Y), bond by bond."""
    ch = model.chain
    n = 2 * ch.l + 1
    h = np.zeros((n + 2, n + 2))
    for j in range(n - 1):
        h[1 + j, 2 + j] = h[2 + j, 1 + j] = ch.bonds[j]
    h[0, 1] = h[1, 0] = model.g
    h[n, n + 1] = h[n + 1, n] = model.g
    return h


def site_matrix(model, monkeypatch):
    """The site matrix that exact_transfer diagonalises, checked against
    loop_site_matrix bit for bit."""
    seen = []
    solve = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: seen.append(h) or solve(h))
    transfer.exact_transfer(model)
    monkeypatch.setattr(np.linalg, "eigh", solve)
    (h,) = seen
    assert h.tobytes() == loop_site_matrix(model).tobytes()
    return h


@pytest.fixture
def solves(monkeypatch):
    """Dimensions of the chain's parity-sector solves, four per chain
    (numkit.zero_diagonal_eigenvalues), and of numpy's eigh calls, which
    only exact_transfer's (2l+3)-site matrices make (l = 24 here)."""
    calls = {"sectors": [], "eigh": []}
    sector_solve, dense_solve = numkit.zero_diagonal_eigenvalues, np.linalg.eigh
    monkeypatch.setattr(numkit, "zero_diagonal_eigenvalues",
                        lambda b: calls["sectors"].append(len(b) + 1) or sector_solve(b))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: calls["eigh"].append(len(h)) or dense_solve(h))
    return calls


class TestOneDiagonalisationPerChain:
    """attach_endpoints reuses the chain's spectrum, so a g sweep or a
    choose_g + attach_endpoints pair solves the two parity sectors once."""

    def test_fig2a(self, solves):
        experiments.fig2a()
        assert solves["sectors"] == [25, 24, 24, 23]
        assert set(solves["eigh"]) == {51}

    def test_chain_transfer_command(self, solves, tmp_path):
        argv = ["transfer", "--protocol", "chain", "--d", "1", "--alpha", "1.2", "--l", "24",
                "--epsilon", "0.01", "--out-dir", str(tmp_path), "--reproducible"]
        assert cli.main(argv) == 0
        assert solves == {"sectors": [25, 24, 24, 23], "eigh": [51]}


class TestAttachEndpoints:
    def test_transfer_time_hand_value(self):
        model = build_model(1, 0.0, 2, 0.1)
        expect = np.pi / (np.sqrt(2) * 0.1 * (2 / 3))
        assert abs(model.T - expect) <= 1e-12 * expect

    def test_chiral_anticommutator(self, monkeypatch):
        for d, alpha, l in [(1, 0.0, 2), (1, 1.4, 10), (2, 2.6, 8)]:
            h = site_matrix(build_model(d, alpha, l, 0.07), monkeypatch)
            n = h.shape[0]
            signs = np.empty(n)
            signs[0] = -1.0
            signs[1:-1] = [(-1.0) ** j for j in range(n - 2)]
            signs[-1] = -1.0
            dmat = np.diag(signs)
            anti = dmat @ h + h @ dmat
            assert np.max(np.abs(anti)) <= 1e-12

    def test_full_spectrum_symmetric(self, monkeypatch):
        w = np.linalg.eigvalsh(site_matrix(build_model(1, 0.6, 8, 0.05), monkeypatch))
        np.testing.assert_allclose(np.sort(w), np.sort(-w), atol=1e-10 * np.max(np.abs(w)))

    def test_uniform_l2_rabi_frequency(self):
        model = build_model(1, 1.0, 2, 0.1)
        # uniform 5-site zero mode (1,0,-1,0,1)/sqrt(3): endpoint 1/sqrt(3)
        expect = np.sqrt(2) * 0.1 / np.sqrt(3)
        assert abs(model.omegas[2] - expect) <= 1e-14

    def test_rejects_nonpositive_g(self):
        ch = chain.build_effective_chain(1, 1.0, 2)
        with pytest.raises(DomainError):
            transfer.attach_endpoints(ch, 0.0)


class TestPerturbativeInfidelity:
    def test_bounded_by_envelope_and_nonnegative(self):
        for g in (0.001, 0.02, 0.2):
            model = build_model(1, 0.8, 10, g)
            eps = transfer.perturbative_infidelity(model)
            assert 0.0 <= eps <= transfer.small_g_envelope(model) + 1e-15

    @pytest.mark.parametrize("l", [4, 24])
    @pytest.mark.parametrize("g", [1e-3, 1e-2, 3e-2])
    def test_uniform_chain_closed_form(self, l, g):
        # alpha = d: E_k = 2 cos theta_k, t_k^(0) = sqrt(2/(2l+2)) sin theta_k,
        # Omega_k = sqrt(2) g t_k^(0), T = pi / Omega_l and parity (-1)^k
        energies, ratios = np.array(uniform_chain_analytic(l)).T
        omegas = np.sqrt(2.0) * g * np.sqrt(2.0 / (2 * l + 2)) * ratios
        t = np.pi / omegas[l]
        k = np.delete(np.arange(2 * l + 1), l)
        expect = np.sum(omegas[k] ** 2 * (1.0 + (-1.0) ** k * np.cos(energies[k] * t))
                        / energies[k] ** 2)
        eps = transfer.perturbative_infidelity(build_model(1, 1.0, l, g))
        assert abs(eps - expect) <= 1e-11 * expect

    @pytest.mark.parametrize("g", [1e-3, 1e-2, 3e-2])
    def test_ring_L4_hand_modes(self, g):
        # d=1 L=4 alpha=1: the folded modes k = 1 (two lattice modes, odd) and
        # k = 2 (one, even) at detunings 3 and 4; Omega = sqrt(2) g / 2 and
        # sum Omega_k^2/E_k^2 = Omega^2 q2, q2 = 2/9 + 1/16
        om = np.sqrt(2.0) * g / 2.0
        t = np.pi / om
        expect = om**2 * (2.0 * (1.0 - np.cos(3.0 * t)) / 9.0 + (1.0 + np.cos(4.0 * t)) / 16.0)
        out = ring.ring_exact_transfer(1, 4, 1.0, g)
        assert abs(out.infidelity_perturbative - expect) <= 1e-11 * expect
        assert out.infidelity_bound == pytest.approx(2.0 * om**2 * 0.2847222222222222, rel=1e-15)


class TestExactTransfer:
    def test_small_g_below_envelope(self):
        model = build_model(1, 0.8, 12, 1e-3)
        out = transfer.exact_transfer(model)
        assert out.infidelity_exact <= transfer.small_g_envelope(model)
        assert abs(out.fidelity_exact + out.infidelity_exact - 1.0) <= 1e-12

    def test_tiny_g_limit(self):
        # g = 1e-4 E_{l-1} / t_l^(0)
        ch = chain.build_effective_chain(1, 0.8, 8)
        spec = chain.chain_spectrum(ch)
        g = 1e-4 * chain.min_gap(spec) / spec.t_l_0
        model = transfer.attach_endpoints(ch, g)
        out = transfer.exact_transfer(model)
        assert out.infidelity_exact <= transfer.small_g_envelope(model)

    def test_hand_bounded_geometric_l2(self):
        # 2 sum = 4 g^2 (t_l0)^2 Q^2 = 4 g^2 * 41/81
        model = build_model(1, 0.0, 2, 0.01)
        out = transfer.exact_transfer(model)
        assert out.infidelity_exact <= 1.1 * 4 * 0.01**2 * 41 / 81

    def test_perturbative_tracks_exact(self):
        # calibrated agreement window; see the fig2a sweep for the full grid
        ch = chain.build_effective_chain(1, 0.8, 24)
        for g in np.geomspace(1e-4, 0.03, 12):
            model = transfer.attach_endpoints(ch, g)
            out = transfer.exact_transfer(model)
            if out.infidelity_exact <= 0.05:
                rel = abs(out.infidelity_exact - out.infidelity_perturbative)
                assert rel <= 0.2 * out.infidelity_exact


class TestRigorousBound:
    def test_hand_value_geometric_l2(self):
        model = build_model(1, 0.0, 2, 0.01)
        bound, conds = transfer.infidelity_rigorous_bound(model)
        # 3 * 2 g^2 sum (t_k0/E_k)^2 = 6 g^2 * 41/81
        assert abs(bound - 6 * 0.01**2 * 41 / 81) <= 1e-15
        assert conds == (True, True)

    def test_gap_condition_fails_at_large_g(self):
        ch = chain.build_effective_chain(1, 0.0, 2)
        spec = chain.chain_spectrum(ch)
        g_big = spec.energies[0]  # far beyond E_{l-2} / (4 sqrt(2) t_l0)
        model = transfer.attach_endpoints(ch, g_big)
        _, conds = transfer.infidelity_rigorous_bound(model)
        assert conds[0] is False

    @pytest.mark.parametrize("quantity", [
        transfer.perturbative_infidelity, transfer.infidelity_rigorous_bound,
        transfer.small_g_envelope, transfer.exact_transfer])
    def test_overflow_is_a_numerical_failure(self, quantity):
        # Omega_k^2 overflows at g = 1e300: ArithmeticError (exit 4), never inf
        # or NaN, and no RuntimeWarning escapes (the suite makes it an error)
        model = build_model(1, 1.2, 8, 1e300)
        with pytest.raises(ArithmeticError, match=r"overflows at g=1e\+300"):
            quantity(model)

    def test_bound_holds_on_grid(self):
        # exhaustive small-instance grid: zero violations when both flags hold
        for d in (1, 2):
            for frac in (0.5, 0.75, 1.0, 1.25, 1.75):
                for l in (2, 4, 6, 8, 10, 12):
                    ch = chain.build_effective_chain(d, frac * d, l)
                    for g in (0.01, 0.05):
                        model = transfer.attach_endpoints(ch, g)
                        out = transfer.exact_transfer(model)
                        if all(out.bound_conditions_met):
                            assert out.infidelity_exact <= out.infidelity_bound


class TestChooseG:
    def test_hand_value(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 0.0, 2))
        g = transfer.choose_g(spec, 0.06)
        expect = np.sqrt(0.06 / 6) / ((2 / 3) * (np.sqrt(41) / 6))
        assert abs(g - expect) <= 1e-12
        # second branch stays inactive here
        assert expect < 1 / (4 * np.sqrt(2) * (2 / 3))

    def test_sqrt_scaling(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.2, 10))
        g1 = transfer.choose_g(spec, 0.04)
        g2 = transfer.choose_g(spec, 0.02)
        assert abs(g2 - g1 / np.sqrt(2)) <= 1e-15

    def test_bound_equals_target_and_conditions_hold(self):
        for d, alpha, l in [(1, 0.7, 8), (1, 1.3, 12), (2, 3.3, 8)]:
            ch = chain.build_effective_chain(d, alpha, l)
            spec = chain.chain_spectrum(ch)
            for eps in (0.01, 0.3):
                g = transfer.choose_g(spec, eps)
                model = transfer.attach_endpoints(ch, g)
                bound, conds = transfer.infidelity_rigorous_bound(model)
                assert bound <= eps * (1 + 1e-12)
                assert conds == (True, True)

    @pytest.mark.parametrize("d, alpha, l", [(1, 0.5, 84), (3, 1.5, 28)])
    def test_bound_is_target_at_guard_edge(self, d, alpha, l):
        # the bound reads the Q that choose_g inverts, so at the deepest
        # admissible chain it returns epsilon to roundoff
        assert chain.max_admissible_l(d, alpha) == l
        ch = chain.build_effective_chain(d, alpha, l)
        spec = chain.chain_spectrum(ch)
        for eps in (0.01, 0.1, 1e-6):
            model = transfer.attach_endpoints(ch, transfer.choose_g(spec, eps))
            bound, conds = transfer.infidelity_rigorous_bound(model)
            assert abs(bound - eps) <= 4 * math.ulp(eps), (eps, bound)
            assert conds == (True, True)
            assert transfer.small_g_envelope(model) == pytest.approx(2 * bound / 3, rel=1e-15)

    def test_target_range_validated(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.0, 4))
        with pytest.raises(DomainError):
            transfer.choose_g(spec, 0.9)


class TestExactTransferAgainstSiteOracle:
    # the README chain and the guard-edge rows whose dense eigensolve is known
    # to be wrong (perfbench's KNOWN_CHAIN_FAILURES): the measure
    # (lambda_j, v_j[X] v_j[Y]) evaluates the same decomposition as the
    # evolved site vector, so the error stays the eigensolver's
    @pytest.mark.parametrize("d, alpha, l, eps", [
        (1, 1.2, 24, 1e-2), (1, 0.5, 84, 1e-2), (1, 0.5, 84, 1e-3), (3, 1.5, 28, 1e-3)])
    def test_matches_the_evolved_site_vector(self, d, alpha, l, eps):
        ch = chain.build_effective_chain(d, alpha, l)
        model = transfer.attach_endpoints(ch, transfer.choose_g(chain.chain_spectrum(ch), eps))
        dec = np.linalg.eigh(loop_site_matrix(model))
        psi0 = np.zeros(len(dec.eigenvalues))
        psi0[0] = 1.0
        expect = 1.0 - abs(evolve(dec, psi0, model.T)[-1]) ** 2
        got = transfer.exact_transfer(model).infidelity_exact
        assert abs(got - expect) <= 1e-12 * expect, (got, expect)


class TestProtocolSymmetries:
    def test_swap_property(self, monkeypatch):
        model = build_model(1, 0.9, 8, 0.04)
        dec = np.linalg.eigh(site_matrix(model, monkeypatch))
        n = len(dec.eigenvalues)
        x = np.zeros(n)
        x[0] = 1.0
        y = np.zeros(n)
        y[-1] = 1.0
        f_xy = abs(evolve(dec, x, model.T)[-1]) ** 2
        f_yx = abs(evolve(dec, y, model.T)[0]) ** 2
        assert abs(f_xy - f_yx) <= 1e-10

    def test_fidelity_site_vs_mode_basis(self):
        # two independent routes: site-basis dense evolution vs the
        # channel-eigenbasis representation of the same model
        ch = chain.build_effective_chain(1, 1.2, 10)
        g = 0.03
        model = transfer.attach_endpoints(ch, g)
        out = transfer.exact_transfer(model)
        spec = chain.chain_spectrum(ch)
        amplitude = numkit.endpoint_amplitude(
            spec.energies, g * spec.endpoint_amplitudes, spec.parities, 0.0, model.T
        )
        fid_mode = abs(amplitude) ** 2
        assert abs(fid_mode - out.fidelity_exact) <= 1e-10

    def test_small_g_envelope_property(self):
        for d, alpha, l in [(1, 0.7, 10), (1, 1.5, 14)]:
            ch = chain.build_effective_chain(d, alpha, l)
            spec = chain.chain_spectrum(ch)
            t_max = float(np.max(spec.endpoint_amplitudes))
            g_star = 0.01 * chain.min_gap(spec) / (np.sqrt(2) * t_max)
            for g in np.geomspace(g_star / 100, g_star, 5):
                model = transfer.attach_endpoints(ch, g)
                out = transfer.exact_transfer(model)
                assert out.infidelity_exact <= transfer.small_g_envelope(model) + 1e-6


class TestTransferTimeReport:
    """chain_transfer: the transfer time T and distance L it reports."""

    def test_log_growth_at_alpha_d(self):
        ts = [transfer.chain_transfer(1, 1.0, l, 0.01).T for l in (8, 16, 24, 32)]
        # T grows linearly in l: second differences vanish relative to slope
        d1 = np.diff(ts)
        assert np.all(d1 > 0)
        assert np.max(np.abs(np.diff(d1))) <= 0.05 * np.mean(d1)

    def test_constant_time_below_alpha_d(self):
        ts = [transfer.chain_transfer(1, 0.7, l, 0.01).T for l in (8, 16, 32, 40)]
        assert abs(ts[-1] - ts[-2]) <= 0.01 * ts[-1]

    def test_power_law_above_alpha_d(self):
        ls = np.arange(16, 62, 2)
        reports = [transfer.chain_transfer(1, 1.2, l, 0.01) for l in ls]
        logs = np.log([r.T for r in reports])
        logl = np.log([r.L for r in reports])
        slope = numkit.linear_fit(logl, logs).slope
        assert abs(slope - 0.2) <= 0.03

    def test_distance_reported(self):
        rep = transfer.chain_transfer(1, 1.0, 4, 0.05)
        assert rep.L == 46

    def test_coupling_from_epsilon_unless_given(self):
        spectrum = chain.chain_spectrum(chain.build_effective_chain(1, 1.2, 24))
        assert transfer.chain_transfer(1, 1.2, 24).g == transfer.choose_g(spectrum, 0.01)
        assert transfer.chain_transfer(1, 1.2, 24, 0.1).g == transfer.choose_g(spectrum, 0.1)
        out = transfer.chain_transfer(1, 1.2, 24, g=0.001)
        assert out.g == 0.001 and out.L == 50331646
        assert out.T == pytest.approx(np.pi / (np.sqrt(2) * 0.001 * spectrum.t_l_0), rel=1e-14)
