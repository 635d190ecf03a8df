import numpy as np
import pytest

from longwalk import chain, numkit, scaling, transfer
from longwalk.errors import DomainError, PrecisionGuardError

from closed_forms import uniform_chain_analytic, zero_mode, zero_mode_analytic


def dense_transfer(ch):
    """The dense exact transfer of chain ch at g = 1e-3, the one step that
    applies the precision guard."""
    return transfer.exact_transfer(transfer.attach_endpoints(ch, 1e-3))


def chain_matrix(ch):
    return np.diag(ch.bonds, 1) + np.diag(ch.bonds, -1)


def loop_assembly(ch):
    """Oracle: (energies, amplitudes, parities) assembled eigenvector by
    eigenvector from dense eigh solves of the two parity sectors, with the
    per-row sign loop and the per-k parity power."""
    l, b = ch.l, ch.bonds
    n = 2 * l + 1
    even_bonds = np.concatenate([b[: l - 1], [np.sqrt(2.0) * b[l - 1]]])
    dec_e = np.linalg.eigh(np.diag(even_bonds, 1) + np.diag(even_bonds, -1))
    dec_o = np.linalg.eigh(np.diag(b[: l - 1], 1) + np.diag(b[: l - 1], -1))
    we, ve = dec_e.eigenvalues[::-1], dec_e.eigenvectors[:, ::-1]
    wo, vo = dec_o.eigenvalues[::-1], dec_o.eigenvectors[:, ::-1]
    energies = np.empty(n)
    energies[0 : 2 * l : 2] = we[:l]
    energies[1 : 2 * l : 2] = wo
    energies[2 * l] = we[l]
    amp = np.zeros((n, n))
    s = 1.0 / np.sqrt(2.0)
    for j in range(l + 1):
        k = 2 * j
        amp[k, :l] = ve[:l, j] * s
        amp[k, l] = ve[l, j]
        amp[k, l + 1 :] = ve[:l, j][::-1] * s
    for j in range(l):
        k = 2 * j + 1
        amp[k, :l] = vo[:, j] * s
        amp[k, l + 1 :] = -vo[:, j][::-1] * s
    for k in range(n):
        lead = amp[k, 0]
        if abs(lead) <= 1e-12:
            nz = np.nonzero(np.abs(amp[k]) > 1e-12)[0]
            lead = amp[k, nz[0]] if nz.size else 1.0
        if lead < 0:
            amp[k] = -amp[k]
    return energies, amp, np.array([(-1.0) ** k for k in range(n)])


def assert_matches_loop_assembly(spec, energies, amp):
    """chain_spectrum's energies within 1e-12 max|E| of eigh's (its error
    model is eps ||H||), and its endpoint weights t_k^2 within 1e-11 of the
    squared first column: on graded chains eigh's weights are the ones off,
    by 1.1e-12 against 60-digit mpmath at d=1 alpha=0.2 l=40 (a = 1.74),
    where chain_spectrum's are 5.3e-16 off."""
    scale = np.max(np.abs(energies))
    assert np.max(np.abs(spec.energies - energies)) <= 1e-12 * scale
    assert np.max(np.abs(spec.endpoint_amplitudes**2 - amp[:, 0] ** 2)) <= 1e-11


def site_amplitudes(spec):
    """The eigenvectors on all 2l+1 sites, rows as in the spectrum, from
    loop_assembly, once chain_spectrum is checked to agree with its energies
    and the magnitudes of its first column."""
    energies, amp, _ = loop_assembly(spec.chain)
    assert_matches_loop_assembly(spec, energies, amp)
    return amp


class TestBuildEffectiveChain:
    def test_alpha_equals_d(self):
        ch = chain.build_effective_chain(1, 1.0, 2)
        assert ch.a == 1.0
        np.testing.assert_allclose(ch.bonds, [1, 1, 1, 1])
        assert ch.L == 10

    def test_alpha_zero(self):
        ch = chain.build_effective_chain(1, 0.0, 2)
        assert ch.a == 2.0
        np.testing.assert_allclose(ch.bonds, [1, 2, 2, 1])

    def test_palindrome_and_distance(self):
        for d, alpha, l in [(1, 0.4, 6), (2, 2.7, 8), (3, 3.2, 4)]:
            ch = chain.build_effective_chain(d, alpha, l)
            np.testing.assert_allclose(ch.bonds, ch.bonds[::-1])
            assert ch.bonds[0] == 1.0 and ch.bonds[-1] == 1.0
            assert ch.L == 2 ** (l + 1) + 2**l - 2

    def test_precision_guard_rejects_deep_growing_chain(self):
        # d=3, alpha=1.5: a = 2^1.5, a^(l-1) = 2^88.5 at l=60 drowns the unit
        # gap in the dense exact transfer's guard; the chain and its spectrum
        # build
        ch = chain.build_effective_chain(3, 1.5, 60)
        with pytest.raises(PrecisionGuardError) as err:
            dense_transfer(ch)
        lmax = transfer.max_admissible_l(3, 1.5)
        assert lmax >= 2
        assert str(err.value).endswith(f"maximal admissible l is {lmax}")

    def test_guard_reports_max_admissible_depth(self):
        lmax = transfer.max_admissible_l(1, 1.8)  # a = 2^-0.8
        assert lmax % 2 == 0
        dense_transfer(chain.build_effective_chain(1, 1.8, lmax))
        with pytest.raises(PrecisionGuardError):
            dense_transfer(chain.build_effective_chain(1, 1.8, lmax + 2))

    def test_guard_admits_no_depth(self):
        # a = 2^-23: eps > 1e-3 a^2 already at l = 2, so max_admissible_l
        # takes its default (TestGuardBeforeSpectrum runs the CLI there)
        assert transfer.max_admissible_l(1, 24.0) == 0

    @pytest.mark.parametrize("d, alpha, lmax", [
        (1, 1.0, 1022), (1, 1.8, 1022), (1, 0.5, 1022), (3, 1.5, 682), (1, 3.0, 512),
        (2, 14.0, 86), (3, 0.0, 340),
    ])
    def test_float_range_limit(self, d, alpha, lmax):
        # L = 3 2^l - 2 stays a finite float for l <= 1022, and the bonds
        # 2^((d-alpha) j), j < l, normal floats for |d-alpha| (l-1) <= 1022
        assert chain.max_depth(d, alpha) == lmax
        assert 0 <= transfer.max_admissible_l(d, alpha) <= lmax  # its guard loop stays finite
        ch = chain.build_effective_chain(d, alpha, lmax)
        assert np.all(np.isfinite(ch.bonds)) and np.min(ch.bonds) >= np.finfo(float).tiny
        assert np.isfinite(float(ch.L))
        with pytest.raises(DomainError, match=f"2 <= l <= {lmax} for d={d}") as err:
            chain.build_effective_chain(d, alpha, lmax + 2)
        assert not isinstance(err.value, PrecisionGuardError)

    def test_odd_l_rejected(self):
        with pytest.raises(DomainError):
            chain.build_effective_chain(1, 1.0, 3)


class TestChainSpectrum:
    def test_uniform_chain_cosine_energies(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.0, 2))
        expect = [np.sqrt(3), 1, 0, -1, -np.sqrt(3)]
        np.testing.assert_allclose(spec.energies, expect, atol=1e-14)

    def test_hand_solved_geometric_chain(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 0.0, 2))
        np.testing.assert_allclose(spec.energies, [3, 1, 0, -1, -3], atol=1e-13)
        # even sector [[0, 1, 0], [1, 0, 2 sqrt2], [0, 2 sqrt2, 0]] gives
        # 1/6, 2/3, 1/6; the odd sector [[0, 1], [1, 0]] gives 1/2 twice
        np.testing.assert_allclose(
            spec.endpoint_amplitudes, [1 / 6, 1 / 2, 2 / 3, 1 / 2, 1 / 6], atol=1e-13
        )
        np.testing.assert_allclose(
            site_amplitudes(spec)[2], [2 / 3, 0, -1 / 3, 0, 2 / 3], atol=1e-13
        )

    def test_eigenpairs_satisfy_eigenvalue_equation(self):
        for d, alpha, l in [(1, 0.7, 8), (1, 1.5, 12), (2, 2.8, 10)]:
            ch = chain.build_effective_chain(d, alpha, l)
            spec = chain.chain_spectrum(ch)
            h = chain_matrix(ch)
            amp = site_amplitudes(spec)
            resid = np.max(np.abs(h @ amp.T - amp.T * spec.energies))
            assert resid <= 1e-12 * max(1.0, np.max(np.abs(spec.energies)))

    def test_traceless(self):
        for alpha in [0.3, 1.0, 1.7]:
            spec = chain.chain_spectrum(chain.build_effective_chain(1, alpha, 10))
            assert abs(spec.energies.sum()) <= 1e-10 * np.max(np.abs(spec.energies))

    def test_spectrum_symmetric_about_zero(self):
        for d, alpha, l in [(1, 0.6, 14), (1, 1.4, 16), (2, 1.0, 12)]:
            spec = chain.chain_spectrum(chain.build_effective_chain(d, alpha, l))
            e = np.sort(spec.energies)
            np.testing.assert_allclose(
                e, -np.sort(-e)[::-1] * 0 + e, atol=1e-10 * np.max(np.abs(e))
            )
            np.testing.assert_allclose(
                np.sort(e), np.sort(-e), atol=1e-10 * np.max(np.abs(e))
            )

    def test_mirror_symmetry_with_parity(self):
        for d, alpha, l in [(1, 0.8, 20), (1, 1.8, 30), (1, 1.0, 24)]:
            spec = chain.chain_spectrum(chain.build_effective_chain(d, alpha, l))
            amp = site_amplitudes(spec)
            for k in range(spec.energies.shape[0]):
                np.testing.assert_allclose(
                    amp[k], spec.parities[k] * amp[k, ::-1], atol=1e-9,
                )

    def test_orthonormality(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.3, 18))
        amp = site_amplitudes(spec)
        gram = amp @ amp.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10
        gram_sites = amp.T @ amp
        assert np.max(np.abs(gram_sites - np.eye(gram_sites.shape[0]))) <= 1e-10

    def test_assembly_matches_loop_oracle(self):
        # the sectors interleave into the oracle's order with its parities,
        # and the amplitudes are >= 0 (no -0).  Past l = 64 eigh's own
        # weights stray (7.2e-9 at d=1 alpha=0.5 l=84), so there only the
        # energies are compared; TestSpectrumAccuracy holds those depths to
        # mpmath
        checked = 0
        for d in (1, 2, 3):
            for alpha in (0.5, 1.0, 1.5, 1.9, 2.5):
                for l in (2, 4, 10, 24, 46, 64, 84, 100):
                    ch = chain.build_effective_chain(d, alpha, l)
                    if not transfer._guard_ok(ch.a, ch.l):  # the dense oracle strays there
                        continue
                    spec = chain.chain_spectrum(ch)
                    energies, amp, parities = loop_assembly(ch)
                    assert spec.parities.tobytes() == parities.tobytes(), (d, alpha, l)
                    assert not np.any(np.signbit(spec.endpoint_amplitudes)), (d, alpha, l)
                    if l <= 64:
                        assert_matches_loop_assembly(spec, energies, amp)
                    else:
                        err = np.max(np.abs(spec.energies - energies))
                        assert err <= 1e-12 * np.max(np.abs(energies)), (d, alpha, l)
                    checked += 1
        assert checked >= 60

    def test_diagonalised_once_per_chain(self, monkeypatch):
        # each sector (dimensions 13 and 12) and the sector without its
        # first site (12 and 11): four values-only solves, and no eigh
        dims = []
        solve = numkit.zero_diagonal_eigenvalues
        monkeypatch.setattr(numkit, "zero_diagonal_eigenvalues",
                            lambda b: dims.append(len(b) + 1) or solve(b))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: pytest.fail("eigh called"))
        ch = chain.build_effective_chain(1, 1.2, 12)
        spec = chain.chain_spectrum(ch)
        again = chain.chain_spectrum(ch)
        assert again.chain is ch and again.endpoint_amplitudes is spec.endpoint_amplitudes
        assert dims == [13, 12, 12, 11]
        # the shared result cannot be changed by one of its users
        assert not any(a.flags.writeable
                       for a in (spec.energies, spec.endpoint_amplitudes, spec.parities))
        # an equal but distinct chain is diagonalised on its own
        chain.chain_spectrum(chain.build_effective_chain(1, 1.2, 12))
        assert dims == [13, 12, 12, 11] * 2

    def test_sign_fixing(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.2, 16))
        assert np.all(spec.endpoint_amplitudes > 0)

    def test_zero_mode_energy_within_tolerance(self):
        for d, alpha, l in [(1, 0.2, 24), (3, 0.5, 16)]:
            ch = chain.build_effective_chain(d, alpha, l)
            spec = chain.chain_spectrum(ch)
            assert abs(spec.energies[l]) <= 1e-8 * max(1.0, ch.a ** (l - 1))


class TestZeroModeAnalytic:
    def test_hand_values_a2_l2(self):
        ch = chain.build_effective_chain(1, 0.0, 2)
        amps = zero_mode(ch)
        np.testing.assert_allclose(amps, [2 / 3, 0, -1 / 3, 0, 2 / 3], atol=1e-15)
        # closed-form endpoint: 1/sqrt(1/4 + 2)
        assert abs(amps[0] - 1 / np.sqrt(0.25 + 2.0)) <= 1e-15

    def test_unit_norm_and_kernel(self):
        for d, alpha, l in [(1, 0.5, 10), (1, 1.6, 20), (2, 3.1, 14), (3, 1.5, 8), (1, 1.0, 12)]:
            ch = chain.build_effective_chain(d, alpha, l)
            amps = zero_mode(ch)
            assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
            resid = np.max(np.abs(chain_matrix(ch) @ amps))
            assert resid <= 1e-10 * np.max(ch.bonds)

    def test_matches_numeric_eigenvector(self):
        for d in (1, 2, 3):
            for dalpha in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8):
                alpha = d + dalpha
                if alpha < 0:
                    continue
                lmax = min(transfer.max_admissible_l(d, alpha), 40)
                for l in {4, 12, lmax}:
                    ch = chain.build_effective_chain(d, alpha, l)
                    spec = chain.chain_spectrum(ch)
                    amps = zero_mode(ch)
                    err = np.max(np.abs(site_amplitudes(spec)[l] - amps))
                    assert err <= 1e-9, (d, alpha, l, err)
                    # the recursion against the closed form
                    assert np.max(np.abs(amps - zero_mode_analytic(ch))) <= 1e-14, (d, alpha, l)

    def test_uniform_case_alternates(self):
        # a = 1 (alpha = d), which the geometric closed form excludes:
        # v_2j = (-1)^j / sqrt(l + 1)
        for l in (2, 12, 100):
            amps = zero_mode(chain.build_effective_chain(1, 1.0, l))
            expect = np.zeros(2 * l + 1)
            expect[::2] = (-1.0) ** np.arange(l + 1) / np.sqrt(l + 1.0)
            np.testing.assert_allclose(amps, expect, rtol=0, atol=1e-15)


class TestUniformChainAnalytic:
    def test_l2_closed_form(self):
        pairs = uniform_chain_analytic(2)
        energies = [p[0] for p in pairs]
        ratios = [p[1] for p in pairs]
        np.testing.assert_allclose(energies, [np.sqrt(3), 1, 0, -1, -np.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(
            ratios, [0.5, np.sqrt(3) / 2, 1, np.sqrt(3) / 2, 0.5], atol=1e-14
        )

    def test_middle_mode_always_resonant(self):
        for l in (2, 6, 20):
            e, ratio = uniform_chain_analytic(l)[l]
            assert abs(e) <= 1e-14
            assert abs(ratio - 1.0) <= 1e-14

    def test_matches_numeric_spectrum(self):
        for l in (2, 8, 24):
            spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.0, l))
            pairs = uniform_chain_analytic(l)
            np.testing.assert_allclose(
                spec.energies, [p[0] for p in pairs], atol=1e-10
            )
            tl = spec.t_l_0
            np.testing.assert_allclose(
                spec.endpoint_amplitudes / tl, [p[1] for p in pairs], atol=1e-10
            )


class TestQFactor:
    def test_uniform_l2(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.0, 2))
        rep = chain.q_factor(spec)
        assert abs(rep.q**2 - 5 / 3) <= 1e-12

    def test_geometric_l2(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 0.0, 2))
        rep = chain.q_factor(spec)
        assert abs(rep.q**2 - 41 / 36) <= 1e-12
        assert abs(rep.q - np.sqrt(41) / 6) <= 1e-12
        assert rep.min_gap == spec.energies[1]

    def test_three_site_uniform(self):
        # depth-1 channel built directly: modes at +-sqrt(2), ratio sqrt(2)/2 each
        ch = chain.EffectiveChain(d=1, alpha=1.0, l=1, a=1.0,
                                  bonds=np.array([1.0, 1.0]), L=4)
        rep = chain.q_factor(chain.chain_spectrum(ch))
        assert abs(rep.q - 1 / np.sqrt(2)) <= 1e-12

    def test_terms_sum_to_q_squared(self):
        spec = chain.chain_spectrum(chain.build_effective_chain(1, 1.4, 12))
        rep = chain.q_factor(spec)
        l = spec.zero_index
        terms = [(spec.endpoint_amplitudes[k] / spec.t_l_0 / spec.energies[k]) ** 2
                 for k in range(2 * l + 1) if k != l]
        assert abs(sum(terms) - rep.q**2) <= 1e-12 * rep.q**2

    def test_min_gap_examples(self):
        assert abs(chain.min_gap(chain.chain_spectrum(
            chain.build_effective_chain(1, 0.0, 2))) - 1.0) <= 1e-13
        assert abs(chain.min_gap(chain.chain_spectrum(
            chain.build_effective_chain(1, 1.0, 2))) - 1.0) <= 1e-13
        # shrinking chain: gap tracks a^l
        ch = chain.build_effective_chain(1, 2.0, 2)  # a = 1/2, bonds (1,.5,.5,1)
        gap = chain.min_gap(chain.chain_spectrum(ch))
        assert gap / ch.a**ch.l >= 0.5


class TestGapAndQScalingProperties:
    def test_growing_chain_gap_bounded_below(self):
        # a > 1: min_gap(l) settles geometrically to a positive constant
        alpha = 1.0 - 0.2  # d=1, a = 2^0.2
        gaps = {}
        for l in range(4, 82, 2):
            spec = chain.chain_spectrum(chain.build_effective_chain(1, alpha, l))
            gaps[l] = chain.min_gap(spec)
        tail = [g for l, g in gaps.items() if l >= 12]
        assert min(tail) >= 0.9 * gaps[80]

    @pytest.mark.parametrize("dalpha", [0.2, 0.5, 0.8])
    def test_shrinking_chain_gap_tracks_a_to_l(self, dalpha):
        alpha = 1.0 + dalpha
        lmax = min(transfer.max_admissible_l(1, alpha), 60)
        ratios = []
        for l in range(4, lmax + 1, 2):
            ch = chain.build_effective_chain(1, alpha, l)
            ratios.append(chain.min_gap(chain.chain_spectrum(ch)) / ch.a**l)
        assert max(ratios) / min(ratios) <= 3.0

    def test_q_slope_matches_alpha_minus_d(self):
        series = scaling.q_scaling_sweep(1, 1.2, 4, 60)
        mask = series.sizes >= 2.0**13
        fit = numkit.linear_fit(np.log(series.sizes[mask]), np.log(series.values[mask]))
        assert abs(fit.slope - 0.2) <= 0.03

    def test_q_log_linear_at_alpha_d(self):
        series = scaling.q_scaling_sweep(1, 1.0, 8, 64)
        fit = numkit.linear_fit(np.log(series.sizes), series.values)
        assert fit.r_squared >= 0.999

    def test_q_converges_for_growing_chain(self):
        series = scaling.q_scaling_sweep(1, 0.8, 4, 80)
        q = series.values
        diffs = np.abs(np.diff(q))
        # successive differences shrink geometrically (ratio ~a^-2 = 0.76 here)
        assert np.all(diffs[1:] <= 0.9 * diffs[:-1] + 1e-12)
        assert abs(q[-1] - q[len(q) // 2 - 1]) <= 0.01 * q[-1]


def mp_sector_oracle(ch, dps=30):
    """Oracle: (energies descending, endpoint amplitudes t_k^(0)) of the
    channel from mpmath solves of its two parity sectors at `dps` digits.

    Each sector goes to mpmath's implicit QL on the tridiagonal (the solver
    behind mp.eigsy, without its Householder pass, which a tridiagonal does
    not need), carrying only the eigenvectors' first components: O(n^2) per
    sector.  The sector eigenvalues strictly interlace, so sorting their
    union reproduces the channel's order; each endpoint amplitude is the
    sector vector's first component over sqrt(2), sign fixed positive.
    """
    mp = pytest.importorskip("mpmath").mp
    from mpmath.matrices.eigen_symmetric import tridiag_eigen

    l, b = ch.l, ch.bonds
    pairs = []
    with mp.workdps(dps):
        odd_bonds = [mp.mpf(x) for x in b[: l - 1]]
        for bonds in (odd_bonds + [mp.sqrt(2) * mp.mpf(b[l - 1])], odd_bonds):
            n = len(bonds) + 1
            w, first = [mp.zero] * n, mp.zeros(1, n)
            first[0, 0] = 1
            tridiag_eigen(mp, w, bonds + [mp.zero], first)
            pairs += [(w[j], abs(first[0, j]) / mp.sqrt(2)) for j in range(n)]
        pairs.sort(key=lambda p: -p[0])
        return [p[0] for p in pairs], [p[1] for p in pairs]


class TestGuardEdgeAccuracy:
    """Q, E_{l-2} and t_l^(0) at the deepest guard-admissible depth, against
    30-digit mpmath solves of the same parity sectors."""

    @pytest.mark.parametrize("d, alpha, l", [(3, 1.5, 28), (1, 1.9, 46)])
    def test_against_mpmath_sectors(self, d, alpha, l):
        assert transfer.max_admissible_l(d, alpha) == l
        ch = chain.build_effective_chain(d, alpha, l)
        spec = chain.chain_spectrum(ch)
        energies, t0 = mp_sector_oracle(ch)
        q = sum((t0[k] / t0[l] / energies[k]) ** 2 for k in range(2 * l + 1) if k != l) ** 0.5
        assert abs(chain.q_factor(spec).q / float(q) - 1.0) <= 1e-9
        # Q from the zero-mode recursion is 1.1e-16 and 5.6e-16 off here
        assert abs(ch.q / float(q) - 1.0) <= 1e-14
        assert abs(spec.energies[l - 2] / float(energies[l - 2]) - 1.0) <= 1e-8
        # t_l^(0) is 4.4e-7 at d=1 alpha=1.9, where its error is 7.8e-16
        # relative; the absolute bound is the tighter one at d=3
        t_analytic = zero_mode_analytic(ch)[0]
        assert abs(spec.t_l_0 - t_analytic) <= 1e-12
        assert abs(spec.t_l_0 / t_analytic - 1.0) <= 1e-10


class TestSpectrumAccuracy:
    """The chain's solver (``chain._diagonalise``, behind chain_spectrum)
    against 80-digit mpmath solves of the same parity sectors, inside the
    precision guard, at its edge and past it, the zero mode excluded from
    the relative checks.

    For a > 1 (alpha < d), the modes in the chain's middle have weights
    below 1e-17 that the weights formula cannot resolve and sets to 0: every
    t_k there is held to 1e-8 absolute, and t_k >= 1e-4 to 1e-10 relative.
    At d=3 alpha=1.5 l=28 the sectors' smallest energies were 1.3e-10 off
    when their bidiagonal halves were solved as lower bidiagonals.
    """

    @pytest.mark.parametrize("d, alpha, l", [
        (1, 1.2, 24), (3, 1.5, 28), (1, 1.9, 46), (1, 0.5, 84),  # inside, edge
        (1, 1.9, 60), (1, 1.9, 100), (3, 1.5, 40), (1, 0.5, 100),  # past the guard
    ])
    def test_against_mpmath_sectors(self, d, alpha, l):
        mp = pytest.importorskip("mpmath").mp
        ch = chain.build_effective_chain(d, alpha, l)
        e, t, _ = chain._diagonalise(ch)
        energies, t0 = mp_sector_oracle(ch, dps=80)
        assert e[l] == 0.0
        nonzero = [k for k in range(2 * l + 1) if k != l]
        with mp.workdps(80):
            e_err = max(abs(e[k] / energies[k] - 1) for k in nonzero)
            assert e_err <= 1e-14
            exact = mp.fsum((t0[k] / energies[k]) ** 2 for k in nonzero)
            ours = mp.fsum((mp.mpf(t[k]) / e[k]) ** 2 for k in nonzero)
            assert abs(ours / exact - 1) <= 1e-13
            rel = [abs(t[k] / t0[k] - 1) for k in range(2 * l + 1)]
            if alpha > d:
                assert max(rel) <= 1e-13
            else:
                assert max(r for r, x in zip(rel, t0) if x >= 1e-4) <= 1e-10
                assert max(abs(t[k] - t0[k]) for k in range(2 * l + 1)) <= 1e-8


def mp_bordered_q(ch, dps=40):
    """Oracle: Q = ||x|| / v_0 from an mpmath LU solve, at `dps` digits, of
    the bordered system [[H, v], [v^T, 0]] [x; mu] = [e_0; 0], with v the
    unit zero mode at that precision.  Its solution is x = H^+ e_0, mu = v_0."""
    mp = pytest.importorskip("mpmath").mp
    n = 2 * ch.l + 1
    with mp.workdps(dps):
        b = [mp.mpf(x) for x in ch.bonds]
        v = [mp.zero] * n
        v[0] = mp.one
        for i in range(0, n - 1, 2):
            v[i + 2] = -v[i] * b[i] / b[i + 1]
        norm = mp.sqrt(mp.fsum(x * x for x in v))
        v = [x / norm for x in v]
        h = mp.zeros(n + 1, n + 1)
        for i, x in enumerate(b):
            h[i, i + 1] = h[i + 1, i] = x
        for i, x in enumerate(v):
            h[i, n] = h[n, i] = x
        sol = mp.lu_solve(h, mp.matrix([1] + [0] * n))
        assert abs(sol[n] - v[0]) <= mp.mpf(10) ** (8 - dps)
        return mp.sqrt(mp.fsum(sol[i] ** 2 for i in range(n))) / v[0]


def mp_forward_q(ch, dps=420):
    """Oracle: Q = ||x|| / v_0 in O(l) at `dps` digits, with the bonds
    a^min(j, 2l-1-j), a = 2^(d-alpha), rebuilt in mpmath.

    x = H^+ e_0 lives on the odd sites and solves the even rows
    b_{2i-1} x_{2i-1} + b_{2i} x_{2i+1} = r_{2i}, r = e_0 - v_0 v, which this
    solves forward from row 0 (the library runs backward from row 2l).  The
    last row, b_{2l-1} x_{2l-1} = r_{2l}, is left over and must hold.  The
    lists hold nonzero components only: v[i] = v_{2i}, r[i] = r_{2i} and
    x[i] = x_{2i+1}."""
    mp = pytest.importorskip("mpmath").mp
    l = ch.l
    with mp.workdps(dps):
        a = mp.mpf(2) ** (ch.d - mp.mpf(ch.alpha))
        b = [a ** min(j, 2 * l - 1 - j) for j in range(2 * l)]
        v = [mp.one]
        for i in range(0, 2 * l, 2):
            v.append(-v[-1] * b[i] / b[i + 1])
        norm = mp.sqrt(mp.fsum(x * x for x in v))
        v = [x / norm for x in v]
        r = [-v[0] * x for x in v]
        r[0] += 1
        x = [r[0] / b[0]]
        for i in range(1, l):
            x.append((r[i] - b[2 * i - 1] * x[-1]) / b[2 * i])
        assert abs(b[2 * l - 1] * x[-1] - r[l]) <= mp.mpf(10) ** (-40) * abs(r[l])
        return mp.sqrt(mp.fsum(y * y for y in x)) / v[0]


class TestQRecursion:
    """Q from the zero-mode recursion (``EffectiveChain.q``) against 40-digit
    bordered solves, within and past the precision guard, and against a
    420-digit forward solve out to the float range."""

    @pytest.mark.parametrize("d, alpha, l",
                             [(1, 1.4, 40), (2, 1.5, 24), (1, 1.0, 20), (2, 4.0, 16)])
    def test_against_bordered_solve(self, d, alpha, l):
        ch = chain.build_effective_chain(d, alpha, l)
        assert abs(ch.q / float(mp_bordered_q(ch)) - 1.0) <= 1e-14

    def test_past_the_guard(self):
        # the guard stops the dense exact transfer at l = 28 for d=3
        # alpha=1.5; the recursion does not need it
        ch = chain.build_effective_chain(3, 1.5, 36)
        with pytest.raises(PrecisionGuardError):
            dense_transfer(ch)
        assert abs(ch.q / float(mp_bordered_q(ch)) - 1.0) <= 1e-14

    @pytest.mark.parametrize("d, alpha, l", [
        (1, 0.8, 200), (1, 0.8, 500), (1, 0.8, 1000),
        (1, 1.2, 200), (1, 1.2, 500), (1, 1.2, 1000),
        (3, 1.5, 682),  # the float range's limit
    ])
    def test_to_the_float_range(self, d, alpha, l):
        # 4.7e-14 at d=1 alpha=1.2 l=1000 is the largest difference seen:
        # the float bonds a^999 carry the rounding of a 999 times
        ch = chain.build_effective_chain(d, alpha, l)
        assert abs(ch.q / float(mp_forward_q(ch)) - 1.0) <= 1e-13

    def test_computed_once_per_chain(self, monkeypatch):
        calls = []
        recursion = chain._q_from_zero_mode
        monkeypatch.setattr(chain, "_q_from_zero_mode",
                            lambda bonds: calls.append(len(bonds)) or recursion(bonds))
        ch = chain.build_effective_chain(1, 1.2, 12)
        spec = chain.chain_spectrum(ch)
        assert ch.q == chain.q_factor(spec).q == chain.q_factor(spec).q
        assert calls == [24]
