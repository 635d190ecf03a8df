"""The O(n^2) arrowhead solver (numkit.arrowhead_spectra) and the kernel
that sends both parity sectors of a transfer to it when the larger is
above the crossover: against 40- and 60-digit mpmath on hard and graded
arrowheads, against numpy's eigh around the crossover and at large n, its
secular sums against a long-double sum and its end-root brackets against
eigh, and property tests of endpoint_amplitude on both sides of the
crossover."""

import math

import numpy as np
import pytest

from longwalk import numkit, ring
from longwalk.errors import DomainError

import test_numkit

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CROSSOVER = numkit._SECULAR_MIN_DIM
# the crossovers before the joint secular solve (110) and before the
# vectorised secular sweep (170): sizes around them stay covered, now on the
# secular side
EARLIER_CROSSOVERS = (110, 170)


def arrowhead_spectrum(onsite, poles, couplings):
    """The secular solver on one sector."""
    return numkit.arrowhead_spectra(onsite, [(poles, couplings)])[0]


def dense_spectrum(onsite, poles, couplings):
    h = np.diag(np.concatenate([[onsite], poles]))
    h[0, 1:] = h[1:, 0] = couplings
    dec = np.linalg.eigh(h)
    return dec.eigenvalues, dec.eigenvectors[0] ** 2


def spectral_sum(lam, w, t):
    return np.sum(w * np.exp(-1j * lam * t))


def scale_of(onsite, poles, couplings):
    return max(abs(onsite), np.max(np.abs(poles)), np.linalg.norm(couplings))


# (onsite, poles, couplings), n <= 12 each
HARD_ARROWHEADS = {
    "poles 1e-12 apart": (0.3, [1.0, 1.0 + 1e-12, 1.0 + 2e-12, -0.5, -0.5 * (1 + 1e-12), 2.0,
                                0.1, 3.0], [0.4, 0.3, 0.2, 0.5, 0.1, 0.2, 0.3, 0.05]),
    "exact ties": (0.0, [0.5, 0.5, 0.5, 1.0, 1.0, -1.0, 2.0, -0.25, -0.25, 0.75, 3.0],
                   [0.1, 0.2, 0.3, 0.4, 0.5, 0.1, 0.2, 0.3, 0.1, 0.2, 0.1]),
    "couplings 0 and 1e-10": (0.2, [-1.0, -0.3, 0.1, 0.4, 0.9, 1.5, 2.2],
                              [0.0, 1e-10, 0.5, 1e-10, 0.0, 0.3, 1e-10]),
    "onsite on a pole": (0.4, [-1.0, -0.3, 0.1, 0.4, 0.9, 1.5], [0.2, 0.1, 0.3, 0.25, 0.2, 0.1]),
    "onsite on a tied, weakly coupled pole": (0.4, [-1.0, 0.4, 0.4, 1.5], [0.2, 0.0, 1e-10, 0.1]),
}


def mp_arrowhead(mp, onsite, poles, couplings):
    """Oracle: the (eigenvalue, weight v_j[0]^2) pairs of the arrowhead,
    ascending, from mp.eigsy at mp's working precision."""
    n = len(poles) + 1
    h = mp.matrix(n, n)
    h[0, 0] = mp.mpf(onsite)
    for k in range(1, n):
        h[k, k] = mp.mpf(poles[k - 1])
        h[0, k] = h[k, 0] = mp.mpf(couplings[k - 1])
    values, vectors = mp.eigsy(h)
    return sorted((values[j], vectors[0, j] ** 2) for j in range(n))


class TestAgainstMpmath:
    @pytest.mark.parametrize("size", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("case", sorted(HARD_ARROWHEADS))
    def test_hard_arrowheads(self, case, size):
        mp = pytest.importorskip("mpmath").mp
        onsite, poles, couplings = HARD_ARROWHEADS[case]
        onsite, poles, couplings = onsite * size, np.array(poles) * size, np.array(couplings) * size
        with mp.workdps(40):
            exact = mp_arrowhead(mp, onsite, poles, couplings)
            lam, w = arrowhead_spectrum(onsite, poles, couplings)
            scale = max(abs(onsite), np.max(np.abs(poles)), np.max(np.abs(couplings)))
            for j, (value, weight) in enumerate(exact):
                assert abs(lam[j] - value) <= 1e-15 * scale, (j, lam[j], value)
                # 1e-30: below what 40 digits resolve in a weight that is 0
                assert abs(w[j] - weight) <= 1e-10 * weight + 1e-30, (j, w[j], weight)

    def test_graded_poles_and_couplings(self):
        # poles and couplings graded over 15 decades: deflation relative to
        # each pole keeps every root and weight to a few ulp of itself,
        # weights down to 1e-24 included (an absolute tolerance of 8 eps ||H||
        # zeroed the three smallest)
        mp = pytest.importorskip("mpmath").mp
        poles = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3]
        couplings = [1e-15, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]
        with mp.workdps(60):
            exact = mp_arrowhead(mp, 0.0, poles, couplings)
            lam, w = arrowhead_spectrum(0.0, poles, couplings)
            for j, (value, weight) in enumerate(exact):
                assert abs(lam[j] - value) <= 1e-15 * abs(value), (j, lam[j], value)
                assert abs(w[j] - weight) <= 1e-14 * weight, (j, w[j], weight)


class TestAgainstEigh:
    @pytest.mark.parametrize("n", sorted({CROSSOVER - 1, CROSSOVER + 1, 1025, 4096,
                                          *(c + s for c in EARLIER_CROSSOVERS for s in (-1, 1))}))
    def test_random_arrowhead(self, n):
        rng = np.random.default_rng(n)
        onsite, poles, couplings = 0.1, rng.standard_normal(n - 1), 0.1 * rng.standard_normal(n - 1)
        lam, w = arrowhead_spectrum(onsite, poles, couplings)
        lam_d, w_d = dense_spectrum(onsite, poles, couplings)
        scale = scale_of(onsite, poles, couplings)
        assert np.max(np.abs(lam - lam_d)) <= 1e-12 * scale
        assert np.max(np.abs(w - w_d)) <= 1e-12
        for t in (1.0, 20.0):
            assert abs(spectral_sum(lam, w, t) - spectral_sum(lam_d, w_d, t)) <= 1e-12


class TestArrowheadSpectrum:
    def test_no_poles(self):
        lam, w = arrowhead_spectrum(0.7, [], [])
        assert lam.tolist() == [0.7] and w.tolist() == [1.0]

    def test_two_level_closed_form(self):
        # [[a, z], [z, d]]: lambda = (a + d)/2 +- r, r = sqrt(((a - d)/2)^2 + z^2)
        a, d, z = 0.3, -0.2, 0.4
        r = np.hypot((a - d) / 2, z)
        lam, w = arrowhead_spectrum(a, [d], [z])
        np.testing.assert_allclose(lam, [(a + d) / 2 - r, (a + d) / 2 + r], rtol=0, atol=4e-16)
        np.testing.assert_allclose(w, [(r - (a - d) / 2) / (2 * r), (r + (a - d) / 2) / (2 * r)],
                                   rtol=1e-14)

    def test_zero_couplings_deflate_to_their_poles(self):
        lam, w = arrowhead_spectrum(0.0, [2.0, -1.0, 0.5], [0.0, 0.0, 0.0])
        assert lam.tolist() == [-1.0, 0.0, 0.5, 2.0]
        assert w.tolist() == [0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [
        (np.nan, [0.0], [1.0]), (0.0, [np.inf], [1.0]), (0.0, [0.0], [np.nan]),
    ])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            arrowhead_spectrum(*bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            arrowhead_spectrum(0.0, [0.0, 1.0], [1.0])


class TestSecularSums:
    """numkit._secular_sums, the O(n^2) part of the secular sweep, against a
    direct long-double sum of the same terms, for every row block shape."""

    @staticmethod
    def estimates(seed, m):
        """Sorted poles, couplings over eight decades, and one root estimate
        in every gap (origin at its left or right pole, tau a random share
        of the gap) plus the two end roots."""
        rng = np.random.default_rng(seed)
        d = np.sort(rng.standard_normal(m))
        z2 = (0.3 * rng.standard_normal(m) * 10.0 ** rng.uniform(-8, 0, m)) ** 2
        share, right = rng.uniform(0.05, 0.95, m - 1), rng.random(m - 1) < 0.5
        gaps = np.diff(d)
        origin = np.concatenate([d[:1], np.where(right, d[1:], d[:-1]), d[-1:]])
        tau = np.concatenate([[-rng.uniform(0.01, 1.0)],
                              np.where(right, (share - 1.0) * gaps, share * gaps),
                              [rng.uniform(0.01, 1.0)]])
        return d, z2, origin, tau

    @staticmethod
    def direct(d, z2, roots, origin, tau):
        """The four sums in long double, with delta = (d - origin) - tau
        rounded as the kernel rounds it, and the sums of |terms|."""
        delta = ((d - origin[:, None]) - tau[:, None]).astype(np.longdouble)
        terms = z2.astype(np.longdouble) / delta
        left = np.arange(d.shape[0]) < roots[:, None]
        rows = [terms, np.where(left, terms, 0.0), terms / delta,
                np.where(left, terms / delta, 0.0), terms / delta**2]
        return (np.array([r.sum(axis=1) for r in rows]),
                np.array([np.abs(r).sum(axis=1) for r in rows]))

    def check(self, d, z2, roots, origin, tau, cubes=False):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        exact, size = self.direct(d, z2, roots, origin, tau)
        sums = numkit._secular_sums(d, z2, roots, origin, tau, cubes=cubes)
        rows = 5 if cubes else 4
        assert sums.shape == (rows, roots.shape[0])
        # relative to the sum of |terms|: the plain relative error for the
        # three one-signed sums
        assert np.all(np.abs(sums - exact[:rows]) <= 1e-15 * size[:rows])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [1, 3, "all"])
    def test_every_block_shape(self, monkeypatch, seed, rows):
        m = 24
        d, z2, origin, tau = self.estimates(seed, m)
        monkeypatch.setattr(numkit, "_SECULAR_BLOCK", (m + 1 if rows == "all" else rows) * m)
        self.check(d, z2, np.arange(m + 1), origin, tau)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [1, 3, "all"])
    def test_cubes_in_every_block_shape(self, monkeypatch, seed, rows):
        # sum z2/delta^3 beside the four sums, which it must leave unchanged
        m = 24
        d, z2, origin, tau = self.estimates(seed, m)
        monkeypatch.setattr(numkit, "_SECULAR_BLOCK", (m + 1 if rows == "all" else rows) * m)
        self.check(d, z2, np.arange(m + 1), origin, tau, cubes=True)
        assert np.array_equal(numkit._secular_sums(d, z2, np.arange(m + 1), origin, tau)[:4],
                              numkit._secular_sums(d, z2, np.arange(m + 1), origin, tau,
                                                   cubes=True)[:4])

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_rows_whose_band_spans_every_pole(self, monkeypatch, seed):
        # the first root, one gap root and the last, in one block: no pole
        # lies below the first or at or above the last, so every pole is in
        # the band
        m = 24
        d, z2, origin, tau = self.estimates(seed, m)
        monkeypatch.setattr(numkit, "_SECULAR_BLOCK", (m + 1) * m)
        roots = np.array([0, 7, m])
        self.check(d, z2, roots, origin[roots], tau[roots])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cubes", [False, True])
    def test_one_block_of_gap_roots_only(self, seed, cubes):
        # roots 5..18 of m = 24 in one block: poles lie left of every row and
        # right of every row, and the band is still the whole row
        m = 24
        d, z2, origin, tau = self.estimates(seed, m)
        roots = np.arange(5, 19)
        assert numkit._secular_block_rows(m, roots.shape[0]) == roots.shape[0]
        self.check(d, z2, roots, origin[roots], tau[roots], cubes=cubes)


@st.composite
def end_root_arrowheads(draw):
    """(onsite, sorted poles, couplings) with the onsite energy below, among
    or above the poles and couplings from 1e-15 to 1 of the scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    poles = np.sort(rng.standard_normal(n))
    couplings = 0.5 * rng.standard_normal(n) * 10.0 ** rng.uniform(-15, 0, n)
    onsite = {"below": poles[0] - rng.exponential(),
              "among": rng.uniform(poles[0], poles[-1]),
              "above": poles[-1] + rng.exponential()}
    return float(onsite[draw(st.sampled_from(sorted(onsite)))]), poles, couplings


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(data=st.data())
def test_end_root_brackets_hold_the_extreme_eigenvalues(data):
    onsite, poles, couplings = data.draw(end_root_arrowheads())
    lam, _ = dense_spectrum(onsite, poles, couplings)
    znorm2 = couplings @ couplings
    # eigh's own error, eps ||H||, on a bound that is attained for n = 1
    slack = 4.0 * np.finfo(float).eps * scale_of(onsite, poles, couplings)
    assert lam[0] >= poles[0] - numkit._end_bracket(onsite - poles[0], znorm2) - slack
    assert lam[-1] <= poles[-1] + numkit._end_bracket(poles[-1] - onsite, znorm2) + slack


@st.composite
def arrowheads(draw, n):
    """(onsite, poles, couplings) with n poles: spread, clustered (offsets
    from 1e-15 to 1e-8, so some merge and some do not), tied or graded
    (gaps from 1e-14 to 1) poles, couplings of one size or spread over
    twelve decades, a share of them zero, and the onsite energy on a pole
    or off them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "clustered", "tied", "graded"]))
    if kind == "spread":
        poles = rng.standard_normal(n)
    elif kind == "clustered":
        centres = rng.standard_normal(3)[rng.integers(3, size=n)]
        poles = centres + 10.0 ** rng.integers(-15, -7, size=n) * rng.standard_normal(n)
    elif kind == "tied":
        poles = rng.choice(rng.standard_normal(max(n // 4, 1)), n)
    else:
        poles = np.cumsum(10.0 ** rng.uniform(-14, 0, n)) - 1.0
    couplings = 0.3 * rng.standard_normal(n)
    if draw(st.booleans()):
        couplings *= 10.0 ** rng.uniform(-12, 0, n)
    couplings[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    onsite = poles[0] if draw(st.booleans()) else rng.standard_normal()
    return float(onsite), poles, couplings


@pytest.mark.parametrize("n", sorted({1, 2, 9, CROSSOVER - 1, CROSSOVER + 1, 1025, 4096,
                                      *(c + s for c in EARLIER_CROSSOVERS for s in (-1, 1))}))
@hypothesis.settings(derandomize=True, database=None, max_examples=8, deadline=None)
@hypothesis.given(data=st.data())
def test_moment_identities(n, data):
    # sum_j v_j[0]^2 lambda_j^k = (H^k)_00 for k = 0, 1, 2
    onsite, poles, couplings = data.draw(arrowheads(n))
    lam, w = arrowhead_spectrum(onsite, poles, couplings)
    scale = scale_of(onsite, poles, couplings)
    assert lam.shape == w.shape == (poles.shape[0] + 1,)
    assert np.all(np.diff(lam) >= 0.0) and np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-14
    assert abs(w @ lam - onsite) <= 1e-14 * scale
    assert abs(w @ lam**2 - onsite**2 - couplings @ couplings) <= 1e-14 * scale**2


@st.composite
def channels(draw, n):
    """endpoint_amplitude input with n modes, all, nine tenths or half of
    them even, so that the sectors fall on either side of the crossover."""
    onsite, energies, couplings = draw(arrowheads(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    odd_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    parities = np.where(rng.random(energies.shape[0]) < odd_share, -1.0, 1.0)
    return energies, couplings, parities, onsite, draw(st.sampled_from([0.0, 0.7, 25.0]))


@pytest.mark.parametrize("modes", sorted({5, 60, *(c + 5 for c in (CROSSOVER, *EARLIER_CROSSOVERS)),
                                          *(2 * c + 40 for c in (CROSSOVER, *EARLIER_CROSSOVERS))}))
@hypothesis.settings(derandomize=True, database=None, max_examples=10, deadline=None)
@hypothesis.given(data=st.data())
def test_kernel_matches_the_full_matrix(modes, data):
    energies, couplings, parities, onsite, t = data.draw(channels(modes))
    amplitude = numkit.endpoint_amplitude(energies, couplings, parities, onsite, t)
    full = test_numkit.TestEndpointAmplitude.full_amplitude(energies, couplings, parities,
                                                            onsite, t)
    assert abs(amplitude - full) <= 1e-12
    assert abs(amplitude) <= 1.0 + 1e-12
    flipped = numkit.endpoint_amplitude(energies, couplings, -parities, onsite, t)
    assert abs(flipped + amplitude) <= 1e-14


@st.composite
def sector_sets(draw):
    """(onsite, sectors): one to four (poles, couplings) sectors, drawn as in
    arrowheads, of sizes that take Gragg's steps (up to 255 poles) or not,
    a sector with no pole and, in some, a pole on the shared onsite
    energy."""
    onsite, poles, couplings = draw(arrowheads(draw(st.sampled_from([2, 9, 40, 120, 300]))))
    sectors = [(poles, couplings)]
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.sampled_from([0, 1, 9, 40, 120, 300]))
        if n == 0:
            sectors.append((np.zeros(0), np.zeros(0)))
            continue
        _, poles, couplings = draw(arrowheads(n))
        if draw(st.booleans()):
            poles[draw(st.integers(0, n - 1))] = onsite
        sectors.append((poles, couplings))
    return onsite, draw(st.permutations(sectors))


@hypothesis.settings(derandomize=True, database=None, max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_joint_solve_is_each_sector_alone(data):
    # one secular loop for several sectors changes no bit of any of them
    onsite, sectors = data.draw(sector_sets())
    joint = numkit.arrowhead_spectra(onsite, sectors)
    assert len(joint) == len(sectors)
    for (poles, couplings), (lam, w) in zip(sectors, joint):
        alone_lam, alone_w = arrowhead_spectrum(onsite, poles, couplings)
        assert np.array_equal(lam, alone_lam) and np.array_equal(w, alone_w)


class TestSweepCounts:
    """_secular_sums calls per ring transfer (one per sweep and sector with
    unconverged roots) at alpha = 1.1 and the g of small-g envelope 0.02, as
    reached by the joint loop with its end-root probes and Gragg's steps
    (the parent loop took 14, 13 and 14)."""

    @pytest.mark.parametrize("d, L, calls", [(1, 2000, 10), (2, 44, 10), (3, 20, 11)])
    def test_calls_per_transfer(self, monkeypatch, d, L, calls):
        rows = []
        sums = numkit._secular_sums
        monkeypatch.setattr(numkit, "_secular_sums", lambda poles, z2, roots, *args: rows.append(
            roots.shape[0]) or sums(poles, z2, roots, *args))
        q2 = ring.ring_spectral_summary(ring.ring_spectrum(d, L, 1.1)).q2
        ring.ring_exact_transfer(d, L, 1.1, math.sqrt(0.02 * L**d / (4.0 * q2)))
        assert len(rows) <= calls, rows
        if d == 1:
            # no root of a d = 1 sector trails the others by a one-row sweep
            assert min(rows) > 1, rows


class TestSectorDispatch:
    # at the shipped crossover and, set by monkeypatch, at the earlier ones:
    # the dispatch reads _SECULAR_MIN_DIM and hard-codes no dimension, and
    # sends both sectors to the solver the larger one picks
    @pytest.mark.parametrize("modes, secular, crossover", [
        pytest.param(c + shift, shift == 0, c, id=f"{c + shift}-{shift == 0}")
        for c in sorted({CROSSOVER, *EARLIER_CROSSOVERS}) for shift in (-1, 0)])
    def test_sector_dimension_picks_the_solver(self, monkeypatch, modes, secular, crossover):
        # one even sector of dimension modes + 1; the odd one is the endpoint alone
        monkeypatch.setattr(numkit, "_SECULAR_MIN_DIM", crossover)
        calls = []
        solve = numkit.arrowhead_spectra
        monkeypatch.setattr(numkit, "arrowhead_spectra", lambda onsite, sectors: calls.append(
            [len(poles) for poles, _ in sectors]) or solve(onsite, sectors))
        rng = np.random.default_rng(modes)
        numkit.endpoint_amplitude(rng.standard_normal(modes), np.full(modes, 0.05),
                                  np.ones(modes), 0.0, 1.0)
        assert calls == ([[modes, 0]] if secular else [])

    @pytest.mark.parametrize("crossover", sorted({CROSSOVER, *EARLIER_CROSSOVERS}))
    @pytest.mark.parametrize("larger", [0, 1])
    def test_one_solver_for_both_sectors(self, monkeypatch, crossover, larger):
        # an even sector of dimension crossover + larger beside an odd one of
        # dimension crossover - 9: the larger picks the solver for both
        monkeypatch.setattr(numkit, "_SECULAR_MIN_DIM", crossover)
        calls, eighs = [], []
        solve, eigh = numkit.arrowhead_spectra, np.linalg.eigh
        monkeypatch.setattr(numkit, "arrowhead_spectra", lambda onsite, sectors: calls.append(
            [len(poles) for poles, _ in sectors]) or solve(onsite, sectors))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: eighs.append(len(h)) or eigh(h))
        even, odd = crossover + larger - 1, crossover - 10
        rng = np.random.default_rng(crossover)
        channel = (rng.standard_normal(even + odd), np.full(even + odd, 0.05),
                   np.repeat([1.0, -1.0], [even, odd]), 0.0, 1.0)
        got = numkit.endpoint_amplitude(*channel)
        if larger:
            assert (calls, eighs) == ([[even, odd]], [])
        else:
            assert (calls, eighs) == ([], [even + 1, odd + 1])
        assert abs(got - test_numkit.TestEndpointAmplitude.full_amplitude(*channel)) <= 1e-12

    @pytest.mark.parametrize("modes", sorted({10, *(c + 10 for c in (CROSSOVER, *EARLIER_CROSSOVERS))}))
    def test_non_finite_input_rejected_on_both_paths(self, modes):
        e, c, p = np.linspace(-1, 1, modes), np.full(modes, 0.05), np.ones(modes)
        for bad in (dict(e=np.where(e > 0.5, np.nan, e)), dict(c=np.where(e > 0.5, np.inf, c)),
                    dict(onsite=np.nan), dict(t=np.inf)):
            args = {"e": e, "c": c, "onsite": 0.0, "t": 1.0, **bad}
            with pytest.raises(DomainError, match="non-finite"):
                numkit.endpoint_amplitude(args["e"], args["c"], p, args["onsite"], args["t"])

    def test_non_finite_amplitude_from_finite_input(self):
        # an eigenvalue near 1e308 times t = 10 overflows the phase
        with pytest.raises(ArithmeticError, match="non-finite endpoint amplitude"):
            numkit.endpoint_amplitude([1e308], [1.0], [1.0], 0.0, 10.0)
