import numpy as np
import pytest

from longwalk import chain
from longwalk.errors import DomainError

import block_lattice as blocks


class TestBuildBlockLattice:
    def test_d1_l2_geometry(self):
        lat = blocks.build_block_lattice(1, 0.7, 2)
        np.testing.assert_array_equal(lat.sides, [1, 2, 4, 2, 1])
        assert lat.L == 10
        assert lat.n_sites == 10

    def test_d2_l2_populations(self):
        lat = blocks.build_block_lattice(2, 1.3, 2)
        np.testing.assert_array_equal(lat.populations, [1, 4, 16, 4, 1])
        assert lat.n_sites == 26

    def test_first_interblock_coupling(self):
        for d in (1, 2):
            for alpha in (0.5, 1.0, 2.0):
                lat = blocks.build_block_lattice(d, alpha, 2)
                expect = (np.sqrt(d) * 3.0) ** (-alpha)
                assert abs(lat.couplings[0] - expect) <= 1e-15 * expect

    def test_blocks_disjoint_touch_at_corners(self):
        for d in (1, 2):
            lat = blocks.build_block_lattice(d, 1.0, 4)
            # site sets disjoint: coordinates of different blocks never collide
            seen = {tuple(c) for c in lat.coords}
            assert len(seen) == lat.n_sites
            # consecutive geometric cubes [o, o+s]^d share exactly the corner
            # point (o_{j+1}, ..., o_{j+1}) on the main diagonal
            for j in range(2 * lat.l):
                far_corner = lat.origins[j] + lat.sides[j]
                assert far_corner == lat.origins[j + 1]

    def test_site_count_cap(self):
        with pytest.raises(DomainError):
            blocks.build_block_lattice(2, 1.0, 8)

    def test_distance_identity(self):
        for l in (2, 4, 6):
            lat = blocks.build_block_lattice(1, 1.0, l)
            assert lat.L == 2 ** (l + 1) + 2**l - 2

    def test_power_law_envelope(self):
        # every realized bond satisfies strength * r^alpha <= 1 + 1e-12
        for d, alpha in [(1, 0.6), (1, 1.7), (2, 1.1), (2, 3.0)]:
            lat = blocks.build_block_lattice(d, alpha, 2)
            for j in range(2 * lat.l):
                sa, sb = lat.block_slice(j), lat.block_slice(j + 1)
                ca = lat.coords[sa]
                cb = lat.coords[sb]
                diff = ca[:, None, :] - cb[None, :, :]
                r = np.sqrt(np.sum(diff**2, axis=-1))
                assert np.all(lat.couplings[j] * r**alpha <= 1 + 1e-12)

    def test_coupling_saturates_max_cube_distance(self):
        # the coupling equals (corner-to-corner cube distance)^(-alpha)
        lat = blocks.build_block_lattice(2, 1.4, 2)
        for j in range(2 * lat.l):
            dmax = np.sqrt(lat.d) * (lat.sides[j] + lat.sides[j + 1])
            assert abs(lat.couplings[j] - dmax ** (-lat.alpha)) <= 1e-15


class TestFullHamiltonian:
    def test_symmetric(self):
        lat = blocks.build_block_lattice(2, 1.2, 2)
        h = blocks.full_hamiltonian(lat, 0.05)
        assert np.array_equal(h, h.T)

    def test_block0_row_sums(self):
        lat = blocks.build_block_lattice(1, 0.9, 2)
        h = blocks.full_hamiltonian(lat, 0.0)
        # block 0 is one site coupled to both sites of block 1
        row = h[1]
        assert abs(row.sum() - 2 * 3.0 ** (-0.9)) <= 1e-14

    def test_spectrum_contains_zero(self):
        lat = blocks.build_block_lattice(1, 0.8, 2)
        h = blocks.full_hamiltonian(lat, 0.0)
        w = np.linalg.eigvalsh(h)
        assert np.min(np.abs(w)) <= 1e-12


class TestReduceToChain:
    def test_d1_alpha0_hand_values(self):
        # sqrt(N_j N_{j+1}) with N = (1,2,4,2,1): (sqrt2, sqrt8, sqrt8, sqrt2);
        # dividing by sqrt2 leaves (1, 2, 2, 1) = a^min(j, 2l-1-j) with a = 2
        lat = blocks.build_block_lattice(1, 0.0, 2)
        raw = blocks.effective_bonds(lat)
        np.testing.assert_allclose(
            raw, [np.sqrt(2), 2 * np.sqrt(2), 2 * np.sqrt(2), np.sqrt(2)], rtol=1e-15
        )
        ch, const = blocks.reduce_to_chain(lat)
        assert abs(const - np.sqrt(2)) <= 1e-15
        np.testing.assert_allclose(raw / const, [1, 2, 2, 1], rtol=1e-14)

    def test_d1_alpha_d_uniform(self):
        lat = blocks.build_block_lattice(1, 1.0, 2)
        ch, const = blocks.reduce_to_chain(lat)
        np.testing.assert_allclose(ch.bonds, [1, 1, 1, 1])
        assert ch.a == 1.0

    def test_normalized_bonds_palindromic(self):
        for d, alpha, l in [(1, 0.4, 4), (2, 2.2, 4), (2, 1.0, 2)]:
            lat = blocks.build_block_lattice(d, alpha, l)
            raw = blocks.effective_bonds(lat)
            np.testing.assert_allclose(raw, raw[::-1], rtol=1e-13)

    def test_matches_effective_chain_on_grid(self):
        for d in (1, 2):
            for alpha in (0.5 * d, 0.75 * d, 1.0 * d, 1.25 * d, 1.75 * d):
                for l in (2, 4):
                    lat = blocks.build_block_lattice(d, alpha, l)
                    ch, const = blocks.reduce_to_chain(lat)
                    direct = chain.build_effective_chain(d, alpha, l)
                    np.testing.assert_allclose(ch.bonds, direct.bonds, rtol=1e-12)


class TestSubspaceClosure:
    def test_exact_closure(self):
        for d, l in [(1, 2), (2, 2), (1, 4), (2, 4)]:
            lat = blocks.build_block_lattice(d, 1.1, l)
            assert blocks.verify_subspace_closure(lat) <= 1e-12

    def test_perturbed_bond_breaks_closure(self):
        lat = blocks.build_block_lattice(1, 1.1, 2)
        h = blocks.full_hamiltonian(lat, 0.05)
        # scale a single site-site bond by 1.01: block 1 site 1 <-> block 2 site 0
        s1, s2 = lat.block_slice(1), lat.block_slice(2)
        h[1 + s1.start, 1 + s2.start] *= 1.01
        h[1 + s2.start, 1 + s1.start] *= 1.01
        assert blocks.verify_subspace_closure(lat, hamiltonian=h) > 1e-4


class TestReductionDynamics:
    def test_d1_example(self):
        lat = blocks.build_block_lattice(1, 0.7, 2)
        assert blocks.verify_reduction_dynamics(lat, 0.05) <= 1e-10

    def test_d2_example(self):
        lat = blocks.build_block_lattice(2, 1.3, 2)
        assert blocks.verify_reduction_dynamics(lat, 0.05) <= 1e-10

    def test_zero_coupling_trivial(self):
        lat = blocks.build_block_lattice(1, 0.7, 2)
        t_grid = np.linspace(0.0, 10.0, 20)
        assert blocks.verify_reduction_dynamics(lat, 1e-300, t_grid) == 0.0
