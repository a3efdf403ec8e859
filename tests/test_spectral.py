"""Momentum-space operator, closed-form eigen-system, Fourier oracle."""

import tracemalloc

import numpy as np
import pytest

import lqw.core
import lqw.spectral
from lqw import (
    DegenerateMomentumError,
    NormalizationError,
    StandardInit,
    WalkParams,
    eigen_system,
    evolve,
    grover_coin,
    momentum_grid_solution,
    momentum_operator,
    propagate_fourier,
)
from lqw.spectral import _pi_minus_theta, _zero_phase_vector

from conftest import random_general, random_standard


def stepwise_grid_solution(init, params: WalkParams, t: int, ks: np.ndarray) -> np.ndarray:
    """Reference oracle: Psi~(t, k) at each of ``ks`` by t successive U_k products."""
    ops = momentum_operator(params, ks)
    psi = np.broadcast_to(init.coin_vector(params), (len(ks), params.delta)).copy()
    for _ in range(t):
        psi = np.einsum("mij,mj->mi", ops, psi)
    return psi


class TestMomentumOperator:
    def test_k0_equals_grover(self):
        params = WalkParams(3)
        assert np.array_equal(momentum_operator(params, 0.0), grover_coin(params).astype(complex))

    def test_tau1_entry_at_half_pi(self):
        # entry (1,1) = -tau kappa / delta = -i/3 at k = pi/2
        u = momentum_operator(WalkParams(1), np.pi / 2)
        assert u[0, 0] == pytest.approx(-1j / 3, abs=1e-15)

    @pytest.mark.parametrize("tau", [1, 2, 7])
    def test_unitarity_random_k(self, tau):
        rng = np.random.default_rng(tau)
        d = tau + 2
        for k in rng.uniform(-np.pi, np.pi, size=8):
            u = momentum_operator(WalkParams(tau), k)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


    @pytest.mark.parametrize("tau", [1, 4, 30])
    def test_array_k_stacks_scalar_operators(self, tau):
        params = WalkParams(tau)
        ks = -np.pi + 2 * np.pi * np.arange(16) / 16
        stacked = momentum_operator(params, ks)
        assert stacked.shape == (16, tau + 2, tau + 2)
        assert np.array_equal(stacked, np.stack([momentum_operator(params, k) for k in ks]))
        for k, u in zip(ks, stacked):
            phases = np.ones(tau + 2, dtype=complex)
            phases[:2] = np.exp(1j * k), np.exp(-1j * k)
            assert np.array_equal(u, np.diag(phases) @ grover_coin(params))


def helmert_column(tau: int, j: int) -> np.ndarray:
    """((j-2) e_j - e_2 - ... - e_{j-1}) / sqrt((j-2)(j-1)), for 3 <= j < delta."""
    col = np.zeros(tau + 2)
    col[2:j] = -1.0
    col[j] = j - 2
    return col / np.sqrt((j - 2) * (j - 1))


class TestEigenSystem:
    @pytest.mark.parametrize("tau", [2, 5, 12])
    def test_pi_sector_is_k_independent_helmert_basis(self, tau):
        params = WalkParams(tau)
        a = eigen_system(params, 0.7).eigenvectors[:, 3:]
        b = eigen_system(params, -2.1).eigenvectors[:, 3:]
        assert np.array_equal(a, b)
        for j in range(3, tau + 2):
            assert np.max(np.abs(a[:, j - 3] - helmert_column(tau, j))) < 1e-15

    def test_large_tau_orthonormal_with_small_residual(self):
        params = WalkParams(400)
        system = eigen_system(params, 1.1)
        v = system.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(params.delta))) < 1e-12
        residuals = momentum_operator(params, 1.1) @ v - v * np.exp(1j * system.omegas)
        assert np.max(np.linalg.norm(residuals, axis=0)) < 1e-10

    def test_theta_at_pi_tau2(self):
        # cos(theta) = -(tau cos k + 2)/(tau+2) = 0 at k = pi, tau = 2
        system = eigen_system(WalkParams(2), np.pi)
        assert system.theta == pytest.approx(np.pi / 2, abs=1e-14)

    @pytest.mark.parametrize("tau", [1, 2, 5, 10])
    def test_eigen_equation_residuals(self, tau):
        rng = np.random.default_rng(100 + tau)
        params = WalkParams(tau)
        for k in rng.uniform(-np.pi, np.pi, size=20):
            if k == 0.0:
                continue
            system = eigen_system(params, k)
            u = momentum_operator(params, k)
            for j in range(params.delta):
                vec = system.eigenvectors[:, j]
                residual = np.linalg.norm(u @ vec - np.exp(1j * system.omegas[j]) * vec)
                assert residual < 1e-10

    @pytest.mark.parametrize("tau", [1, 4, 9])
    def test_theta_defining_relations(self, tau):
        rng = np.random.default_rng(7 * tau)
        for k in rng.uniform(-np.pi, np.pi, size=10):
            if k == 0.0:
                continue
            theta = eigen_system(WalkParams(tau), k).theta
            assert 0.0 <= theta <= np.pi
            assert np.cos(theta) == pytest.approx(-(tau * np.cos(k) + 2) / (tau + 2), abs=1e-12)
            expected_sin = np.sqrt(tau * (1 - np.cos(k)) * (tau + 4 + tau * np.cos(k))) / (tau + 2)
            assert np.sin(theta) == pytest.approx(expected_sin, abs=1e-12)

    def test_unit_norm_and_orthonormal(self):
        params = WalkParams(6)
        system = eigen_system(params, 1.1)
        v = system.eigenvectors
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(params.delta))) < 1e-12

    def test_phase_multiplicities(self):
        for tau in (1, 2, 5, 10):
            system = eigen_system(WalkParams(tau), 0.9)
            omegas = system.omegas
            assert np.sum(np.abs(omegas - np.pi) < 1e-12) == tau - 1
            assert np.sum(np.abs(omegas) < 1e-12) == 1
            # numerical diagonalization confirms the same multiplicities
            lam = np.linalg.eigvals(momentum_operator(WalkParams(tau), 0.9))
            assert np.sum(np.abs(lam + 1) < 1e-8) == tau - 1
            assert np.sum(np.abs(lam - 1) < 1e-8) == 1

    def test_matches_numerical_phases(self):
        # closed-form {theta, -theta, 0, pi} vs numpy diagonalization
        params = WalkParams(5)
        k = 2.2
        system = eigen_system(params, k)
        remaining = list(np.linalg.eigvals(momentum_operator(params, k)))
        for value in np.exp(1j * system.omegas):
            nearest = min(range(len(remaining)), key=lambda i: abs(remaining[i] - value))
            assert abs(remaining.pop(nearest) - value) < 1e-10

    def test_k_outside_domain_rejected(self):
        for k in (-np.pi, 4.0):
            with pytest.raises(ValueError):
                eigen_system(WalkParams(2), k)

    def test_k0_degenerate(self):
        with pytest.raises(DegenerateMomentumError):
            eigen_system(WalkParams(3), 0.0)

    def test_k_pi_raw_vector_degenerates(self):
        # |[kappa_1, kappa_2, 1, ..., 1]|^2 = (tau+4+tau cos k)/(1+cos k) -> inf
        tau = 1
        raw_norm_sq = lambda k: (tau + 4 + tau * np.cos(k)) / (1 + np.cos(k))
        assert raw_norm_sq(np.pi - 1e-4) > 1e7
        # ... while eigen_system returns the finite normalized limit vector
        system = eigen_system(WalkParams(tau), np.pi)
        vec = system.eigenvectors[:, 2]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(vec, [1j / np.sqrt(2), -1j / np.sqrt(2), 0], atol=1e-14)
        u = momentum_operator(WalkParams(tau), np.pi)
        assert np.linalg.norm(u @ vec - vec) < 1e-12

    def test_k_pi_limit_continuous(self):
        # vector at k = pi - 1e-7 agrees with the exact-endpoint branch
        params = WalkParams(4)
        near = eigen_system(params, np.pi - 1e-7).eigenvectors[:, 2]
        at = eigen_system(params, np.pi).eigenvectors[:, 2]
        assert np.linalg.norm(near - at) < 1e-6

    @pytest.mark.parametrize("tau", [1, 4, 30])
    def test_zero_phase_vector_over_array_k(self, tau):
        # the array form the F3 projector integral uses: a unit omega = 0
        # eigenvector of the stacked U_k at every k, k = pi included
        ks = np.array([-2.9, -0.4, 1e-3, 1.1, np.pi])
        left, right, loop = _zero_phase_vector(tau, ks)
        vecs = np.column_stack([left, right] + [loop] * tau)
        assert np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) < 1e-15
        gap = np.einsum("mij,mj->mi", momentum_operator(WalkParams(tau), ks), vecs) - vecs
        assert np.max(np.abs(gap)) < 1e-14

    @pytest.mark.parametrize("tau", [1, 4, 30])
    def test_pi_minus_theta_over_array_k(self, tau):
        # one phi formula: the array form the closed-form state uses is what
        # eigen_system reads at each k, and theta stays a plain float
        ks = np.array([-2.9, -0.4, 1e-9, 1e-3, 1.1, np.pi])
        phis = _pi_minus_theta(tau, ks)
        for k, phi in zip(ks, phis):
            assert _pi_minus_theta(tau, float(k)) == phi
            theta = eigen_system(WalkParams(tau), float(k)).theta
            assert type(theta) is float and theta == np.pi - phi
        cos_theta = -(tau * np.cos(ks) + 2.0) / (tau + 2.0)
        assert np.max(np.abs(np.cos(np.pi - phis) - cos_theta)) < 1e-15
        # relative precision as k -> 0: phi ~ sqrt(tau / (tau + 2)) |k|
        assert phis[2] == pytest.approx(np.sqrt(tau / (tau + 2.0)) * 1e-9, rel=1e-12)

    def test_normalization_factors_rescale_raw_vectors(self):
        params = WalkParams(3)
        k = 1.7
        vec = eigen_system(params, k).eigenvectors[:, 2]
        # j = 3: raw vector [kappa_1, kappa_2, 1, ..., 1] and its closed-form N_3
        raw = np.array(
            [2 / (1 + np.exp(-1j * k)), 2 / (1 + np.exp(1j * k))] + [1.0] * 3,
            dtype=complex,
        )
        n3 = (1 + np.cos(k)) / (params.tau + 4 + params.tau * np.cos(k))
        scaled = np.sqrt(n3) * raw
        assert np.linalg.norm(scaled) == pytest.approx(1.0, abs=1e-12)
        # ... and the rescaled raw vector is the returned eigenvector up to a phase
        assert abs(np.vdot(vec, scaled)) == pytest.approx(1.0, abs=1e-12)


def force_route(monkeypatch, stepping: bool) -> None:
    """Send the oracle down one route, whatever its cost model would pick."""
    monkeypatch.setattr(lqw.spectral, "_stepping_is_cheaper", lambda t, delta, m: stepping)


def squaring_in_mib_blocks(init, params: WalkParams, t: int) -> np.ndarray:
    """The squaring route as it once ran: k-blocks of 1 MiB of stacked operators."""
    m = lqw.spectral._default_grid_size(t)
    d = params.delta
    ks = -np.pi + 2.0 * np.pi * np.arange(m) / m
    psi = np.broadcast_to(init.coin_vector(params), (m, d)).copy()
    squarings = lqw.spectral._squarings(t, d)
    chunk = max(1, 2**20 // (16 * d * d))
    for lo in range(0, m, chunk):
        base = momentum_operator(params, ks[lo:lo + chunk])
        block = psi[lo:lo + chunk]
        for bit in range(squarings):
            if t >> bit & 1:
                block = np.einsum("mij,mj->mi", base, block)
            base = base @ base
        for _ in range(t >> squarings):
            block = np.einsum("mij,mj->mi", base, block)
        psi[lo:lo + chunk] = block
    return psi


def out_of_place_transform(psi: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The oracle's inverse transform as it once ran: rows read out, times (-1)^n in a new array."""
    return np.fft.ifft(psi, axis=0)[np.mod(ns, len(psi))] * ((-1.0) ** ns)[:, None]


class TestMomentumGridSolution:
    # odd, even and power-of-two exponents; on the squaring route squaring
    # stops once 4 e < delta, so at tau 100 (delta 102) t = 31 squares once
    # and t = 200 three times
    TIMES = (0, 1, 2, 3, 31, 63, 64, 65, 200)

    @pytest.mark.parametrize("tau", [1, 2, 5, 20, 100])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_matches_stepwise_reference(self, tau, kind, monkeypatch):
        params = WalkParams(tau)
        rng = np.random.default_rng(tau)
        init = random_standard(rng) if kind == "standard" else random_general(rng, params)
        for stepping in (True, False):
            force_route(monkeypatch, stepping)
            for t in self.TIMES:
                ks, psi = momentum_grid_solution(init, params, t)
                # every k is powered on its own: 32 spread-out points keep the reference cheap
                sub = slice(None, None, max(1, len(ks) // 32))
                ref = stepwise_grid_solution(init, params, t, ks[sub])
                assert np.max(np.abs(psi[sub] - ref)) < 1e-12, (stepping, t)

    @pytest.mark.parametrize("tau,t", [(1, 4000), (10, 1000), (2, 65)])
    def test_squaring_blocks_move_no_bit(self, tau, t, monkeypatch):
        # 256 KiB k-blocks of operators, where there were 1 MiB ones: each k
        # is powered on its own, so psi keeps every bit (5 blocks for 2 at
        # tau 1, 19 for 5 at tau 10, one at tau 2)
        params = WalkParams(tau)
        force_route(monkeypatch, False)
        for init in (StandardInit(0.6, 0.8j), random_general(np.random.default_rng(tau), params)):
            ks, psi = momentum_grid_solution(init, params, t)
            assert psi.tobytes() == squaring_in_mib_blocks(init, params, t).tobytes()

    def test_cost_model_at_the_verify_sizes(self):
        # verify's walk at tau 10 and t 1000 stays on squaring; its walk at
        # tau 20 and t 200, and the t = 64 light-cone grids, step
        cheaper = lqw.spectral._stepping_is_cheaper
        grid = lqw.spectral._default_grid_size
        assert not cheaper(1000, 12, grid(1000))
        assert cheaper(200, 22, grid(200))
        for delta in (12, 22):
            assert cheaper(64, delta, grid(64))
        for t in (0, 1, 2, 31, 200):
            assert cheaper(t, 102, grid(t))

    def test_squaring_schedule(self):
        # e = 200, 100, 50, then 25 with 4 * 25 < 102; e = 1000, 500, ..., 3 (4 * 3 >= 12), then 1
        assert lqw.spectral._squarings(200, 102) == 3
        assert lqw.spectral._squarings(1000, 12) == 9
        assert lqw.spectral._squarings(1, 3) == 0
        assert lqw.spectral._squarings(0, 3) == 0


class TestPropagateFourier:
    def test_one_step_matches_direct(self):
        init = StandardInit(1, 0)
        params = WalkParams(1)
        direct = evolve(init, params, 1)
        fourier = propagate_fourier(init, params, 1)
        assert np.max(np.abs(direct.amplitudes - fourier)) < 1e-12

    def test_t0_reproduces_initial_state(self):
        init = StandardInit(0.6, 0.8j)
        params = WalkParams(4)
        fourier = propagate_fourier(init, params, 0)
        assert np.max(np.abs(fourier - evolve(init, params, 0).amplitudes)) < 1e-15

    def test_tau10_t50_oracle(self, symmetric_init):
        params = WalkParams(10)
        direct = evolve(symmetric_init, params, 50)
        fourier = propagate_fourier(symmetric_init, params, 50)
        assert np.max(np.abs(direct.amplitudes - fourier)) < 1e-10

    def test_matches_the_kernel_at_every_short_t(self):
        # every grid from 16 to 256 points, among them those the old 2t + 2 rule halved
        params = WalkParams(2)
        init = random_general(np.random.default_rng(7), params)
        for t in range(71):
            direct = evolve(init, params, t)
            assert np.max(np.abs(propagate_fourier(init, params, t) - direct.amplitudes)) < 1e-10
            assert lqw.spectral._light_cone_tail(init, params, t) <= 1e-12

    def test_memory_bounded_by_k_blocks(self, symmetric_init, monkeypatch):
        # on the squaring route: the whole (512, 102, 102) operator stack
        # alone would take 85 MB
        force_route(monkeypatch, False)
        tracemalloc.start()
        try:
            propagate_fourier(symmetric_init, WalkParams(100), 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_stepping_memory_is_a_few_state_blocks(self, symmetric_init, monkeypatch):
        # verify --tau 100 --steps 200's oracle: two (102, 512) state blocks
        # while stepping, then the state and its transform: no operator stack.
        # Measured 1.78 MB (2.34 MB while the states were held through the
        # transform and its read-out); the second bound leaves 1.24x
        force_route(monkeypatch, True)
        tracemalloc.start()
        try:
            propagate_fourier(symmetric_init, WalkParams(100), 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 512 * 102 * 16
        assert peak < 2.2e6

    @pytest.mark.parametrize("tau", [2, 10, 100])
    @pytest.mark.parametrize("stepping", [True, False])
    def test_transform_moves_no_bit(self, tau, stepping, monkeypatch):
        # the grid's states are dropped after the transform and (-1)^n is
        # multiplied into the rows read out, in place: the same bits, sign bits
        # included, as the product array.  psi is a transposed view on the
        # stepping route; t 64 and 65 put an even and an odd site in the first row
        params = WalkParams(tau)
        init = random_general(np.random.default_rng(tau), params)
        force_route(monkeypatch, stepping)
        for t in (64, 65):
            _, psi = momentum_grid_solution(init, params, t)
            beyond = np.arange(t + 1, t + 5)
            tail = out_of_place_transform(psi, np.concatenate((beyond, -beyond)))
            expected = out_of_place_transform(psi, np.arange(-t, t + 1))
            assert propagate_fourier(init, params, t).tobytes() == expected.tobytes()
            assert lqw.spectral._light_cone_tail(init, params, t) == np.max(np.abs(tail))

    def test_squaring_memory_at_the_verify_size(self, symmetric_init, monkeypatch):
        # verify --tau 10 --steps 1000's oracle: two 256 KiB operator blocks beside the
        # (2048, 12) states, then the states and their transform, then the
        # transform and the (2001, 12) output.  Measured 1.00 MB (2.71 MB with
        # 1 MiB blocks); the bound leaves 1.25x
        force_route(monkeypatch, False)
        tracemalloc.start()
        try:
            propagate_fourier(symmetric_init, WalkParams(10), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25e6

    def test_default_grid_size(self):
        def points(t):
            return momentum_grid_solution(StandardInit(1, 0), WalkParams(1), t)[0].shape[0]

        assert points(0) == 16
        assert points(3) == 16
        assert points(4) == 32
        assert points(50) == 128
        assert points(59) == 128
        assert points(60) == 256
        # a power of two with room for 2t + 1 sites and 4 empty ones beyond each edge:
        # every t below 2000, then both sides of each doubling up to t = 10^6
        grid = lqw.spectral._default_grid_size
        doublings = [(1 << j) - 5 + side for j in range(10, 20) for side in (0, 1)]
        for t in (*range(2000), *doublings, 10**6):
            m = grid(t)
            assert m & (m - 1) == 0 and 2 * t + 10 <= m < 4 * t + 20, t

    def test_returns_read_only_checked_array(self, symmetric_init, monkeypatch):
        amps = propagate_fourier(symmetric_init, WalkParams(3), 7)
        assert type(amps) is np.ndarray
        assert amps.shape == (15, 5)
        with pytest.raises(ValueError):
            amps[0, 0] = 1.0

        solve = lqw.spectral.momentum_grid_solution

        def inflated(*args, **kwargs):
            ks, psi = solve(*args, **kwargs)
            return ks, psi * 1.01

        monkeypatch.setattr(lqw.spectral, "momentum_grid_solution", inflated)
        with pytest.raises(NormalizationError):
            propagate_fourier(symmetric_init, WalkParams(3), 7)


class TestLightConeTail:
    @pytest.mark.parametrize("t", [0, 1, 5, 64])
    def test_nothing_beyond_the_light_cone(self, symmetric_init, t):
        assert lqw.spectral._light_cone_tail(symmetric_init, WalkParams(3), t) < 1e-12

    def test_reads_the_sites_next_to_the_edge(self, symmetric_init, monkeypatch):
        solve = lqw.spectral.momentum_grid_solution

        def shifted(*args):
            # e^{-ik} moves every amplitude one site, the edge site t to t + 1
            ks, psi = solve(*args)
            return ks, psi * np.exp(-1j * ks)[:, None]

        state = evolve(symmetric_init, WalkParams(3), 5)
        edge = np.max(np.abs(state.amplitudes[5 + state.t]))
        monkeypatch.setattr(lqw.spectral, "momentum_grid_solution", shifted)
        tail = lqw.spectral._light_cone_tail(symmetric_init, WalkParams(3), 5)
        assert tail == pytest.approx(edge, abs=1e-12)
        assert tail > 0.06


class TestClosedFormState:
    TIMES = (0, 1, 2, 37, 200, 4000)  # t = 0 is the one-point grid

    @pytest.mark.parametrize("tau", [*range(1, 21), 100])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_matches_kernel(self, tau, kind):
        params = WalkParams(tau)
        rng = np.random.default_rng(tau)
        # random_general has nonzero loop differences from tau 2 on
        init = random_standard(rng) if kind == "standard" else random_general(rng, params)
        for t in self.TIMES:
            direct = evolve(init, params, t)
            closed = lqw.spectral._closed_form_state(init, params, t)
            assert closed.t == t
            assert np.max(np.abs(closed.moving - direct.moving)) < 1e-12
            assert np.array_equal(closed.loop_diff, direct.loop_diff)
            assert np.max(np.abs(closed.amplitudes - direct.amplitudes)) < 1e-12
            assert np.max(np.abs(closed.probabilities() - direct.probabilities())) < 1e-12

    # M is the least 5-smooth number >= 2t + 1: 2t + 1 prime (t 1, 3, 2000),
    # already 5-smooth (t 62: M = 125, odd, so k = pi is a grid point) or
    # neither (t 3000: 6001 = 17 * 353, M = 6075)
    GRIDS = {1: 3, 3: 8, 2000: 4050, 62: 125, 3000: 6075}

    def test_grid_is_the_least_five_smooth_size(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        sizes = [m for m in range(1, 10_241) if smooth(m)]
        for n in range(1, 10_001):
            assert lqw.spectral._five_smooth_at_least(n) == next(m for m in sizes if m >= n)
        for t, m in self.GRIDS.items():
            assert lqw.spectral._five_smooth_at_least(2 * t + 1) == m

    @pytest.mark.parametrize("tau", [1, 3, 100])
    @pytest.mark.parametrize("t", GRIDS)
    def test_matches_kernel_on_every_kind_of_grid(self, tau, t, skewed_init):
        # measured at most 8.7e-14 (t 2000), 6.1e-14 (3000), 4.3e-15 (62),
        # 7.2e-16 (3) and 2.8e-16 (1); the bound leaves 2.8x to 11x
        params = WalkParams(tau)
        for init in (skewed_init, random_general(np.random.default_rng(tau), params)):
            direct = evolve(init, params, t)
            closed = lqw.spectral._closed_form_state(init, params, t)
            assert np.max(np.abs(closed.moving - direct.moving)) <= 1.5e-16 * (t + 20)
            assert np.array_equal(closed.loop_diff, direct.loop_diff)

    @pytest.mark.parametrize("tau", [1, 3, 100])
    @pytest.mark.parametrize("t", GRIDS)
    def test_k_chunks_move_no_bit(self, tau, t, skewed_init, monkeypatch):
        # the default chunk splits t 2000 and 3000 into 2 and 3 chunks; 7 and 2 split
        # every grid, and leave one point over at t 3 (M 8) and at every odd M
        params = WalkParams(tau)
        inits = (skewed_init, random_general(np.random.default_rng(tau), params))

        def read():
            return [(lqw.spectral._closed_form_state(init, params, t).moving.tobytes(),
                     lqw.spectral._closed_form_origin(
                         lqw.core._reduced_start(init, params)[0], params, t).tobytes())
                    for init in inits]

        chunked = read()
        for chunk in (self.GRIDS[t], 7, 2):
            monkeypatch.setattr(lqw.spectral, "_K_CHUNK", chunk)
            assert read() == chunked

    def test_memory_no_more_than_the_kernel(self, symmetric_init):
        # the kernel's evolve peaks at 1.15 MB here; the eigenvector sum on a
        # power-of-two grid took 3.8 MB, the whole grid at once 0.93 MB, and
        # k-chunks 0.67 MB (the bound is that times 1.25)
        route = lqw.spectral._closed_form_state
        tracemalloc.start()
        try:
            route(symmetric_init, WalkParams(3), 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.84e6

    def test_memory_per_grid_point_at_t_20000(self, symmetric_init):
        # the 48 bytes a point of the (3, M) rows and one 16-byte row of the
        # inverse transform: measured 64.4 bytes a point (139 on the whole grid at once)
        tracemalloc.start()
        try:
            lqw.spectral._closed_form_state(symmetric_init, WalkParams(3), 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * lqw.spectral._five_smooth_at_least(40001)

    def test_negative_t_rejected(self, symmetric_init):
        with pytest.raises(ValueError):
            lqw.spectral._closed_form_state(symmetric_init, WalkParams(1), -1)
