import numpy as np
import pytest

from qcm.model import (
    ConfigurationError,
    StateVector,
    SystemConfig,
    build_dissipative_hamiltonian,
    build_hamiltonian,
    collective_rabi,
    initial_state,
    star_config,
)
from qcm.propagator import (
    PropagatorMatrix,
    closed_form_propagator,
    evolve,
    evolve_oracle_expm,
    evolve_oracle_rk4,
    expm_hermitian,
    rk4_propagate,
    rk4_propagate_many,
    trapping_time,
)
from qcm.decoherence import OverdampedRegimeError, renormalized_trapping_time

from conftest import random_block_state, random_system


def two_level_propagator(t):
    """Hand-derived propagator of the M=1 coupling matrix [[0,1],[1,0]]."""
    return np.array(
        [[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]], dtype=complex
    )


class TestClosedForm:
    def test_zero_time_is_identity(self):
        u = closed_form_propagator(SystemConfig((1.2, 0.3, 0.8)), 0.0).matrix
        np.testing.assert_array_equal(u, np.eye(4, dtype=complex))

    def test_single_qubit_quarter_period(self):
        # against the textbook 2x2 closed form, recomputed by hand
        u = closed_form_propagator(SystemConfig((1.0,)), np.pi / 2.0).matrix
        np.testing.assert_allclose(u, [[0.0, -1j], [-1j, 0.0]], atol=1e-15)
        np.testing.assert_allclose(u, two_level_propagator(np.pi / 2.0), atol=1e-15)

    def test_trapping_column_vanishes(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            config = random_system(rng)
            u = closed_form_propagator(config, np.pi / collective_rabi(config)).matrix
            assert np.max(np.abs(u[-1, :-1])) < 1e-14
            assert np.max(np.abs(u[:-1, -1])) < 1e-14

    def test_photon_corner_is_cosine(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            config = random_system(rng)
            t = rng.uniform(0.0, 10.0)
            u = closed_form_propagator(config, t).matrix
            omega = collective_rabi(config)
            assert abs(u[-1, -1] - np.cos(omega * t)) <= 1e-12

    def test_matrix_is_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            config = random_system(rng)
            u = closed_form_propagator(config, rng.uniform(0.0, 10.0)).matrix
            assert np.max(np.abs(u - u.T)) == 0.0

    def test_unitarity(self):
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(1000):
            config = random_system(rng)
            u = closed_form_propagator(config, rng.uniform(0.0, 10.0)).matrix
            defect = np.max(np.abs(u.conj().T @ u - np.eye(config.m + 1)))
            worst = max(worst, float(defect))
        assert worst < 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(25)
        worst = 0.0
        for _ in range(500):
            config = random_system(rng)
            t1, t2 = rng.uniform(0.0, 10.0, size=2)
            u1 = closed_form_propagator(config, t1).matrix
            u2 = closed_form_propagator(config, t2).matrix
            u12 = closed_form_propagator(config, t1 + t2).matrix
            worst = max(worst, float(np.max(np.abs(u1 @ u2 - u12))))
        assert worst < 1e-10

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            closed_form_propagator(SystemConfig((1.0,)), np.inf)
        with pytest.raises(ConfigurationError):
            closed_form_propagator(SystemConfig((1.0,)), np.nan)
        with pytest.raises(ConfigurationError):
            closed_form_propagator(SystemConfig((1.0,)), -1.0)

    @pytest.mark.parametrize("gamma_decay, kappa", [(0.4, 0.9), (0.4, 0.0), (0.0, 0.9)])
    def test_honours_decay_rates(self, gamma_decay, kappa):
        # the lossless matrix used to come back with the rates ignored
        config = star_config(3, 1.5, gamma_decay=gamma_decay, kappa=kappa)
        u = closed_form_propagator(config, 2.0).matrix
        generator = build_dissipative_hamiltonian(config).matrix
        np.testing.assert_allclose(
            u, rk4_propagate(generator, np.eye(4), np.full(4, 2.0)).T, rtol=0.0, atol=1e-8
        )
        state = evolve(initial_state(0.0, 0.0, config), config, 2.0)
        assert not state.normalized
        assert state.norm_squared < 1.0
        np.testing.assert_array_equal(state.amplitudes[1:], u[:, 0])

    @pytest.mark.parametrize("regime", ["random", "critical", "overdamped"])
    def test_rated_configs_match_rk4(self, regime):
        # any couplings, any rates: against RK4 of the dissipative generator
        rng = np.random.default_rng(33)
        generators, blocks, times, refs = [], [], [], []
        for _ in range(40):
            config = random_system(rng, m_high=12)
            omega = collective_rabi(config)
            gamma_decay = rng.uniform(0.0, 3.0)
            if regime == "random":
                kappa = rng.uniform(0.0, gamma_decay + 4.0 * omega)
            elif regime == "critical":
                # dyadic couplings and rates on 1, 4 or 9 qubits keep omega
                # and kappa - Gamma exact, so 2*omega = kappa - Gamma holds
                # to the last bit
                coupling = float(rng.choice([0.25, 0.5, 1.0]))
                config = SystemConfig((coupling,) * int(rng.choice([1, 4, 9])))
                omega = collective_rabi(config)
                gamma_decay = int(rng.integers(0, 13)) / 4.0
                kappa = gamma_decay + 2.0 * omega
                assert 4.0 * omega**2 == (kappa - gamma_decay) ** 2
            else:
                kappa = gamma_decay + 2.0 * omega * rng.uniform(1.05, 3.0)
                if rng.uniform() < 0.5:
                    gamma_decay, kappa = kappa, gamma_decay
            config = SystemConfig(config.couplings, gamma_decay=gamma_decay, kappa=kappa)
            state = random_block_state(rng, config.m)
            t = rng.uniform(0.0, 2.0)
            generators.append(build_dissipative_hamiltonian(config).matrix)
            blocks.append(state.amplitudes[1:])
            times.append(t)
            refs.append(closed_form_propagator(config, t).matrix @ state.amplitudes[1:])
        outs = rk4_propagate_many(generators, blocks, np.array(times), dt=1e-4)
        worst = max(float(np.max(np.abs(ref - out))) for ref, out in zip(refs, outs))
        assert worst < 1e-8

    @pytest.mark.parametrize("kappa, t", [(9.5, 5000.0), (1e8, 1e8), (1e300, 3.0)])
    def test_strong_damping_stays_finite_and_accurate(self, kappa, t):
        # past mu*t = 710 cosh and sinh alone overflow, and for kappa >> omega
        # the slow rate omega^2/kappa is lost if mu - kappa/2 is subtracted
        u = closed_form_propagator(SystemConfig((1.0,), kappa=kappa), t).matrix
        assert np.all(np.isfinite(u))
        # one qubit, omega = 1: the slow eigenvalue of the 2x2 generator is
        # -1/(d + mu) with d = kappa/2 and mu = sqrt(d^2 - 1)
        d = kappa / 2.0
        mu = d * np.sqrt(1.0 - 1.0 / d / d)
        expected = (1.0 + d / mu) / 2.0 * np.exp(-t / (d + mu))
        assert u[0, 0].real == pytest.approx(expected, rel=1e-9)
        assert abs(u[1, 1]) <= np.exp(-(d - mu) * t)

    def test_underflowing_couplings_rejected(self):
        # a 1e-200 coupling squares to omega^2 = 0 and raised ZeroDivisionError,
        # which is no ValueError, so the CLI would not have caught it
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            closed_form_propagator(SystemConfig((1e-200,)), 1.0)

    def test_propagator_matrix_validation(self):
        with pytest.raises(ValueError):
            PropagatorMatrix(np.zeros((2, 3)), time=0.0)


class TestExpmOracle:
    def test_zero_generator_is_identity(self):
        u = expm_hermitian(np.zeros((4, 4)), 3.7)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    def test_single_qubit_matches_hand_form(self):
        h = build_hamiltonian(SystemConfig((1.0,))).matrix
        for t in (0.3, 1.0, 4.5):
            np.testing.assert_allclose(
                expm_hermitian(h, t), two_level_propagator(t), atol=1e-14
            )

    def test_matches_closed_form_for_random_configs(self):
        rng = np.random.default_rng(26)
        worst = 0.0
        for _ in range(1000):
            config = random_system(rng)
            t = rng.uniform(0.0, 10.0)
            u = closed_form_propagator(config, t).matrix
            exact = expm_hermitian(build_hamiltonian(config).matrix, t)
            worst = max(worst, float(np.max(np.abs(u - exact))))
        assert worst < 1e-10

    def test_state_interface_rejects_dissipative(self):
        config = SystemConfig((1.0,), gamma_decay=0.1)
        state = initial_state(0.0, 0.0, config)
        with pytest.raises(ValueError):
            evolve_oracle_expm(build_dissipative_hamiltonian(config), state, 1.0)


class TestRk4Oracle:
    def test_zero_time_returns_input(self):
        config = SystemConfig((1.0, 0.5))
        state = initial_state(0.4, 1.1, config)
        out = evolve_oracle_rk4(build_hamiltonian(config), state, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_norm_conserved_over_long_run(self):
        config = SystemConfig((1.0, 0.7, 1.3))
        state = initial_state(0.0, 0.0, config)
        out = evolve_oracle_rk4(build_hamiltonian(config), state, 10.0)
        assert abs(out.norm_squared - 1.0) < 1e-8

    def test_equal_rates_factor_out_as_pure_decay(self):
        g = 0.08
        config = SystemConfig((1.1, 0.6), gamma_decay=g, kappa=g)
        state = initial_state(0.0, 0.3, config)
        t = 2.5
        damped = evolve_oracle_rk4(build_dissipative_hamiltonian(config), state, t)
        unitary = evolve(state, SystemConfig(config.couplings), t)
        expected = np.array(unitary.amplitudes)
        expected[1:] *= np.exp(-g * t)
        np.testing.assert_allclose(damped.amplitudes, expected, atol=1e-8)

    def test_convergence_is_fourth_order(self):
        config = SystemConfig((1.0, 1.4))
        h = build_hamiltonian(config)
        state = initial_state(0.0, 0.0, config)
        t = 2.0
        exact = evolve_oracle_expm(h, state, t).amplitudes
        errors = []
        for dt in (0.02, 0.01):
            out = evolve_oracle_rk4(h, state, t, dt=dt)
            errors.append(np.max(np.abs(out.amplitudes - exact)))
        ratio = errors[0] / errors[1]
        assert 8.0 < ratio < 32.0  # halving dt should shrink the error ~2^4

    def test_matches_closed_form(self):
        rng = np.random.default_rng(27)
        generators, blocks, times, refs = [], [], [], []
        for _ in range(60):
            config = random_system(rng)
            state = random_block_state(rng, config.m)
            t = rng.uniform(0.0, 1.0)
            generators.append(build_hamiltonian(config).matrix)
            blocks.append(state.amplitudes[1:])
            times.append(t)
            refs.append(closed_form_propagator(config, t).matrix @ state.amplitudes[1:])
        outs = rk4_propagate_many(generators, blocks, np.array(times), dt=1e-4)
        worst = max(
            float(np.max(np.abs(ref - out))) for ref, out in zip(refs, outs)
        )
        assert worst < 1e-8

    def test_batched_matches_individual_calls(self):
        rng = np.random.default_rng(28)
        generators, blocks, times = [], [], []
        for _ in range(5):
            config = random_system(rng, m_high=6)
            generators.append(build_hamiltonian(config).matrix)
            blocks.append(random_block_state(rng, config.m).amplitudes[1:])
            times.append(rng.uniform(0.0, 0.5))
        batched = rk4_propagate_many(generators, blocks, np.array(times), dt=1e-3)
        for gen, block, t, out in zip(generators, blocks, times, batched):
            single = rk4_propagate(gen, block, t, dt=1e-3)
            np.testing.assert_allclose(out, single, atol=1e-12)

    def test_unstable_step_is_reported(self):
        # RK4 blows up when omega*dt is far outside its stability region
        config = SystemConfig((40.0, 40.0, 40.0))
        state = initial_state(0.0, 0.0, config)
        with pytest.raises(FloatingPointError):
            evolve_oracle_rk4(build_hamiltonian(config), state, 50.0, dt=0.5)

    def test_settings_validation(self):
        config = SystemConfig((1.0,))
        state = initial_state(0.0, 0.0, config)
        with pytest.raises(ValueError):
            evolve_oracle_rk4(build_hamiltonian(config), state, 1.0, dt=0.0)


def rk4_step_loop(generator, psi, t, dt):
    """Reference: the classical k1..k4 RK4 loop, one instance at a time."""
    n = int(np.ceil(np.round(t / dt, 9)))
    psi = np.array(psi, dtype=complex)
    if n == 0:
        return psi
    h = t / n

    def deriv(v):
        return -1j * (generator @ v)

    for _ in range(n):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * h * k1)
        k3 = deriv(psi + 0.5 * h * k2)
        k4 = deriv(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


class TestRk4StepMatrixPower:
    STEP_COUNTS = (0, 1, 2, 3, 7, 8, 33)
    DT = 0.01

    def mixed_batch(self, rng, dissipative=False):
        generators, blocks, times = [], [], []
        for i, n in enumerate(self.STEP_COUNTS):
            m = 1 + (3 * i) % 7
            rates = dict(gamma_decay=0.3, kappa=0.3) if dissipative else {}
            config = SystemConfig(tuple(rng.uniform(0.2, 2.0, size=m)), **rates)
            build = build_dissipative_hamiltonian if dissipative else build_hamiltonian
            generators.append(build(config).matrix)
            blocks.append(random_block_state(rng, m).amplitudes[1:])
            # ceil(t/dt) = n for t in ((n-1)*dt, n*dt]
            times.append(max(n - 0.5, 0.0) * self.DT)
        return generators, blocks, np.array(times)

    def test_padded_batch_matches_step_loop(self):
        rng = np.random.default_rng(30)
        generators, blocks, times = self.mixed_batch(rng)
        assert len({g.shape[0] for g in generators}) > 1  # padding is exercised
        outs = rk4_propagate_many(generators, blocks, times, dt=self.DT)
        for gen, block, t, out in zip(generators, blocks, times, outs):
            ref = rk4_step_loop(gen, block, t, self.DT)
            np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-13)

    def test_zero_steps_return_input_bit_exact(self):
        rng = np.random.default_rng(31)
        generators, blocks, times = self.mixed_batch(rng)
        assert self.STEP_COUNTS[0] == 0 and times[0] == 0.0
        outs = rk4_propagate_many(generators, blocks, times, dt=self.DT)
        np.testing.assert_array_equal(outs[0], blocks[0])

    def test_dissipative_norm_decays_without_renormalization(self):
        # with equal rates the no-click norm^2 shrinks by exactly exp(-2*g*t)
        rng = np.random.default_rng(32)
        generators, blocks, times = self.mixed_batch(rng, dissipative=True)
        outs = rk4_propagate_many(generators, blocks, times, dt=self.DT)
        for gen, block, t, out in zip(generators[1:], blocks[1:], times[1:], outs[1:]):
            norm2_in = float(np.sum(np.abs(block) ** 2))
            norm2 = float(np.sum(np.abs(out) ** 2))
            assert norm2 < norm2_in
            assert norm2 == pytest.approx(norm2_in * np.exp(-2.0 * 0.3 * t), abs=1e-8)
            ref = rk4_step_loop(gen, block, t, self.DT)
            np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-13)


class TestEvolve:
    def test_ground_input_is_stationary(self):
        config = SystemConfig((1.0, 2.0, 0.5))
        state = initial_state(np.pi, 0.0, config)
        for t in (0.0, 0.7, 13.0):
            out = evolve(state, config, t)
            np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_full_transfer_between_identical_qubits(self):
        # excitation starting on qubit 1 lands fully on qubit 2 at trapping
        config = SystemConfig((1.0, 1.0))
        state = initial_state(0.0, 0.0, config)
        tau = trapping_time(config)
        out = evolve(state, config, tau)
        np.testing.assert_allclose(out.amplitudes, [0, 0, -1, 0], atol=1e-12)
        oracle = evolve_oracle_rk4(build_hamiltonian(config), state, tau)
        np.testing.assert_allclose(out.amplitudes, oracle.amplitudes, atol=1e-8)

    def test_equatorial_ground_component_constant(self):
        config = star_config(3, 2.0)
        state = initial_state(np.pi / 2.0, 0.0, config)
        for t in (0.3, 1.7, 6.1):
            out = evolve(state, config, t)
            assert out.amplitudes[0] == state.amplitudes[0]

    def test_dimension_mismatch(self):
        state = initial_state(0.0, 0.0, SystemConfig((1.0, 1.0)))
        with pytest.raises(ValueError):
            evolve(state, SystemConfig((1.0,)), 1.0)

    @pytest.mark.parametrize("regime", ["lossless", "underdamped", "critical", "overdamped"])
    def test_matches_propagator_matrix(self, regime):
        # evolve applies the kernel scalars without building U; any couplings,
        # any rates, and inputs that carry every amplitude, the photon too
        rng = np.random.default_rng(35)
        for _ in range(50):
            config = random_system(rng)
            omega = collective_rabi(config)
            gamma_decay = rng.uniform(0.0, 3.0)
            if regime == "lossless":
                gamma_decay = kappa = 0.0
            elif regime == "underdamped":
                kappa = max(0.0, gamma_decay + 2.0 * omega * rng.uniform(-0.95, 0.95))
            elif regime == "critical":
                # dyadic couplings on 1, 4 or 9 qubits keep 2*omega = kappa - Gamma exact
                coupling = float(rng.choice([0.25, 0.5, 1.0]))
                config = SystemConfig((coupling,) * int(rng.choice([1, 4, 9])))
                gamma_decay = int(rng.integers(0, 13)) / 4.0
                kappa = gamma_decay + 2.0 * collective_rabi(config)
            else:
                kappa = gamma_decay + 2.0 * omega * rng.uniform(1.05, 3.0)
                if rng.uniform() < 0.5:
                    gamma_decay, kappa = kappa, gamma_decay
            config = SystemConfig(config.couplings, gamma_decay=gamma_decay, kappa=kappa)
            state = random_block_state(rng, config.m)
            t = rng.uniform(0.0, 5.0)
            out = evolve(state, config, t)
            expected = closed_form_propagator(config, t).matrix @ state.amplitudes[1:]
            np.testing.assert_allclose(out.amplitudes[1:], expected, rtol=0.0, atol=1e-13)
            assert out.amplitudes[0] == state.amplitudes[0]
            assert out.normalized == (regime == "lossless")


class TestTrappingTime:
    def test_single_qubit(self):
        assert trapping_time(SystemConfig((1.0,))) == pytest.approx(np.pi, abs=1e-15)

    def test_star_example(self):
        config = star_config(2, np.sqrt(2.0) + 1.0)
        expected = np.pi / np.sqrt(4.0 + 2.0 * np.sqrt(2.0))
        assert trapping_time(config) == pytest.approx(expected, abs=1e-15)
        assert trapping_time(config) == pytest.approx(1.2022, abs=1e-4)

    def test_odd_index_required(self):
        config = SystemConfig((1.0,))
        # 3.5 used to return a time that is no trapping instant
        for bad in (0, 2, -1, 4, 3.5, 1.0):
            with pytest.raises(ConfigurationError):
                trapping_time(config, bad)
        assert trapping_time(config, 3) == pytest.approx(3.0 * np.pi, abs=1e-12)

    @pytest.mark.parametrize(
        "m, r, gamma_decay, kappa", [(2, 2.4, 0.001, 0.02), (5, 0.7, 0.3, 0.05), (9, 3.0, 0.2, 0.2)]
    )
    def test_rated_star_matches_renormalized_time(self, m, r, gamma_decay, kappa):
        # trapping_time used to return pi/omega whatever the config's rates
        config = star_config(m, r, gamma_decay=gamma_decay, kappa=kappa)
        for m_odd in (1, 3):
            tau = trapping_time(config, m_odd)
            assert tau == pytest.approx(
                renormalized_trapping_time(m, r, gamma_decay, kappa, m_odd), rel=1e-15
            )
            u = closed_form_propagator(config, tau).matrix
            assert np.max(np.abs(u[-1, :-1])) < 1e-14

    def test_overflowing_coupling_rejected(self):
        # omega^2 = inf used to give a trapping time of 0.0
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            trapping_time(star_config(2, 1e200))

    def test_overdamped_has_no_trapping_time(self):
        config = SystemConfig((1.0, 1.0), gamma_decay=0.0, kappa=3.0)
        with pytest.raises(OverdampedRegimeError):
            trapping_time(config)

    def test_w_plus_traps_faster_than_w_prime(self):
        for m in range(3, 12):
            fast = trapping_time(star_config(m, np.sqrt(m) + 1.0))
            slow = trapping_time(star_config(m, np.sqrt(m - 1.0)))
            assert fast < slow

    def test_excitation_trapped_for_any_couplings(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            config = random_system(rng)
            state = initial_state(0.0, rng.uniform(0.0, 6.0), config)
            out = evolve(state, config, trapping_time(config))
            assert abs(out.amplitudes[-1]) < 1e-12
