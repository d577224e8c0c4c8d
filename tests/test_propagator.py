import math
import re

import numpy as np
import pytest

from qcm.model import (
    ConfigurationError,
    StateVector,
    SystemConfig,
    build_dissipative_hamiltonian,
    build_hamiltonian,
    initial_state,
    star_config,
)
import qcm.cli as cli
import qcm.propagator as propagator
import qcm.protocols as protocols
from qcm.propagator import (
    PropagatorMatrix,
    _COLUMN_LIBM,
    _kernel_terms,
    _per_distinct,
    _per_entry,
    _star_columns,
    _trap_time,
    closed_form_propagator,
    evolve,
    evolve_oracle_expm,
    evolve_oracle_rk4,
    expm_hermitian,
    rk4_propagate,
    rk4_propagate_many,
    trapping_time,
)
from qcm.decoherence import (
    OverdampedRegimeError,
    decay_robustness_scan,
    renormalized_trapping_time,
)

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
            u = closed_form_propagator(config, np.pi / config.omega).matrix
            assert np.max(np.abs(u[-1, :-1])) < 1e-14
            assert np.max(np.abs(u[:-1, -1])) < 1e-14

    def test_photon_corner_is_cosine(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            config = random_system(rng)
            t = rng.uniform(0.0, 10.0)
            u = closed_form_propagator(config, t).matrix
            omega = config.omega
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
            omega = config.omega
            gamma_decay = rng.uniform(0.0, 3.0)
            if regime == "random":
                kappa = rng.uniform(0.0, gamma_decay + 4.0 * omega)
            elif regime == "critical":
                # dyadic couplings and rates on 1, 4 or 9 qubits keep omega
                # and kappa - Gamma exact, so 2*omega = kappa - Gamma holds
                # to the last bit
                coupling = float(rng.choice([0.25, 0.5, 1.0]))
                config = SystemConfig((coupling,) * int(rng.choice([1, 4, 9])))
                omega = config.omega
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
            PropagatorMatrix(np.zeros((2, 3)))


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

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.0, 1.0], [0.0, 0.0]], "hermitian generator has defect 1.000e\\+00"),
            ([[np.nan, 0.0], [0.0, 1.0]], "generator must have finite entries"),
        ],
    )
    def test_rejects_a_matrix_that_is_not_hermitian(self, matrix, message):
        # eigh reads one triangle: [[0, 1], [0, 0]] came back as the identity
        with pytest.raises(ValueError, match=message):
            expm_hermitian(matrix, 1.0)
        with pytest.raises(ValueError, match=message):
            expm_hermitian(np.array([np.eye(2), matrix]), np.array([1.0, 1.0]))

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

    @pytest.mark.parametrize("times", [[0.5], [0.5, 0.5, 0.5]])
    def test_batched_needs_one_time_per_generator(self, times):
        # one time used to be broadcast to both instances; three ended in a
        # numpy broadcast error
        g = build_hamiltonian(SystemConfig((1.0, 2.0))).matrix
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match=f"got {len(times)} for 2"):
            rk4_propagate_many([g, g], [v, v], times)

    def test_unstable_step_is_reported(self):
        # RK4 blows up when omega*dt is far outside its stability region
        config = SystemConfig((40.0, 40.0, 40.0))
        state = initial_state(0.0, 0.0, config)
        with pytest.raises(FloatingPointError):
            evolve_oracle_rk4(build_hamiltonian(config), state, 50.0, dt=0.5)

    @pytest.mark.parametrize("t, dt", [(1e20, 1e-4), (1.0, 1e-300), (1e300, 1e-300)])
    def test_step_count_past_2_53_is_refused(self, t, dt):
        # 1e20 / 1e-4 steps overflowed the int64 count (a RuntimeWarning), and
        # the input came back unchanged instead of exp(-i*1e20)
        message = re.escape(f"t / dt must be at most 2**53 steps, got t = {t} and dt = {dt}")
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            rk4_propagate(np.array([[1.0]]), np.array([1.0 + 0j]), t, dt)
        rk4_propagate(np.array([[1.0]]), np.array([1.0 + 0j]), 2.0**53 * dt, dt)

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
            omega = config.omega
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
                kappa = gamma_decay + 2.0 * config.omega
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

    @pytest.mark.parametrize("kappa", [0.0, 0.02, 9.0])
    def test_time_as_numpy_scalar_or_0d_array(self, kappa):
        # the kernel takes column routines for a 1-D column only: a numpy scalar
        # or a 0-d array of time is a float, bit for bit
        config = star_config(3, 1.2, gamma_decay=0.01, kappa=kappa)
        state = random_block_state(np.random.default_rng(3), 3)
        expected = evolve(state, config, 2.5).amplitudes.tobytes()
        for t in (np.float64(2.5), np.array(2.5)):
            assert evolve(state, config, t).amplitudes.tobytes() == expected


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

    @pytest.mark.parametrize(
        "r, kappa, disc",
        [
            (1e154, 1e155, "nan"),  # 4*omega^2 - (kappa - Gamma)^2 = inf - inf
            (1e154, 0.0, "inf"),  # 4*omega^2 overflows; the time came back 0.0
        ],
    )
    def test_non_finite_discriminant_rejected(self, r, kappa, disc):
        # the NaN case used to return nan, caught only later as a bad time
        with pytest.raises(ConfigurationError) as caught:
            trapping_time(star_config(2, r, kappa=kappa))
        assert not isinstance(caught.value, OverdampedRegimeError)
        message = str(caught.value)
        assert f"is {disc} for omega^2 = 1e+308" in message
        assert f"gamma_decay = 0, kappa = {kappa:.6g}" in message
        # the overdamped regime keeps its own error
        with pytest.raises(OverdampedRegimeError):
            trapping_time(star_config(2, 1.0, kappa=1e155))

    def test_column_rows_without_a_trapping_instant_are_nan(self):
        # critical (4*omega^2 = kappa^2 = 16, whose time came back inf),
        # overdamped, underdamped, and a discriminant of inf and of inf - inf
        omega2 = np.array([4.0, 3.0, 5.0, 1e308, 1e308])
        kappa = 4.0
        taus = _trap_time(omega2[:3], 0.0, kappa, 1)
        assert np.isnan(taus[:2]).all() and taus[2] == renormalized_trapping_time(2, 2.0, 0.0, kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(_trap_time(omega2[3:], 0.0, 0.0, 1)).all()
            assert np.isnan(_trap_time(omega2[3:], 0.0, 1e155, 1)).all()

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


#: the times of the zero-rate identities: 0, the least subnormal, 1, a huge
#: time, inf and NaN
KERNEL_TIMES = [0.0, 5e-324, 1.0, 1e300, math.inf, math.nan]
#: (Gamma, kappa): no loss, matched rates (d = 0) and unequal rates
KERNEL_RATES = {"lossless": (0.0, 0.0), "matched": (0.3, 0.3), "unequal": (0.05, 0.4)}


def float_bits(values) -> list[int]:
    """The bits of each float, so that NaN compares too."""
    return np.asarray(values, dtype=float).reshape(-1).view(np.uint64).tolist()


def spy_on_entries(monkeypatch) -> list[list]:
    """[routine name, entries mapped, column length] of each column the kernel
    maps from now on.  The column routines are rebuilt as ``propagator``
    builds them, around ``math`` routines that count their calls."""
    maps = []

    def spied(name, mapping):
        routine = getattr(math, name)

        def counted(x):
            maps[-1][1] += 1
            return routine(x)

        mapped = mapping(counted)
        return lambda column: maps.append([name, 0, column.size]) or mapped(column)

    names, mappings = _COLUMN_LIBM._fields[:4], (_per_entry,) * 3 + (_per_distinct,)
    # each spy maps its routine as propagator's own column libm does
    assert [r.__qualname__.split(".")[0] for r in _COLUMN_LIBM[:4]] == [
        mapping.__name__ for mapping in mappings
    ]
    libm = propagator._Libm(*map(spied, names, mappings), np.sqrt)
    monkeypatch.setattr(propagator, "_COLUMN_LIBM", libm)
    monkeypatch.setattr(protocols, "_COLUMN_LIBM", libm)  # which tells columns by identity
    return maps


class TestKernelZeroRates:
    """A zero rate or d = 0 takes no libm call, equal rates one exp, and a
    trapping instant one sine per distinct phase, with every bit unchanged."""

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_the_identities_hold_bit_for_bit(self, zero):
        # exp(-0.0*t) is 1.0 + 0.0*t and expm1(0.0*t) is 0.0*t, on floats and columns
        for t in KERNEL_TIMES:
            assert float_bits(math.exp(-zero * t)) == float_bits(1.0 + 0.0 * t)
            assert float_bits(math.expm1(zero * t)) == float_bits(zero * t)
        t = np.array(KERNEL_TIMES)
        with np.errstate(invalid="ignore"):  # 0.0 * inf
            assert float_bits(_COLUMN_LIBM.exp(-zero * t)) == float_bits(1.0 + 0.0 * t)
            assert float_bits(_COLUMN_LIBM.expm1(zero * t)) == float_bits(zero * t)

    @pytest.mark.parametrize("rates", KERNEL_RATES.values(), ids=list(KERNEL_RATES))
    def test_column_entries_have_the_float_bits(self, rates):
        omega2 = 3.0  # underdamped at every rate pair here
        finite = [t for t in KERNEL_TIMES if t != math.inf]
        terms = _kernel_terms(omega2, *rates, np.array(finite))
        rows = [_kernel_terms(omega2, *rates, t) for t in finite]
        for k, column in enumerate(terms):
            assert column.shape == (len(finite),)
            assert float_bits(column) == float_bits([row[k] for row in rows])
        # without the photon the other three terms keep their bits
        lean = _kernel_terms(omega2, *rates, np.array(finite), photon=False)
        assert lean[3] is None
        assert [float_bits(c) for c in lean[:3]] == [float_bits(c) for c in terms[:3]]
        # sin(inf) is a libm domain error on both routes alike
        for t in (math.inf, np.array([1.0, math.inf])):
            with pytest.raises(ValueError, match="math domain error"), np.errstate(invalid="ignore"):
                _kernel_terms(omega2, *rates, t)

    def test_lossless_float_terms_keep_their_type_and_shape(self):
        # a column stays a column, so that _closed_stacks can reshape each term
        dark, qubit, damped_sinc, photon = _kernel_terms(np.full(6, 3.0), 0.0, 0.0, np.ones(6))
        assert {c.shape for c in (dark, qubit, damped_sinc, photon)} == {(6,)}
        assert dark.tolist() == [1.0] * 6
        assert isinstance(_kernel_terms(3.0, 0.0, 0.0, 2.0)[0], float)

    def test_per_entry_reads_any_1d_column(self):
        # the memoryview map gives the floats a tolist() copy gives, strided too
        column = np.linspace(-40.0, 40.0, 401)
        for view in (column, column[::3], column[::-2]):
            assert float_bits(_per_entry(math.sin)(view)) == float_bits(
                [math.sin(x) for x in view.tolist()]
            )

    @pytest.mark.parametrize("m_odd", [1, 3, 101])
    def test_lossless_star_columns_map_few_sines(self, monkeypatch, m_odd):
        maps = spy_on_entries(monkeypatch)
        m = np.arange(2.0, 2001.0)
        _star_columns(m, np.sqrt(m) + 1.0, 0.0, 0.0, m_odd)
        # nu*tau is m_odd*pi up to rounding: few phases, and no other routine
        assert [name for name, *_ in maps] == ["sin", "sin"]
        assert all(entries <= 3 and size == m.size for _, entries, size in maps)
        # a column too short to repay the sort maps every entry
        maps.clear()
        short = m[: propagator.DISTINCT_MIN_ENTRIES - 1]
        _star_columns(short, np.sqrt(short) + 1.0, 0.0, 0.0, m_odd)
        assert maps == [["sin", short.size, short.size]] * 2
        # the photon's cos is mapped only where the caller reads the photon, and
        # a column at other times maps every entry, equal or not
        maps.clear()
        _kernel_terms(np.full(3, 3.0), 0.0, 0.0, np.ones(3))
        assert sorted(maps) == [["cos", 3, 3], ["sin", 3, 3], ["sin", 3, 3]]

    @pytest.mark.parametrize("m_odd", [1, 3])
    @pytest.mark.parametrize(
        "rates, per_entry",
        [
            pytest.param((0.05, 0.05), ["exp"], id="matched"),  # one exp, no expm1
            pytest.param((5e-324, 5e-324), ["exp"], id="subnormal"),
            pytest.param((0.0, 0.3), ["exp", "expm1"], id="no_dark_exp"),
            pytest.param((0.013, 0.17), ["exp", "exp", "expm1"], id="unequal"),
        ],
    )
    def test_decoherence_tables_map_few_sines(self, monkeypatch, rates, per_entry, m_odd):
        maps = spy_on_entries(monkeypatch)
        table = decay_robustness_scan(np.arange(2, 2001), *rates, m_odd=m_odd)
        assert len(table) == 2 * 1999
        assert sorted(name for name, *_ in maps) == per_entry + ["sin", "sin"]
        for name, entries, size in maps:
            assert size == len(table)
            assert entries <= 3 if name == "sin" else entries == size

    def test_check_stacks_map_every_entry(self, monkeypatch, capsys):
        # qcm check's random times have distinct phases, so even a column long
        # enough to be sorted maps one call per entry, and no more
        maps = spy_on_entries(monkeypatch)
        assert cli.main(["check", "--trials", "50"]) == 0
        assert sorted({name for name, *_ in maps}) == ["cos", "sin"]
        assert all(entries == size > 0 for _, entries, size in maps)
        assert max(size for *_, size in maps) >= propagator.DISTINCT_MIN_ENTRIES

    @pytest.mark.parametrize("rate", [5e-324, 1e308])
    def test_matched_rates_take_one_exp(self, monkeypatch, rate):
        # -(Gamma + kappa)/2 is -Gamma to the bit while Gamma + kappa is finite,
        # and so is -(Gamma/2 + kappa/2), E's rate where the sum overflows
        total = rate + rate
        assert (total / 2.0 if total < math.inf else rate / 2.0 + rate / 2.0) == rate
        t = [0.0, 5e-324, 1e-308, 0.5, 2.0, 1e300]
        maps = spy_on_entries(monkeypatch)
        with np.errstate(over="ignore"):  # -1e308*1e300 overflows on both routes
            terms = _kernel_terms(np.full(len(t), 3.0), rate, rate, np.array(t))
        assert [name for name, *_ in maps].count("exp") == 1
        rows = [_kernel_terms(3.0, rate, rate, x) for x in t]
        for k, column in enumerate(terms):
            assert float_bits(column) == float_bits([row[k] for row in rows])
        # U(0) is the identity on both routes: (dark, qubit, E*S, photon) = (1, 0, 0, 1)
        assert [float(column[0]) for column in terms] == [1.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("rates", [(1e308, 1e308), (1.5e308, 1e308), (1e308, 1.5e308)])
    def test_rates_whose_sum_overflows_start_at_the_identity(self, rates):
        # with E's rate (Gamma + kappa)/2 = inf, E(0) would be exp(-inf*0.0) = NaN
        # and the propagator would refuse it; past overflow the rate is halved first
        config = star_config(2, 1.0, *rates)
        assert closed_form_propagator(config, 0.0).matrix.tolist() == np.eye(3).tolist()
        state = initial_state(1.1, 0.4, config)
        assert evolve(state, config, 0.0).amplitudes.tolist() == state.amplitudes.tolist()
        # later the excitation has decayed away, to no norm at all
        assert np.abs(closed_form_propagator(config, 1.0).matrix).max() == 0.0

    @pytest.mark.parametrize("routine", [math.sin, math.cos])
    def test_per_distinct_map_is_the_per_entry_map(self, routine):
        rng = np.random.default_rng(43)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.pi])
        payloads = np.array(
            [0x7FF0000000000001, 0x7FF8000000000123, 0xFFF0000000000ABC, 0xFFF8000000000000],
            dtype=np.uint64,
        )  # signalling and quiet NaNs of both signs
        pool = np.concatenate(
            [rng.integers(-(2**63), 2**63, 600), specials.view(np.int64), payloads.view(np.int64)]
        )
        pool = pool[(pool & 0x7FFFFFFFFFFFFFFF) != 0x7FF0000000000000]  # no +-inf
        column = rng.choice(pool, 3000).view(float)  # with repeats, so that entries share keys
        assert np.isnan(column).any() and (abs(column) < 2.2250738585072014e-308).any()
        for view in (column, column[::3], column[::-2], column[:100]):
            assert float_bits(_per_distinct(routine)(view)) == float_bits(_per_entry(routine)(view))
        # +-inf is libm's domain error on both routes alike
        for inf in (math.inf, -math.inf):
            column[1234] = inf
            for route in (_per_entry, _per_distinct):
                with pytest.raises(ValueError, match="^math domain error$"):
                    route(routine)(column)
