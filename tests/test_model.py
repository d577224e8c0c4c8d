import warnings

import numpy as np
import pytest

from qcm.model import (
    ConfigurationError,
    GeneratorMatrix,
    StateVector,
    SystemConfig,
    build_dissipative_hamiltonian,
    build_hamiltonian,
    collective_rabi,
    initial_state,
    star_config,
)
from qcm.propagator import evolve

from conftest import random_system


class TestSystemConfig:
    def test_fields_and_qubit_count(self):
        config = SystemConfig((2.0, 1.0, 1.0), gamma_decay=0.001, kappa=0.02)
        assert config.m == 3
        assert config.couplings == (2.0, 1.0, 1.0)

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0, 0.0))
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0, -0.5))
        with pytest.raises(ConfigurationError):
            SystemConfig(())
        # each coupling is finite and > 0, but their squares leave the float range
        for couplings in [(1e200,), (1.0, 1e200), (1e154, 1e154), (1e-200,)]:
            with pytest.raises(ConfigurationError, match="omega\\^2"):
                SystemConfig(couplings)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0,), gamma_decay=-1e-9)
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0,), kappa=-0.1)
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0,), gamma_decay=np.nan)
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0,), kappa=np.inf)

    def test_star_config(self):
        config = star_config(4, 3.0)
        assert config.couplings == (3.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            star_config(3, 0.0)
        with pytest.raises(ConfigurationError):
            star_config(0, 1.0)
        # a fractional count used to die with a TypeError deep inside
        with pytest.raises(ConfigurationError):
            star_config(2.5, 1.0)
        with pytest.raises(ConfigurationError):
            star_config(3, np.nan)
        assert star_config(np.int64(2), 1.0).m == 2


class TestStateVector:
    def test_norm_invariants(self):
        StateVector(np.array([1.0, 0.0, 0.0]))
        StateVector(np.array([0.5, 0.5, 0.0]), normalized=False)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.5, 0.0]), normalized=False)

    def test_amplitudes_frozen(self):
        state = StateVector(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_non_finite_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[0.0, np.nan], [np.nan, 0.0]]), kind="hermitian")


class TestBuildHamiltonian:
    def test_single_qubit_is_swap_coupling(self):
        h = build_hamiltonian(SystemConfig((1.0,))).matrix
        np.testing.assert_array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_two_qubit_eigenvalues(self):
        # eigendecomposition oracle: spectrum is {0, +/- omega} with omega = sqrt(2)
        h = build_hamiltonian(SystemConfig((1.0, 1.0))).matrix
        eigvals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(
            eigvals, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-14
        )

    def test_three_qubit_structure(self):
        config = SystemConfig((2.0, 1.0, 1.0))
        h = build_hamiltonian(config).matrix
        assert collective_rabi(config) == pytest.approx(np.sqrt(6.0), abs=1e-15)
        assert np.linalg.matrix_rank(h) == 2
        # only qubit <-> photon couplings
        assert np.max(np.abs(h[:3, :3])) == 0.0
        np.testing.assert_array_equal(h[:3, 3], [2.0, 1.0, 1.0])

    def test_hermitian_for_random_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            h = build_hamiltonian(random_system(rng)).matrix
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14


class TestBuildDissipativeHamiltonian:
    def test_no_decay_equals_hermitian(self):
        config = SystemConfig((1.3, 0.7))
        np.testing.assert_array_equal(
            build_dissipative_hamiltonian(config).matrix,
            build_hamiltonian(config).matrix,
        )

    def test_equal_rates_shift_is_proportional_to_identity(self):
        g = 0.05
        config = SystemConfig((1.0,), gamma_decay=g, kappa=g)
        expected = build_hamiltonian(config).matrix - 1j * g * np.eye(2)
        np.testing.assert_array_equal(build_dissipative_hamiltonian(config).matrix, expected)

    def test_default_rate_diagonal(self):
        config = SystemConfig((1.0, 1.0), gamma_decay=0.001, kappa=0.02)
        diag = np.diag(build_dissipative_hamiltonian(config).matrix)
        np.testing.assert_array_equal(diag, [-0.001j, -0.001j, -0.02j])

    def test_anti_hermitian_part_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            config = random_system(rng)
            config = SystemConfig(
                config.couplings,
                gamma_decay=rng.uniform(0.0, 0.2),
                kappa=rng.uniform(0.0, 0.2),
            )
            mat = build_dissipative_hamiltonian(config).matrix
            anti = (mat - mat.conj().T) / 2.0
            rates = np.full(config.m + 1, config.gamma_decay)
            rates[-1] = config.kappa
            np.testing.assert_array_equal(anti, -1j * np.diag(rates))

    def test_generator_kind_validation(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]), kind="hermitian")
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), kind="other")
        with pytest.raises(ValueError):
            # anti-Hermitian part must be diagonal with non-negative rates
            GeneratorMatrix(np.array([[0.1j, 1.0], [1.0, 0.0]]), kind="dissipative")


class TestInitialState:
    def test_fully_excited_input(self):
        state = initial_state(0.0, 0.7, SystemConfig((1.0, 1.0)))
        np.testing.assert_allclose(state.amplitudes[1], np.exp(0.7j), atol=1e-15)
        assert abs(state.amplitudes[0]) == 0.0
        assert np.max(np.abs(state.amplitudes[2:])) == 0.0

    def test_fully_ground_input(self):
        state = initial_state(np.pi, 0.0, SystemConfig((1.0,)))
        assert state.amplitudes[0] == pytest.approx(1.0, abs=1e-15)
        assert abs(state.amplitudes[1]) < 1e-15

    def test_equatorial_input(self):
        state = initial_state(np.pi / 2.0, 0.0, SystemConfig((1.0, 1.0, 1.0)))
        np.testing.assert_allclose(
            state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0, 0], atol=1e-15
        )

    def test_unit_norm_for_any_angles(self):
        rng = np.random.default_rng(13)
        config = SystemConfig((1.0, 2.0))
        for _ in range(300):
            theta = rng.uniform(-10.0, 10.0)
            alpha = rng.uniform(-10.0, 10.0)
            state = initial_state(theta, alpha, config)
            assert abs(state.norm_squared - 1.0) <= 1e-12


    @pytest.mark.parametrize(
        "theta, alpha, name",
        [(np.nan, 0.0, "theta"), (np.inf, 0.0, "theta"), (0.0, np.nan, "alpha"), (0.0, -np.inf, "alpha")],
    )
    def test_non_finite_angles_rejected(self, theta, alpha, name):
        # an infinite alpha used to warn inside numpy, then fail as
        # "amplitudes must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                initial_state(theta, alpha, SystemConfig((1.0, 1.0)))


class TestCollectiveRabi:
    def test_single_coupling(self):
        assert collective_rabi(SystemConfig((1.0,))) == 1.0

    def test_star_formula(self):
        # omega = gamma * sqrt(r^2 + M - 1)
        for m, r in [(4, 3.0), (7, 0.4), (2, np.sqrt(2.0) + 1.0)]:
            config = star_config(m, r)
            assert collective_rabi(config) == pytest.approx(
                np.sqrt(r * r + m - 1.0), abs=1e-14
            )

    def test_m4_r3_matches_eigenvalue_oracle(self):
        config = star_config(4, 3.0)
        omega = collective_rabi(config)
        assert omega == pytest.approx(np.sqrt(12.0), abs=1e-14)
        eigvals = np.linalg.eigvalsh(build_hamiltonian(config).matrix)
        assert eigvals.max() == pytest.approx(omega, abs=1e-12)
        assert eigvals.min() == pytest.approx(-omega, abs=1e-12)


class TestGroundStateStationarity:
    def test_ground_amplitude_never_moves(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            config = random_system(rng, m_high=8)
            state = initial_state(rng.uniform(0.1, 3.0), rng.uniform(0.0, 6.0), config)
            evolved = evolve(state, config, rng.uniform(0.0, 20.0))
            assert evolved.amplitudes[0] == state.amplitudes[0]
