import dataclasses
import math
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
    check_count,
    check_count_column,
    initial_state,
    sorted_distinct,
    star_config,
)
from qcm.propagator import PropagatorMatrix, evolve

from conftest import random_system


class TestSystemConfig:
    def test_fields_and_qubit_count(self):
        config = SystemConfig((2.0, 1.0, 1.0), gamma_decay=0.001, kappa=0.02)
        assert config.m == 3
        np.testing.assert_array_equal(config.couplings, [2.0, 1.0, 1.0])

    def test_couplings_are_a_read_only_copy(self):
        mine = np.array([2.0, 1.0, 1.0])
        config = SystemConfig(mine)
        assert config.couplings.dtype == np.float64
        with pytest.raises(ValueError):
            config.couplings[0] = 5.0
        mine[0] = 5.0
        np.testing.assert_array_equal(config.couplings, [2.0, 1.0, 1.0])
        assert SystemConfig([1, 2]).couplings.dtype == np.float64

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0, -0.5))
        with pytest.raises(ConfigurationError, match=r"shape \(0,\)"):
            SystemConfig(())
        with pytest.raises(ConfigurationError, match=r"shape \(1, 2\)"):
            SystemConfig([[1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            SystemConfig((1.0, 1.0 + 1.0j))
        # the first bad coupling is named wherever it sits, not a later -1
        for bad in (np.nan, np.inf, 0.0):
            for where in (0, 2, 4):
                couplings = [1.0] * 4 + [-1.0]
                couplings[where] = bad
                with pytest.raises(ConfigurationError, match=f"> 0, got {bad}$"):
                    SystemConfig(couplings)
        # each coupling is finite and > 0, but their squares leave the float range
        for couplings in [(1e200,), (1.0, 1e200), (1e154, 1e154), (1e-200,)]:
            with pytest.raises(ConfigurationError, match="omega\\^2"):
                SystemConfig(couplings)

    def test_rejects_complex_couplings(self):
        # a float cast would drop the imaginary part with only a ComplexWarning
        for couplings in (
            np.array([1 + 1j, 2 + 0j]),
            [np.complex128(1 + 1j), 2.0],
            (1 + 1j, 2.0),
            np.array([1 + 0j, 2 + 0j]),
        ):
            with pytest.raises(ConfigurationError, match="^couplings must be real, got complex"):
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
        np.testing.assert_array_equal(config.couplings, [3.0, 1.0, 1.0, 1.0])
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


class TestCheckCount:
    def test_exact_float_range(self):
        # up to 2**53 every integer is an exact float; 2**53 + 1 is not
        assert check_count("m", 2**53, 1) == 2**53
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            check_count("m", 2**53 + 1, 1)
        with pytest.raises(ConfigurationError):
            check_count("m", 10**400, 1)

    @pytest.mark.parametrize(
        "column, message",
        [
            ([2, 3, 1, 0], "need m >= 2, got 1"),
            ([2.0, 2.5, 1.0], "m must be an integer, got 2.5"),
            ([2.0, -1.0], "need m >= 2, got -1"),
            ([2.0, np.nan], "m must be an integer, got nan"),
            ([2.0, np.inf], "m must be an integer, got inf"),
            ([2**53, 2**53 + 2], "need m <= 2**53, got 9007199254740994"),
        ],
    )
    def test_column_names_its_first_bad_entry(self, column, message):
        column = np.array(column)
        with pytest.raises(ConfigurationError) as caught:
            check_count_column("m", column, 2)
        assert str(caught.value) == message

    def test_column_of_counts_passes_unchanged(self):
        for column in (np.arange(2, 100), np.arange(2.0, 100.0), np.array([2**53], np.uint64)):
            assert check_count_column("m", column, 2) is column


def test_sorted_distinct_is_np_unique():
    # np.unique is the reference; qcm does not call it, as it imports numpy.ma
    rng = np.random.default_rng(36)
    columns = [np.array([], np.int64), np.array([5]), np.array([2**53, 2, 2**53], np.int64)]
    columns += [rng.integers(1, 17, size=n) for n in (1, 2, 25, 200, 1000)]
    for column in columns:
        distinct = sorted_distinct(column)
        assert distinct.dtype == column.dtype
        np.testing.assert_array_equal(distinct, np.unique(column))


class TestStateVector:
    def test_norm_squared_is_derived(self):
        # one pairwise sum of re^2 + im^2 over the float view, within 2 ulps of
        # the exact sum
        rng = np.random.default_rng(0)
        raw = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        state = StateVector(raw / np.linalg.norm(raw))
        parts = state.amplitudes.view(float)
        assert state.norm_squared == float(np.square(parts).sum())
        assert abs(state.norm_squared - math.fsum(parts * parts)) <= 4.5e-16
        half = StateVector(np.array([0.5, 0.5, 0.0]), normalized=False)
        assert half.norm_squared == 0.5
        with pytest.raises(TypeError):
            StateVector(np.array([1.0, 0.0, 0.0]), norm_squared=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.norm_squared = 2.0

    def test_array_records_compare_by_identity(self):
        # == on equal-content arrays gives no single bool, and arrays do not hash
        ones = np.ones((2, 2))
        for make in (
            lambda: StateVector(np.array([1.0, 0.0, 0.0])),
            lambda: GeneratorMatrix(ones, kind="hermitian"),
            lambda: PropagatorMatrix(ones),
        ):
            a, b = make(), make()
            assert a != b and a == a
            assert len({a, b}) == 2

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

    def test_amplitudes_are_always_a_copy(self):
        # a caller's frozen array is copied too: writing to it after re-enabling
        # writes moves neither the record nor its norm
        frozen = np.array([1.0, 0.0, 0.0], dtype=complex)
        frozen.flags.writeable = False
        state = StateVector(frozen)
        assert state.amplitudes is not frozen
        frozen.flags.writeable = True
        frozen[1] = 3.0
        np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0, 0.0])
        assert state.norm_squared == 1.0
        # a caller's writable array is copied, and left writable
        mine = np.array([1.0, 0.0, 0.0], dtype=complex)
        state = StateVector(mine)
        mine[0] = 0.0
        assert state.amplitudes[0] == 1.0 and mine.flags.writeable
        # so are a read-only view and a read-only float array
        view = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)[1:]
        real = np.array([1.0, 0.0, 0.0])
        for other in (view, real):
            other.flags.writeable = False
            assert StateVector(other).amplitudes is not other

    def test_normalized_must_be_a_bool(self):
        for flag in (True, False, np.True_, np.False_):
            assert StateVector(np.array([0.6, 0.0, 0.8]), normalized=flag).normalized is flag
        # None and 0 used to build a record with that flag; "no" was truthy
        for bad in (None, 0, 1, 0.0, "no", "", np.array(True), [True]):
            with pytest.raises(ConfigurationError, match="^normalized must be a bool"):
                StateVector(np.array([0.5, 0.0, 0.0]), normalized=bad)

    def test_non_finite_amplitudes_rejected(self):
        for bad in (np.nan, complex(0.0, np.inf), complex(0.6, np.nan), -np.inf):
            with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                StateVector(np.array([0.8, 0.0, bad]))
            # a non-finite entry fails as such, before squares that overflow
            with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                StateVector(np.array([1e200, 0.0, bad]), normalized=False)
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
        assert config.omega == pytest.approx(np.sqrt(6.0), abs=1e-15)
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

    def test_angles_are_checked_theta_first_before_the_register(self):
        # both angles bad: theta is named; the config is read only after the checks
        with pytest.raises(ConfigurationError, match="theta must be finite"):
            initial_state(np.nan, np.inf, SystemConfig((1.0,)))
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            initial_state(0.0, np.nan, None)


class TestCollectiveRabi:
    def test_bit_identical_to_couplings(self):
        rng = np.random.default_rng(16)
        configs = [random_system(rng) for _ in range(1000)]
        configs += [star_config(m, r) for m in (1, 2, 10**3, 10**6) for r in (0.3, 1.0, 1e3)]
        for config in configs:
            assert config.omega == float(np.sqrt(np.sum(np.square(config.couplings))))

    def test_omega_is_neither_an_argument_nor_assignable(self):
        with pytest.raises(TypeError):
            SystemConfig((1.0,), omega=2.0)
        config = SystemConfig((1.0,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.omega = 2.0

    def test_single_coupling(self):
        assert SystemConfig((1.0,)).omega == 1.0

    def test_star_formula(self):
        # omega = gamma * sqrt(r^2 + M - 1)
        for m, r in [(4, 3.0), (7, 0.4), (2, np.sqrt(2.0) + 1.0)]:
            config = star_config(m, r)
            assert config.omega == pytest.approx(np.sqrt(r * r + m - 1.0), abs=1e-14)

    def test_m4_r3_matches_eigenvalue_oracle(self):
        config = star_config(4, 3.0)
        omega = config.omega
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
