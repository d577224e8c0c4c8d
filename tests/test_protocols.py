import numpy as np
import pytest

from qcm.model import ConfigurationError, StateVector, initial_state, star_config
from qcm.propagator import closed_form_propagator, evolve, trapping_time
from qcm.protocols import (
    CouplingScheme,
    IDENTICAL,
    W_MINUS,
    W_PLUS,
    W_PRIME,
    classify_trapped_state,
    copy_fidelity,
    equatorial_qubit_density,
    fidelity_curve,
    generate_w_state,
    optimize_coupling_ratio,
    reduced_qubit_density,
    run_anticlone,
    transfer_fidelity_formula,
    trapped_amplitudes,
)

from conftest import brute_force_reduced_density

ALL_SCHEMES = (IDENTICAL, W_PLUS, W_MINUS, W_PRIME)


def check_density(rho, tol=1e-12):
    assert np.max(np.abs(rho - rho.conj().T)) <= tol
    assert abs(np.trace(rho).real - 1.0) <= tol
    assert np.linalg.eigvalsh(rho).min() >= -tol


class TestCouplingScheme:
    def test_named_ratios(self):
        assert IDENTICAL.ratio(5) == 1.0
        assert W_PLUS.ratio(4) == pytest.approx(3.0, abs=1e-15)
        assert W_MINUS.ratio(4) == pytest.approx(1.0, abs=1e-15)
        assert W_PRIME.ratio(3) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_large_m_ratio_approaches_sqrt_m(self):
        m = 10**6
        assert W_PLUS.ratio(m) / np.sqrt(m) == pytest.approx(1.0, abs=2e-3)

    def test_custom(self):
        assert CouplingScheme.custom(2.5).ratio(7) == 2.5
        with pytest.raises(ValueError):
            CouplingScheme("custom")
        with pytest.raises(ValueError):
            CouplingScheme.custom(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CouplingScheme("w_max")
        with pytest.raises(ValueError):
            CouplingScheme("identical", custom_ratio=2.0)
        with pytest.raises(ValueError):
            W_MINUS.ratio(1)
        with pytest.raises(ValueError):
            W_PRIME.ratio(1)
        with pytest.raises(ConfigurationError):
            W_PLUS.ratio(2.5)
        with pytest.raises(ConfigurationError):
            CouplingScheme.custom(np.nan)

    def test_from_string(self):
        assert CouplingScheme.from_string("w_plus") == W_PLUS


class TestTrappedAmplitudes:
    def test_m4_symmetric_pair(self):
        # r = 3 shares sign across all four qubits, r = 1 flips qubit 1
        assert trapped_amplitudes(4, 3.0) == pytest.approx((-0.5, -0.5), abs=1e-15)
        assert trapped_amplitudes(4, 1.0) == pytest.approx((0.5, -0.5), abs=1e-15)

    def test_m3_full_transfer(self):
        a1, a = trapped_amplitudes(3, np.sqrt(2.0))
        assert a1 == pytest.approx(0.0, abs=1e-15)
        assert a == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-15)

    def test_normalization_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            m = int(rng.integers(2, 40))
            r = rng.uniform(0.01, 10.0)
            a1, a = trapped_amplitudes(m, r)
            assert abs(a1 * a1 + (m - 1) * a * a - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            trapped_amplitudes(1, 1.0)
        with pytest.raises(ValueError):
            trapped_amplitudes(3, 0.0)
        # a fractional count used to return (0.2, -0.8)
        with pytest.raises(ConfigurationError):
            trapped_amplitudes(2.5, 1.0)
        with pytest.raises(ConfigurationError):
            trapped_amplitudes(3, np.inf)
        # r^2 = inf used to return (nan, -0.0)
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            trapped_amplitudes(2, 1e200)


class TestClassification:
    def test_patterns(self):
        assert classify_trapped_state(-0.5, -0.5) == "symmetric_W"
        assert classify_trapped_state(0.5, -0.5) == "antisymmetric_W"
        assert classify_trapped_state(0.0, -0.7) == "separable_W"
        assert classify_trapped_state(0.3, -0.6) == "generic"


class TestGenerateWState:
    def test_m4_w_plus_amplitudes(self):
        state, report = generate_w_state(4, W_PLUS)
        np.testing.assert_allclose(state.amplitudes[1:5].real, [-0.5] * 4, atol=1e-12)
        assert report.classification == "symmetric_W"
        assert report.r == pytest.approx(3.0, abs=1e-15)

    def test_m3_w_prime_transfer(self):
        state, report = generate_w_state(3, W_PRIME)
        assert abs(state.amplitudes[1]) < 1e-12
        np.testing.assert_allclose(
            state.amplitudes[2:4].real, [-1.0 / np.sqrt(2.0)] * 2, atol=1e-12
        )
        assert report.classification == "separable_W"

    def test_equal_magnitudes_and_empty_cavity(self):
        for m in range(2, 17):
            for scheme in (W_PLUS, W_MINUS):
                state, report = generate_w_state(m, scheme)
                mags = np.abs(state.amplitudes[1 : m + 1])
                np.testing.assert_allclose(mags, 1.0 / np.sqrt(m), atol=1e-10)
                assert abs(state.amplitudes[m + 1]) < 1e-12
                assert report.classification in ("symmetric_W", "antisymmetric_W")
            state, report = generate_w_state(m, W_PRIME)
            assert abs(state.amplitudes[1]) < 1e-10
            np.testing.assert_allclose(
                np.abs(state.amplitudes[2 : m + 1]), 1.0 / np.sqrt(m - 1), atol=1e-10
            )
            assert abs(state.amplitudes[m + 1]) < 1e-12

    def test_partner_exchange_symmetry(self):
        # partners all couple identically, so their amplitudes coincide
        state, _ = generate_w_state(9, CouplingScheme.custom(1.7))
        partners = state.amplitudes[2:10]
        assert np.max(np.abs(partners - partners[0])) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_w_state(1, W_PLUS)
        # used to die with a TypeError deep inside
        with pytest.raises(ConfigurationError):
            generate_w_state(3.0, W_PLUS)
        _, report = generate_w_state(np.int64(3), W_PLUS)
        assert report.m == 3
        # used to warn of a numpy overflow, then fail in PropagatorMatrix
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            generate_w_state(2, CouplingScheme.custom(1e200))


class TestReducedQubitDensity:
    def test_initial_equatorial_input_qubit(self):
        config = star_config(3, 1.0)
        state = initial_state(np.pi / 2.0, 0.0, config)
        rho = reduced_qubit_density(state, 1)
        np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_initial_target_qubit_is_ground(self):
        config = star_config(3, 1.0)
        state = initial_state(np.pi / 2.0, 0.0, config)
        rho = reduced_qubit_density(state, 2)
        np.testing.assert_allclose(rho, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_matches_brute_force_partial_trace(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            m = int(rng.integers(1, 6))
            raw = rng.normal(size=m + 2) + 1j * rng.normal(size=m + 2)
            scale = np.linalg.norm(raw) / rng.uniform(0.5, 1.0)
            state = StateVector(raw / scale, normalized=False)
            j = int(rng.integers(1, m + 1))
            np.testing.assert_allclose(
                reduced_qubit_density(state, j),
                brute_force_reduced_density(state, j),
                atol=1e-12,
            )
            # an index array gives the stack of the scalar results
            for indices in (np.arange(1, m + 1), rng.integers(1, m + 1, size=(2, 3))):
                stacked = reduced_qubit_density(state, indices)
                assert stacked.shape == indices.shape + (2, 2)
                scalar = [reduced_qubit_density(state, int(k)) for k in indices.flat]
                np.testing.assert_allclose(
                    stacked.reshape(-1, 2, 2), scalar, rtol=0.0, atol=1e-15
                )

    def test_trapped_coherence_against_closed_form(self):
        # transfer amplitude onto qubit 2 at trapping is -2r/(r^2+1) for M=2
        m, r, alpha = 2, np.sqrt(2.0) + 1.0, 0.0
        config = star_config(m, r)
        tau = trapping_time(config)
        state = evolve(initial_state(np.pi / 2.0, alpha, config), config, tau)
        u21 = -2.0 * r / (r * r + 1.0)
        assert u21 == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)
        rho = reduced_qubit_density(state, 2)
        np.testing.assert_allclose(rho, equatorial_qubit_density(u21, alpha), atol=1e-12)
        np.testing.assert_allclose(rho, brute_force_reduced_density(state, 2), atol=1e-12)

    def test_equatorial_closed_form_agrees_along_evolution(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            r = rng.uniform(0.3, 4.0)
            alpha = rng.uniform(0.0, 2.0 * np.pi)
            t = rng.uniform(0.0, 8.0)
            config = star_config(m, r)
            state = evolve(initial_state(np.pi / 2.0, alpha, config), config, t)
            j = int(rng.integers(1, m + 1))
            u_j1 = closed_form_propagator(config, t).matrix[j - 1, 0]
            np.testing.assert_allclose(
                reduced_qubit_density(state, j),
                equatorial_qubit_density(u_j1.real, alpha),
                atol=1e-12,
            )

    def test_densities_are_legal_across_protocol_runs(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            m = int(rng.integers(2, 8))
            scheme = CouplingScheme.custom(rng.uniform(0.2, 5.0))
            config = star_config(m, scheme.ratio(m))
            theta = rng.uniform(0.0, np.pi)
            state = evolve(
                initial_state(theta, rng.uniform(0.0, 2.0 * np.pi), config),
                config,
                rng.uniform(0.0, 10.0),
            )
            for j in range(1, m + 1):
                check_density(reduced_qubit_density(state, j))

    def test_index_validation(self):
        state = initial_state(0.0, 0.0, star_config(2, 1.0))
        with pytest.raises(IndexError):
            reduced_qubit_density(state, 0)
        with pytest.raises(IndexError):
            reduced_qubit_density(state, 3)
        for bad in (np.array([0, 1]), np.array([1, 3]), np.array([1.0, 2.0]), 1.5, True):
            with pytest.raises(IndexError):
                reduced_qubit_density(state, bad)


class TestCopyFidelity:
    def test_quadrature_phase_gives_half(self):
        config = star_config(3, 2.0)
        for j in (1, 2, 3):
            for t in (0.0, 0.9, 2.2):
                f = copy_fidelity(config, j, t, alpha=0.3, mu=0.3 - np.pi / 2.0)
                assert f == pytest.approx(0.5, abs=1e-12)

    def test_target_formula_at_trapping(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            m = int(rng.integers(2, 9))
            r = rng.uniform(0.3, 4.0)
            alpha = rng.uniform(0.0, 2.0 * np.pi)
            mu = rng.uniform(0.0, 2.0 * np.pi)
            config = star_config(m, r)
            tau = trapping_time(config)
            omega2 = r * r + m - 1.0
            j = int(rng.integers(2, m + 1))
            expected = 0.5 * (1.0 - 2.0 * r / omega2 * np.cos(alpha - mu))
            assert copy_fidelity(config, j, tau, alpha, mu) == pytest.approx(
                expected, abs=1e-12
            )

    def test_perfect_anticlone_for_two_identical_qubits(self):
        config = star_config(2, 1.0)
        tau = trapping_time(config)
        alpha = 0.7
        f = copy_fidelity(config, 2, tau, alpha, alpha - np.pi)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_pipeline_matches_transfer_formula(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            config = star_config(m, rng.uniform(0.3, 4.0))
            t = rng.uniform(0.0, 6.0)
            alpha = rng.uniform(0.0, 2.0 * np.pi)
            mu = rng.uniform(0.0, 2.0 * np.pi)
            j = int(rng.integers(1, m + 1))
            u_j1 = closed_form_propagator(config, t).matrix[j - 1, 0].real
            assert copy_fidelity(config, j, t, alpha, mu) == pytest.approx(
                transfer_fidelity_formula(u_j1, alpha, mu), abs=1e-12
            )


class TestFidelityCurve:
    def test_optimal_two_qubit_value(self):
        f_target, f_input = fidelity_curve(2, W_PLUS)
        assert f_target == pytest.approx(0.5 * (1.0 + 1.0 / np.sqrt(2.0)), abs=1e-15)
        assert f_input == f_target

    def test_three_qubit_transfer_is_optimal_pair_cloner(self):
        f_target, f_input = fidelity_curve(3, W_PRIME)
        assert f_target == pytest.approx(0.5 * (1.0 + 1.0 / np.sqrt(2.0)), abs=1e-15)
        assert f_input == 0.5

    def test_w_plus_matches_w_prime_shifted(self):
        for m in range(2, 40):
            assert fidelity_curve(m, W_PLUS)[0] == fidelity_curve(m + 1, W_PRIME)[0]

    def test_agrees_with_pipeline(self):
        for m in range(2, 33):
            for scheme in ALL_SCHEMES:
                f_target, f_input = fidelity_curve(m, scheme)
                report = run_anticlone(m, scheme, alpha=0.4)
                assert report.fidelities[0] == pytest.approx(f_input, abs=1e-12)
                for f in report.fidelities[1:]:
                    assert f == pytest.approx(f_target, abs=1e-12)

    def test_bounds_in_genuine_copy_range(self):
        # one-to-many operation: w_plus/w_minus from M=2, others from M=3
        upper = 0.5 * (1.0 + 1.0 / np.sqrt(2.0))
        for scheme, m_low in ((W_PLUS, 2), (W_MINUS, 2), (IDENTICAL, 3), (W_PRIME, 3)):
            for m in range(m_low, 33):
                f_target, _ = fidelity_curve(m, scheme)
                assert 0.5 <= f_target <= upper + 1e-15

    def test_scheme_ordering(self):
        for m in range(3, 33):
            assert fidelity_curve(m, W_PRIME)[0] > fidelity_curve(m, IDENTICAL)[0]
        for m in range(5, 41):
            assert fidelity_curve(m, W_PLUS)[0] > fidelity_curve(m, IDENTICAL)[0]
        # the degenerate single-output point: both reduce to full transfer
        assert fidelity_curve(2, W_PRIME)[0] == fidelity_curve(2, IDENTICAL)[0] == 1.0

    def test_custom_ratio_formula(self):
        f_target, f_input = fidelity_curve(5, CouplingScheme.custom(2.0))
        a1, a = trapped_amplitudes(5, 2.0)
        assert f_target == pytest.approx(0.5 * (1.0 - a), abs=1e-15)
        assert f_input == pytest.approx(0.5 * (1.0 - a1), abs=1e-15)

    def test_validation(self):
        for scheme in ALL_SCHEMES:
            with pytest.raises(ConfigurationError):
                fidelity_curve(2.5, scheme)
            with pytest.raises(ConfigurationError):
                fidelity_curve(1, scheme)


class TestRunAnticlone:
    def test_two_qubit_optimum_shared_by_input(self):
        report = run_anticlone(2, W_PLUS, alpha=0.0)
        expected = 0.5 * (1.0 + 1.0 / np.sqrt(2.0))
        assert report.fidelities[0] == pytest.approx(expected, abs=1e-12)
        assert report.fidelities[1] == pytest.approx(expected, abs=1e-12)

    def test_identical_couplings_five_qubits(self):
        report = run_anticlone(5, IDENTICAL)
        assert report.fidelities[1] == pytest.approx(0.7, abs=1e-12)
        assert report.fidelities[0] == pytest.approx(0.2, abs=1e-12)

    def test_w_prime_leaves_input_behind(self):
        report = run_anticlone(3, W_PRIME, alpha=1.2)
        assert report.fidelities[0] == pytest.approx(0.5, abs=1e-12)
        assert report.classification == "separable_W"
        assert abs(report.a1) < 1e-12

    def test_phase_invariance(self):
        for alpha in (0.0, 0.9, 4.1):
            report = run_anticlone(4, W_MINUS, alpha=alpha)
            f_target, f_input = fidelity_curve(4, W_MINUS)
            assert report.fidelities[0] == pytest.approx(f_input, abs=1e-12)
            assert report.fidelities[-1] == pytest.approx(f_target, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_anticlone(2.5, W_PLUS)
        with pytest.raises(ConfigurationError):
            run_anticlone(1, W_PLUS)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            run_anticlone(3, W_PLUS, alpha=alpha)


class TestOptimizeCouplingRatio:
    def test_m4_symmetry_pair(self):
        low, high = optimize_coupling_ratio(4, "w_symmetry")
        assert low == pytest.approx(1.0, abs=1e-6)
        assert high == pytest.approx(3.0, abs=1e-6)

    def test_m3_separable_transfer(self):
        r = optimize_coupling_ratio(3, "separable_transfer")
        assert r == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_m9_upper_branch(self):
        _, high = optimize_coupling_ratio(9, "w_symmetry")
        assert high == pytest.approx(4.0, abs=1e-6)

    def test_recovers_analytic_optima(self):
        for m in (2, 3, 4, 9, 16):
            low, high = optimize_coupling_ratio(m, "w_symmetry")
            assert low == pytest.approx(np.sqrt(m) - 1.0, abs=1e-6)
            assert high == pytest.approx(np.sqrt(m) + 1.0, abs=1e-6)
            transfer = optimize_coupling_ratio(m, "separable_transfer")
            assert transfer == pytest.approx(np.sqrt(m - 1.0), abs=1e-6)
            best = optimize_coupling_ratio(m, "target_fidelity")
            assert best == pytest.approx(np.sqrt(m - 1.0), abs=1e-6)

    def test_target_fidelity_relative_accuracy_at_large_m(self):
        # the argmax of a smooth maximum is fixed only to ~sqrt(eps) relative,
        # so at M=256 the optimum lands about 1.1e-6 from sqrt(255)
        m = 256
        best = optimize_coupling_ratio(m, "target_fidelity")
        exact = np.sqrt(m - 1.0)
        assert abs(best - exact) / exact < 1e-6
        f_best = fidelity_curve(m, CouplingScheme.custom(best))[0]
        f_exact = fidelity_curve(m, CouplingScheme.custom(exact))[0]
        assert f_best == pytest.approx(f_exact, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_coupling_ratio(4, "fastest")
        with pytest.raises(ValueError):
            optimize_coupling_ratio(1, "w_symmetry")
        with pytest.raises(ConfigurationError):
            optimize_coupling_ratio(4.0, "w_symmetry")
