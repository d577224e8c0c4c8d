import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qcm.decoherence import renormalized_trapping_time
import qcm.protocols as protocols
from qcm.model import ConfigurationError, StateVector, initial_state, replay_flagged, star_config
from qcm.propagator import _star_columns, _trap_time, closed_form_propagator, evolve, trapping_time
from qcm.protocols import (
    _in_unit_interval,
    _qubit_densities,
    _star_step,
    CouplingScheme,
    IDENTICAL,
    ProtocolReport,
    W_MINUS,
    W_PLUS,
    W_PRIME,
    anticlone_fidelities,
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
    w_state_columns,
)

from conftest import brute_force_reduced_density, random_block_state

ALL_SCHEMES = (IDENTICAL, W_PLUS, W_MINUS, W_PRIME)


def scheme_id(scheme):
    return scheme.tag if scheme.tag != "custom" else f"r={scheme.custom_ratio}"


def check_density(rho, tol=1e-12):
    assert np.max(np.abs(rho - rho.conj().T)) <= tol
    assert abs(np.trace(rho).real - 1.0) <= tol
    assert np.linalg.eigvalsh(rho).min() >= -tol


# Reference arithmetic for the reduction and the readout: the four density
# entries stacked and then divided by the norm in complex arithmetic, and each
# fidelity as t^dagger rho t by einsum.


def divided_densities(ground, qubits, norm_squared):
    """Reduced densities of the qubits with amplitudes ``qubits``, by stack and divide."""
    excited = np.abs(qubits) ** 2
    coherence = ground * np.conj(qubits)
    rho = np.stack([norm_squared - excited, coherence, np.conj(coherence), excited], axis=-1)
    rho /= np.asarray(norm_squared)[..., None]
    return rho.reshape(qubits.shape + (2, 2))


def einsum_fidelities(rho, alpha):
    """Fidelity of each density with the complement (1, -exp(i*alpha))/sqrt(2), by einsum."""
    target = np.array([1.0, -np.exp(1j * alpha)]) / np.sqrt(2.0)
    return np.einsum("i,...ij,j->...", target.conj(), rho, target).real


def divided_run_anticlone(m, scheme, alpha):
    """``run_anticlone``'s fidelities through the references."""
    config = star_config(m, scheme.ratio(m))
    state = evolve(initial_state(np.pi / 2.0, alpha, config), config, trapping_time(config))
    c = state.amplitudes
    return einsum_fidelities(divided_densities(c[0], c[1:-1], state.norm_squared), alpha)


def same_bits(got, expected):
    """Whether two arrays have one shape and the same bits, a zero's sign aside
    (adding 0.0 turns -0.0 into 0.0)."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and (got + 0.0).tobytes() == (expected + 0.0).tobytes()


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

    def test_count_column_checked(self):
        # a column of counts used to pass unchecked: W_MINUS gave the ratio 0.0
        with pytest.raises(ConfigurationError, match="need m >= 2, got 1"):
            W_MINUS.ratio(np.array([2.0, 1.0]))
        with pytest.raises(ConfigurationError, match="m must be an integer, got 2.5"):
            W_PLUS.ratio(np.array([2.5]))


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


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: copy_fidelity(star_config(3, 1.2), 2, 0.5, 0.3, bad),
        lambda bad: transfer_fidelity_formula(bad, 0.1, 0.2),
        lambda bad: transfer_fidelity_formula(0.5, bad, 0.2),
        lambda bad: transfer_fidelity_formula(0.5, 0.1, bad),
        lambda bad: equatorial_qubit_density(bad, 0.1),
        lambda bad: equatorial_qubit_density(0.5, bad),
        lambda bad: classify_trapped_state(bad, 0.1),
        lambda bad: classify_trapped_state(0.1, bad),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_form_helpers_reject_non_finite_inputs(call, bad):
    # these returned nan, a NaN matrix (with a numpy warning) or "generic"
    with pytest.raises(ConfigurationError, match="must be finite"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [lambda u: transfer_fidelity_formula(u, 0.0, 0.0), lambda u: equatorial_qubit_density(u, 0.0)],
)
class TestTransferAmplitudeBound:
    @pytest.mark.parametrize("u", [1.0, -1.0, 1.0 + 1e-13])
    def test_unit_amplitudes_pass(self, call, u):
        call(u)

    @pytest.mark.parametrize("u", [1.0 + 1e-9, -1.0 - 1e-9, 2.0, -2.0])
    def test_amplitudes_past_one_rejected(self, call, u):
        # u = 2 used to give a fidelity of 1.5 and a population of -1
        with pytest.raises(ConfigurationError, match=f"need \\|u_j1\\| <= 1, got {u}"):
            call(u)

    def test_nan_rejected(self, call):
        with pytest.raises(ConfigurationError, match="u_j1 must be finite"):
            call(math.nan)


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

    @pytest.mark.parametrize("scheme", ALL_SCHEMES + (CouplingScheme.custom(1.7),), ids=scheme_id)
    def test_amplitudes_are_the_propagators_first_column(self, scheme):
        # evolve writes dark*x into its output buffer and adds the coupled terms
        # in U's own product order, so the trapped state has U's bits
        for m in range(2, 17):
            state, report = generate_w_state(m, scheme)
            config = star_config(m, report.r)
            column = closed_form_propagator(config, report.trapping_time).matrix[:, 0]
            assert state.amplitudes[0] == 0.0
            assert state.amplitudes[1:].tobytes() == column.tobytes()

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

    def test_bit_identical_to_dividing_the_stack(self):
        # multiplying by 1/n is what numpy's complex division by n + 0j does
        rng = np.random.default_rng(35)
        states = [random_block_state(rng, m) for m in (1, 2, 7, 300)]
        for m, scheme in zip((2, 3, 64, 4096), ALL_SCHEMES):
            for gamma_decay, kappa in ((0.0, 0.0), (0.03, 0.2), (0.5, 0.01)):
                config = star_config(m, scheme.ratio(m), gamma_decay, kappa)
                for theta, alpha, t in ((np.pi / 2.0, 0.0, None), (1.1, 4.2, 2.7), (0.3, 1e12, 40.0)):
                    t = trapping_time(config) if t is None else t
                    states.append(evolve(initial_state(theta, alpha, config), config, t))
        assert sum(not state.normalized for state in states) == 24  # decayed, unnormalized
        for state in states:
            c, m = state.amplitudes, state.m
            indices = [1, m, np.arange(1, m + 1), rng.integers(1, m + 1, size=(2, 3))]
            for j in indices:
                expected = divided_densities(c[0], c[j], state.norm_squared)
                assert same_bits(reduced_qubit_density(state, j), expected)
            # without an index every qubit is reduced, as the full index array reduces it
            every = reduced_qubit_density(state)
            assert every.tobytes() == reduced_qubit_density(state, np.arange(1, m + 1)).tobytes()

    def test_index_validation(self):
        state = initial_state(0.0, 0.0, star_config(2, 1.0))
        for bad in (0, 3, np.array([0, 1]), np.array([1, 3]), np.array([1.0, 2.0]), 1.5, True):
            with pytest.raises(ConfigurationError, match=r"is not an integer in 1\.\.2$"):
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

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=scheme_id)
    def test_count_column_is_bit_identical_to_each_count(self, scheme):
        counts = [*range(2, 3001), 10**6, 10**15, 2**53 - 1, 2**53]
        f_target, f_input = np.broadcast_arrays(*fidelity_curve(np.array(counts, float), scheme))
        expected = [fidelity_curve(m, scheme) for m in counts]
        assert list(zip(f_target.tolist(), f_input.tolist())) == expected

    @pytest.mark.parametrize(
        "counts, message",
        [([2.5], "m must be an integer, got 2.5"), ([3.0, -1.0], "need m >= 2, got -1")],
    )
    def test_count_column_checked(self, counts, message):
        # these returned a value, or NaN with numpy's invalid-value warning
        for scheme in ALL_SCHEMES:
            with pytest.raises(ConfigurationError) as caught:
                fidelity_curve(np.array(counts), scheme)
            assert str(caught.value) == message

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

    def test_count_column_needs_a_named_scheme(self):
        # this blamed the counts: "m must be an integer, got array([2., 3.])"
        with pytest.raises(ConfigurationError, match="^a count column needs a named scheme"):
            fidelity_curve(np.array([2.0, 3.0]), CouplingScheme.custom(2.0))


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
        # at |alpha| >= 1e12, alpha - pi would round pi away in the complement's phase
        for alpha in (0.0, 0.9, 4.1, 1e12, 1e300, -1e300):
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

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=scheme_id)
    def test_large_registers_against_the_references(self, scheme):
        # the paper's regime: fidelities within 1e-15 of stack, divide and einsum
        for m in (256, 1024, 2048, 4096, 10**4):
            f_target, f_input = fidelity_curve(m, scheme)
            fidelities = run_anticlone(m, scheme, alpha=0.7).fidelities
            reference = divided_run_anticlone(m, scheme, 0.7)
            np.testing.assert_allclose(fidelities, reference, rtol=0.0, atol=1e-15)
            assert abs(fidelities[0] - f_input) <= 1e-12
            np.testing.assert_allclose(fidelities[1:], f_target, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.3, 1e12])
    def test_reads_the_trapped_state_of_generate_w_state(self, alpha):
        # both protocols take one machine step; only the input and the readout differ
        for m in range(2, 65):
            for scheme in ALL_SCHEMES:
                w_state = generate_w_state(m, scheme)[1]
                clone = run_anticlone(m, scheme, alpha)
                assert (clone.r, clone.trapping_time) == (w_state.r, w_state.trapping_time)
                assert clone.classification == w_state.classification
                assert abs(clone.a1 - w_state.a1) <= 1e-15
                assert abs(clone.a - w_state.a) <= 1e-15


def star_rows(counts, schemes):
    """(m, r) columns of the rows (M, scheme), M in ``counts``, then scheme."""
    m = np.repeat(np.array(counts, dtype=np.int64), len(schemes))
    r = np.array([scheme.ratio(int(count)) for count in counts for scheme in schemes])
    return m, r


def star_qubits(m, r, alpha):
    """The ground amplitude, the (partner, qubit 1) amplitudes, the squared norm
    and ``ok`` of each star row of ``anticlone_fidelities``."""
    ground, excited = initial_state(np.pi / 2.0, alpha, star_config(1, 1.0)).amplitudes[:2]
    with np.errstate(all="ignore"):
        _, (x1, x, _), n2, ok = _star_step(m, r, ground, excited)
    return ground, np.stack([x, x1], axis=-1), n2[:, None], ok


def divided_anticlone_fidelities(m, r, alpha):
    """``anticlone_fidelities`` through the references."""
    ground, qubits, n2, ok = star_qubits(m, r, alpha)
    with np.errstate(all="ignore"):
        fidelities = einsum_fidelities(divided_densities(ground, qubits, n2), alpha)
        ok &= _in_unit_interval(fidelities).all(axis=-1)
    fidelities[~ok] = np.nan
    return fidelities, ok


ALPHAS = [0.0, 1.1, 4.32, 1e12, 1e300, -1e300]


class TestAnticloneFidelities:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_the_references(self, alpha):
        # M = 2..300, as `qcm anticlone --m-range 2:300` checks them
        counts = range(2, 301)
        m, r = star_rows(counts, ALL_SCHEMES)
        ground, qubits, n2, _ = star_qubits(m, r, alpha)
        assert same_bits(_qubit_densities(ground, qubits, n2), divided_densities(ground, qubits, n2))
        fidelities, ok = anticlone_fidelities(m, r, alpha)
        reference, reference_ok = divided_anticlone_fidelities(m, r, alpha)
        assert ok.tolist() == reference_ok.tolist() and ok.all()
        # the readout rounds otherwise than einsum: within 2 ulps of 1 of it, and no
        # farther from the closed forms
        np.testing.assert_allclose(fidelities, reference, rtol=0.0, atol=4.5e-16)
        closed = np.array([fidelity_curve(k, scheme) for k in counts for scheme in ALL_SCHEMES])
        assert np.max(abs(fidelities - closed)) <= np.max(abs(reference - closed))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_agrees_with_run_anticlone(self, alpha):
        m, r = star_rows(range(2, 301), ALL_SCHEMES)
        batched, ok = anticlone_fidelities(m, r, alpha)
        assert batched.shape == (m.size, 2) and ok.all()
        for i, (target, input_qubit) in enumerate(batched):
            reference = run_anticlone(int(m[i]), ALL_SCHEMES[i % 4], alpha).fidelities
            # the batch scores one partner; every partner of the row must match it
            np.testing.assert_allclose(reference[1:], target, rtol=0.0, atol=1e-15)
            assert abs(input_qubit - reference[0]) <= 1e-15

    def test_rows_failing_a_check_come_back_nan(self):
        # omega^2 = inf, and 4*omega^2 = inf with omega^2 finite, amid good rows
        bad = (CouplingScheme.custom(1e200), CouplingScheme.custom(1e154))
        m, r = star_rows([4], (W_PLUS,) + bad + (W_PRIME,))
        rows, ok = anticlone_fidelities(m, r, 0.5)
        assert np.isnan(rows).all(axis=1).tolist() == [False, True, True, False]
        assert ok.tolist() == [True, False, False, True]
        assert np.isfinite(rows[[0, 3]]).all()
        # the one-register route raises each failed check's own error
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            run_anticlone(4, bad[0])
        with pytest.raises(ConfigurationError, match="trapping time must be finite"):
            run_anticlone(4, bad[1])

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        m, r = star_rows([3], ALL_SCHEMES)
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            anticlone_fidelities(m, r, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.3, -1e12, 1e300])
    def test_input_amplitudes_are_initial_states(self, monkeypatch, alpha):
        # the batch takes qubit 1's two amplitudes without building a register,
        # with the bits initial_state(pi/2, alpha) gives them
        seen, step = [], protocols._star_step

        def spy(m, r, ground, excited):
            seen.append((ground, excited))
            return step(m, r, ground, excited)

        monkeypatch.setattr(protocols, "_star_step", spy)
        m, r = star_rows([3, 40], ALL_SCHEMES)
        assert anticlone_fidelities(m, r, alpha)[1].all()
        expected = initial_state(np.pi / 2.0, alpha, star_config(2, 1.0)).amplitudes[:2]
        (amplitudes,) = seen
        assert np.array(amplitudes, dtype=complex).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 1.3, -1e12, 1e300])
    def test_an_overflowing_row_is_replayed_through_run_anticlone(self, alpha):
        schemes = (W_PLUS, CouplingScheme.custom(1e200), W_MINUS)
        m, r = star_rows([5], schemes)
        fidelities, ok = anticlone_fidelities(m, r, alpha)
        assert ok.tolist() == [True, False, True]
        assert np.isnan(fidelities[1]).all() and np.isfinite(fidelities[[0, 2]]).all()
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            replay_flagged(ok, lambda i: run_anticlone(int(m[i]), schemes[i], alpha))


NAMED_AND_CUSTOM = ALL_SCHEMES + tuple(CouplingScheme.custom(r) for r in (0.3, 1.0, 7.5))
W_COUNTS = np.arange(2, 2001, dtype=np.int64)


@functools.cache
def w_state_routes(scheme):
    """(r, column route, row-route reports) of one scheme over M = 2..2000."""
    m, r = star_rows(W_COUNTS.tolist(), (scheme,))
    return r, w_state_columns(m, r), [generate_w_state(int(k), scheme)[1] for k in m]


def exact_errors(m, r, values, column):
    """|value - exact| of a1 (column 0) or a (column 1) at the float ratio r, to 50 digits."""
    errors = []
    with localcontext() as ctx:
        ctx.prec = 50
        for count, ratio, value in zip(m.tolist(), r.tolist(), values.tolist()):
            ratio = Decimal(ratio)
            denom = ratio * ratio + (count - 1)
            exact = (count - 1 - ratio * ratio) / denom if column == 0 else -2 * ratio / denom
            errors.append(float(abs(Decimal(value) - exact)))
    return np.array(errors)


def complex_w_state_columns(m, r, m_odd):
    """(tau_star, a1, a, ok) of ``w_state_columns`` as it was written: the
    excited input's amplitudes through complex arithmetic, then their real parts."""
    with np.errstate(all="ignore"):
        ground, excited = initial_state(0.0, 0.0, star_config(1, 1.0)).amplitudes[:2]
        omega2, _, column = _star_columns(m, r, 0.0, 0.0, 1)
        x1, x, photon = (excited * b for b in column)
        n2 = abs(ground) ** 2 + abs(x1) ** 2 + (m - 1.0) * abs(x) ** 2 + abs(photon) ** 2
        tau = _trap_time(omega2, 0.0, 0.0, m_odd)
    return tau, x1.real, x.real, (r > 0.0) & (abs(n2 - 1.0) <= 1e-12)


class TestWStateColumns:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=scheme_id)
    @pytest.mark.parametrize("m_odd", [1, 3])
    def test_real_arithmetic_is_bit_identical_to_the_complex_route(self, scheme, m_odd):
        m, r = star_rows(range(2, 3001), (scheme,))
        # and rows that fail a check: omega^2 = inf, 4*omega^2 = inf, a ratio <= 0
        m, r = np.append(m, [4, 4, 4]), np.append(r, [1e200, 1e154, -1.0])
        tau, a1, a, _, ok = w_state_columns(m, r, m_odd)
        for new, old in zip((tau, a1, a, ok), complex_w_state_columns(m, r, m_odd)):
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("scheme", NAMED_AND_CUSTOM, ids=scheme_id)
    def test_agrees_with_generate_w_state(self, scheme):
        r, (_, a1, a, kinds, ok), reports = w_state_routes(scheme)
        assert ok.all()
        assert r.tolist() == [report.r for report in reports]
        # omega^2 is r^2 + M - 1 here, a numpy sum of the couplings there
        assert np.max(abs(a1 - [report.a1 for report in reports])) <= 5e-16
        assert np.max(abs(a - [report.a for report in reports])) <= 5e-16
        assert kinds.tolist() == [report.classification for report in reports]

    @pytest.mark.parametrize("scheme", NAMED_AND_CUSTOM, ids=scheme_id)
    @pytest.mark.parametrize("m_odd", [1, 3, 101])
    def test_tau_star_is_the_renormalized_trapping_time(self, scheme, m_odd):
        m, r = star_rows(W_COUNTS.tolist(), (scheme,))
        tau = w_state_columns(m, r, m_odd)[0]
        expected = [renormalized_trapping_time(int(k), x, 0.0, 0.0, m_odd) for k, x in zip(m, r)]
        assert tau.tolist() == expected

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=scheme_id)
    def test_no_less_accurate_than_the_row_route(self, scheme):
        r, (_, a1, a, _, _), reports = w_state_routes(scheme)
        for column, (batched, rows) in enumerate(
            [(a1, [report.a1 for report in reports]), (a, [report.a for report in reports])]
        ):
            batch_errors = exact_errors(W_COUNTS, r, batched, column)
            row_errors = exact_errors(W_COUNTS, r, np.array(rows), column)
            assert batch_errors.max() <= row_errors.max()
            assert batch_errors.mean() <= row_errors.mean()

    def test_rows_failing_a_check_are_flagged(self):
        # omega^2 = inf, 4*omega^2 = inf with omega^2 finite, and a ratio <= 0
        m = np.array([4, 4, 4, 4, 4])
        r = np.array([3.0, 1e200, 1e154, -1.0, 1.0])
        with np.errstate(all="raise"):
            ok = w_state_columns(m, r)[-1]
        assert ok.tolist() == [True, False, False, False, True]

    def test_one_register_past_any_allocation(self):
        m = 10**15
        r = W_PLUS.ratio(m)
        tau, a1, a, kinds, ok = w_state_columns(np.array([m]), np.array([r]))
        assert ok.tolist() == [True] and kinds.tolist() == ["symmetric_W"]
        assert tau.tolist() == [renormalized_trapping_time(m, r, 0.0, 0.0)]
        # a1 = 1 + r*a cancels to about 3e-8 here, so it holds about 8 digits
        assert exact_errors(np.array([m]), np.array([r]), a1, 0)[0] <= 5e-16
        assert exact_errors(np.array([m]), np.array([r]), a, 1)[0] <= 5e-16


class TestProtocolReport:
    def test_fidelities_are_a_read_only_array(self):
        report = run_anticlone(3, W_PLUS)
        assert report.fidelities.dtype == np.float64
        with pytest.raises(ValueError):
            report.fidelities[0] = 0.5

    @pytest.mark.parametrize(
        "fidelities, shape",
        [
            pytest.param(np.array([]), r"\(0,\)", id="empty"),  # argmin of an empty sequence
            pytest.param(np.full((3, 1), 0.5), r"\(3, 1\)", id="2-D"),  # ambiguous truth value
            pytest.param(np.full(4, 0.5), r"\(4,\)", id="wrong_length"),  # used to pass
        ],
    )
    def test_fidelities_are_one_per_qubit(self, fidelities, shape):
        with pytest.raises(ConfigurationError, match=rf"m = 3 entries, got shape {shape}"):
            ProtocolReport(3, "custom", 1.0, 1.0, 0.0, 0.0, "generic", fidelities=fidelities)

    def test_out_of_range_fidelity_named_briefly(self):
        fidelities = np.full(10**5, 0.5)
        fidelities[[7, 99]] = 1.5, -0.5
        with pytest.raises(ValueError, match="qubit 8 outside") as caught:
            ProtocolReport(10**5, "custom", 1.0, 1.0, 0.0, 0.0, "generic", fidelities=fidelities)
        assert len(str(caught.value)) < 200


class TestOptimizeCouplingRatio:
    def test_answers_from_the_scheme_ratios(self):
        for m in [*range(2, 3001), 10**6, 2**53 - 1, 2**53]:
            assert optimize_coupling_ratio(m, "w_symmetry") == (W_MINUS.ratio(m), W_PLUS.ratio(m))
            assert optimize_coupling_ratio(m, "separable_transfer") == W_PRIME.ratio(m)
            assert optimize_coupling_ratio(m, "target_fidelity") == W_PRIME.ratio(m)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown objective 'fastest', expected one of"):
            optimize_coupling_ratio(4, "fastest")
        with pytest.raises(ConfigurationError, match="need m >= 2, got 1"):
            optimize_coupling_ratio(1, "w_symmetry")
        with pytest.raises(ConfigurationError, match="m must be an integer, got 4.0"):
            optimize_coupling_ratio(4.0, "w_symmetry")
