import itertools

import numpy as np
import pytest

from qcm.decoherence import (
    DecoherenceReport,
    OverdampedRegimeError,
    conditional_amplitudes,
    decohered_fidelity,
    decay_robustness_scan,
    no_click_probability,
    renormalized_trapping_time,
)
from qcm.model import (
    ConfigurationError,
    build_dissipative_hamiltonian,
    initial_state,
    star_config,
)
from qcm.propagator import (
    closed_form_propagator,
    evolve,
    evolve_oracle_rk4,
    rk4_propagate_many,
    trapping_time,
)
from qcm.protocols import W_PLUS, W_PRIME, trapped_amplitudes

DEFAULT_GAMMA = 0.001
DEFAULT_KAPPA = 0.02


def branch_vector(amps):
    """Conditional one-excitation branch as a flat array (qubits then photon)."""
    vec = np.full(amps.m + 1, amps.b, dtype=complex)
    vec[0] = amps.b1
    vec[amps.m] = amps.b_photon
    return vec


class TestConditionalAmplitudes:
    def test_initial_values(self):
        amps = conditional_amplitudes(4, 2.0, 0.05, 0.01, 0.0)
        assert amps.b1 == 1.0
        assert amps.b == 0.0
        assert amps.b_photon == 0.0

    def test_no_decay_reduces_to_propagator_column(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = int(rng.integers(2, 13))
            r = rng.uniform(0.1, 6.0)
            t = rng.uniform(0.0, 12.0)
            amps = conditional_amplitudes(m, r, 0.0, 0.0, t)
            column = closed_form_propagator(star_config(m, r), t).matrix[:, 0]
            np.testing.assert_allclose(branch_vector(amps), column, atol=1e-12)

    @pytest.mark.parametrize(
        "gamma_decay, kappa", [(0.05, 0.3), (0.3, 0.05), (0.0, 10.0), (12.0, 0.5)]
    )
    def test_star_column_of_rated_propagator(self, gamma_decay, kappa):
        # one kernel: the star amplitudes are the first column of U, with
        # decay and past critical damping too
        rng = np.random.default_rng(49)
        for _ in range(50):
            m = int(rng.integers(2, 13))
            r = rng.uniform(0.1, 6.0)
            t = rng.uniform(0.0, 12.0)
            amps = conditional_amplitudes(m, r, gamma_decay, kappa, t)
            config = star_config(m, r, gamma_decay=gamma_decay, kappa=kappa)
            column = closed_form_propagator(config, t).matrix[:, 0]
            np.testing.assert_allclose(branch_vector(amps), column, rtol=0.0, atol=1e-13)

    def test_equal_rates_factor_out(self):
        rng = np.random.default_rng(42)
        for g in (0.001, 0.01, 0.1):
            for _ in range(30):
                m = int(rng.integers(2, 10))
                r = rng.uniform(0.1, 5.0)
                t = rng.uniform(0.0, 8.0)
                damped = branch_vector(conditional_amplitudes(m, r, g, g, t))
                free = branch_vector(conditional_amplitudes(m, r, 0.0, 0.0, t))
                np.testing.assert_allclose(damped, np.exp(-g * t) * free, atol=1e-12)

    def test_norm_never_exceeds_one(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            amps = conditional_amplitudes(
                int(rng.integers(2, 13)),
                rng.uniform(0.1, 6.0),
                rng.uniform(0.0, 0.1),
                rng.uniform(0.0, 0.1),
                rng.uniform(0.0, 10.0),
            )
            assert amps.branch_norm_squared <= 1.0 + 1e-12
            amps.to_state_vector()  # constructor re-checks the bound

    @pytest.mark.parametrize("regime", ["critical", "overdamped"])
    def test_past_critical_damping_matches_rk4(self, regime):
        # 2*omega <= |kappa - Gamma| used to raise; only the trapping time
        # still does, because no trapping instant exists there
        rng = np.random.default_rng(48)
        generators, states, times, params = [], [], [], []
        for _ in range(30):
            # omega^2 = r^2 + M - 1 = 4, 9, 16: dyadic rates hit critical exactly
            m, r = [(4, 1.0), (6, 2.0), (8, 3.0)][int(rng.integers(0, 3))]
            omega = np.sqrt(r * r + m - 1.0)
            gamma_decay = int(rng.integers(0, 9)) / 4.0
            stretch = 1.0 if regime == "critical" else rng.uniform(1.05, 3.0)
            kappa = gamma_decay + 2.0 * omega * stretch
            if rng.uniform() < 0.5:
                gamma_decay, kappa = kappa, gamma_decay
            assert (4.0 * omega**2 == (kappa - gamma_decay) ** 2) == (regime == "critical")
            with pytest.raises(OverdampedRegimeError):
                renormalized_trapping_time(m, r, gamma_decay, kappa)
            t = rng.uniform(0.0, 3.0)
            config = star_config(m, r, gamma_decay=gamma_decay, kappa=kappa)
            block = np.zeros(m + 1, dtype=complex)
            block[0] = 1.0
            generators.append(build_dissipative_hamiltonian(config).matrix)
            states.append(block)
            times.append(t)
            params.append((m, r, gamma_decay, kappa, t))
        integrated = rk4_propagate_many(generators, states, np.array(times), dt=1e-4)
        for (m, r, gamma_decay, kappa, t), got in zip(params, integrated):
            amps = conditional_amplitudes(m, r, gamma_decay, kappa, t)
            predicted = branch_vector(amps)
            assert np.all(np.isfinite(predicted))
            assert 0.0 < amps.branch_norm_squared <= 1.0
            np.testing.assert_allclose(predicted, got, rtol=0.0, atol=1e-8)
        assert issubclass(OverdampedRegimeError, ConfigurationError)

    def test_validation(self):
        with pytest.raises(ValueError):
            conditional_amplitudes(1, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            conditional_amplitudes(3, -1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            conditional_amplitudes(3, 1.0, -0.1, 0.0, 1.0)
        # a fractional count used to return amplitudes
        with pytest.raises(ConfigurationError):
            conditional_amplitudes(2.5, 1.0, 0.0, 0.0, 1.0)
        # r^2 = inf used to raise a bare "math domain error" from math.cos(inf)
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            conditional_amplitudes(2, 1e200, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "gamma_decay, kappa",
        [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, np.inf), (0.0, -0.1)],
    )
    def test_non_finite_or_negative_rates_rejected(self, gamma_decay, kappa):
        # a NaN rate used to slip past `rate < 0.0` and come back as NaN
        with pytest.raises(ConfigurationError):
            conditional_amplitudes(2, 1.0, gamma_decay, kappa, 1.0)
        with pytest.raises(ConfigurationError):
            renormalized_trapping_time(2, 1.0, gamma_decay, kappa)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1e-9, -50.0])
    def test_non_finite_or_negative_time_rejected(self, t):
        # at t = -50 the no-click "probability" used to come back as 5.1e10
        with pytest.raises(ConfigurationError):
            conditional_amplitudes(2, 1.0, 0.01, 0.5, t)
        with pytest.raises(ConfigurationError):
            no_click_probability(2, 1.0, 0.01, 0.5, t)


class TestAgainstRk4Oracle:
    def test_closed_form_matches_integration(self):
        # randomized adjudication of the conditional closed form, including
        # the decay factor carried by the input-qubit amplitude
        rng = np.random.default_rng(44)
        generators, states, times, params = [], [], [], []
        for _ in range(120):
            m = int(rng.integers(2, 13))
            r = rng.uniform(0.05, 6.0)
            gamma_decay = rng.uniform(0.0, 0.1)
            kappa = rng.uniform(0.0, 0.1)
            tau_c = renormalized_trapping_time(m, r, gamma_decay, kappa)
            t = rng.uniform(0.0, 3.0 * tau_c)
            config = star_config(m, r, gamma_decay=gamma_decay, kappa=kappa)
            block = np.zeros(m + 1, dtype=complex)
            block[0] = 1.0
            generators.append(build_dissipative_hamiltonian(config).matrix)
            states.append(block)
            times.append(t)
            params.append((m, r, gamma_decay, kappa, t))
        integrated = rk4_propagate_many(generators, states, np.array(times), dt=5e-4)
        worst = 0.0
        for (m, r, gamma_decay, kappa, t), got in zip(params, integrated):
            predicted = branch_vector(conditional_amplitudes(m, r, gamma_decay, kappa, t))
            worst = max(worst, float(np.max(np.abs(predicted - got))))
        assert worst < 1e-8

    def test_photon_zero_confirmed_by_integration(self):
        m, r = 2, np.sqrt(2.0) + 1.0
        tau_c = renormalized_trapping_time(m, r, DEFAULT_GAMMA, DEFAULT_KAPPA)
        config = star_config(m, r, gamma_decay=DEFAULT_GAMMA, kappa=DEFAULT_KAPPA)
        state = initial_state(0.0, 0.0, config)
        out = evolve_oracle_rk4(
            build_dissipative_hamiltonian(config), state, tau_c, dt=5e-4
        )
        assert abs(out.amplitudes[-1]) < 1e-8


class TestRenormalizedTrappingTime:
    def test_equal_rates_recover_undamped_time(self):
        for m, r in ((2, 1.5), (5, 3.0)):
            tau_c = renormalized_trapping_time(m, r, 0.02, 0.02)
            assert tau_c == pytest.approx(np.pi / np.sqrt(r * r + m - 1.0), abs=1e-15)
            tau_c3 = renormalized_trapping_time(m, r, 0.02, 0.02, m_odd=3)
            assert tau_c3 == pytest.approx(3.0 * np.pi / np.sqrt(r * r + m - 1.0), abs=1e-14)

    def test_two_qubit_shifted_frequency(self):
        m, r = 2, np.sqrt(2.0) + 1.0
        omega2 = r * r + 1.0
        expected_omega = np.sqrt(4.0 * omega2 - (DEFAULT_KAPPA - DEFAULT_GAMMA) ** 2)
        tau_c = renormalized_trapping_time(m, r, DEFAULT_GAMMA, DEFAULT_KAPPA)
        assert tau_c == pytest.approx(2.0 * np.pi / expected_omega, abs=1e-15)
        assert tau_c == pytest.approx(1.202243, abs=1e-5)

    def test_shrinks_with_qubit_count(self):
        taus = [
            renormalized_trapping_time(m, W_PLUS.ratio(m), DEFAULT_GAMMA, DEFAULT_KAPPA)
            for m in range(2, 17)
        ]
        assert all(b < a for a, b in itertools.pairwise(taus))

    def test_photon_amplitude_null(self):
        for m in range(2, 17):
            for scheme in (W_PLUS, W_PRIME):
                r = scheme.ratio(m)
                tau_c = renormalized_trapping_time(m, r, DEFAULT_GAMMA, DEFAULT_KAPPA)
                amps = conditional_amplitudes(m, r, DEFAULT_GAMMA, DEFAULT_KAPPA, tau_c)
                assert abs(amps.b_photon) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            renormalized_trapping_time(3, 1.0, 0.0, 0.0, m_odd=2)
        # m_odd = 2.5 used to return a time that is no trapping instant
        with pytest.raises(ConfigurationError):
            renormalized_trapping_time(3, 1.0, 0.0, 0.0, m_odd=2.5)
        with pytest.raises(ConfigurationError):
            renormalized_trapping_time(2.5, 1.0, 0.0, 0.0)
        with pytest.raises(OverdampedRegimeError):
            renormalized_trapping_time(2, 0.1, 0.0, 5.0)
        # r^2 = inf used to give a trapping time of 0.0
        with pytest.raises(ConfigurationError, match="omega\\^2"):
            renormalized_trapping_time(2, 1e200, 0.0, 0.0)


class TestNoClickProbability:
    def test_equal_rates_pure_exponential(self):
        rng = np.random.default_rng(45)
        for g in (0.001, 0.01, 0.1):
            for t in np.linspace(0.0, 10.0, 20):
                m = int(rng.integers(2, 10))
                r = rng.uniform(0.2, 5.0)
                p = no_click_probability(m, r, g, g, t)
                assert abs(p - np.exp(-2.0 * g * t)) <= 1e-12

    def test_no_decay_is_certain(self):
        for t in (0.0, 1.3, 7.9):
            assert no_click_probability(3, 2.0, 0.0, 0.0, t) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma_decay, kappa", [(0.001, 0.02), (0.02, 0.001), (0.5, 0.0)])
    def test_long_times_decay_without_overflow(self, gamma_decay, kappa):
        # with Gamma > kappa the star-only formula overflowed into NaN here
        for t in (3e3, 1e5):
            p = no_click_probability(3, 2.0, gamma_decay, kappa, t)
            assert 0.0 <= p <= np.exp(-2.0 * min(gamma_decay, kappa) * t) + 1e-300

    def test_two_qubit_default_rates_survival(self):
        m, r = 2, W_PLUS.ratio(2)
        tau_c = renormalized_trapping_time(m, r, DEFAULT_GAMMA, DEFAULT_KAPPA)
        assert no_click_probability(m, r, DEFAULT_GAMMA, DEFAULT_KAPPA, tau_c) >= 0.97

    def test_monotone_decay_in_time(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            r = rng.uniform(0.2, 5.0)
            gamma_decay = rng.uniform(0.0, 0.1)
            kappa = rng.uniform(0.0, 0.1)
            times = np.linspace(0.0, 8.0, 60)
            values = [
                no_click_probability(m, r, gamma_decay, kappa, t) for t in times
            ]
            assert all(b <= a + 1e-12 for a, b in itertools.pairwise(values))


class TestLinearitySplice:
    def test_equatorial_state_splits_into_stationary_and_branch(self):
        # the zero-excitation component rides along unchanged, so the
        # conditional equatorial state is a fixed superposition of it and
        # the excited-input branch
        theta, alpha = np.pi / 2.0, 0.8
        m, r, gamma_decay, kappa = 3, 1.6, 0.03, 0.07
        config = star_config(m, r, gamma_decay=gamma_decay, kappa=kappa)
        gen = build_dissipative_hamiltonian(config)
        t = 1.9
        full = evolve_oracle_rk4(gen, initial_state(theta, alpha, config), t, dt=1e-3)
        branch = evolve_oracle_rk4(gen, initial_state(0.0, 0.0, config), t, dt=1e-3)
        expected = (
            np.sin(theta / 2.0) * np.eye(m + 2)[0]
            + np.exp(1j * alpha) * np.cos(theta / 2.0) * branch.amplitudes
        )
        np.testing.assert_allclose(full.amplitudes, expected, atol=1e-12)

    def test_equatorial_no_click_probability_by_linearity(self):
        m, r, gamma_decay, kappa, t = 4, 2.0, 0.05, 0.02, 2.3
        branch = no_click_probability(m, r, gamma_decay, kappa, t)
        config = star_config(m, r, gamma_decay=gamma_decay, kappa=kappa)
        full = evolve_oracle_rk4(
            build_dissipative_hamiltonian(config),
            initial_state(np.pi / 2.0, 0.0, config),
            t,
            dt=1e-3,
        )
        assert full.norm_squared == pytest.approx(0.5 + 0.5 * branch, abs=1e-9)


class TestDecoheredFidelity:
    def test_equal_rates_immunity(self):
        rng = np.random.default_rng(47)
        for g in (0.001, 0.01, 0.1):
            for _ in range(20):
                m = int(rng.integers(2, 12))
                r = rng.uniform(0.2, 5.0)
                report = decohered_fidelity(m, r, g, g)
                assert abs(report.fidelity - 1.0) <= 1e-12

    def test_normalized_conditional_equals_pure_state(self):
        g = 0.04
        m, r = 4, 3.0
        tau_c = renormalized_trapping_time(m, r, g, g)
        amps = conditional_amplitudes(m, r, g, g, tau_c)
        branch = branch_vector(amps) / np.sqrt(amps.branch_norm_squared)
        a1, a = trapped_amplitudes(m, r)
        pure = np.full(m + 1, a, dtype=complex)
        pure[0] = a1
        pure[m] = 0.0
        np.testing.assert_allclose(branch, pure, atol=1e-12)

    def test_fidelity_improves_with_qubit_count(self):
        for scheme in (W_PLUS, W_PRIME):
            fids = [
                decohered_fidelity(
                    m, scheme.ratio(m), DEFAULT_GAMMA, DEFAULT_KAPPA
                ).fidelity
                for m in range(2, 21)
            ]
            assert all(b >= a for a, b in itertools.pairwise(fids))

    def test_symmetric_scheme_beats_transfer_scheme(self):
        for m in range(2, 21):
            f_plus = decohered_fidelity(
                m, W_PLUS.ratio(m), DEFAULT_GAMMA, DEFAULT_KAPPA
            ).fidelity
            f_prime = decohered_fidelity(
                m, W_PRIME.ratio(m), DEFAULT_GAMMA, DEFAULT_KAPPA
            ).fidelity
            assert f_plus >= f_prime

    def test_report_validation(self):
        with pytest.raises(ValueError):
            DecoherenceReport(
                m=2, r=1.0, gamma_decay=0.0, kappa=0.0, tau_star_c=1.0,
                fidelity=1.5, p_no_click=0.9,
            )


class TestDecayRobustnessScan:
    def test_row_layout_and_order(self):
        reports = decay_robustness_scan(range(2, 6))
        assert len(reports) == 8
        assert [(rep.m, rep.scheme) for rep in reports] == [
            (m, tag) for m in range(2, 6) for tag in ("w_plus", "w_prime")
        ]

    def test_validation(self):
        # [2.5] used to run M = 2 silently
        with pytest.raises(ConfigurationError):
            decay_robustness_scan([2.5])
        with pytest.raises(ConfigurationError):
            decay_robustness_scan([1])
        with pytest.raises(ConfigurationError):
            decay_robustness_scan([3], gamma_decay=np.nan)

    def test_matches_direct_call(self):
        reports = decay_robustness_scan([2])
        direct = decohered_fidelity(
            2, W_PLUS.ratio(2), DEFAULT_GAMMA, DEFAULT_KAPPA, scheme="w_plus"
        )
        assert reports[0] == direct

    def test_equal_rates_column_is_unity(self):
        for report in decay_robustness_scan(range(2, 10), gamma_decay=0.01, kappa=0.01):
            assert abs(report.fidelity - 1.0) <= 1e-12

    def test_default_rates_survival_bound(self):
        reports = decay_robustness_scan(range(2, 21))
        for report in reports:
            assert report.p_no_click >= 0.97
        for tag in ("w_plus", "w_prime"):
            column = [rep.p_no_click for rep in reports if rep.scheme == tag]
            assert all(b >= a for a, b in itertools.pairwise(column))
