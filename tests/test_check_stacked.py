"""`qcm check` as stacked passes, against the per-trial loop it replaced.

The reference suites below are the per-trial `_matrix_suites`, `_rk4_suite`
and `_conditional_suite` bodies that built one config, generator and
propagator per trial.  The stacked suites must report exactly (==) the same
worst deviations, and the stack-capable builders and checks must equal the
one-object route bit for bit and reject exactly what it rejects.
"""

import contextlib
import io

import numpy as np
import pytest

import qcm.cli as cli
from qcm.cli import CONDITIONAL_DT, EXIT_CONFIG, RK4_DT, main, run_check_suites
from qcm.decoherence import conditional_amplitudes, renormalized_trapping_time
from qcm.model import (
    ConfigurationError,
    GeneratorMatrix,
    SystemConfig,
    _check_generators,
    _check_registers,
    build_dissipative_hamiltonian,
    build_hamiltonian,
    star_config,
)
from qcm.propagator import (
    PropagatorMatrix,
    _check_propagators,
    _no_click_kernel,
    closed_form_propagator,
    expm_hermitian,
    rk4_propagate_many,
)

# ---------------------------------------------------------------------------
# the per-trial reference route


def _sample_config(rng) -> SystemConfig:
    m = int(rng.integers(1, 17))
    return SystemConfig(rng.uniform(0.25, 2.0, size=m))


def _closed_matrix(config, t, inject_fault):
    u = np.array(closed_form_propagator(config, t).matrix)
    if inject_fault == "unitarity_sign":
        m = config.m
        block = u[:m, :m]
        flipped = np.diag(np.diag(block)) - (block - np.diag(np.diag(block)))
        u[:m, :m] = flipped
    return u


def reference_matrix_suites(trials, rng, inject_fault):
    worst = {"unitarity": 0.0, "closed_vs_expm": 0.0, "group_property": 0.0}
    for _ in range(trials):
        config = _sample_config(rng)
        t1 = rng.uniform(0.0, 10.0)
        t2 = rng.uniform(0.0, 10.0)
        u1 = _closed_matrix(config, t1, inject_fault)
        u2 = _closed_matrix(config, t2, inject_fault)
        u12 = _closed_matrix(config, t1 + t2, inject_fault)
        eye = np.eye(config.m + 1)
        worst["unitarity"] = max(
            worst["unitarity"], float(np.max(np.abs(u1.conj().T @ u1 - eye)))
        )
        exact = expm_hermitian(build_hamiltonian(config).matrix, t1)
        worst["closed_vs_expm"] = max(
            worst["closed_vs_expm"], float(np.max(np.abs(u1 - exact)))
        )
        worst["group_property"] = max(
            worst["group_property"], float(np.max(np.abs(u1 @ u2 - u12)))
        )
    return worst


def reference_rk4_suite(trials, rng, inject_fault):
    generators, states, times, closed = [], [], [], []
    for _ in range(trials):
        config = _sample_config(rng)
        t = rng.uniform(0.0, 1.0)
        raw = rng.normal(size=config.m + 1) + 1j * rng.normal(size=config.m + 1)
        block = raw / np.linalg.norm(raw)
        generators.append(build_hamiltonian(config).matrix)
        states.append(block)
        times.append(t)
        closed.append(_closed_matrix(config, t, inject_fault) @ block)
    integrated = rk4_propagate_many(generators, states, np.array(times), dt=RK4_DT)
    worst = 0.0
    for ref, got in zip(closed, integrated):
        worst = max(worst, float(np.max(np.abs(ref - got))))
    return worst


def reference_conditional_suite(trials, rng):
    generators, states, times, params = [], [], [], []
    for _ in range(trials):
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
    integrated = rk4_propagate_many(generators, states, np.array(times), dt=CONDITIONAL_DT)
    worst = 0.0
    for (m, r, gamma_decay, kappa, t), got in zip(params, integrated):
        predicted = conditional_amplitudes(m, r, gamma_decay, kappa, t).to_state_vector()
        worst = max(worst, float(np.max(np.abs(predicted.amplitudes[1:] - got))))
    return worst


def reference_worst(trials, seed, inject_fault=None):
    rng = np.random.default_rng(seed)
    worst = reference_matrix_suites(trials, rng, inject_fault)
    worst["closed_vs_rk4"] = reference_rk4_suite(trials, rng, inject_fault)
    worst["conditional_vs_rk4"] = reference_conditional_suite(trials, rng)
    return worst


def stacked_worst(trials, seed, inject_fault=None):
    rows = run_check_suites(trials, seed, inject_fault)
    return {row["suite"]: row["max_deviation"] for row in rows}


# ---------------------------------------------------------------------------
# bit identity of every suite's worst deviation


class TestBitIdentity:
    def test_seeds_0_to_99_at_25_trials(self):
        differ = [
            seed for seed in range(100) if stacked_worst(25, seed) != reference_worst(25, seed)
        ]
        assert differ == []

    @pytest.mark.parametrize("trials", [1, 2, 3, 16, 200])
    @pytest.mark.parametrize("seed", [0, 5, 42])
    def test_trial_counts(self, trials, seed):
        assert stacked_worst(trials, seed) == reference_worst(trials, seed)

    def test_1000_trials(self):
        assert stacked_worst(1000, 42) == reference_worst(1000, 42)

    @pytest.mark.parametrize("trials,seed", [(25, 0), (25, 1), (25, 7), (200, 42)])
    def test_injected_fault(self, trials, seed):
        stacked = stacked_worst(trials, seed, "unitarity_sign")
        assert stacked == reference_worst(trials, seed, "unitarity_sign")
        assert stacked["unitarity"] > cli.CHECK_TOLERANCES["unitarity"]

    @pytest.mark.parametrize("seed", [3, 42])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_output_is_byte_identical(self, monkeypatch, seed, fmt):
        argv = ["check", "--trials", "30", "--seed", str(seed), "--format", fmt]

        def output():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            return out.getvalue()

        stacked = output()
        monkeypatch.setattr(cli, "_matrix_suites", reference_matrix_suites)
        monkeypatch.setattr(cli, "_rk4_suite", reference_rk4_suite)
        monkeypatch.setattr(cli, "_conditional_suite", reference_conditional_suite)
        assert stacked == output()


# ---------------------------------------------------------------------------
# the stack helpers against the one-object route


def old_closed_form(config, t):
    """closed_form_propagator's assembly for one config, as it was written."""
    m, g = config.m, config.couplings
    dark, qubit, edge, photon = _no_click_kernel(
        config.omega**2, config.gamma_decay, config.kappa, t
    )
    u = np.zeros((m + 1, m + 1), dtype=complex)
    u[:m, :m] = qubit * np.outer(g, g)
    u.reshape(-1)[: m * (m + 2) : m + 2] += dark
    u[:m, m] = u[m, :m] = edge * g
    u[m, m] = photon
    return u


def old_generator(config, dissipative=False):
    m = config.m
    h = np.zeros((m + 1, m + 1), dtype=complex)
    h[:m, m] = config.couplings
    h[m, :m] = config.couplings
    if dissipative:
        rates = np.full(m + 1, config.gamma_decay)
        rates[m] = config.kappa
        h = h - 1j * np.diag(rates)
    return h


def random_configs(seed, count=300):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        couplings = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 20)))
        rates = rng.uniform(0.0, 2.0, size=2) * rng.integers(0, 2, size=2)
        yield SystemConfig(couplings, *rates), rng.uniform(0.0, 10.0)


class TestStackHelpers:
    def test_expm_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 17):
            h = rng.normal(size=(6, d, d)) + 1j * rng.normal(size=(6, d, d))
            h = h + np.swapaxes(h.conj(), -1, -2)
            t = rng.uniform(0.0, 10.0, size=6)
            each = np.array([expm_hermitian(matrix, ti) for matrix, ti in zip(h, t)])
            assert np.array_equal(expm_hermitian(h, t), each)

    def test_expm_of_one_matrix_is_bit_identical_to_the_old_formula(self):
        for config, t in random_configs(6, count=100):
            h = build_hamiltonian(config).matrix
            eigvals, vecs = np.linalg.eigh(h)
            old = (vecs * np.exp(-1j * eigvals * t)) @ vecs.conj().T
            assert expm_hermitian(h, t).tobytes() == old.tobytes()

    def test_expm_rejects_any_bad_time_in_a_stack(self):
        h = np.zeros((3, 2, 2))
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="time must be finite and >= 0"):
                expm_hermitian(h, np.array([1.0, bad, 2.0]))
        with pytest.raises(ConfigurationError):
            expm_hermitian(h[0], -1.0)

    def test_closed_form_is_bit_identical_to_the_old_assembly(self):
        for config, t in random_configs(7):
            new = closed_form_propagator(config, t).matrix
            assert new.tobytes() == old_closed_form(config, t).tobytes()

    @pytest.mark.parametrize("kappa", [10.0, 20.0])  # critical, then overdamped
    def test_closed_form_past_critical_damping(self, kappa):
        config = SystemConfig([3.0, 4.0], gamma_decay=0.0, kappa=kappa)  # omega = 5
        for t in (0.0, 0.3, 2.0):
            new = closed_form_propagator(config, t).matrix
            assert new.tobytes() == old_closed_form(config, t).tobytes()

    def test_builders_are_bit_identical_to_the_old_ones(self):
        for config, _ in random_configs(8):
            h = build_hamiltonian(config).matrix
            assert h.tobytes() == old_generator(config).tobytes()
            h = build_dissipative_hamiltonian(config).matrix
            assert h.tobytes() == old_generator(config, dissipative=True).tobytes()

    def test_stacked_omega_is_each_configs_own(self):
        registers = [config.couplings for config, _ in random_configs(9)]
        assert _check_registers(registers) == [SystemConfig(g).omega for g in registers]

    @pytest.mark.parametrize(
        "bad", [[1.0, 0.0], [-1.0], [1.0, np.inf], [np.nan, 1.0], [1e200, 1.0], [1e-200]]
    )
    def test_register_check_rejects_what_system_config_rejects(self, bad):
        with pytest.raises(ConfigurationError) as alone:
            SystemConfig(bad)
        good = np.array([0.5, 1.5])
        with pytest.raises(ConfigurationError) as stacked:
            _check_registers([good, np.array(bad), good])
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize(
        "kind,bad",
        [
            ("hermitian", [[0.0, np.nan], [np.nan, 0.0]]),
            ("hermitian", [[0.0, 1.0], [0.5, 0.0]]),
            ("hermitian", [[0.0, 1.0 + 1e-13], [1.0, 0.0]]),
            ("dissipative", [[0.0, 1.0], [0.5, 0.0]]),
            ("dissipative", [[0.1j, 1.0], [1.0, 0.0]]),
            ("other", [[0.0, 1.0], [1.0, 0.0]]),
        ],
    )
    def test_generator_check_rejects_what_generator_matrix_rejects(self, kind, bad):
        bad = np.array(bad, dtype=complex)
        with pytest.raises(ValueError) as alone:
            GeneratorMatrix(bad, kind=kind)
        good = np.array([[-0.1j, 1.0], [1.0, -0.2j]]) if kind == "dissipative" else np.eye(2)
        with pytest.raises(ValueError) as stacked:
            _check_generators(np.array([good, bad, good]), kind)
        assert str(stacked.value) == str(alone.value)

    def test_generator_check_accepts_what_generator_matrix_accepts(self):
        for config, _ in random_configs(10, count=20):
            for kind, h in (
                ("hermitian", build_hamiltonian(config).matrix),
                ("dissipative", build_dissipative_hamiltonian(config).matrix),
            ):
                _check_generators(np.array([h, h]), kind)
        _check_generators(np.array([[[0.0, 1.0 + 1e-15], [1.0, 0.0]]]), "hermitian")

    def test_propagator_check_rejects_one_bad_instance(self):
        stack = np.ones((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = np.inf
        with pytest.raises(ValueError) as alone:
            PropagatorMatrix(stack[1])
        with pytest.raises(ValueError) as stacked:
            _check_propagators(stack)
        assert str(stacked.value) == str(alone.value)


# ---------------------------------------------------------------------------
# every check of the per-trial route still fires inside the suites


#: one 5-trial run of each suite on a given RNG
SUITE_RUNS = {
    "matrix": lambda rng: cli._matrix_suites(5, rng, None),
    "rk4": lambda rng: cli._rk4_suite(5, rng, None),
    "conditional": lambda rng: cli._conditional_suite(5, rng),
}


class _ZeroCoupling:
    """An RNG whose sized uniform draws, a register's couplings, end in 0."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low=0.0, high=1.0, size=None):
        values = self.rng.uniform(low, high, size=size)
        if size is not None:
            values[-1] = 0.0
        return values


class TestChecksStillFire:
    @pytest.mark.parametrize("suite", ["matrix", "rk4"])
    def test_coupling_check(self, suite):
        with pytest.raises(ConfigurationError, match="coupling must be finite and > 0, got 0.0"):
            SUITE_RUNS[suite](_ZeroCoupling(1))

    @pytest.mark.parametrize(
        "suite,message",
        [
            ("matrix", "hermitian generator has defect"),
            ("rk4", "hermitian generator has defect"),
            ("conditional", "dissipative generator must"),
        ],
    )
    def test_generator_check(self, monkeypatch, suite, message):
        build = cli._generators

        def skewed(couplings, rates=None):
            h = build(couplings, rates)
            h[2, -1, 0] += 0.5  # one trial's generator loses its structure
            return h

        monkeypatch.setattr(cli, "_generators", skewed)
        with pytest.raises(ValueError, match=message):
            SUITE_RUNS[suite](np.random.default_rng(2))

    @pytest.mark.parametrize("suite", ["matrix", "rk4"])
    def test_finite_propagator_check(self, monkeypatch, suite):
        build = cli._propagators

        def overflowing(*args):
            u = build(*args)
            u[..., 3, 0, 0] = np.nan  # one trial's propagator
            return u

        monkeypatch.setattr(cli, "_propagators", overflowing)
        with pytest.raises(ValueError, match="propagator has non-finite entries"):
            SUITE_RUNS[suite](np.random.default_rng(4))

    def test_conditional_amplitudes_called_per_trial(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return conditional_amplitudes(*args)

        monkeypatch.setattr(cli, "conditional_amplitudes", counted)
        cli._conditional_suite(17, np.random.default_rng(5))
        assert len(calls) == 17


class TestTrialCount:
    def test_unallocatable_trials_exit_2_at_once(self, capsys):
        # 10**15 trials need petabytes of draw buffers, so the first one fails
        # to allocate at once; never try a count that could fit
        with pytest.raises(ConfigurationError, match=f"--trials {10**15} "):
            run_check_suites(10**15, 1)
        assert main(["check", "--trials", str(10**15)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --trials {10**15} is too many to allocate\n"
