"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) before
asserting, so a full run yields a one-line-per-criterion report.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from qcm.cli import main, run_check_suites
from qcm.decoherence import (
    conditional_amplitudes,
    decohered_fidelity,
    no_click_probability,
    renormalized_trapping_time,
)
from qcm.model import build_dissipative_hamiltonian, star_config
from qcm.propagator import closed_form_propagator, rk4_propagate_many, trapping_time
from qcm.protocols import (
    IDENTICAL,
    W_MINUS,
    W_PLUS,
    W_PRIME,
    fidelity_curve,
    generate_w_state,
    optimize_coupling_ratio,
    run_anticlone,
    trapped_amplitudes,
)

GOLDEN = Path(__file__).parent / "golden"
GAMMA, KAPPA = 0.001, 0.02


def record(number, description, ok):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def oracle_suite_rows():
    """One shared 1000-trial randomized cross-validation run (seed 42)."""
    return {row["suite"]: row for row in run_check_suites(1000, 42)}


def test_criterion_1_optimal_anticloning_value():
    expected = 0.5 * (1.0 + 1.0 / np.sqrt(2.0))
    closed = fidelity_curve(2, W_PLUS)
    report = run_anticlone(2, W_PLUS)
    deviations = [
        abs(closed[0] - expected),
        abs(closed[1] - expected),
        max(abs(f - expected) for f in report.fidelities),
    ]
    record(
        1,
        f"two-qubit anti-cloning reaches (1+1/sqrt(2))/2, max dev {max(deviations):.2e}",
        max(deviations) < 1e-12,
    )


def test_criterion_2_fidelity_curves_and_identity():
    worst = 0.0
    identity_exact = True
    for m in range(2, 31):
        targets = {
            IDENTICAL: 0.5 * (1.0 + 2.0 / m),
            W_PLUS: 0.5 * (1.0 + 1.0 / np.sqrt(m)),
            W_MINUS: 0.5 * (1.0 + 1.0 / np.sqrt(m)),
            W_PRIME: 0.5 * (1.0 + 1.0 / np.sqrt(m - 1.0)),
        }
        inputs = {
            IDENTICAL: 1.0 / m,
            W_PLUS: 0.5 * (1.0 + 1.0 / np.sqrt(m)),
            W_MINUS: 0.5 * (1.0 - 1.0 / np.sqrt(m)),
            W_PRIME: 0.5,
        }
        for scheme in (IDENTICAL, W_PLUS, W_MINUS, W_PRIME):
            f_target, f_input = fidelity_curve(m, scheme)
            worst = max(worst, abs(f_target - targets[scheme]), abs(f_input - inputs[scheme]))
        identity_exact &= fidelity_curve(m, W_PLUS)[0] == fidelity_curve(m + 1, W_PRIME)[0]
    record(
        2,
        f"fidelity curves over M=2..30 match formulas (max dev {worst:.2e}), "
        f"shifted-scheme identity exact: {identity_exact}",
        worst < 1e-12 and identity_exact,
    )


def test_criterion_3_w_state_generation():
    worst_w, worst_photon, worst_first = 0.0, 0.0, 0.0
    for m in range(2, 17):
        for scheme in (W_PLUS, W_MINUS):
            state, _ = generate_w_state(m, scheme)
            mags = np.abs(state.amplitudes[1 : m + 1])
            worst_w = max(worst_w, float(np.max(np.abs(mags - 1.0 / np.sqrt(m)))))
            worst_photon = max(worst_photon, abs(state.amplitudes[m + 1]))
        state, _ = generate_w_state(m, W_PRIME)
        worst_first = max(worst_first, abs(state.amplitudes[1]))
        mags = np.abs(state.amplitudes[2 : m + 1])
        worst_w = max(worst_w, float(np.max(np.abs(mags - 1.0 / np.sqrt(m - 1.0)))))
        worst_photon = max(worst_photon, abs(state.amplitudes[m + 1]))
    record(
        3,
        f"W states over M=2..16: amplitude dev {worst_w:.2e}, "
        f"residual input amplitude {worst_first:.2e}, photon {worst_photon:.2e}",
        worst_w < 1e-10 and worst_first < 1e-10 and worst_photon < 1e-12,
    )


def test_criterion_4_oracle_equivalence(oracle_suite_rows):
    bounds = {
        "closed_vs_expm": 1e-10,
        "closed_vs_rk4": 1e-8,
        "unitarity": 1e-10,
        "group_property": 1e-10,
    }
    devs = {name: oracle_suite_rows[name]["max_deviation"] for name in bounds}
    ok = all(devs[name] < bound for name, bound in bounds.items())
    summary = ", ".join(f"{name} {dev:.2e}" for name, dev in devs.items())
    record(4, f"1000-trial oracle equivalence: {summary}", ok)


def test_criterion_5_decoherence_immunity_identity():
    worst_f, worst_p, worst_state = 0.0, 0.0, 0.0
    for g in (0.001, 0.01, 0.1):
        for m, r in ((2, W_PLUS.ratio(2)), (5, 1.0), (9, W_PRIME.ratio(9))):
            worst_f = max(worst_f, abs(decohered_fidelity(m, r, g, g).fidelity - 1.0))
            pure_config = star_config(m, r)
            for t in np.linspace(0.0, 2.0 * trapping_time(pure_config), 20):
                p = no_click_probability(m, r, g, g, t)
                worst_p = max(worst_p, abs(p - np.exp(-2.0 * g * t)))
                amps = conditional_amplitudes(m, r, g, g, t)
                branch = np.full(m + 1, amps.b, dtype=complex)
                branch[0] = amps.b1
                branch[m] = amps.b_photon
                pure = closed_form_propagator(pure_config, t).matrix[:, 0]
                worst_state = max(
                    worst_state,
                    float(np.max(np.abs(branch / np.sqrt(p) - pure)))
                )
    record(
        5,
        f"equal-rate immunity: |F_r - 1| {worst_f:.2e}, "
        f"|P - exp(-2Gt)| {worst_p:.2e}, state identity {worst_state:.2e}",
        worst_f < 1e-12 and worst_p < 1e-12 and worst_state < 1e-12,
    )


def test_criterion_6_decay_robustness_trends():
    plus = [
        decohered_fidelity(m, W_PLUS.ratio(m), GAMMA, KAPPA) for m in range(2, 21)
    ]
    prime = [
        decohered_fidelity(m, W_PRIME.ratio(m), GAMMA, KAPPA) for m in range(2, 21)
    ]
    nondecreasing = all(
        b.fidelity >= a.fidelity for a, b in itertools.pairwise(plus)
    ) and all(b.fidelity >= a.fidelity for a, b in itertools.pairwise(prime))
    ordered = all(p.fidelity >= q.fidelity for p, q in zip(plus, prime))
    survival = (
        plus[0].p_no_click >= 0.97
        and prime[0].p_no_click >= 0.97
        and all(b.p_no_click >= a.p_no_click for a, b in itertools.pairwise(plus))
        and all(b.p_no_click >= a.p_no_click for a, b in itertools.pairwise(prime))
    )

    # closed-form conditional state against RK4 at the figure's parameters
    generators, blocks, times, params = [], [], [], []
    for m in range(2, 21):
        for scheme in (W_PLUS, W_PRIME):
            r = scheme.ratio(m)
            tau_c = renormalized_trapping_time(m, r, GAMMA, KAPPA)
            config = star_config(m, r, gamma_decay=GAMMA, kappa=KAPPA)
            block = np.zeros(m + 1, dtype=complex)
            block[0] = 1.0
            generators.append(build_dissipative_hamiltonian(config).matrix)
            blocks.append(block)
            times.append(tau_c)
            params.append((m, r))
    integrated = rk4_propagate_many(generators, blocks, np.array(times), dt=5e-4)
    worst_rk4 = 0.0
    for (m, r), got, tau_c in zip(params, integrated, times):
        amps = conditional_amplitudes(m, r, GAMMA, KAPPA, tau_c)
        predicted = np.full(m + 1, amps.b, dtype=complex)
        predicted[0] = amps.b1
        predicted[m] = amps.b_photon
        worst_rk4 = max(worst_rk4, float(np.max(np.abs(predicted - got))))

    record(
        6,
        f"decay robustness M=2..20: fidelity non-decreasing {nondecreasing}, "
        f"w_plus >= w_prime {ordered}, survival bound {survival}, "
        f"closed vs RK4 {worst_rk4:.2e}",
        nondecreasing and ordered and survival and worst_rk4 < 1e-8,
    )


def test_criterion_7_exact_photon_null_under_decay():
    worst = 0.0
    for m in range(2, 17):
        for scheme in (W_PLUS, W_PRIME):
            r = scheme.ratio(m)
            tau_c = renormalized_trapping_time(m, r, GAMMA, KAPPA)
            worst = max(
                worst, abs(conditional_amplitudes(m, r, GAMMA, KAPPA, tau_c).b_photon)
            )
    record(7, f"photon amplitude at shifted trapping time: {worst:.2e}", worst < 1e-14)


def test_criterion_8_optimizer_recovery():
    worst = 0.0
    for m in (2, 3, 4, 9, 16):
        low, high = optimize_coupling_ratio(m, "w_symmetry")
        transfer = optimize_coupling_ratio(m, "separable_transfer")
        worst = max(
            worst,
            abs(low - (np.sqrt(m) - 1.0)),
            abs(high - (np.sqrt(m) + 1.0)),
            abs(transfer - np.sqrt(m - 1.0)),
        )
    low, high = optimize_coupling_ratio(4, "w_symmetry")
    pair_ok = abs(low - 1.0) < 1e-6 and abs(high - 3.0) < 1e-6
    record(
        8,
        f"optimizer recovers sqrt(M)+/-1 and sqrt(M-1) (max dev {worst:.2e}), "
        f"M=4 pair {{1, 3}}: {pair_ok}",
        worst < 1e-6 and pair_ok,
    )


def test_criterion_9_check_command_golden_report(tmp_path, capsys):
    out = tmp_path / "check.csv"
    code = main(["check", "--out", str(out)])
    capsys.readouterr()
    golden = (GOLDEN / "check_trials200_seed42.csv").read_text()
    produced = out.read_text()
    record(
        9,
        f"default `qcm check` exits {code} and matches the committed report: "
        f"{produced == golden}",
        code == 0 and produced == golden,
    )


def test_criterion_10_paper_regime_large_register():
    # one (M+1)^2 complex propagator at M = 10^5 would take 160 GB; the
    # protocols apply its rank-two closed form in O(M) instead
    m = 100_000
    worst_amp, worst_photon, worst_f = 0.0, 0.0, 0.0
    for scheme in (IDENTICAL, W_PLUS, W_MINUS, W_PRIME):
        a1, a = trapped_amplitudes(m, scheme.ratio(m))
        state, _ = generate_w_state(m, scheme)
        amps = state.amplitudes
        worst_amp = max(worst_amp, abs(amps[1] - a1), float(np.max(np.abs(amps[2 : m + 1] - a))))
        worst_photon = max(worst_photon, abs(amps[m + 1]))
        f_target, f_input = fidelity_curve(m, scheme)
        fidelities = np.array(run_anticlone(m, scheme, alpha=0.7).fidelities)
        worst_f = max(
            worst_f, abs(fidelities[0] - f_input), float(np.max(np.abs(fidelities[1:] - f_target)))
        )
    record(
        10,
        f"M=10^5, all four schemes: amplitude dev {worst_amp:.2e}, photon {worst_photon:.2e}, "
        f"per-qubit fidelity dev {worst_f:.2e}",
        worst_amp < 1e-10 and worst_photon < 1e-12 and worst_f < 1e-12,
    )
