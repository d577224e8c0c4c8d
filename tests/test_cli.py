import argparse
import decimal
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qcm.cli as cli
import qcm.decoherence as decoherence
import qcm.protocols as protocols
from qcm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    build_parser,
    main,
    run_check_suites,
)
from qcm.decoherence import (
    conditional_amplitudes,
    decay_robustness_scan,
    renormalized_trapping_time,
)
from qcm.model import ConfigurationError
from qcm.protocols import (
    SCHEME_TAGS,
    W_MINUS,
    W_PLUS,
    W_PRIME,
    CouplingScheme,
    fidelity_curve,
    run_anticlone,
    trapped_amplitudes,
)

GOLDEN = Path(__file__).parent / "golden"

#: the options each command reads besides --config, --format and --out
COMMAND_FLAGS = {
    "check": ("--trials", "--seed", "--inject-fault"),
    "wstate": ("--m", "--m-range", "--scheme", "--r", "--m-odd"),
    "anticlone": ("--m", "--m-range", "--alpha"),
    "decoherence": (
        "--m", "--m-range", "--scheme", "--r", "--gamma-decay", "--kappa", "--m-odd",
    ),
    "scan": ("--m", "--r-grid"),
}
FLAG_VALUES = {
    "--m": "4",
    "--m-range": "2:3",
    "--scheme": "w_plus",
    "--r": "2.0",
    "--gamma-decay": "0.1",
    "--kappa": "0.1",
    "--alpha": "1.0",
    "--m-odd": "3",
    "--trials": "2",
    "--seed": "1",
    "--r-grid": "1:2:3",
    "--inject-fault": "unitarity_sign",
}
DROPPED_FLAGS = [
    (command, flag)
    for command, flags in COMMAND_FLAGS.items()
    for flag in FLAG_VALUES
    if flag not in flags
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    headers = lines[0].split(",")
    return headers, [dict(zip(headers, line.split(","))) for line in lines[1:]]


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["wstate", "--m-range", "2:9", "--scheme", "w_plus"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_check_deterministic_under_seed(self, capsys):
        argv = ["check", "--trials", "25", "--seed", "7"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


def test_commands_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, tens of milliseconds and over a
    # megabyte for each fresh process; a fresh interpreter shows whether any command
    # still pulls it in, as this test process may have imported it already
    script = (
        "import sys, qcm.cli; qcm.cli.main(['decoherence', '--m', '3']); "
        "qcm.cli.main(['check', '--trials', '3']); assert 'numpy.ma' not in sys.modules"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("wstate_m2_16_w_plus.csv", ["wstate", "--m-range", "2:16", "--scheme", "w_plus"]),
            ("anticlone_m2_8.csv", ["anticlone", "--m-range", "2:8"]),
            ("decoherence_m2_6.csv", ["decoherence", "--m-range", "2:6"]),
            ("scan_m4.csv", ["scan", "--m", "4", "--r-grid", "0.5:3.5:7"]),
        ],
    )
    def test_table_matches_golden(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / name).read_text()


class TestCheckCommand:
    def test_zero_trials_empty_report(self, capsys):
        code, out, err = run_cli(capsys, ["check", "--trials", "0"])
        assert code == EXIT_OK
        assert out == "suite,trials,max_deviation,tolerance,passed\n"
        assert err == ""

    def test_small_run_passes_everything(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--trials", "10", "--seed", "3"])
        assert code == EXIT_OK
        headers, rows = parse_csv(out)
        assert headers == ["suite", "trials", "max_deviation", "tolerance", "passed"]
        assert [row["suite"] for row in rows] == [
            "unitarity",
            "closed_vs_expm",
            "group_property",
            "closed_vs_rk4",
            "conditional_vs_rk4",
        ]
        assert all(row["passed"] == "true" for row in rows)

    def test_injected_fault_names_unitarity(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["check", "--trials", "10", "--seed", "3", "--inject-fault", "unitarity_sign"],
        )
        assert code == EXIT_TOLERANCE
        assert "unitarity" in err
        _, rows = parse_csv(out)
        by_suite = {row["suite"]: row["passed"] for row in rows}
        assert by_suite["unitarity"] == "false"
        assert by_suite["conditional_vs_rk4"] == "true"  # fault is upstream of this suite

    @pytest.mark.parametrize("trials", [-1, 2.5])
    def test_trials_must_be_a_count(self, trials):
        with pytest.raises(ConfigurationError):
            run_check_suites(trials, 1)

    @pytest.mark.parametrize(
        "seed, message", [(-1, "need seed >= 0, got -1"), (2.5, "seed must be an integer, got 2.5")]
    )
    def test_seed_must_be_a_non_negative_integer(self, capsys, seed, message):
        # used to raise numpy's "expected non-negative integer" or a bare TypeError
        with pytest.raises(ConfigurationError) as caught:
            run_check_suites(1, seed)
        assert str(caught.value) == message
        if isinstance(seed, int):
            code, out, err = run_cli(capsys, ["check", "--seed", str(seed)])
            assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")

    def test_seed_past_exact_float_range_accepted(self):
        # a seed is not a count: numpy takes one of any size
        assert run_check_suites(1, 2**64 + 1) == run_check_suites(1, 2**64 + 1)

    def test_suite_rows_carry_tolerances(self):
        rows = run_check_suites(5, 11)
        for row in rows:
            assert row["max_deviation"] < row["tolerance"]


class TestWstateCommand:
    def test_symmetric_w_row(self, capsys):
        code, out, _ = run_cli(capsys, ["wstate", "--m", "4", "--scheme", "w_plus"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["r"]) == pytest.approx(3.0, abs=1e-12)
        assert float(row["a1"]) == pytest.approx(-0.5, abs=1e-12)
        assert float(row["a"]) == pytest.approx(-0.5, abs=1e-12)
        assert row["classification"] == "symmetric_W"

    def test_w_prime_empties_first_qubit(self, capsys):
        code, out, _ = run_cli(capsys, ["wstate", "--m", "3", "--scheme", "w_prime"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["a1"])) < 1e-10
        assert rows[0]["classification"] == "separable_W"

    def test_explicit_ratio_two_qubits(self, capsys):
        code, out, _ = run_cli(capsys, ["wstate", "--m", "2", "--r", "1.0"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["scheme"] == "custom"
        assert float(rows[0]["a"]) == pytest.approx(-1.0, abs=1e-12)
        assert rows[0]["classification"] == "separable_W"

    def test_requires_qubit_count(self, capsys):
        code, _, err = run_cli(capsys, ["wstate", "--scheme", "w_plus"])
        assert code == EXIT_CONFIG
        assert "qubit count" in err

    def test_requires_scheme(self, capsys):
        code, _, err = run_cli(capsys, ["wstate", "--m", "4"])
        assert code == EXIT_CONFIG
        assert "scheme" in err


    @pytest.mark.parametrize("m_odd", [3, 5, 7, 101])
    def test_tau_is_the_decay_free_decoherence_instant(self, capsys, m_odd):
        # tau used to be m_odd times the first instant, off in the last bit
        # on about a quarter of these rows
        m_flags = ["--m-range", "2:300", "--scheme", "w_plus", "--m-odd", str(m_odd)]
        _, out_w, _ = run_cli(capsys, ["wstate", *m_flags])
        _, out_d, _ = run_cli(
            capsys, ["decoherence", *m_flags, "--gamma-decay", "0", "--kappa", "0"]
        )
        _, wstate = parse_csv(out_w)
        _, decay = parse_csv(out_d)
        assert [row["tau_star"] for row in wstate] == [row["tau_star_c"] for row in decay]

    @pytest.mark.parametrize("counts", [["--m", "2"], ["--m-range", "2:9"]])
    def test_overflowing_ratio_names_the_row_route_check(self, capsys, counts):
        # the first flagged row replays through generate_w_state, whose config check fires
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["wstate", *counts, "--r", "1e200"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: omega^2 = sum of squared couplings must be finite and > 0, got inf\n"

    def test_one_count_too_large_to_allocate_runs_in_constant_memory(self, capsys):
        # this used to exit 2 when 10**15 couplings could not be allocated
        m = 10**15
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["wstate", "--m", str(m), "--scheme", "w_plus"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (EXIT_OK, "")
        _, rows = parse_csv(out)
        r = W_PLUS.ratio(m)
        expected = [m, "w_plus", r, renormalized_trapping_time(m, r, 0.0, 0.0)]
        assert list(rows[0].values())[:4] == [cli.format_value(v) for v in expected]
        assert rows[0]["classification"] == "symmetric_W"
        for amplitude in (rows[0]["a1"], rows[0]["a"]):
            assert float(amplitude) == pytest.approx(-1.0 / math.sqrt(m), rel=1e-7)
        assert len(rows) == 1
        assert peak < 1e6


class TestAnticloneCommand:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, ["anticlone", "--m-range", "2:5"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        by_m = {int(row["m"]): row for row in rows}
        assert float(by_m[2]["f_plusminus"]) == pytest.approx(
            0.5 * (1.0 + 1.0 / np.sqrt(2.0)), abs=1e-15
        )
        assert float(by_m[5]["f_iden"]) == pytest.approx(0.7, abs=1e-15)
        assert float(by_m[5]["f1_iden"]) == pytest.approx(0.2, abs=1e-15)

    def test_shifted_scheme_identity_is_exact(self, capsys):
        _, out, _ = run_cli(capsys, ["anticlone", "--m-range", "2:12"])
        _, rows = parse_csv(out)
        by_m = {int(row["m"]): row for row in rows}
        for m in range(2, 12):
            assert by_m[m]["f_plusminus"] == by_m[m + 1]["f_sep"]

    def test_counts_are_checked_once_by_qubit_counts(self, capsys, monkeypatch):
        # fidelity_curve and CouplingScheme.ratio check a count column; the command
        # hands them none, as qubit_counts has checked its range already
        calls, check = [], protocols.check_count_column

        def spy(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(protocols, "check_count_column", spy)
        _, out, _ = run_cli(capsys, ["anticlone", "--m-range", "2:40"])
        assert calls == []
        assert out.count("\n") == 40
        assert fidelity_curve(np.arange(2.0, 41.0), W_PLUS) and len(calls) == 1


    @pytest.mark.parametrize("alpha", ["1e12", "1e300", "-1e300"])
    def test_large_phase_prints_the_zero_phase_table(self, capsys, alpha):
        # alpha - pi would round pi away here: at 1e12 the pipeline would miss the
        # closed form by 2e-11, and at 1e300 it would score the input, not its complement
        _, expected, _ = run_cli(capsys, ["anticlone", "--m-range", "2:30"])
        code, out, err = run_cli(capsys, ["anticlone", "--m-range", "2:30", f"--alpha={alpha}"])
        assert (code, out, err) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_config_error(self, capsys, alpha):
        # used to exit 2 with the misleading "amplitudes must be finite"
        code, out, err = run_cli(capsys, ["anticlone", "--m", "3", "--alpha", alpha])
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"alpha must be finite, got {alpha}" in err

    @pytest.mark.parametrize(
        "shifted, named",
        [
            ({(7, "w_minus")}, "m=7 scheme=w_minus"),
            # the first row in the loop order: M ascending, then identical,
            # w_plus, w_minus, w_prime
            ({(9, "identical"), (6, "w_prime")}, "m=6 scheme=w_prime"),
            ({(6, "w_prime"), (6, "w_plus")}, "m=6 scheme=w_plus"),
        ],
    )
    def test_closed_form_defect_fails_the_check(self, capsys, monkeypatch, shifted, named):
        exact_curve, exact_named = cli.fidelity_curve, cli._named_fidelities

        def moved(m, tag, f_target):
            counts = [count for count, shifted_tag in shifted if shifted_tag == tag]
            return f_target + np.where(np.isin(m, counts), 1e-9, 0.0)

        def moved_curve(m, scheme):  # one count, on a replayed row
            f_target, f_input = exact_curve(m, scheme)
            return moved(m, scheme.tag, f_target), f_input

        def moved_named(m, tag):  # the column of counts of the table
            f_target, f_input = exact_named(m, tag)
            return moved(m, tag, f_target), f_input

        monkeypatch.setattr(cli, "fidelity_curve", moved_curve)
        monkeypatch.setattr(cli, "_named_fidelities", moved_named)
        code, out, err = run_cli(capsys, ["anticlone", "--m-range", "2:12", "--alpha", "0.6"])
        assert code == EXIT_TOLERANCE
        assert out == ""
        assert err == (
            f"error: anticlone closed form disagrees with pipeline at {named}: defect 1.000e-09\n"
        )

    def test_rows_the_batch_flags_are_decided_by_run_anticlone(self, capsys, monkeypatch):
        # a batch row that comes back NaN is checked again through
        # run_anticlone, which passes it here, so the table is unchanged
        _, expected, _ = run_cli(capsys, ["anticlone", "--m-range", "2:150"])
        batched, flagged, replayed = cli.anticlone_fidelities, [], []

        def some_nan_rows(m, r, alpha):
            fidelities, ok = batched(m, r, alpha)
            rows = [7, 50, 51, 301, m.size - 1]
            fidelities[rows], ok[rows] = np.nan, False
            flagged.extend((int(m[i]), i % 4) for i in rows)
            return fidelities, ok

        def recorded(m, scheme, alpha):
            replayed.append((m, cli.ANTICLONE_SCHEMES.index(scheme)))
            return run_anticlone(m, scheme, alpha)

        monkeypatch.setattr(cli, "anticlone_fidelities", some_nan_rows)
        monkeypatch.setattr(cli, "run_anticlone", recorded)
        code, out, err = run_cli(capsys, ["anticlone", "--m-range", "2:150"])
        assert (code, out, err) == (EXIT_OK, expected, "")
        assert replayed == flagged

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--m", "0"], "need m >= 2, got 0"),
            (["--m-range", "2:40", "--alpha", "nan"], "alpha must be finite, got nan"),
        ],
    )
    def test_config_errors_come_before_the_batch(self, capsys, argv, message):
        code, out, err = run_cli(capsys, ["anticlone", *argv])
        assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")

    def test_peak_memory_stays_bounded(self, capsys):
        # the batch holds a few numbers per (M, scheme) row, never a register:
        # one complex temporary of these 5996 rows times 1500 qubits would be
        # 144 MB
        tracemalloc.start()
        try:
            code = main(["anticlone", "--m-range", "2:1500"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == EXIT_OK
        assert peak < 8e6

    def test_one_count_too_large_to_allocate_runs_in_constant_memory(self, capsys):
        # this used to exit 2 when 10**15 amplitudes could not be allocated
        m = 10**15
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["anticlone", "--m", str(m)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (EXIT_OK, "")
        _, rows = parse_csv(out)
        f = {scheme.tag: fidelity_curve(m, scheme) for scheme in cli.ANTICLONE_SCHEMES}
        expected = [
            m,
            f["identical"][0], f["w_plus"][0], f["w_prime"][0],
            f["identical"][1], f["w_plus"][1], f["w_minus"][1], f["w_prime"][1],
        ]
        assert list(rows[0].values()) == [cli.format_value(v) for v in expected]
        assert len(rows) == 1
        assert peak < 1e6


#: per command: argv, the column pass (module, name) and the rows it is made
#: to flag, the row route (module, name) and what it is called with on them
REPLAYS = {
    "wstate": (
        ["wstate", "--m-range", "2:20", "--scheme", "w_minus"],
        (cli, "w_state_columns"), [3, 11],
        (cli, "generate_w_state"), lambda m, scheme: (m, scheme.tag),
        [(5, "w_minus"), (13, "w_minus")],
    ),
    "anticlone": (
        ["anticlone", "--m-range", "2:20"],
        (cli, "anticlone_fidelities"), [5, 14],
        (cli, "run_anticlone"), lambda m, scheme, alpha: (m, scheme.tag),
        [(3, "w_plus"), (5, "w_minus")],
    ),
    "decoherence": (
        ["decoherence", "--m-range", "2:20"],
        (decoherence, "_decay_columns"), [5, 14],
        (decoherence, "_raise_for_row"), lambda m, r, *rest: (m, r),
        [(4, W_PRIME.ratio(4)), (9, W_PLUS.ratio(9))],
    ),
    "scan": (
        ["scan", "--m", "4", "--r-grid", "1:2:5"],
        (cli, "_scan_columns"), [1, 6],
        (cli, "fidelity_curve"), lambda m, scheme: (m, scheme.custom_ratio),
        [(4, 1.25), (4, 3.0)],
    ),
}


class TestFlaggedRowReplay:
    @pytest.mark.parametrize("command", sorted(REPLAYS))
    def test_every_flagged_row_is_replayed_in_row_order(self, capsys, monkeypatch, command):
        argv, (pass_module, pass_name), rows, (route_module, route_name), key, calls = (
            REPLAYS[command]
        )
        _, expected, _ = run_cli(capsys, argv)
        column_pass, route = getattr(pass_module, pass_name), getattr(route_module, route_name)
        replayed = []

        def flagging(*args):
            *values, ok = column_pass(*args)
            ok = ok.copy()
            ok[rows] = False
            return (*values, ok)

        def recorded(*args, **kwargs):
            replayed.append(key(*args, **kwargs))
            return route(*args, **kwargs)

        monkeypatch.setattr(pass_module, pass_name, flagging)
        monkeypatch.setattr(route_module, route_name, recorded)
        # the row route passes these rows, so the table is unchanged
        assert run_cli(capsys, argv) == (EXIT_OK, expected, "")
        assert replayed == calls

    def test_decoherence_raises_for_a_later_flagged_row(self, capsys, monkeypatch):
        # only the first flagged row used to be replayed, so a later one could pass
        column_pass = decoherence._decay_columns

        def flagging(m, r, gamma_decay, kappa, m_odd):
            tau, fidelity, p, ok = column_pass(m, r, gamma_decay, kappa, m_odd)
            fidelity[9], ok[[4, 9]] = 1.5, False
            return tau, fidelity, p, ok

        monkeypatch.setattr(decoherence, "_decay_columns", flagging)
        code, out, err = run_cli(capsys, ["decoherence", "--m-range", "2:20"])
        assert (code, out, err) == (EXIT_CONFIG, "", "error: fidelity outside [0, 1]: 1.5\n")


class TestDecoherenceCommand:
    def test_non_finite_discriminant_names_omega_and_rates(self, capsys):
        # used to exit 2 with "time must be finite and >= 0, got nan"
        code, out, err = run_cli(
            capsys, ["decoherence", "--m", "2", "--r", "1e154", "--kappa", "1e155"]
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert "is nan for omega^2 = 1e+308, gamma_decay = 0.001, kappa = 1e+155" in err

    def test_default_rates_and_survival(self, capsys):
        code, out, _ = run_cli(capsys, ["decoherence"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 2 * 19  # both schemes over M = 2..20
        assert all(float(row["p_no_click"]) >= 0.97 for row in rows)

    def test_defaults_are_the_library_table(self, capsys):
        # no --scheme, --r or rates: decay_robustness_scan at its own defaults
        code, out, _ = run_cli(capsys, ["decoherence", "--m-range", "2:20"])
        assert code == EXIT_OK
        assert out == decoherence_csv(decay_robustness_scan(range(2, 21)))

    def test_equal_rates_unity_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["decoherence", "--m-range", "2:8", "--gamma-decay", "0.01", "--kappa", "0.01"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert all(abs(float(row["f_r"]) - 1.0) <= 1e-12 for row in rows)

    def test_single_m_scheme_ordering(self, capsys):
        code, out, _ = run_cli(capsys, ["decoherence", "--m", "3"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [row["scheme"] for row in rows] == ["w_plus", "w_prime"]
        assert float(rows[0]["f_r"]) >= float(rows[1]["f_r"])

    def test_overdamped_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, ["decoherence", "--m", "2", "--kappa", "10.0"])
        assert code == EXIT_CONFIG
        assert "overdamped" in err

    def test_nan_rate_is_config_error(self, capsys):
        # used to surface as the misleading "fidelity outside [0, 1]: nan"
        code, _, err = run_cli(capsys, ["decoherence", "--gamma-decay", "nan"])
        assert code == EXIT_CONFIG
        assert "gamma_decay must be finite" in err

    def test_overflowing_ratio_is_config_error(self, capsys):
        # r^2 = inf used to surface as "fidelity outside [0, 1]: nan"
        code, _, err = run_cli(capsys, ["decoherence", "--m", "2", "--r", "1e200"])
        assert code == EXIT_CONFIG
        assert "omega^2 = r^2 + M - 1 must be finite and > 0, got inf" in err

    def test_overflow_in_the_columns_does_not_warn(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["decoherence", "--m-range", "2:9", "--r", "1e200"])
        assert code == EXIT_CONFIG and out == ""
        assert "omega^2 = r^2 + M - 1 must be finite and > 0, got inf" in err

    def test_first_overdamped_row_is_named(self, capsys):
        # (2, w_plus) is the first row past critical damping
        code, _, err = run_cli(capsys, ["decoherence", "--m-range", "2:40", "--kappa", "9"])
        assert code == EXIT_CONFIG
        assert "overdamped: 2*omega = 5.22625 <= |kappa - gamma_decay| = 8.999" in err

    @pytest.mark.parametrize(
        "flags, schemes",
        [
            (["--r", "0.7"], [CouplingScheme.custom(0.7)]),
            (["--scheme", "w_minus"], [W_MINUS]),
            ([], [W_PLUS, W_PRIME]),
        ],
    )
    @pytest.mark.parametrize("m_odd", [1, 3])
    def test_cells_match_the_scalar_route(self, capsys, flags, schemes, m_odd):
        argv = ["decoherence", "--m-range", "2:300", "--gamma-decay", "0.013", "--kappa", "0.2"]
        code, out, _ = run_cli(capsys, argv + flags + ["--m-odd", str(m_odd)])
        assert code == EXIT_OK
        expected = []
        for m in range(2, 301):
            for scheme in schemes:
                r = scheme.ratio(m)
                tau = renormalized_trapping_time(m, r, 0.013, 0.2, m_odd)
                amps = conditional_amplitudes(m, r, 0.013, 0.2, tau)
                p = amps.branch_norm_squared
                a1, a = trapped_amplitudes(m, r)
                f = min(abs(a1 * amps.b1 + (m - 1) * a * amps.b) / math.sqrt(p), 1.0)
                cells = [format(v, ".17g") for v in (r, tau, f, p)]
                expected.append(",".join([str(m), scheme.tag, *cells]))
        assert out.splitlines()[1:] == expected


#: the kinds of the special-ratio rows `scan` appends to its grid
SCAN_OPTIMA = ("w_symmetry_low", "w_symmetry_high", "separable_transfer", "target_fidelity")


class TestScanCommand:
    def test_optimizer_rows_locate_m4_pair(self, capsys):
        code, out, _ = run_cli(capsys, ["scan", "--m", "4"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        by_kind = {row["kind"]: row for row in rows if row["kind"] != "grid"}
        # the closed forms sqrt(M) -/+ 1 and sqrt(M - 1), exactly
        assert float(by_kind["w_symmetry_low"]["r"]) == 1.0
        assert float(by_kind["w_symmetry_high"]["r"]) == 3.0
        assert float(by_kind["separable_transfer"]["r"]) == math.sqrt(3.0)
        assert float(by_kind["target_fidelity"]["r"]) == math.sqrt(3.0)

    def test_m3_transfer_optimum(self, capsys):
        _, out, _ = run_cli(capsys, ["scan", "--m", "3"])
        _, rows = parse_csv(out)
        by_kind = {row["kind"]: row for row in rows if row["kind"] != "grid"}
        assert float(by_kind["separable_transfer"]["r"]) == pytest.approx(
            1.414214, abs=1e-6
        )

    @pytest.mark.parametrize("grid", ["2.0:1.0:5", "1:2:0"])
    def test_empty_grid_rejected(self, capsys, grid):
        code, _, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", grid])
        assert (code, err) == (EXIT_CONFIG, "error: empty r-grid\n")

    @pytest.mark.parametrize("grid", ["0:1:3", "-1:1:3", "-0.0:2:0"])
    def test_non_positive_grid_start_named(self, capsys, grid):
        # 0:1:3 used to say "empty r-grid", although the grid has three ratios
        code, out, err = run_cli(capsys, ["scan", "--m", "4", f"--r-grid={grid}"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: r-grid START must be > 0, a coupling ratio, got {grid!r}\n"

    def test_grid_must_be_well_formed(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", "1.0:2.0"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("grid", ["0.5:3:2.5", "0.5:x:3", "0.5:3:", "1.0:2.0"])
    def test_malformed_grid_names_the_flag_and_the_text(self, capsys, grid):
        # used to print int()'s or float()'s message, naming neither
        code, out, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", grid])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (
            "error: r-grid must be START:STOP:COUNT with numbers START and STOP and "
            f"an integer COUNT, got {grid!r}\n"
        )

    @pytest.mark.parametrize("grid", ["0.1:inf:3", "nan:1:3", "0.1:nan:3", "inf:1:3"])
    def test_non_finite_grid_ends_rejected(self, capsys, grid):
        # 0.1:inf:3 used to leak numpy's invalid-value warning, then exit 2
        # with "coupling ratio ... got nan", which does not name the flag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", grid])
        assert code == EXIT_CONFIG and out == ""
        assert "r-grid START and STOP must be finite" in err

    @pytest.mark.parametrize("m", [2, 4, 256, 10**6, 2**53])
    def test_cells_match_the_row_route(self, capsys, m):
        # the columns repeat trapped_amplitudes' and fidelity_curve's IEEE
        # operations, so every cell is bit-identical to the one-row route
        code, out, _ = run_cli(capsys, ["scan", "--m", str(m), "--r-grid", "0.1:20:2000"])
        assert code == EXIT_OK
        rows = [("grid", r) for r in np.linspace(0.1, 20.0, 2000).tolist()]
        optima = [W_MINUS, W_PLUS, W_PRIME, W_PRIME]
        rows += [(kind, scheme.ratio(m)) for kind, scheme in zip(SCAN_OPTIMA, optima)]
        expected = []
        for kind, r in rows:
            a1, a = trapped_amplitudes(m, r)
            f_target, f_input = fidelity_curve(m, CouplingScheme.custom(r))
            cells = [format(v, ".17g") for v in (r, a1, a, f_target, f_input)]
            expected.append(",".join([kind, *cells]))
        assert out.splitlines()[1:] == expected

    @pytest.mark.parametrize("m", [7508, 133750, 10**6])
    def test_special_ratios_at_large_m(self, capsys, m):
        # the numerical search saw both symmetry roots in one grid interval
        # here, and the command exited 2 with "expected two symmetry ratios
        # for m=..., found []"
        code, out, err = run_cli(capsys, ["scan", "--m", str(m), "--r-grid", "1:2:2"])
        assert (code, err) == (EXIT_OK, "")
        _, rows = parse_csv(out)
        assert [row["kind"] for row in rows] == ["grid", "grid", *SCAN_OPTIMA]
        root = math.sqrt(m - 1.0)
        expected = [math.sqrt(m) - 1.0, math.sqrt(m) + 1.0, root, root]
        assert [float(row["r"]) for row in rows[2:]] == expected

    def test_first_overflowing_row_is_named(self, capsys):
        # 1e200 squared overflows omega^2; the row route names the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", "1:1e200:3"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: omega^2 = r^2 + M - 1 must be finite and > 0, got inf\n"

    def test_grid_count_past_exact_float_range_rejected(self, capsys):
        # used to reach numpy's "Maximum allowed size exceeded"
        code, _, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", f"0.1:1:{10**20}"])
        assert code == EXIT_CONFIG
        assert "need r-grid COUNT <= 2**53" in err


class TestOutputModes:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["check", "--trials", "5"], id="check"),
            pytest.param(["wstate", "--m", "4", "--scheme", "w_plus"], id="wstate"),
            pytest.param(["anticlone", "--m-range", "2:8"], id="anticlone"),
            pytest.param(["decoherence", "--m-range", "2:4"], id="decoherence"),
            pytest.param(["scan", "--m", "4", "--r-grid", "0.5:3.5:7"], id="scan"),
            # large enough for the CSV route's kernel
            pytest.param(["decoherence", "--m-range", "2:2000"], id="decoherence_kernel"),
        ],
    )
    def test_json_mirrors_csv_columns(self, capsys, argv):
        # each JSON row holds its CSV row's cells under the CSV header, in its order
        code, out_csv, _ = run_cli(capsys, argv)
        _, out_json, _ = run_cli(capsys, [*argv, "--format", "json"])
        headers, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert code == EXIT_OK and len(payload) == len(rows) > 0
        assert all(list(row) == headers for row in payload)
        cells = [[cli.format_value(v) for v in row.values()] for row in payload]
        assert cells == [list(row.values()) for row in rows]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, ["wstate", "--m", "4", "--scheme", "w_plus", "--out", str(path)]
        )
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith("m,scheme,r,tau_star,a1,a,classification\n")

    def test_unwritable_out_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["wstate", "--m", "4", "--scheme", "w_plus", "--out", str(tmp_path / "no" / "x.csv")],
        )
        assert code == EXIT_CONFIG


#: float64 cells whose 17-digit forms are the awkward ones
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1.0 / 3.0, -2.5, 0.1]


def reference_csv(table):
    """The CSV text of ``table``, header to column, formatted cell by cell with
    format_value."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    lines = [",".join(table)]
    lines += [",".join(map(cli.format_value, row)) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def decoherence_csv(table) -> str:
    """``reference_csv`` of a decay-robustness table, as `decoherence` heads it."""
    headers = ["m", "scheme", "r", "tau_star_c", "f_r", "p_no_click"]
    columns = [table.m, table.scheme, table.r, table.tau_star_c, table.fidelity, table.p_no_click]
    return reference_csv(dict(zip(headers, columns)))


def table_text(capsys, table, format="csv", out=None):
    cli.write_table(table, argparse.Namespace(format=format, out=out))
    return capsys.readouterr().out


class TestWriteTable:
    n = len(SPECIAL_FLOATS)
    columns = [
        np.array(SPECIAL_FLOATS),
        (np.arange(n, dtype=np.int64) - 4) * 10**15,
        np.arange(n, dtype=np.uint8),
        np.arange(n) % 3 == 0,
        tuple(f"s{i}%d" for i in range(n)),
        [1, "x", 0.1, True, None, -0.0, math.nan, False, "%s", 10**20],
        (1, "x", 0.1, True, None, -0.0, math.nan, False, "%s", 10**20),
        np.array(SPECIAL_FLOATS) + 1j,
    ]
    table = {f"c{j}": column for j, column in enumerate(columns)}

    def test_columns_match_the_per_cell_reference(self, capsys):
        # one %-template per table formats every cell as format_value does
        assert table_text(capsys, self.table) == reference_csv(self.table)

    @pytest.mark.parametrize("j", range(len(columns)))
    def test_each_column_alone(self, capsys, j):
        table = {"c": self.columns[j]}
        assert table_text(capsys, table) == reference_csv(table)

    def test_empty_columns_give_the_header_alone(self, capsys):
        columns = [np.array([]), np.array([], dtype=np.int64), (), []]
        assert table_text(capsys, dict(zip("abcd", columns))) == "a,b,c,d\n"

    def test_out_file_holds_the_stdout_text(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        assert table_text(capsys, self.table, out=str(path)) == ""
        assert path.read_text() == reference_csv(self.table)

    def test_json_rows_are_the_plain_cells(self, capsys):
        columns = [np.array([0.1, -2.5]), np.array([-3, 4]), np.array([True, False]), ("a", "b")]
        text = table_text(capsys, dict(zip("wxyz", columns)), format="json")
        assert json.loads(text) == [
            {"w": 0.1, "x": -3, "y": True, "z": "a"},
            {"w": -2.5, "x": 4, "y": False, "z": "b"},
        ]


def kernel_cells(values) -> list[str]:
    """The vectorised kernel's text of each float64 value, one string per cell."""
    cells = cli._float_cells(np.asarray(values, dtype=np.float64))
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode().splitlines()


def mismatches(values) -> list[tuple]:
    """(value, kernel cell, '%.17g' cell) wherever the two differ."""
    values = np.asarray(values, dtype=np.float64).tolist()
    return [
        (v, got, "%.17g" % v) for v, got in zip(values, kernel_cells(values)) if got != "%.17g" % v
    ]


def exact_decimal_ties() -> list[float]:
    """Doubles whose 17-digit rounding is a tie: odd * 2**-j is exact, with the
    decimal digits of odd * 5**j, and where those are 18 the last one is a 5."""
    return [
        odd * 2.0**-j
        for j in range(3, 25)
        for odd in range(10**17 // 5**j | 1, 10**17 // 5**j + 400, 2)
        if len(str(odd * 5**j)) == 18
    ]


def spy_on_kernel(monkeypatch, name="_float_cells") -> list:
    """The sizes of the columns that ``cli._float_cells`` (or the kernel routine
    ``name``) formats from now on."""
    calls, kernel = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda x: calls.append(x.size) or kernel(x))
    return calls


#: every golden table with the command that prints it
GOLDEN_RUNS = [
    ("wstate_m2_16_w_plus.csv", ["wstate", "--m-range", "2:16", "--scheme", "w_plus"]),
    ("anticlone_m2_8.csv", ["anticlone", "--m-range", "2:8"]),
    ("decoherence_m2_6.csv", ["decoherence", "--m-range", "2:6"]),
    ("scan_m4.csv", ["scan", "--m", "4", "--r-grid", "0.5:3.5:7"]),
    ("check_trials200_seed42.csv", ["check"]),
]


class TestFloatKernel:
    """The vectorised '%.17g' of write_table's CSV route, byte for byte."""

    def test_random_bit_patterns(self):
        # both signs and every exponent, nan, inf and subnormals included
        bits = np.random.default_rng(17).integers(0, 2**64, size=200_000, dtype=np.uint64)
        assert mismatches(bits.view(np.float64)) == []

    def test_powers_of_ten_and_the_range_edges(self):
        powers = [float(f"1e{k}") for k in range(-300, 301)]
        edges = [1e-280, 1e280]
        edges += [np.nextafter(x, direction) for x in edges for direction in (0.0, np.inf)]
        values = np.array(powers + edges)
        assert mismatches(np.concatenate([values, -values])) == []

    def test_exact_decimal_ties(self):
        ties = exact_decimal_ties()
        assert len(ties) > 4000
        binary = (np.arange(1, 4000, 2)[:, None] * 2.0 ** -np.arange(1, 60)).ravel()
        decimal_ties = ((10**16 + np.arange(10**4)) * 10 + 5).astype(np.float64)
        assert mismatches(np.concatenate([ties, binary, decimal_ties])) == []

    def test_ties_in_fixed_notation_are_kernel_cells(self):
        # t is exact and p even, so np.rint breaks each tie to even, as '%.17g' does
        ties = np.array(exact_decimal_ties())
        fixed = ties[ties >= 1e-4]
        assert fixed.size > 3000
        assert cli._significands(fixed, cli._kernel_tables().powers)[2].all()

    def test_values_rounding_into_the_next_decade(self):
        # the doubles nearest 10**k that lie below it and still round up to it
        below = [
            v for k in range(-300, 301)
            if decimal.Decimal(v := float(f"1e{k}")) < decimal.Decimal(f"1e{k}")
            and "%.17g" % v == "%.17g" % 10.0**k
        ]
        assert len(below) >= 10
        assert mismatches(below + [9.9999999999999999e22, 0.99999999999999999]) == []

    def test_the_fixed_notation_bounds(self):
        # '%g' prints fixed notation for rounded exponents -4 to 16: the kernel prints
        # those cells, and each e-notation cell takes '%.17g' itself
        bits = np.array([1e-5, 1e-4, 1e16, 1e17]).view(np.int64)[:, None] + np.arange(-40, 41)
        below = [9.9999999999999995e-05, 99999999999999984.0]  # the doubles below 1e-4, 1e17
        swept = 10.0 ** np.random.default_rng(20).uniform(-6.0, math.log10(3e17), 50_000)
        values = np.concatenate([bits.ravel().view(np.float64), below, swept])
        values = np.concatenate([values, -values])
        assert mismatches(values) == []
        assert cli._float_cells(values).shape == (values.size, 24)

    def test_special_values(self):
        values = [5e-324, 1e308, 0.0, -0.0, math.nan, math.inf, -math.inf, 2.2250738585072014e-308]
        assert mismatches(values) == []

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_integer_cells_print_as_str(self, dtype):
        # every digit count up to 16, each side of each power of ten, 0 and 2**53
        powers = 10 ** np.arange(17, dtype=np.int64)
        values = np.concatenate([[0, 1, 2**53 - 1, 2**53], powers[:16], powers[1:] - 1])
        values = np.concatenate([values, np.random.default_rng(23).integers(0, 2**53, 5000)])
        signs = [1] if dtype is np.uint64 else [1, -1]
        for sign in signs:
            column = (sign * values).astype(dtype)
            cells = cli._int_cells(column)
            lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
            assert lines.tobytes().translate(None, b"\0").decode().split() == list(
                map(str, column.tolist())
            )
            assert cells.shape[1] == 16 + (sign < 0)

    @pytest.mark.parametrize("counts, width", [([0], 1), ([-1, 0], 2), ([2, 2000], 4), ([-9, 9999], 4)])
    def test_integer_slots_are_as_wide_as_their_widest_cell(self, counts, width):
        # the float cells' 24 bytes would be mostly NUL padding here
        assert cli._int_cells(np.array(counts, dtype=np.int64)).shape == (len(counts), width)

    @pytest.mark.parametrize(
        "above, edge",
        [
            pytest.param(False, None, id="False"),
            pytest.param(True, None, id="True"),
            *(pytest.param(True, k, id=f"block_edge{k:+d}") for k in (-1, 0, 1)),
        ],
    )
    def test_tables_at_the_cut_over(self, capsys, monkeypatch, above, edge):
        # two float columns; with ``edge``, a table of edge rows past a multiple
        # of 4096 rows, where a kernel that split its columns into blocks of
        # 4096 rows would have to join them
        step = 4096
        if edge is None:
            rows = -(-cli.KERNEL_MIN_CELLS // 2) - (not above)
        else:
            rows = step * (-(-cli.KERNEL_MIN_CELLS // (2 * step)) + 1) + edge
        m = np.arange(2, rows + 2)
        tags = ("w_plus", "w_prime") * (rows // 2) + ("w_plus",) * (rows % 2)
        columns = [m, tags, 1.0 / m, -np.sqrt(m) * 10.0 ** (m % 40 - 20), m % 3 == 0]
        if edge is not None:
            # negative, zero, e-notation and nan cells on both sides of each edge
            last = np.arange(step, rows + 1, step) - 1  # the last row before each edge
            first = last[last + 1 < rows] + 1
            m[last], columns[2][last], columns[3][last] = 0, math.nan, -2.5e-300
            m[first], columns[2][first], columns[3][first] = -1, -3.5e-07, math.nan
            m[last - 1], m[first[first + 1 < rows] + 1] = 2**53, -(2**53)
        table = dict(zip(["m", "scheme", "x", "y", "flag"], columns))
        calls = spy_on_kernel(monkeypatch)
        counts = spy_on_kernel(monkeypatch, "_int_cells")
        assert table_text(capsys, table) == reference_csv(table)
        # each float column in one kernel call, and the integer column from its
        # own digits, once for the whole table
        assert (calls, counts) == ([rows, rows] * above, [rows] * above)

    @pytest.mark.parametrize(
        "column, kernel",
        [
            pytest.param(np.arange(4) + 2**53, True, id="column0"),  # past the exact floats
            pytest.param([1, "x", 0.1, True], True, id="column1"),
            pytest.param(("a", "é", "b", "c"), False, id="column2"),  # not ASCII
            pytest.param(("a", "\0", "b", "c"), False, id="column3"),  # a NUL is padding
            pytest.param(np.arange(4) + 1j, True, id="column4"),
            pytest.param(np.arange(4, dtype=np.float32), True, id="column5"),
            pytest.param(("a", "b"), None, id="column6"),  # shorter than the table: an error
        ],
    )
    def test_other_columns_go_cell_by_cell(self, capsys, monkeypatch, column, kernel):
        # each cell is format_value's text; the kernel formats the float64 column alone
        monkeypatch.setattr(cli, "KERNEL_MIN_CELLS", 0)
        calls = spy_on_kernel(monkeypatch)
        table = {"x": np.linspace(0.1, 0.4, 4), "c": column}
        if kernel is None:  # zip used to print two rows of the four
            with pytest.raises(ValueError, match=r"of one length, got lengths \[4, 2\]$"):
                table_text(capsys, table)
            assert (capsys.readouterr().out, calls) == ("", [])
            return
        assert table_text(capsys, table) == reference_csv(table)
        assert calls == ([4] if kernel else [])

    @pytest.mark.parametrize("format", [pytest.param("json", id="json_short")])
    def test_unpaired_columns_are_an_error(self, capsys, format):
        # zip used to drop the rows past the shortest column
        with pytest.raises(ValueError, match=r"of one length, got lengths \[4, 2\]$"):
            table_text(capsys, {"x": np.linspace(0.1, 0.4, 4), "c": ("a", "b")}, format)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bound", [2**53, -(2**53)])
    def test_integers_at_two_to_the_53_stay_numbers(self, capsys, monkeypatch, bound):
        # up to 2**53 an integer column is a number column, printed from its digits
        monkeypatch.setattr(cli, "KERNEL_MIN_CELLS", 0)
        calls = spy_on_kernel(monkeypatch)
        counts = spy_on_kernel(monkeypatch, "_int_cells")
        table = {"x": np.linspace(0.1, 0.4, 4), "m": bound - np.sign(bound) * np.arange(4)}
        assert table_text(capsys, table) == reference_csv(table)
        assert (calls, counts) == ([4], [4])

    @pytest.mark.parametrize(
        "column",
        [
            pytest.param(np.array([2**53 + 1, -(2**63), 2**63 - 1, 0]), id="int64"),
            pytest.param(np.array([0, 1, 2**53 + 1, 2**64 - 1], np.uint64), id="uint64"),
        ],
    )
    @pytest.mark.parametrize("kernel", [False, True])
    def test_integers_past_two_to_the_53_are_text(self, capsys, monkeypatch, column, kernel):
        # one rule on both routes: the column prints its str cells, through the
        # template's '%s' or as the kernel's byte cells, never from int64 digits
        if kernel:
            monkeypatch.setattr(cli, "KERNEL_MIN_CELLS", 0)
        calls = spy_on_kernel(monkeypatch)
        counts = spy_on_kernel(monkeypatch, "_int_cells")
        table = {"x": np.linspace(0.1, 0.4, 4), "m": column}
        assert cli._printed(column) == list(map(str, column.tolist()))
        assert table_text(capsys, table) == reference_csv(table)
        assert (calls, counts) == ([4] * kernel, [])

    def test_counts_up_to_two_to_the_53_take_the_kernel(self, capsys, monkeypatch):
        # the count column ends at 2**53, and still prints through the kernel
        calls = spy_on_kernel(monkeypatch)
        counts = spy_on_kernel(monkeypatch, "_int_cells")
        code, out, _ = run_cli(capsys, ["decoherence", "--m-range", f"{2**53 - 5992}:{2**53}"])
        table = decay_robustness_scan(np.arange(2**53 - 5992, 2**53 + 1))
        assert code == EXIT_OK
        assert out == decoherence_csv(table)
        assert sum(calls) == 4 * len(table) > cli.KERNEL_MIN_CELLS  # four floats
        assert counts == [len(table)]  # and m

    @pytest.mark.parametrize("name,argv", GOLDEN_RUNS)
    def test_goldens_through_the_kernel(self, capsys, monkeypatch, name, argv):
        monkeypatch.setattr(cli, "KERNEL_MIN_CELLS", 0)
        calls = spy_on_kernel(monkeypatch)
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / name).read_text()
        assert calls


class TestConfigFile:
    def test_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\nscheme = w_plus\n# comment line\n\nformat = csv\n")
        code, out, _ = run_cli(capsys, ["wstate", "--config", str(cfg)])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["scheme"] == "w_plus"

    def test_explicit_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\nscheme = w_plus\n")
        code, out, _ = run_cli(capsys, ["wstate", "--config", str(cfg), "--scheme", "w_minus"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["scheme"] == "w_minus"
        assert float(rows[0]["r"]) == pytest.approx(1.0, abs=1e-12)

    def test_malformed_file_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m 4\n")
        code, _, err = run_cli(capsys, ["wstate", "--config", str(cfg)])
        assert code == EXIT_CONFIG

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["wstate", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_CONFIG


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["wstate", "--qubits", "4"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_even_trapping_index_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["wstate", "--m", "4", "--scheme", "w_plus", "--m-odd", "2"])
        assert code == EXIT_CONFIG
        assert "odd" in err

    def test_both_m_and_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["wstate", "--m", "4", "--m-range", "2:5", "--scheme", "w_plus"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["anticlone", "decoherence"])
    @pytest.mark.parametrize("text", ["2.5:4", "2:", "2:3:4", "a:b"])
    def test_malformed_range_names_the_flag_and_the_text(self, capsys, command, text):
        # used to print int()'s message, naming neither
        code, out, err = run_cli(capsys, [command, "--m-range", text])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: m-range must be A:B with integers A and B, got {text!r}\n"

    @pytest.mark.parametrize("command", [["wstate", "--scheme", "w_plus"], ["anticlone"]])
    def test_descending_range_is_empty(self, capsys, command):
        assert run_cli(capsys, [*command, "--m-range", "5:3"]) == (
            EXIT_CONFIG, "", "error: empty m-range '5:3'\n"
        )

    def test_scan_without_m_exits_two(self, capsys):
        assert run_cli(capsys, ["scan"]) == (EXIT_CONFIG, "", "error: scan needs a single --m\n")

    def test_bare_memory_error_is_reported(self, capsys, monkeypatch):
        # a MemoryError with no message still names its cause
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setitem(cli.COMMANDS, "scan", (exhausted, *cli.COMMANDS["scan"][1:]))
        assert run_cli(capsys, ["scan", "--m", "4"]) == (
            EXIT_CONFIG, "", "error: not enough memory\n"
        )

    @pytest.mark.parametrize("command", ["wstate", "decoherence"])
    def test_both_scheme_and_ratio_rejected(self, capsys, command):
        # --r used to win silently over --scheme
        code, _, err = run_cli(capsys, [command, "--m", "3", "--scheme", "w_plus", "--r", "2.0"])
        assert code == EXIT_CONFIG
        assert "--scheme or --r" in err

    def test_unknown_format_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["wstate", "--m", "4", "--scheme", "w_plus", "--format", "xml"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag", DROPPED_FLAGS)
    def test_flag_a_command_does_not_read_exits_two(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_declared_flags_parse(self, command):
        argv = [command]
        for flag in COMMAND_FLAGS[command]:
            argv += [flag, FLAG_VALUES[flag]]
        args = build_parser().parse_args(argv)
        assert args.command == command

    @pytest.mark.parametrize("command", ["wstate", "decoherence"])
    def test_scheme_choices_are_the_named_tags(self, command):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (scheme,) = [a for a in sub.choices[command]._actions if a.dest == "scheme"]
        assert list(scheme.choices) == [tag for tag in SCHEME_TAGS if tag != "custom"]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["wstate", "--m", "4", "--scheme", "w_plus", "--m-odd", "-1"],
            ["decoherence", "--m", "3", "--m-odd", "2"],
            ["wstate", "--m", "0", "--scheme", "w_plus"],
            ["anticlone", "--m", "0"],
            ["decoherence", "--m", "0"],
            ["scan", "--m", "0"],
            ["scan", "--m", "-4"],
            ["check", "--trials", "-1"],
        ],
    )
    def test_invalid_values_are_config_errors(self, capsys, argv):
        # these checks moved from the CLI into the library; none may warn
        # first (`scan --m -4` must not take sqrt(-4) for its default grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["decoherence", "--m", str(10**400)],
            ["wstate", "--m", str(10**400), "--scheme", "w_plus"],
            ["scan", "--m", str(10**400)],
            ["anticlone", "--m", str(10**400)],
            ["wstate", "--m-range", f"2:{10**20}", "--scheme", "w_plus"],
            ["decoherence", "--m-range", f"2:{10**16}"],
            ["check", "--trials", str(10**400)],
        ],
    )
    def test_counts_past_exact_float_range_are_config_errors(self, capsys, argv):
        # these used to end in a TypeError, OverflowError or MemoryError
        # traceback (exit 1), or to hang for `check`
        code, _, err = run_cli(capsys, argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and "2**53" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # a list of 10**15 counts is 8 PB, past any user address space,
            # so each allocation fails at once; never try a count that could fit
            ["anticlone", "--m-range", f"2:{10**15}"],
            ["wstate", "--m-range", f"2:{10**15}", "--scheme", "w_plus"],
            ["decoherence", "--m-range", f"2:{10**15}"],
        ],
    )
    def test_counts_too_large_to_allocate_are_config_errors(self, capsys, argv):
        # numpy's _ArrayMemoryError has a message; a range too long to list
        # used to end in a bare "not enough memory"
        code, _, err = run_cli(capsys, argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err[len("error: "):].strip()
        assert "Traceback" not in err
        if "--m-range" in argv:
            assert err == (
                f"error: --m-range '2:{10**15}' spans {10**15 - 1} qubit counts, "
                "too many to list in memory\n"
            )
