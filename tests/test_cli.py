import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    build_parser,
    main,
    run_check_suites,
)
from qcm.model import ConfigurationError

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


    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_config_error(self, capsys, alpha):
        # used to exit 2 with the misleading "amplitudes must be finite"
        code, out, err = run_cli(capsys, ["anticlone", "--m", "3", "--alpha", alpha])
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"alpha must be finite, got {alpha}" in err


class TestDecoherenceCommand:
    def test_default_rates_and_survival(self, capsys):
        code, out, _ = run_cli(capsys, ["decoherence"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 2 * 19  # both schemes over M = 2..20
        assert all(float(row["p_no_click"]) >= 0.97 for row in rows)

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


class TestScanCommand:
    def test_optimizer_rows_locate_m4_pair(self, capsys):
        code, out, _ = run_cli(capsys, ["scan", "--m", "4"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        by_kind = {row["kind"]: row for row in rows if row["kind"] != "grid"}
        assert float(by_kind["w_symmetry_low"]["r"]) == pytest.approx(1.0, abs=1e-6)
        assert float(by_kind["w_symmetry_high"]["r"]) == pytest.approx(3.0, abs=1e-6)
        assert float(by_kind["separable_transfer"]["r"]) == pytest.approx(
            np.sqrt(3.0), abs=1e-6
        )

    def test_m3_transfer_optimum(self, capsys):
        _, out, _ = run_cli(capsys, ["scan", "--m", "3"])
        _, rows = parse_csv(out)
        by_kind = {row["kind"]: row for row in rows if row["kind"] != "grid"}
        assert float(by_kind["separable_transfer"]["r"]) == pytest.approx(
            1.414214, abs=1e-6
        )

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", "2.0:1.0:5"])
        assert code == EXIT_CONFIG
        assert "empty r-grid" in err

    def test_grid_must_be_well_formed(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--m", "4", "--r-grid", "1.0:2.0"])
        assert code == EXIT_CONFIG


class TestOutputModes:
    def test_json_mirrors_csv_columns(self, capsys):
        _, out_csv, _ = run_cli(capsys, ["wstate", "--m", "4", "--scheme", "w_plus"])
        _, out_json, _ = run_cli(
            capsys, ["wstate", "--m", "4", "--scheme", "w_plus", "--format", "json"]
        )
        headers, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert list(payload[0].keys()) == headers
        assert payload[0]["classification"] == rows[0]["classification"]
        assert payload[0]["r"] == pytest.approx(float(rows[0]["r"]), abs=1e-15)

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
