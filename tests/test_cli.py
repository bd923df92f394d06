"""CLI tests (parser wiring plus one fast end-to-end command)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_read_sigma_requires_spec_or_target(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["read-sigma"])

    def test_spec_and_target_mutually_exclusive(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["read-sigma", "--spec-ps", "55",
                               "--target-sigma", "4"])

    def test_defaults(self):
        args = build_parser().parse_args(["read-sigma", "--spec-ps", "55"])
        assert args.vdd == 1.0
        assert args.budget == 4000
        assert args.spec_ps == 55.0

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["read-sigma", "--spec-ps", "50"],
            ["read-sigma", "--spec-ps", "60", "--system", "--sa-model", "latch"],
            ["write-sigma", "--target-sigma", "4"],
            ["sa-sigma", "--spec-mv", "80"],
            ["column-sigma", "--spec-ps", "60", "--leakers", "7",
             "--assembly", "sparse"],
            ["array-sigma", "--spec-ps", "60", "--cols", "4", "--leakers", "7",
             "--assembly", "sparse", "--solver", "schur"],
            ["snm", "--vdd", "0.8"],
            ["compare", "--target-sigma", "3.5"],
        ):
            assert parser.parse_args(argv) is not None

    def test_column_sigma_defaults(self):
        args = build_parser().parse_args(["column-sigma", "--spec-ps", "60"])
        assert args.leakers == 15
        assert args.leaker_data == "adversarial"
        assert args.assembly == "auto"

    def test_column_sigma_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["column-sigma"])

    def test_array_sigma_defaults(self):
        args = build_parser().parse_args(["array-sigma", "--spec-ps", "60"])
        assert args.cols == 4
        assert args.leakers == 15
        assert args.assembly == "auto"
        assert args.solver == "auto"

    def test_array_sigma_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["array-sigma"])


class TestArgumentValidation:
    """Bad arguments must exit with the usage message (status 2), never a
    traceback — the contract argparse's type/choices machinery gives us."""

    @pytest.mark.parametrize("argv", [
        ["array-sigma", "--spec-ps", "60", "--cols", "0"],
        ["array-sigma", "--spec-ps", "60", "--cols", "-2"],
        ["array-sigma", "--spec-ps", "60", "--cols", "two"],
        ["array-sigma", "--spec-ps", "60", "--leakers", "-3"],
        ["column-sigma", "--spec-ps", "60", "--leakers", "0"],
        ["column-sigma", "--spec-ps", "60", "--leakers", "1.5"],
    ])
    def test_non_positive_counts_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "integer" in err

    @pytest.mark.parametrize("argv", [
        ["array-sigma", "--spec-ps", "60", "--assembly", "coo"],
        ["column-sigma", "--spec-ps", "60", "--assembly", "turbo"],
        ["array-sigma", "--spec-ps", "60", "--solver", "lu"],
    ])
    def test_bad_choice_rejected_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err

    def test_system_requires_explicit_spec(self, capsys):
        from repro.cli import main

        assert main(["read-sigma", "--target-sigma", "4", "--system"]) == 2
        assert "--spec-ps" in capsys.readouterr().out

    def test_non_positive_n_steps_rejected(self, capsys):
        # Refused by request validation (A003) before anything compiles.
        code = main(["read-sigma", "--spec-ps", "55", "--n-steps", "0"])
        assert code == 2
        assert "n_steps" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["read-sigma", "write-sigma"])
    def test_bad_knob_refused_before_calibration(self, command, monkeypatch, capsys):
        import repro.experiments.workloads as workloads

        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated before validating the request")

        monkeypatch.setattr(workloads, "calibrate_read_spec", calibrate)
        monkeypatch.setattr(workloads, "calibrate_write_spec", calibrate)
        code = main([command, "--target-sigma", "4", "--n-steps", "0"])
        assert code == 2
        out = capsys.readouterr().out
        assert "A003" in out and "n_steps" in out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFaultToleranceFlags:
    def test_shard_timeout_parses(self):
        args = build_parser().parse_args(["read-sigma", "--spec-ps", "55"])
        assert args.shard_timeout is None
        args = build_parser().parse_args([
            "read-sigma", "--spec-ps", "55", "--shard-timeout", "300",
        ])
        assert args.shard_timeout == 300.0

    @pytest.mark.parametrize(
        "flags", [["--retries", "2"], ["--journal", "run.journal"], ["--resume"]]
    )
    def test_recovery_flags_are_unknown(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["read-sigma", "--spec-ps", "55", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["0", "-5"])
    def test_non_positive_shard_timeout_rejected(self, seconds, capsys):
        # Refused by request validation (A003) before anything compiles.
        code = main([
            "read-sigma", "--spec-ps", "55", "--shard-timeout", seconds,
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "shard_timeout" in out and "A003" in out

    def test_timed_run_prints_the_untimed_estimate(self, capsys):
        argv = [
            "read-sigma", "--spec-ps", "55", "--budget", "1200",
            "--n-steps", "250", "--rel-err", "0.2",
            "--workers", "2", "--shards", "2",
        ]
        assert main(argv) == 0
        untimed = capsys.readouterr().out
        assert main(argv + ["--shard-timeout", "300"]) == 0
        timed = capsys.readouterr().out
        line = next(l for l in untimed.splitlines() if "p_fail" in l)
        assert line in timed


class TestExecution:
    def test_snm_command_runs(self, capsys):
        assert main(["snm", "--vdd", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "hold SNM" in out
        assert "read SNM" in out

    def test_read_sigma_command_runs(self, capsys):
        code = main([
            "read-sigma", "--spec-ps", "55", "--budget", "1200",
            "--n-steps", "250", "--rel-err", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma" in out
        assert "p_fail" in out
