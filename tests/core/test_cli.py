"""Tests for the command-line interface."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def run_cli(*argv):
    """``python -m repro *argv`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def free_port():
    """A port nothing listens on (bound once, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(sub.choices) == {
            "adoption",
            "internet-scale",
            "defenses",
            "webmail",
            "mta-survey",
            "kelihos",
            "deployment",
            "synergy",
            "adaptation",
            "dialects",
            "variants",
            "filter",
            "serve",
            "serve-load",
            "scorecard",
        }

    def test_profile_flags_parsed(self):
        args = build_parser().parse_args(
            ["--profile", "--profile-out", "out.prof", "adoption"]
        )
        assert args.profile is True
        assert args.profile_out == "out.prof"

    def test_profile_defaults_off(self):
        args = build_parser().parse_args(["adoption"])
        assert args.profile is False
        assert args.profile_out is None

    def test_engine_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adoption", "--engine", "warp"])

    @pytest.mark.parametrize("command", ["adoption", "internet-scale"])
    def test_engine_defaults_to_columnar(self, command):
        assert build_parser().parse_args([command]).engine == "columnar"

    @pytest.mark.parametrize("command", ["adoption", "internet-scale"])
    def test_retired_batch_engine_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--engine", "batch"])
        assert exc.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fault_flags_parsed(self):
        args = build_parser().parse_args(
            ["--fault-rate", "0.05", "--fault-seed", "9", "adoption"]
        )
        assert args.fault_rate == 0.05
        assert args.fault_seed == 9

    def test_fault_rate_defaults_off(self):
        args = build_parser().parse_args(["adoption"])
        assert args.fault_rate == 0.0
        assert args.fault_seed is None

    def test_fault_rate_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--fault-rate", "1.5", "adoption"])

    @pytest.mark.parametrize("command", ["adoption", "internet-scale"])
    @pytest.mark.parametrize("domains", ["0", "-3"])
    def test_non_positive_domains_rejected(self, command, domains, capsys):
        # A usage error (exit 2), not a traceback from deep in the run.
        with pytest.raises(SystemExit) as exc:
            main([command, "--domains", domains])
        assert exc.value.code == 2
        assert "domain count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["kelihos", "deployment"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--messages", "0", "message count must be >= 1"),
            ("--messages", "-3", "message count must be >= 1"),
            ("--threshold", "-1", "threshold must be finite and >= 0"),
            ("--threshold", "nan", "threshold must be finite and >= 0"),
        ],
    )
    def test_bad_greylist_inputs_rejected(self, command, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_internet_scale_empty_wave_rejected(self, value, capsys):
        # A wave with no spam used to print a table of 0.00 % rows.
        with pytest.raises(SystemExit) as exc:
            main(["internet-scale", "--messages", value])
        assert exc.value.code == 2
        assert "message count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_webmail_bad_threshold_rejected(self, value, capsys):
        # Used to die with a ValueError traceback from GreylistPolicy.
        with pytest.raises(SystemExit) as exc:
            main(["webmail", "--threshold", value])
        assert exc.value.code == 2
        assert "threshold must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--delay", "-5"], "threshold must be finite and >= 0"),
            (["serve", "--delay", "nan"], "threshold must be finite and >= 0"),
            (
                ["serve", "--throttle-max", "5", "--throttle-period", "0"],
                "throttle period must be finite and > 0",
            ),
            (
                ["serve-load", "--port", "1", "--connections", "0"],
                "connection count must be >= 1",
            ),
            (
                ["serve-load", "--port", "1", "--requests", "0"],
                "request count must be >= 1",
            ),
            (
                ["serve-load", "--port", "1", "--messages", "0"],
                "message count must be >= 1",
            ),
            (
                ["serve-load", "--port", "1", "--delay", "nan"],
                "threshold must be finite and >= 0",
            ),
            (["scorecard", "--scale", "0"], "scale must be finite and > 0"),
            (["scorecard", "--scale", "nan"], "scale must be finite and > 0"),
            (["dialects", "--sessions", "0"], "session count must be >= 1"),
            (["defenses", "--recipients", "0"], "recipient count must be >= 1"),
            (["serve", "--port", "-1"], "port must lie in [0, 65535]"),
            (["serve", "--port", "70000"], "port must lie in [0, 65535]"),
            (["serve-load", "--port", "70000"], "port must lie in [0, 65535]"),
            (
                ["--store-backend", "shm", "serve", "--shm-capacity", "0"],
                "record count must be >= 64",
            ),
            (
                ["serve", "--throttle-max", "-5"],
                "throttle message count must be >= 0",
            ),
            (["--workers", "-1", "serve"], "worker count must be >= 0"),
            (
                ["adoption", "--domains", "4194305"],
                "address_space 10.0.0.0/8 too small for 4194305 domains",
            ),
        ],
    )
    def test_bad_numeric_flags_rejected(self, argv, message, capsys):
        # Each used to end in a traceback (ValueError, ZeroDivisionError,
        # OverflowError, or for --scale nan a TaskFailure after every
        # section had run), or, for --throttle-max -5, to serve with no
        # throttle at all.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--store-path", "{path}", "kelihos", "--messages", "5"],
            ["--store-backend", "sqlite", "--store-path", "{path}", "internet-scale"],
            ["--store-backend", "sqlite", "--store-path", "{path}", "synergy"],
            ["--store-path", "{path}", "serve"],
        ],
        ids=["kelihos-memory", "internet-scale", "synergy", "serve-memory"],
    )
    def test_store_path_rejected_where_it_would_be_ignored(
        self, argv, tmp_path, capsys
    ):
        # These used to exit 0 and write no file.
        path = tmp_path / "triplets.db"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(path=path) for arg in argv])
        assert exc.value.code == 2
        assert "--store-path applies only to kelihos and serve" in (
            capsys.readouterr().err
        )
        assert not path.exists()

    def test_shm_minimum_is_the_backends(self):
        from repro.greylist.shm import PROBE_WINDOW

        args = build_parser().parse_args(
            ["serve", "--shm-capacity", str(PROBE_WINDOW)]
        )
        assert args.shm_capacity == PROBE_WINDOW

    def test_parsing_leaves_the_shm_backend_unloaded(self):
        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser().parse_args(['--store-backend', 'shm', 'kelihos'])\n"
            "print('repro.greylist.shm' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=60,
        )
        assert result.stdout.strip() == "False"

    def test_non_integer_count_names_the_type(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dialects", "--sessions", "many"])
        assert exc.value.code == 2
        assert "invalid integer value: 'many'" in capsys.readouterr().err


class TestCommands:
    def test_mta_survey(self, capsys):
        assert main(["mta-survey"]) == 0
        out = capsys.readouterr().out
        assert "sendmail" in out and "exchange" in out

    def test_webmail_small_threshold(self, capsys):
        assert main(["webmail", "--threshold", "300"]) == 0
        out = capsys.readouterr().out
        assert "gmail.com" in out

    def test_kelihos_default_threshold(self, capsys):
        assert main(["kelihos", "--messages", "20"]) == 0
        out = capsys.readouterr().out
        assert "CDF" in out

    def test_kelihos_store_path_writes_the_database(self, tmp_path, capsys):
        path = tmp_path / "kelihos.db"
        argv = ["--store-backend", "sqlite", "--store-path", str(path)]
        assert main([*argv, "kelihos", "--messages", "5"]) == 0
        assert "CDF" in capsys.readouterr().out
        assert path.exists()

    def test_kelihos_long_threshold_prints_figure4(self, capsys):
        assert main(["kelihos", "--threshold", "21600", "--messages", "10"]) == 0
        out = capsys.readouterr().out
        assert "retransmission" in out

    def test_deployment(self, capsys):
        assert main(["deployment", "--messages", "300"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "delivered" in out

    def test_adoption(self, capsys):
        assert main(["--seed", "42", "adoption", "--domains", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Using nolisting" in out

    def test_adoption_with_faults(self, capsys):
        assert (
            main(
                [
                    "--seed",
                    "42",
                    "--fault-rate",
                    "0.02",
                    "adoption",
                    "--domains",
                    "2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Using nolisting" in out

    @pytest.mark.parametrize(
        "command",
        [
            ["adoption", "--domains", "1000"],
            ["internet-scale", "--domains", "300", "--messages", "150"],
        ],
        ids=["adoption", "internet-scale"],
    )
    def test_object_engine_prints_what_the_default_prints(self, command, capsys):
        assert main(["--seed", "42", *command]) == 0
        default_out = capsys.readouterr().out
        assert main(["--seed", "42", *command, "--engine", "object"]) == 0
        assert capsys.readouterr().out == default_out

    def test_internet_scale(self, capsys):
        assert main(["internet-scale", "--domains", "5000", "--messages", "200"]) == 0
        out = capsys.readouterr().out
        assert "Greylisting" in out and "(5000 domains)" in out

    def test_profile_report_on_stderr(self, capsys):
        assert main(["--profile", "mta-survey"]) == 0
        captured = capsys.readouterr()
        assert "sendmail" in captured.out
        assert "cumulative" in captured.err

    def test_profile_out_writes_stats(self, capsys, tmp_path):
        target = tmp_path / "run.prof"
        assert main(["--profile-out", str(target), "mta-survey"]) == 0
        capsys.readouterr()
        assert target.exists() and target.stat().st_size > 0

    def test_defenses(self, capsys):
        assert main(["defenses", "--recipients", "2"]) == 0
        out = capsys.readouterr().out
        assert "Kelihos/sample1" in out
        assert "both combined" in out

    def test_synergy(self, capsys):
        assert main(["synergy"]) == 0
        out = capsys.readouterr().out
        assert "both" in out

    def test_adaptation(self, capsys):
        assert main(["adaptation"]) == 0
        out = capsys.readouterr().out
        assert "Combined" in out

    def test_dialects(self, capsys):
        assert main(["dialects", "--sessions", "100"]) == 0
        out = capsys.readouterr().out
        assert "bot precision" in out

    def test_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "full-triplet" in out

    def test_filter(self, capsys):
        assert main(["filter"]) == 0
        out = capsys.readouterr().out
        assert "post-acceptance" in out


class TestServeStartupErrors:
    """A busy port or an absent daemon is one error line, not a traceback."""

    @pytest.mark.parametrize(
        "global_args",
        [[], ["--workers", "2", "--store-backend", "shm"]],
        ids=["single", "two-workers"],
    )
    def test_busy_port_exits_1_with_one_error_line(self, global_args):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            result = run_cli(*global_args, "serve", "--port", str(port))
        assert result.returncode == 1, result.stderr
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"error: cannot listen on 127.0.0.1:{port}: Address already in use"
        ]

    @pytest.mark.parametrize("mode", [["--check"], ["--connections", "2"]])
    def test_serve_load_without_a_daemon_exits_1(self, mode, capsys):
        port = free_port()
        argv = ["serve-load", "--port", str(port), "--messages", "5", *mode]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot reach 127.0.0.1:{port}: Connection refused"
        ]
