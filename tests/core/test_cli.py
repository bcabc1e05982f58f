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


#: Every subcommand, with the arguments it cannot be parsed without.
COMMANDS = {
    "adoption": [],
    "internet-scale": [],
    "defenses": [],
    "webmail": [],
    "mta-survey": [],
    "kelihos": [],
    "deployment": [],
    "synergy": [],
    "adaptation": [],
    "dialects": [],
    "variants": [],
    "filter": [],
    "serve": [],
    "serve-load": ["--port", "1"],
    "scorecard": [],
}

#: Each global flag that only some commands read: the flag, a value for it
#: (``None`` for a switch) and the commands that read it, as the usage
#: error names them.
SCOPED_FLAGS = [
    (
        "--seed",
        "7",
        "adoption, internet-scale, defenses, kelihos, deployment, synergy, "
        "dialects, filter, serve-load and scorecard",
    ),
    ("--workers", "1", "adoption, internet-scale, synergy, scorecard and serve"),
    ("--cache", None, "adoption, internet-scale and synergy"),
    ("--store-backend", "sqlite", "serve"),
    ("--store-path", "{path}", "serve"),
    ("--fault-rate", "0.5", "adoption"),
    ("--fault-seed", "3", "adoption"),
]


def readers(names):
    """The commands a usage error's ``a, b and c`` names."""
    return names.replace(" and ", ", ").split(", ")


def flag_argv(flag, value, path):
    return [flag] if value is None else [flag, value.format(path=path)]


def assert_usage_error(argv, message, capsys):
    """``main(argv)`` exits 2 before running, ``message`` its last line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"repro: error: {message}"


class TestParser:
    @pytest.fixture(autouse=True)
    def no_daemon(self, monkeypatch):
        # A usage error must stop the run before a daemon starts: if a
        # check regresses, the test fails here instead of serving forever.
        import repro.serve.daemon

        def serve(args):
            raise AssertionError("the policy daemon started")

        monkeypatch.setattr(repro.serve.daemon, "serve", serve)

    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(sub.choices) == set(COMMANDS)

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

    @pytest.mark.parametrize(
        "argv, retired",
        [
            (["adoption", "--engine", "batch"], "batch"),
            (["internet-scale", "--engine", "batch"], "batch"),
            (["--store-backend", "journal", "kelihos"], "journal"),
        ],
        ids=["adoption", "internet-scale", "journal-store"],
    )
    def test_retired_choice_rejected(self, argv, retired, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("rate", ["0.5", repr(2 / 3)])
    def test_fault_rate_up_to_two_thirds_runs(self, rate, capsys):
        # SERVFAILs at the rate plus timeouts at half of it reach 1 at 2/3.
        assert main(["--fault-rate", rate, "adoption", "--domains", "60"]) == 0
        assert "Using nolisting" in capsys.readouterr().out

    @pytest.mark.parametrize("rate", ["0.67", "1"])
    def test_fault_rate_above_two_thirds_rejected(self, rate, capsys):
        assert_usage_error(
            ["--fault-rate", rate, "adoption", "--domains", "60"],
            f"--fault-rate {float(rate)}: dns_servfail_rate + dns_timeout_rate > 1",
            capsys,
        )

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
            (
                ["--fault-rate", "0.9", "adoption", "--domains", "100"],
                "--fault-rate 0.9: dns_servfail_rate + dns_timeout_rate > 1",
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
        "argv, message",
        [
            (
                ["--store-path", "{path}", "kelihos", "--messages", "5"],
                "--store-path applies only to serve",
            ),
            (
                ["--store-backend", "sqlite", "--store-path", "{path}",
                 "internet-scale"],
                "--store-backend applies only to serve",
            ),
            (
                ["--store-backend", "sqlite", "--store-path", "{path}",
                 "synergy"],
                "--store-backend applies only to serve",
            ),
            (
                ["--store-path", "{path}", "serve"],
                "--store-path needs a --store-backend other than memory",
            ),
        ],
        ids=["kelihos-memory", "internet-scale", "synergy", "serve-memory"],
    )
    def test_store_path_rejected_where_it_would_be_ignored(
        self, argv, message, tmp_path, capsys
    ):
        # These used to exit 0 and write no file.
        path = tmp_path / "triplets.db"
        assert_usage_error(
            [arg.format(path=path) for arg in argv], message, capsys
        )
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--store-backend", "sqlite", "--store-path", "{path}",
                 "kelihos", "--messages", "5"],
                "--store-backend applies only to serve",
            ),
            (
                ["--store-backend", "memory", "internet-scale"],
                "--store-backend applies only to serve",
            ),
            (
                ["--store-backend", "shm", "synergy"],
                "--store-backend applies only to serve",
            ),
            (
                ["--fault-rate", "0.5", "--fault-seed", "3", "kelihos",
                 "--messages", "20"],
                "--fault-rate applies only to adoption",
            ),
            (
                ["--fault-rate", "0", "serve"],
                "--fault-rate applies only to adoption",
            ),
        ],
        ids=[
            "store-backend-kelihos",
            "store-backend-memory-internet-scale",
            "store-backend-synergy",
            "fault-flags-kelihos",
            "fault-rate-zero-serve",
        ],
    )
    def test_global_flag_rejected_where_the_command_ignores_it(
        self, argv, message, tmp_path, capsys
    ):
        # A run must not silently ignore a flag it was given, not even one
        # that names the default value.
        path = tmp_path / "triplets.db"
        assert_usage_error(
            [arg.format(path=path) for arg in argv], message, capsys
        )
        assert not path.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_scoped_flags_refused_by_every_other_command(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "triplets.db"
        for flag, value, names in SCOPED_FLAGS:
            if command not in readers(names):
                assert_usage_error(
                    [*flag_argv(flag, value, path), command, *COMMANDS[command]],
                    f"{flag} applies only to {names}",
                    capsys,
                )
        assert not path.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_scoped_flags_accepted_by_every_command_that_reads_them(
        self, command, monkeypatch, tmp_path
    ):
        import repro.cli

        ran = []
        monkeypatch.setattr(
            repro.cli,
            "_cmd_" + command.replace("-", "_"),
            lambda args: ran.append(args) or 0,
        )
        path = tmp_path / "triplets.db"
        for flag, value, names in SCOPED_FLAGS:
            if command in readers(names):
                argv = flag_argv(flag, value, path)
                if flag == "--store-path":
                    argv = ["--store-backend", "sqlite", *argv]
                assert main([*argv, command, *COMMANDS[command]]) == 0
        assert len(ran) == sum(
            command in readers(names) for _, _, names in SCOPED_FLAGS
        )

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_shm_capacity_needs_the_shm_backend(self, backend, capsys):
        # Used to be ignored: only the shm backend reads the capacity.
        assert_usage_error(
            ["--store-backend", backend, "serve", "--shm-capacity", "1024"],
            "--shm-capacity needs --store-backend shm",
            capsys,
        )

    @pytest.mark.parametrize("flag", ["--connections", "--requests"])
    def test_serve_load_check_refuses_load_flags(self, flag, capsys):
        # Used to be ignored: --check replays the trace in order over one
        # connection.
        assert_usage_error(
            ["serve-load", "--port", "1", "--check", flag, "5"],
            f"{flag} applies only to the load phase, not --check",
            capsys,
        )

    def test_serve_load_defaults_stand_with_and_without_check(self, monkeypatch):
        import repro.cli

        ran = []
        monkeypatch.setattr(
            repro.cli, "_cmd_serve_load", lambda args: ran.append(args) or 0
        )
        assert main(["serve-load", "--port", "1"]) == 0
        assert main(["serve-load", "--port", "1", "--check"]) == 0
        assert [(args.connections, args.requests) for args in ran] == [
            (100, 10000),
            (100, 10000),
        ]

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
            "build_parser().parse_args(['--store-backend', 'shm', 'serve'])\n"
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

    def test_synergy_sweep_reads_workers_and_cache(
        self, capsys, monkeypatch, tmp_path
    ):
        # Both flags used to be ignored: the sweep ran serially and
        # cached nothing.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["--workers", "2", "--cache", "synergy"]) == 0
        cold = capsys.readouterr().out
        entries = sorted((tmp_path / "synergy-delay").glob("*.json"))
        assert len(entries) == 4  # one per swept greylist delay
        written = [entry.stat().st_mtime_ns for entry in entries]
        assert main(["--workers", "2", "--cache", "synergy"]) == 0
        assert capsys.readouterr().out == cold
        assert sorted((tmp_path / "synergy-delay").glob("*.json")) == entries
        assert [entry.stat().st_mtime_ns for entry in entries] == written
        assert main(["synergy"]) == 0
        assert capsys.readouterr().out == cold

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
    """A busy port, an absent daemon or a triplet store that cannot be
    opened is one error line, not a traceback."""

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

    @pytest.mark.parametrize(
        "argv, store, reason",
        [
            (
                ["--store-backend", "sqlite", "--store-path", "{path}",
                 "serve", "--port", "0"],
                "missing/x.db",
                "unable to open database file",
            ),
            (
                ["--store-backend", "sqlite", "--store-path", "{path}",
                 "serve", "--port", "0"],
                "old.snap",
                "file is not a database",
            ),
            (
                ["--store-backend", "shm", "--store-path", "{path}",
                 "serve", "--port", "0"],
                "missing/x.shm",
                "No such file or directory",
            ),
            (
                ["--workers", "2", "--store-backend", "shm", "--store-path",
                 "{path}", "serve", "--port", "0"],
                "missing/x.shm",
                "No such file or directory",
            ),
            (
                ["--store-backend", "shm", "--store-path", "{path}",
                 "serve", "--port", "0"],
                "old.snap",
                "not a shm sentinel file",
            ),
        ],
        ids=[
            "serve-sqlite-missing-dir",
            "serve-sqlite-not-a-database",
            "serve-shm-missing-dir",
            "two-workers-shm-missing-dir",
            "serve-shm-not-a-sentinel",
        ],
    )
    def test_unopenable_store_exits_1_with_one_error_line(
        self, argv, store, reason, tmp_path
    ):
        path = tmp_path / store
        if store == "old.snap":
            # A v1 text snapshot: neither a database nor a shm sentinel.
            path.write_text(
                "# repro-greylist-db v1\n"
                "198.51.100.1 s@x.example r@y.example 0.0 0.0 1 -\n",
                encoding="utf-8",
            )
        result = run_cli(*(arg.format(path=path) for arg in argv))
        assert result.returncode == 1, result.stderr
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"error: cannot open triplet store {path}: {reason}"
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
