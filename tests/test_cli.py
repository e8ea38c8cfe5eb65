"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_args(self):
        args = build_parser().parse_args(
            ["demo", "list authors", "--top", "5"])
        assert args.nlq == "list authors"
        assert args.top == 5

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.split == "dev"
        assert args.verify_backend == "threads"
        assert args.workers == 1

    def test_verify_backend_choices(self):
        args = build_parser().parse_args(
            ["demo", "list authors", "--verify-backend", "threads",
             "--workers", "2"])
        assert args.verify_backend == "threads"
        assert args.workers == 2
        for backend in ("fibers", "processes"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["demo", "list authors", "--verify-backend", backend])

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_workers_below_one_rejected(self, bad, capsys):
        """--workers 0 used to be silently clamped to inline; now the
        parser rejects it with a clear message."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["demo", "list authors", "--workers", bad])
        err = capsys.readouterr().err
        assert "must be >= 1" in err

    def test_guidance_flag_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.guidance_batch is False
        assert args.guidance_cache_size == 4096
        assert args.guidance_server is None

    def test_guidance_flags_parse(self):
        args = build_parser().parse_args(
            ["demo", "list authors", "--guidance-batch",
             "--guidance-cache-size", "128",
             "--guidance-server", "127.0.0.1:8765"])
        assert args.guidance_batch is True
        assert args.guidance_cache_size == 128
        assert args.guidance_server == "127.0.0.1:8765"

    def test_guidance_cache_size_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["demo", "list authors", "--guidance-cache-size", "0"])
        assert "must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 3" in out
        assert "Table 4" in out

    def test_simulate_tiny(self, capsys):
        code = main(["simulate", "--databases", "2", "--tasks", "2",
                     "--timeout", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "Figure 11" in out

    def test_demo_runs(self, capsys):
        code = main(["demo", 'List authors in domain "Databases".',
                     "--top", "3", "--timeout", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT" in out

    def test_demo_processes_backend(self, capsys):
        """The process backend is gone: asking for it is a usage error
        that names the backends that remain."""
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", 'List authors in domain "Databases".',
                  "--verify-backend", "processes", "--workers", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'processes'" in err
        assert "'threads'" in err

    def test_demo_threads_backend(self, capsys):
        code = main(["demo", 'List authors in domain "Databases".',
                     "--top", "3", "--timeout", "5",
                     "--verify-backend", "threads", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT" in out
        assert "x2 threads]" in out  # telemetry line names the backend

    def test_demo_inline_with_workers_errors(self, capsys):
        code = main(["demo", "list authors", "--verify-backend", "inline",
                     "--workers", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "inline" in err

    def test_demo_guidance_batch_reports_amortisation(self, capsys):
        code = main(["demo", 'List authors in domain "Databases".',
                     "--top", "3", "--timeout", "5", "--guidance-batch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT" in out
        assert "[guidance]" in out

    def test_demo_bad_guidance_server_address_errors(self, capsys):
        """A malformed HOST:PORT is a config error (exit 2), not a
        degrade — degrading is for servers that fail at runtime."""
        code = main(["demo", "list authors",
                     "--guidance-server", "nonsense"])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_simulate_guidance_batch_prints_summary(self, capsys):
        code = main(["simulate", "--databases", "2", "--tasks", "2",
                     "--timeout", "2", "--guidance-batch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GuideCalls" in out and "GuideHits" in out
        assert "[guidance]" in out
