"""Documentation drift guards.

The top-level README documents the CLI flag matrix by hand; these tests
pin it to ``repro.cli.build_parser()`` so the two cannot drift apart: a
flag added to the CLI must be documented, and a flag documented in the
README must exist (catching typos and removals). CI runs this alongside
a literal ``python -m repro.cli --help`` smoke.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

#: Long flags the README may mention that are not defined by our parser
#: (argparse adds --help implicitly; --port/--database belong to
#: examples/synthesis_service.py, quoted in the Serving section;
#: --workload/--seconds/--trace to perfbench/run.py, the benchmark).
ALLOWED_FOREIGN_FLAGS = {"--help", "--port", "--database", "--workload",
                         "--seconds", "--trace"}


def cli_surface():
    """(subcommand -> set of long flags) straight from the parser."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    surface = {}
    for name, sub in subparsers.choices.items():
        flags = set()
        for action in sub._actions:
            flags.update(opt for opt in action.option_strings
                         if opt.startswith("--"))
        flags.discard("--help")
        surface[name] = flags
    return surface


@pytest.fixture(scope="module")
def readme_text():
    assert README.exists(), "top-level README.md is missing"
    return README.read_text(encoding="utf-8")


def test_every_cli_flag_is_documented(readme_text):
    missing = []
    for command, flags in cli_surface().items():
        for flag in sorted(flags):
            if flag not in readme_text:
                missing.append(f"{command} {flag}")
    assert not missing, \
        f"CLI flags absent from README.md: {missing} — update the flag " \
        f"matrix (and run python -m repro.cli --help to see them)"


def test_every_cli_subcommand_is_documented(readme_text):
    missing = [name for name in cli_surface()
               if not re.search(rf"\b{re.escape(name)}\b", readme_text)]
    assert not missing, f"CLI subcommands absent from README.md: {missing}"


def test_readme_mentions_no_unknown_flags(readme_text):
    known = set().union(*cli_surface().values()) | ALLOWED_FOREIGN_FLAGS
    mentioned = set(re.findall(r"--[a-z][a-z0-9-]*", readme_text))
    unknown = sorted(mentioned - known)
    assert not unknown, \
        f"README.md documents flags the CLI does not define: {unknown}"


def test_help_renders_for_every_subcommand(capsys):
    """The literal drift-guard command CI runs must keep working."""
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["--help"])
    assert excinfo.value.code == 0
    assert "duoquest" in capsys.readouterr().out
