"""The package's public surface: the names it exports and the CLI commands
README shows."""

import re
import shlex
from pathlib import Path

import nesteb
from nesteb.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(nesteb.__all__)) == len(nesteb.__all__)
    assert [name for name in nesteb.__all__ if not hasattr(nesteb, name)] == []


def test_readme_commands_parse():
    # every `nesteb ...` line of README's sh blocks, continuation lines joined
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("nesteb ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    # each command has an example
    assert {argv[1] for argv in commands} == {"estimate", "tune", "simulate", "bias", "expfam", "prep-gap"}
