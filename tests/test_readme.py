"""The README's library quick start runs as written, and its CLI commands
parse."""

import math
import re
import shlex
from pathlib import Path

from delaybandits import cli

README = Path(__file__).parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
    assert math.isfinite(float(capsys.readouterr().out))


def readme_commands() -> list:
    """Arguments of every ``delaybandits`` command in the README's sh
    blocks, with continuation lines joined and comments stripped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["delaybandits"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    # nothing is executed: each command must parse, and each run and sweep
    # must give a spec that its construction accepts
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "sweep", "analyze", "verify"}
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if args.command in ("run", "sweep"):
            cli._spec_from_args(args)
