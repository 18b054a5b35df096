"""The README's "Library use" block runs as written against this package,
the package root exports exactly the names that block imports, and every
`nca` command of its "Command line" section parses."""

import math
import pathlib
import re
import shlex
import types

import neural_couplings
from neural_couplings import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), f"{README.name} (Library use)", "exec"), {})
    tod_r, loss = capsys.readouterr().out.split()
    assert float(tod_r) > 0.0
    assert math.isfinite(float(loss)) and float(loss) > 0.0


def test_package_root_exports_only_the_library_use_names():
    imported = re.search(r"from neural_couplings import \((.*?)\)", library_use_block(), re.S)
    names = {name.strip() for name in imported.group(1).split(",") if name.strip()}
    exported = {name for name, value in vars(neural_couplings).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == names
    assert isinstance(neural_couplings.__version__, str)


def command_line_commands():
    """The argument lists of the `nca` commands in the sh blocks of README
    "Command line", each with its backslash continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)\n```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["nca"]:
                commands.append(words[1:])
    return commands


def test_command_line_commands_parse():
    commands = command_line_commands()
    assert {argv[0] for argv in commands} >= {"synth", "train", "couplings", "analyze", "heatmap"}
    for argv in commands:
        assert cli.build_parser().parse_args(argv).command == argv[0]
