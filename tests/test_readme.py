"""Every `curvecount` command shown in README.md runs and prints the value its
`# N` comment promises."""

import re
import shlex
from pathlib import Path

import pytest

from curvecount import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines += block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("curvecount ")]


def test_readme_shows_commands():
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command(capsys, line):
    argv = shlex.split(line, comments=True)
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if (value := re.search(r"#\s*(\S+)\s*$", line)) is not None:
        assert out.splitlines()[0].endswith(f": {value[1]}"), out
