"""Every `curvecount` command and the Python example shown in README.md run
and print what their comments promise."""

import contextlib
import io
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


def library_example() -> str:
    """The Python block of README's Library section."""
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_readme_library_example():
    # each print's comment begins with the line it prints
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    comments = [line.partition("# ")[2] for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) >= 3
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)
    assert "440884080" in printed
