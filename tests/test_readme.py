"""The README's examples run as written.

Each fenced Python block is one case, and so is each ``fussnarayana``
line of the shell blocks, run in-process through ``cli.main`` in a
scratch directory with any ``FN_BUDGET=...`` prefix set.  The Monte
Carlo gate line reads the session's one run of that command, which the
acceptance gate shares.
"""

import re
import shlex
from pathlib import Path

import pytest

from conftest import CRITERION_08_ARGV
from fussnarayana import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
SH_LINES = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
    for line in block.splitlines()
]
COMMANDS = [line for line in SH_LINES if re.match(r"(FN_BUDGET=\S+ )?fussnarayana ", line)]
# commands whose output the README shows, on their line or in the comment lines below
DOCUMENTED = {
    "fussnarayana enumerate -p 2 -k 3 --count": "12\n",
    "FN_BUDGET=18 fussnarayana enumerate -p 1 -k 9 --count": "4862\n",
    "fussnarayana moments -t 1,1/2,2 -K 3": "k,moment\n1,1\n2,9/2\n3,109/4\n",
}


def shown_output(command: str) -> str:
    """What the README shows ``command`` printing: the number on its line, else the comments below."""
    for index, line in enumerate(SH_LINES):
        code, _, comment = line.partition("#")
        if code.strip() == command:
            if comment:
                return re.match(r"\s*(\d+)\b", comment).group(1) + "\n"
            below = []
            for after in SH_LINES[index + 1:]:
                if not after.startswith("# "):
                    break
                below.append(after[2:] + "\n")
            return "".join(below)
    raise AssertionError(f"{command!r} is not in the README")


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_shows_the_documented_outputs():
    assert len(COMMANDS) == 14
    for command, out in DOCUMENTED.items():
        assert shown_output(command) == out, command


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys, request):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FN_BUDGET", raising=False)
    words = shlex.split(line, comments=True)
    while "=" in words[0]:
        name, _, value = words.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    assert words.pop(0) == "fussnarayana"
    if words == CRITERION_08_ARGV:
        # the acceptance gate runs the same command; both read one run
        assert request.getfixturevalue("criterion_08_run")[0] == 0
    else:
        assert cli.main(words) == 0
    command = line.partition("#")[0].strip()
    if command in DOCUMENTED:
        assert capsys.readouterr().out == DOCUMENTED[command]
