"""The README's examples run as printed."""

import re
import shlex
from pathlib import Path

from cvswap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("1.0703")  # the value its comment quotes
    assert printed[1].startswith("[") and printed[-1].endswith("]")


def test_command_line_example_prints_what_it_quotes(tmp_path, monkeypatch, capsys):
    # each `cvswap` or `cat` line is followed by the output it quotes as
    # "# " comments; a closing "# ..." marks a quote of part of the output
    example = README.read_text().split("\nExample:\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", example, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    steps = []
    for line in block.splitlines():
        if line.startswith("# "):
            steps[-1][1].append(line[2:])
        elif line.startswith("cvswap "):
            assert main(shlex.split(line)[1:]) == 0
            steps.append((capsys.readouterr().out.splitlines(), []))
        elif line.startswith("cat "):
            steps.append((Path(line.split()[1]).read_text().splitlines(), []))
    checked = [(output, quoted) for output, quoted in steps if quoted]
    assert len(checked) == 2  # the operating-point CSV and the crossing lines
    for output, quoted in checked:
        if quoted[-1] == "...":
            quoted = quoted[:-1]
            start = output.index(quoted[0])
            assert output[start:start + len(quoted)] == quoted
        else:
            assert output == quoted
