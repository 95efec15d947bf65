"""The README's Python examples run as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("1.0703")  # the value its comment quotes
    assert printed[1].startswith("[") and printed[-1].endswith("]")
