"""Each mutant of table.py must fail Tier-1, and the unmutated copy pass it.

    python -m pytest -q mutants

For each row the runner copies src/ to a temporary directory, applies the
mutant there and runs Tier-1 (the tests/ suite, stopping at the first
failure) in a child process that imports cvswap from the copy.  At most
two children run at a time.  A killed mutant fails some test (exit code
1); a known survivor and the unmutated copy pass every test (exit code 0).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from table import MUTANTS, Mutant

REPO = Path(__file__).resolve().parent.parent
WORKERS = 2


def tier_1(mutant: Mutant | None) -> tuple[int, str]:
    """Tier-1's exit code and output on a copy of src/ with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = src / "cvswap" / mutant.file
            text = path.read_text()
            count = text.count(mutant.old)
            if count != 1:
                return -1, f"{mutant.file} holds the mutated text {count} times, not once"
            path.write_text(text.replace(mutant.old, mutant.new))
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", "tests"],
            cwd=REPO, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
        return child.returncode, child.stdout[-2000:] + child.stderr[-2000:]


@pytest.fixture(scope="session")
def outcomes():
    # every run is started at once, WORKERS at a time; each test waits for its own
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        yield {mutant: pool.submit(tier_1, mutant) for mutant in [None, *MUTANTS]}


def test_unmutated_copy_passes(outcomes):
    code, output = outcomes[None].result()
    assert code == 0, output


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_outcome(outcomes, mutant):
    code, output = outcomes[mutant].result()
    if mutant.survives:
        assert code == 0, f"known survivor now fails Tier-1; flip its row\n{output}"
    else:
        assert code == 1, f"not killed ({mutant.breaks})\n{output}"
