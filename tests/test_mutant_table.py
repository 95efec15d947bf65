"""The mutant table stays in step with the source it mutates.

mutants/test_mutants.py runs each row through Tier-1, slowly; this test
only checks that each row still applies: its old text occurs exactly once
in its file under src/cvswap, and its new text differs.  It reads the
repository's own source, not the imported package, so a mutated copy
under test passes it.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_every_mutant_row_applies_once():
    spec = importlib.util.spec_from_file_location("mutant_table", REPO / "mutants" / "table.py")
    table = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = table  # the dataclass looks its module up
    try:
        spec.loader.exec_module(table)
    finally:
        del sys.modules[spec.name]
    orphans = []
    for mutant in table.MUTANTS:
        count = (REPO / "src" / "cvswap" / mutant.file).read_text().count(mutant.old)
        if count != 1 or mutant.new == mutant.old:
            orphans.append((mutant.name, count))
    assert not orphans, f"rows whose old text is not found exactly once, or equals new: {orphans}"
