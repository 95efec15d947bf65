"""Write golden/ from the current engine: each workload's CSV and checked stdout.

    python3 bench/capture_golden.py

The golden files are the reference every later engine change is compared
with; recapture them only from an engine whose outputs are known to be right.
"""

from __future__ import annotations

import shutil
import sys

import harness


def main() -> int:
    harness.GOLDEN.mkdir(exist_ok=True)
    env = harness.child_env()
    with harness.scratch_dir() as scratch:
        for name, workload in harness.WORKLOADS.items():
            out_dir = scratch / name
            out_dir.mkdir()
            code, stdout, err, _, _ = harness.run_child(
                [sys.executable, "-m", "cvswap", *workload.command(out_dir)], env, scratch)
            if code != 0:
                print(f"{name}: exit {code}\n{err}", file=sys.stderr)
                return 1
            (harness.GOLDEN / f"{name}.stdout").write_text(harness.checked_stdout(stdout))
            if workload.csv is not None:
                shutil.copyfile(out_dir / workload.csv, harness.GOLDEN / workload.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
