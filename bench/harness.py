"""Shared pieces of the cvswap benchmark: workloads, golden checks, invocations.

Every workload is one CLI command at its documented defaults, so its golden
outputs are the paper's figures.  An invocation is correct when it exits 0,
its CSV matches ``golden/<csv>`` byte for byte and its stdout, without the
``wrote <path>`` lines, matches ``golden/<workload>.stdout`` byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
# scratch space for CLI outputs and results; both are removed or ignored by git
TMP_PARENT = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_out"

# numpy starts BLAS threads on import, so every child and the benchmark
# process get the same fixed thread settings whatever the caller's environment.
CHILD_SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CHILD_TIMEOUT_S = 120.0
# rounds measured even when --seconds is shorter than one round
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    csv: str | None  # file the command writes, compared with golden/<csv>
    # in-process calls per round, so short commands are timed for long enough
    calls: int = 1

    def command(self, out_dir: Path) -> list[str]:
        return list(self.argv) + (["--out", str(out_dir)] if self.csv else [])


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "fig4-gain": Workload(("fig4",), "fig4.csv"),
    "fig3-angle": Workload(("fig3",), "fig3.csv"),
    "threshold-eta": Workload(("threshold-scan",), "threshold_scan.csv", calls=3),
    "selftest": Workload(("selftest",), None, calls=6),
}


def points(name: str, golden: Path = GOLDEN) -> int:
    """Results one invocation computes: CSV data cells without x, or checks run."""
    workload = WORKLOADS[name]
    if workload.csv is None:
        lines = (golden / f"{name}.stdout").read_text().splitlines()
        return sum(line.startswith("ok ") for line in lines)
    rows = (golden / workload.csv).read_text().splitlines()[1:]
    return sum(len(row.split(",")) - 1 for row in rows)


def checked_stdout(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("wrote "))


def _relative_deviation(golden: str, actual: str) -> float:
    """Largest relative difference of corresponding numbers; inf if the layout differs."""
    golden_lines, actual_lines = golden.splitlines(), actual.splitlines()
    if len(golden_lines) != len(actual_lines):
        return math.inf
    worst = 0.0
    for g_line, a_line in zip(golden_lines, actual_lines):
        g_tokens, a_tokens = re.split(r"[,\s=]+", g_line), re.split(r"[,\s=]+", a_line)
        if len(g_tokens) != len(a_tokens):
            return math.inf
        for g, a in zip(g_tokens, a_tokens):
            if g == a:
                continue
            try:
                g_value, a_value = float(g), float(a)
            except ValueError:
                return math.inf
            scale = abs(g_value) or 1.0
            deviation = abs(a_value - g_value) / scale
            worst = max(worst, deviation if math.isfinite(deviation) else math.inf)
    return worst


def _read(path: Path) -> str:
    # decoded without newline translation, so a changed line ending is a difference
    return path.read_bytes().decode()


def check_outputs(name: str, out_dir: Path, stdout: str,
                  golden: Path = GOLDEN) -> tuple[bool, float]:
    """(all outputs byte-identical to golden, largest relative deviation)."""
    workload = WORKLOADS[name]
    pairs = [(_read(golden / f"{name}.stdout"), checked_stdout(stdout))]
    if workload.csv is not None:
        produced = out_dir / workload.csv
        pairs.append((_read(golden / workload.csv),
                      _read(produced) if produced.is_file() else ""))
    identical = all(g == a for g, a in pairs)
    return identical, max(_relative_deviation(g, a) for g, a in pairs)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_SETTINGS)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict[str, str], scratch: Path
              ) -> tuple[int, str, str, float, float]:
    """Run one child to completion.

    Returns exit code, stdout, stderr, wall seconds and the peak RSS in MB of
    that child alone (its own rusage from wait4, not RUSAGE_CHILDREN).
    """
    out_path, err_path = scratch / "child.stdout", scratch / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, _read(out_path), err_path.read_text(),
            wall, usage.ru_maxrss / 1024.0)


def load_cli():
    """Import cvswap.cli from the checkout's src/ with the fixed thread settings."""
    os.environ.update(CHILD_SETTINGS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cvswap.cli
    return cvswap.cli


def run_in_process(cli, argv: list[str]) -> tuple[int, str, float]:
    """Call cli.main(argv) with stdout captured; returns exit code, stdout, seconds."""
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception:  # a crash is a failed invocation, not the end of the run
        traceback.print_exc()
        code = -1
    return code, buffer.getvalue(), time.perf_counter() - start


@contextlib.contextmanager
def scratch_dir():
    TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as path:
        yield Path(path)
    with contextlib.suppress(OSError):
        TMP_PARENT.rmdir()


def environment() -> dict[str, object]:
    """What a result depends on besides the code: machine, versions, settings."""
    import numpy

    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "child_settings": CHILD_SETTINGS,
        "commit": commit,
        "loadavg_at_start": list(os.getloadavg()),
    }
