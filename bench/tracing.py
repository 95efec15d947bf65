"""Per-layer metrics for the cvswap benchmark (--trace 1).

Only this process is traced: for the duration of one cvswap.cli.main call,
every module-level reference inside the cvswap package to a traced public
function (and every value in a module-level dict, such as the CLI's command
table) is rebound to a timing wrapper, and the originals are put back
afterwards.  A wrapper records a span (name, start, end, parent) in memory.
LinearField construction is counted, not timed.  A name a later version of
the package no longer has is simply not traced and reports 0.

A layer's self time is its spans' duration minus the time covered by their
child spans.  Counts come from one traced call and must repeat exactly on
every traced call of the run; times are medians over the run's traced calls.
trace.overhead is the median traced call over the median untraced call,
interleaved in the same run.  import.* come from ``python -X importtime``.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import harness

IMPORT_SAMPLES = 5

SELFTEST_CHECKS = (
    "canonical-commutators",
    "homodyne-currents-commute",
    "pairing-count",
    "dual-oracle-moments",
    "wick-vs-fock-rates",
    "optimal-gain-attenuation",
    "teleporter-transparency",
)

# name -> unit; the count-valued ones must repeat exactly between calls
COUNTS = {
    "circuit.build_calls": "count",
    "circuit.builds_per_point": "ratio",
    "modes.fields_built": "count",
    "modes.wick_calls.n4": "count",
    "modes.wick_calls.n_gt4": "count",
    "metrics.ch_s_calls": "count",
    "metrics.rate_calls": "count",
    "cli.write_bytes": "bytes",
    "oracle.rewrite_calls": "count",
}
TIMES = {
    "circuit.build_s": "s",
    "modes.wick_self_s": "s",
    "metrics.ch_s_self_s": "s",
    "metrics.rate_self_s": "s",
    "cli.driver_self_s": "s",
    "cli.write_s": "s",
    "oracle.rewrite_s": "s",
    "oracle.fock_s": "s",
    **{f"selftest.check_s.{check}": "s" for check in SELFTEST_CHECKS},
}
OTHER = {
    "import.numpy_s": "s",
    "import.cvswap_self_s": "s",
    "trace.overhead": "ratio",
}
PER_LAYER = {**COUNTS, **TIMES, **OTHER}


def _wick_span(product, *args, **kwargs) -> str:
    return f"modes.wick.n{len(product)}"


# (span name or function of the call's arguments, defining module, public name)
SITES: list[tuple[str | Callable[..., str], str, str]] = [
    ("circuit.build", "cvswap.circuit", "build_swap_circuit"),
    ("metrics.ch_s", "cvswap.metrics", "ch_s"),
    ("metrics.rate", "cvswap.metrics", "coincidence_rate"),
    (_wick_span, "cvswap.modes", "vacuum_expectation"),
    ("oracle.rewrite", "cvswap.oracle", "normal_order_expectation"),
    ("oracle.fock", "cvswap.oracle", "fock_coincidence_rate"),
    ("oracle.fock", "cvswap.oracle", "build_source_state"),
    ("cli.write", "cvswap.cli", "write_csv"),
    ("cli.write", "cvswap.cli", "write_svg"),
    ("cli.driver", "cvswap.cli", "cmd_fig3"),
    ("cli.driver", "cvswap.cli", "cmd_fig4"),
    ("cli.driver", "cvswap.cli", "cmd_operating_point"),
    ("cli.driver", "cvswap.cli", "cmd_threshold_scan"),
    ("cli.driver", "cvswap.cli", "run_selftest"),
]


class Tracer:
    """Spans and counters of one traced call, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.fields_built = 0
        self.write_bytes = 0
        self._open: list[int] = []

    def wrap(self, span: str | Callable[..., str], fn: Callable) -> Callable:
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(*args, **kwargs)
            index = len(spans)
            spans.append((name, 0.0, 0.0, open_spans[-1] if open_spans else -1))
            open_spans.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index] = (name, start, end, spans[index][3])

        return traced

    def counting_write(self, fn: Callable) -> Callable:
        def write(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            self.write_bytes += Path(path).stat().st_size
        return write

    def counting_init(self, init: Callable) -> Callable:
        def __init__(field, *args, **kwargs):
            self.fields_built += 1
            init(field, *args, **kwargs)
        return __init__


def _cvswap_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if name == "cvswap" or name.startswith("cvswap.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced name to tracer's wrappers; restore the originals on exit."""
    undo: list[Callable[[], None]] = []

    def rebind(original: object, replacement: object) -> None:
        for module in _cvswap_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append(lambda m=module, a=attr: setattr(m, a, original))
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement
                            undo.append(lambda d=value, k=key: d.__setitem__(k, original))

    try:
        for span, module_name, attr in SITES:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(span, original)
            if span == "cli.write":
                wrapper = tracer.counting_write(wrapper)
            rebind(original, wrapper)

        selftest = sys.modules.get("cvswap.selftest")
        checks = getattr(selftest, "CHECKS", None)
        if isinstance(checks, list):
            saved = list(checks)
            checks[:] = [(name, tracer.wrap(f"selftest.check.{name}", check))
                         for name, check in saved]
            undo.append(lambda: checks.__setitem__(slice(None), saved))

        field_class = getattr(sys.modules.get("cvswap.modes"), "LinearField", None)
        init = vars(field_class).get("__init__") if field_class else None
        if init is not None:
            field_class.__init__ = tracer.counting_init(init)
            undo.append(lambda: setattr(field_class, "__init__", init))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def layer_values(tracer: Tracer, points: int) -> dict[str, float]:
    """Counts and self/inclusive times of one traced call."""
    covered = [0.0] * len(tracer.spans)
    for _, start, end, parent in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter[str] = Counter()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(tracer.spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered[index]
    wick = [name for name in calls if name.startswith("modes.wick.n")]
    values = {
        "circuit.build_calls": calls["circuit.build"],
        "circuit.builds_per_point": calls["circuit.build"] / points,
        "modes.fields_built": tracer.fields_built,
        "modes.wick_calls.n4": calls["modes.wick.n4"],
        "modes.wick_calls.n_gt4": sum(calls[name] for name in wick
                                      if int(name.removeprefix("modes.wick.n")) > 4),
        "metrics.ch_s_calls": calls["metrics.ch_s"],
        "metrics.rate_calls": calls["metrics.rate"],
        "cli.write_bytes": tracer.write_bytes,
        "oracle.rewrite_calls": calls["oracle.rewrite"],
        "circuit.build_s": total["circuit.build"],
        "modes.wick_self_s": sum(own[name] for name in wick),
        "metrics.ch_s_self_s": own["metrics.ch_s"],
        "metrics.rate_self_s": own["metrics.rate"],
        "cli.driver_self_s": own["cli.driver"],
        "cli.write_s": total["cli.write"],
        "oracle.rewrite_s": total["oracle.rewrite"],
        "oracle.fock_s": total["oracle.fock"],
    }
    for check in SELFTEST_CHECKS:
        values[f"selftest.check_s.{check}"] = total[f"selftest.check.{check}"]
    return values


def traced_call(cli, argv: list[str]) -> tuple[int, str, float, Tracer]:
    """One cli.main(argv) call with every traced name rebound for its duration."""
    tracer = Tracer()
    with installed(tracer):
        code, stdout, wall = harness.run_in_process(cli, argv)
    return code, stdout, wall, tracer


def import_times(env: dict[str, str], scratch: Path) -> tuple[float, float]:
    """(numpy cumulative, cvswap modules' own) import seconds from -X importtime."""
    numpy_s, cvswap_s = 0.0, 0.0
    code, _, err, _, _ = harness.run_child(
        [sys.executable, "-X", "importtime", "-c", "import cvswap.cli"], env, scratch)
    if code != 0:
        raise RuntimeError(f"import of cvswap.cli failed:\n{err}")
    for line in err.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own_us, cumulative_us, module = line.removeprefix("import time:").split("|")
        module = module.strip()
        if module == "numpy":
            numpy_s = int(cumulative_us) / 1e6
        if module == "cvswap" or module.startswith("cvswap."):
            cvswap_s += int(own_us) / 1e6
    return numpy_s, cvswap_s


def measure_layers(name: str, seed: int, seconds: float) -> dict[str, object]:
    cli = harness.load_cli()
    env = harness.child_env()
    points = harness.points(name)
    rng = random.Random(seed)
    attempted = failed = 0
    counts: dict[str, float] | None = None
    times: dict[str, list[float]] = defaultdict(list)
    walls: dict[str, list[float]] = {"traced": [], "untraced": []}
    last_spans: list[tuple[str, float, float, int]] = []

    with harness.scratch_dir() as scratch:
        imports = [import_times(env, scratch) for _ in range(IMPORT_SAMPLES)]
        start = time.perf_counter()
        rounds = 0
        while rounds < harness.MIN_ROUNDS or time.perf_counter() - start < seconds:
            rounds += 1
            order = ["traced", "untraced"]
            rng.shuffle(order)
            for kind in order:
                out_dir = scratch / f"{kind}-{rounds}"
                out_dir.mkdir()
                argv = harness.WORKLOADS[name].command(out_dir)
                if kind == "traced":
                    code, stdout, wall, tracer = traced_call(cli, argv)
                    values = layer_values(tracer, points)
                    call_counts = {key: values[key] for key in COUNTS}
                    counts = counts or call_counts
                    consistent = call_counts == counts
                    if not consistent:
                        print(f"counts differ between traced calls: {call_counts} "
                              f"vs {counts}", file=sys.stderr)
                    for key in TIMES:
                        times[key].append(values[key])
                    last_spans = tracer.spans
                else:
                    code, stdout, wall = harness.run_in_process(cli, argv)
                    consistent = True
                identical, _ = harness.check_outputs(name, out_dir, stdout)
                attempted += 1
                if code != 0 or not identical or not consistent:
                    failed += 1
                walls[kind].append(wall)
        elapsed = time.perf_counter() - start

    values = dict(counts)
    values.update({key: statistics.median(times[key]) for key in TIMES})
    values["import.numpy_s"] = statistics.median([numpy_s for numpy_s, _ in imports])
    values["import.cvswap_self_s"] = statistics.median([own for _, own in imports])
    values["trace.overhead"] = (statistics.median(walls["traced"])
                                / statistics.median(walls["untraced"]))

    harness.RESULTS.mkdir(exist_ok=True)
    spans_path = harness.RESULTS / f"{name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"], "spans": last_spans}) + "\n")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in PER_LAYER.items()},
        "checks": {"error_rate": failed / attempted},
        "rounds": rounds,
        "measured_s": elapsed,
        "spans_file": str(spans_path.relative_to(harness.ROOT)),
    }
