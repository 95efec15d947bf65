"""cvswap benchmark: one workload, end to end (--trace 0) or layer by layer (--trace 1).

Run from the repository root:

    python3 bench/run.py --workload fig4-gain --seed 1 --seconds 30 --trace 0

With --trace 0 the run repeats rounds of five jobs, in an order the seed
shuffles, until --seconds have passed (at least harness.MIN_ROUNDS rounds,
after one unrecorded warm-up round):

* ``setup``   a fresh interpreter that imports cvswap.cli and exits (setup_s);
* ``run``     the workload's command as a fresh ``python -m cvswap`` child
              (run_s, and peak_rss_mb from that child's own rusage);
* ``inproc``  the same command through cvswap.cli.main in this process,
              Workload.calls times (points_per_s);
* ``kernel``  reference.kernel() in this process;
* ``start``   START_REPEAT bare ``python -c pass`` children.

The last two never touch cvswap; they measure how fast the host runs at the
time.  Its speed drifts by up to 2x over seconds to minutes, which spread
the medians of 30 s runs by up to 0.3 of their median, so each timing is the
mean over the run's rounds scaled by nominal / mean of its reference: the
kernel for the in-process time, the bare start for the child times.  Means
are used because a job and its reference then average over the same mix of
host speeds.  peak_rss_mb is the median.  The unscaled medians are printed
and written to the full result as ``unscaled``.

The inputs are the fixed default grids of each command; the seed changes only
the order of the jobs.  Every CLI invocation is checked against golden/; a
non-zero exit or any differing byte counts as a failed invocation.

With --trace 1 the run reports per-layer metrics instead (see tracing.py).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with the environment, is also written
to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

import harness
import reference

JOBS = ("setup", "run", "inproc", "kernel", "start")
START_REPEAT = 3
# Nominal times of the two references, their medians on the 2-core Xeon host
# where the benchmark was defined.  Scaling by nominal / measured reports each
# timing as if the host ran at that speed.
KERNEL_NOMINAL_S = 0.35  # one reference.kernel() call, in this process
START_NOMINAL_S = 0.070  # one bare `python -c pass` child

# name -> unit; bounds and directions live in BENCHMARK.json
END_TO_END = {
    "run_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Invocations attempted and failed, and the worst deviation from golden."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0

    def record(self, name: str, code: int, out_dir: Path, stdout: str,
               golden: Path) -> None:
        identical, deviation = harness.check_outputs(name, out_dir, stdout, golden)
        self.attempted += 1
        self.max_rel_dev = max(self.max_rel_dev, deviation)
        if code != 0 or not identical:
            self.failed += 1
            print(f"failed invocation: exit {code}, identical={identical}, "
                  f"max relative deviation {deviation:.3g}", file=sys.stderr)

    def summary(self) -> dict[str, object]:
        return {
            "error_rate": self.failed / self.attempted,
            "max_rel_dev": self.max_rel_dev if math.isfinite(self.max_rel_dev) else None,
        }


def measure_end_to_end(name: str, seed: int, seconds: float,
                       golden: Path = harness.GOLDEN) -> dict[str, object]:
    cli = harness.load_cli()
    env = harness.child_env()
    python = sys.executable
    rng = random.Random(seed)
    tally = Tally()
    samples: dict[str, list[float]] = {kind: [] for kind in (*JOBS, "rss")}

    with harness.scratch_dir() as scratch:
        def job(kind: str, index: int, keep: bool) -> None:
            out_dir = scratch / f"{kind}-{index}"
            out_dir.mkdir()
            argv = harness.WORKLOADS[name].command(out_dir)
            walls = []
            if kind == "setup":
                code, _, err, wall, _ = harness.run_child(
                    [python, "-c", "import cvswap.cli"], env, scratch)
                walls.append(wall)
                tally.attempted += 1
                if code != 0:
                    tally.failed += 1
                    print(f"setup failed: exit {code}\n{err}", file=sys.stderr)
            elif kind == "start":
                for _ in range(START_REPEAT):
                    code, _, err, wall, _ = harness.run_child(
                        [python, "-c", "pass"], env, scratch)
                    if code != 0:
                        raise RuntimeError(f"bare interpreter failed: exit {code}\n{err}")
                    walls.append(wall)
            elif kind == "run":
                code, stdout, err, wall, rss = harness.run_child(
                    [python, "-m", "cvswap", *argv], env, scratch)
                if code != 0:
                    print(err, file=sys.stderr)
                tally.record(name, code, out_dir, stdout, golden)
                walls.append(wall)
                if keep:
                    samples["rss"].append(rss)
            elif kind == "inproc":
                for _ in range(harness.WORKLOADS[name].calls):
                    code, stdout, wall = harness.run_in_process(cli, argv)
                    tally.record(name, code, out_dir, stdout, golden)
                    walls.append(wall)
            else:
                begin = time.perf_counter()
                reference.kernel()
                walls.append(time.perf_counter() - begin)
            if keep:
                samples[kind].extend(walls)

        for kind in JOBS:
            job(kind, 0, keep=False)
        start = time.perf_counter()
        rounds = 0
        while rounds < harness.MIN_ROUNDS or time.perf_counter() - start < seconds:
            rounds += 1
            order = list(JOBS)
            rng.shuffle(order)
            for kind in order:
                job(kind, rounds, keep=True)
        elapsed = time.perf_counter() - start

    mean = {kind: statistics.mean(xs) for kind, xs in samples.items()}
    kernel_scale = KERNEL_NOMINAL_S / mean["kernel"]
    start_scale = START_NOMINAL_S / mean["start"]
    points = harness.points(name, golden)
    values = {
        "run_s": mean["run"] * start_scale,
        "points_per_s": points / (mean["inproc"] * kernel_scale),
        "setup_s": mean["setup"] * start_scale,
        "peak_rss_mb": statistics.median(samples["rss"]),
    }
    median = {kind: statistics.median(xs) for kind, xs in samples.items()}
    unscaled = {
        "run_s": median["run"],
        "points_per_s": points / median["inproc"],
        "setup_s": median["setup"],
        "kernel_s": median["kernel"],
        "start_s": median["start"],
    }
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in END_TO_END.items()},
        "checks": tally.summary(),
        "unscaled": unscaled,
        "rounds": rounds,
        "measured_s": elapsed,
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "cvswap" / "__init__.py").is_file():
        print(f"bench: no cvswap package under {harness.SRC}", file=sys.stderr)
        return 2
    if not harness.GOLDEN.is_dir():
        print(f"bench: golden outputs missing at {harness.GOLDEN}", file=sys.stderr)
        return 2

    harness.load_cli()
    env = harness.environment()
    if args.trace:
        import tracing
        result = tracing.measure_layers(args.workload, args.seed, args.seconds)
    else:
        result = measure_end_to_end(args.workload, args.seed, args.seconds)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, **result}

    harness.RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (harness.RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {result['rounds']} rounds "
          f"in {result['measured_s']:.1f} s")
    for key, metric in result["metrics"].items():
        print(f"  {key:<44} {metric['value']:.6g} {metric['unit']}")
    for key, value in result["checks"].items():
        print(f"  {key:<44} {value}")
    for key, value in result.get("unscaled", {}).items():
        print(f"  unscaled median {key:<28} {value:.6g}")
    print(f"  environment {json.dumps(env)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
