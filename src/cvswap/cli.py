"""Command-line front end reproducing the headline sweeps as CSV (+ SVG) tables.

Subcommands:

* ``fig3``            S of the teleported pair vs analyzer angle at unity gain
* ``fig4``            S of the teleported pair vs feedforward gain
* ``operating-point`` lossy-detector operating point at optimal gain, per level
* ``threshold-scan``  S at optimal gain vs detection efficiency and the S = 1
                      crossing
* ``selftest``        algebra/oracle invariant suite

Each sweep is one :func:`cvswap.circuit.build_swap_circuit` call over its
whole parameter grid, passed as broadcasting arrays, and one call of
:func:`cvswap.metrics.ch_s`, the single CH-assembly path, which returns the
whole S grid as one array:

* ``fig3`` builds over the squeezing levels and evaluates the whole angle
  grid against them.
* ``fig4`` builds over (gain, level) pairs.
* ``threshold-scan`` builds over the levels, its efficiencies and their
  optimal gains (one :func:`cvswap.metrics.optimal_gain` call) in weights.
* ``operating-point`` builds over the levels at their optimal gains, from one
  :func:`cvswap.metrics.optimal_gain` call, and writes one row per level.

The gain, angle and efficiency grids, like the angle scan of
:func:`cvswap.metrics.maximize_s`, come from one grid function, which
evaluates ``lo + (hi - lo) * k / (steps - 1)`` elementwise.

The argparse tree is built once per process, on the first :func:`main`
call, and reused by every later call; each parse returns its own namespace.

Each setting is an :class:`ExperimentConfig` field, named by its config key
(its flag with underscores: ``lambda_min`` for ``--lambda-min``) and holding
its default; one per-command table holds each command's help, the defaults
it overrides (its squeezing levels, and the eta of ``operating-point``) and
the settings its driver reads, which are its only flags.  A flat ``key =
value`` config file (``#`` comments) may hold any key, is validated whole and
overrides the defaults, and flags override the file.  Squeezing levels name
their CSV columns by whole percent, so levels that round to the same percent
are rejected.  Exit codes: 0 success, 1 bad flags/config, an unusable output
directory, a grid too large for memory or rates that overflow float range,
2 degenerate physics (no coincidences), 3 selftest failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .circuit import SwapParams, build_swap_circuit
from .metrics import (
    OPTIMAL_ANGLES,
    AnalyzerAngles,
    NoCoincidencesError,
    RateOverflowError,
    _grid,
    angle_family,
    ch_s,
    optimal_gain,
    squeezing_to_chi,
)
from .selftest import run_selftest

__all__ = ["ExperimentConfig", "main"]

# Coincidence rates are sums of products of two contractions between the
# source beams, each about cosh(chi1) sinh(chi1) ~ exp(2 chi1)/4, so they grow
# like exp(4 chi1)/16.  Up to exp(4 chi1) = the largest float they keep a
# factor of 16 for the sums of the CH ratio; the bare source's rates overflow
# from chi1 ~ 177.9 on.
_CHI1_MAX = math.log(sys.float_info.max) / 4

# every number written, CSV cell or printed crossing, at 9 significant digits
_NUMBER = "%.9g"


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one command run: one field per config key, each
    validated for every command and read only by the commands it is a flag of."""

    chi1: float = 0.1
    squeezing: tuple[float, ...] = ()
    eta: float = 1.0
    lambda_min: float = 0.01
    lambda_max: float = 2.0
    lambda_steps: int = 200
    angles_steps: int = 721
    eta_min: float = 0.7
    eta_max: float = 1.0
    eta_steps: int = 61
    out: Path = Path(".")
    svg: bool = False

    def validate(self) -> None:
        if not self.squeezing:
            raise ValueError("at least one squeezing level is required")
        columns: dict[str, float] = {}
        for s in self.squeezing:
            squeezing_to_chi(s)  # raises for a level outside [0, 1)
            if _pct(s) in columns:
                raise ValueError(f"squeezing levels {columns[_pct(s)]} and {s} share "
                                 f"the CSV column suffix _{_pct(s)}; levels must "
                                 "differ in whole percent")
            columns[_pct(s)] = s
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.chi1 <= _CHI1_MAX:
            raise ValueError(f"chi1 must lie in [0, {_CHI1_MAX:.6g}], beyond which the "
                             f"coincidence rates overflow; got {self.chi1}")
        for name in ("lambda_steps", "angles_steps", "eta_steps"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        # the gain grid's one intermediate that can overflow; nan and inf bounds land here too
        if not math.isfinite((self.lambda_max - self.lambda_min) * (self.lambda_steps - 1)):
            raise ValueError(f"lambda grid must be finite, got min {self.lambda_min}, "
                             f"max {self.lambda_max}")
        if self.lambda_min <= 0 or self.lambda_max <= self.lambda_min:
            raise ValueError("lambda grid must satisfy 0 < min < max")
        if not 0.0 < self.eta_min < self.eta_max <= 1.0:
            raise ValueError("eta grid must satisfy 0 < min < max <= 1")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_level_list(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(float(p) for p in parts)


# config key -> (value parser, flag help); the key is the ExperimentConfig
# field, the flag is the key with dashes and belongs to the commands that
# read the key, and a {} in the help is the command's default for it
_SETTINGS: dict[str, tuple[Callable[[str], object], str]] = {
    "chi1": (float, "source squeezer conversion efficiency (default {})"),
    "squeezing": (_parse_level_list, "squeezing level in [0, 1); repeatable (default {})"),
    "eta": (float, "homodyne detection efficiency in [0, 1] (default {})"),
    "lambda_min": (float, "gain sweep lower bound (default {})"),
    "lambda_max": (float, "gain sweep upper bound (default {})"),
    "lambda_steps": (int, "gain sweep point count (default {})"),
    "angles_steps": (int, "analyzer-angle grid point count (default {})"),
    "out": (Path, "output directory for CSV/SVG files (default {})"),
    "svg": (_parse_bool, "also write a minimal SVG line plot"),
    "eta_min": (float, "efficiency grid lower bound (default {})"),
    "eta_max": (float, "efficiency grid upper bound (default {})"),
    "eta_steps": (int, "efficiency grid point count (default {})"),
}

# argparse form of the parsers whose flag differs from the config value;
# every other parser is the flag's type.  An absent flag must read None, not
# False, or it would override the file's value.
_FLAG_FORMS: dict[Callable[[str], object], dict[str, object]] = {
    _parse_level_list: {"type": float, "action": "append", "metavar": "S"},
    _parse_bool: {"action": "store_true", "default": None},
}


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key = value file with # comments."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    # the command's own defaults, then the config file, then the flags
    raw = read_config_file(Path(args.config)) if args.config is not None else {}
    values = dict(_COMMAND_SETTINGS[args.command][1])
    for key, (parse, _) in _SETTINGS.items():
        if key in raw:
            values[key] = parse(raw[key])
        flag = getattr(args, key, None)  # None: flag not given or not on this command
        if flag is not None:
            values[key] = tuple(flag) if isinstance(flag, list) else flag
    config = ExperimentConfig(**values)
    config.validate()
    return config


def write_csv(path: Path, header: Sequence[str],
              table: np.ndarray | Sequence[Sequence[float]]) -> None:
    """Write a table at 9 significant digits, comma-separated, LF line endings.

    table is a 2-D array, or a sequence of rows, with one value per header
    column in each row.  The whole table is formatted by one ``%`` call,
    which raises TypeError if its width differs from the header's.
    """
    table = np.asarray(table, dtype=float)
    row_format = "\n" + ",".join([_NUMBER] * len(header))
    text = (row_format * len(table)) % tuple(table.ravel().tolist())
    path.write_text(",".join(header) + text + "\n", newline="\n")


def write_svg(path: Path, header: Sequence[str],
              table: np.ndarray | Sequence[Sequence[float]]) -> None:
    """Minimal line plot: one polyline per data column against column 0."""
    rows = np.asarray(table, dtype=float).tolist()
    width, height, margin = 640.0, 480.0, 40.0
    xs = [row[0] for row in rows]
    ys = [value for row in rows for value in row[1:]]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">']
    parts.append(f'<rect width="{width:g}" height="{height:g}" fill="white"/>')
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    for column in range(1, len(header)):
        points = " ".join(f"{sx(row[0]):.2f},{sy(row[column]):.2f}" for row in rows)
        color = palette[(column - 1) % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"><title>{header[column]}</title></polyline>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", newline="\n")


def _emit(config: ExperimentConfig, stem: str, header: Sequence[str],
          table: np.ndarray, stream: TextIO) -> None:
    config.out.mkdir(parents=True, exist_ok=True)
    csv_path = config.out / f"{stem}.csv"
    write_csv(csv_path, header, table)
    stream.write(f"wrote {csv_path}\n")
    if config.svg:
        svg_path = config.out / f"{stem}.svg"
        write_svg(svg_path, header, table)
        stream.write(f"wrote {svg_path}\n")


def _pct(level: float) -> str:
    return str(round(level * 100))


def _chis(config: ExperimentConfig) -> np.ndarray:
    return np.array([squeezing_to_chi(level) for level in config.squeezing])


def _sweep_s(params: SwapParams, angles: AnalyzerAngles) -> np.ndarray:
    return ch_s(build_swap_circuit(params), angles).s


def _write_sweep(config: ExperimentConfig, stem: str, axis: str, prefix: str,
                 grid: np.ndarray, s: np.ndarray, stream: TextIO) -> None:
    # the grid column, then one S column per level, named prefix + percent
    header = [axis] + [f"{prefix}{_pct(level)}" for level in config.squeezing]
    _emit(config, stem, header, np.column_stack([grid, s]), stream)


def cmd_fig3(config: ExperimentConfig, stream: TextIO) -> int:
    """S vs analyzer angle at unity gain, one column per squeezing level."""
    thetas = _grid(0.0, math.pi / 2, config.angles_steps)
    s = _sweep_s(SwapParams(config.chi1, _chis(config), 1.0, config.eta),
                 angle_family(thetas[:, None]))
    _write_sweep(config, "fig3", "theta_a_rad", "s_", thetas, s, stream)
    return 0


def cmd_fig4(config: ExperimentConfig, stream: TextIO) -> int:
    """S vs feedforward gain at the maximizing angles, per squeezing level."""
    gains = _grid(config.lambda_min, config.lambda_max, config.lambda_steps)
    s = _sweep_s(SwapParams(config.chi1, _chis(config), gains[:, None], config.eta),
                 OPTIMAL_ANGLES)
    _write_sweep(config, "fig4", "lambda", "s_", gains, s, stream)
    return 0


def cmd_operating_point(config: ExperimentConfig, stream: TextIO) -> int:
    """Optimal-gain operating point, one row per squeezing level in the order given.

    Each row holds the engine CH ratio, the optimal gain, and the coincidence
    transmission factor gain^2 * eta: the teleporter attenuates the paired-photon
    signal by that transmissivity, so S is the same at every level.
    """
    chis = _chis(config)
    gains = optimal_gain(chis, config.eta)
    s = _sweep_s(SwapParams(config.chi1, chis, gains, config.eta), OPTIMAL_ANGLES)
    _emit(config, "operating_point", ["s_ad", "lambda_op", "coincidence_ratio"],
          np.column_stack([s, gains, gains * gains * config.eta]), stream)
    return 0


def cmd_threshold_scan(config: ExperimentConfig, stream: TextIO) -> int:
    """S at optimal gain over an eta grid; prints the interpolated S=1 crossing."""
    etas = _grid(config.eta_min, config.eta_max, config.eta_steps)
    chis = _chis(config)
    gains = optimal_gain(chis, etas[:, None])
    s = _sweep_s(SwapParams(config.chi1, chis, gains, etas[:, None]), OPTIMAL_ANGLES)
    _write_sweep(config, "threshold_scan", "eta", "s_ad_", etas, s, stream)
    grid = etas.tolist()
    for level, values in zip(config.squeezing, s.T.tolist()):
        crossing = _interpolate_crossing(grid, values)
        value = _NUMBER % crossing if crossing is not None else "none"
        stream.write(f"threshold_crossing_eta_{_pct(level)} = {value}\n")
    return 0


def _interpolate_crossing(etas: Sequence[float], values: Sequence[float]) -> float | None:
    # the first S = 1 crossing, rising or falling, linearly interpolated
    for i in range(len(etas) - 1):
        if values[i] < 1.0 <= values[i + 1] or values[i + 1] < 1.0 <= values[i]:
            slope = (values[i + 1] - values[i]) / (etas[i + 1] - etas[i])
            return etas[i] + (1.0 - values[i]) / slope
    return None


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    # the tree depends on no call argument, so one parser serves every main()
    # call; parse_args keeps its state in the Namespace it returns
    parser = _Parser(prog="cvswap",
                     description="Continuous-variable entanglement swapping sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, defaults, keys) in _COMMAND_SETTINGS.items():
        add = sub.add_parser(command, help=help_text.format_map(defaults)).add_argument
        for key in keys:
            parse, flag_help = _SETTINGS[key]
            add("--" + key.replace("_", "-"),
                help=flag_help.format(defaults.get(key, getattr(ExperimentConfig, key))),
                **_FLAG_FORMS.get(parse, {"type": parse}))
        if keys:
            add("--config", help="flat key = value config file; flags override it")
    return parser


# command -> (help, the defaults it overrides, the settings its driver reads,
# which are its flags); a {} in the help is one of those defaults
_COMMAND_SETTINGS: dict[str, tuple[str, dict[str, object], tuple[str, ...]]] = {
    "fig3": ("S vs analyzer angle at unity gain", {"squeezing": (0.99, 0.80)},
             ("chi1", "squeezing", "eta", "angles_steps", "out", "svg")),
    "fig4": ("S vs feedforward gain at maximizing angles",
             {"squeezing": (0.10, 0.50, 0.80, 0.99)},
             ("chi1", "squeezing", "eta", "lambda_min", "lambda_max", "lambda_steps",
              "out", "svg")),
    # argparse %-formats help text, so the percent sign that :.0% writes is doubled
    "operating-point": ("optimal-gain operating point per level "
                        "(default eta {eta}, {squeezing[0]:.0%}% squeezing)",
                        {"squeezing": (0.5,), "eta": 0.9},
                        ("chi1", "squeezing", "eta", "out", "svg")),
    "threshold-scan": ("S at optimal gain vs detection efficiency",
                       {"squeezing": (0.3, 0.5, 0.9)},
                       ("chi1", "squeezing", "eta_min", "eta_max", "eta_steps", "out",
                        "svg")),
    "selftest": ("run the algebra/oracle invariant suite", {}, ()),
}

_COMMANDS = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "operating-point": cmd_operating_point,
    "threshold-scan": cmd_threshold_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return run_selftest(sys.stdout)
    try:
        config = _resolve_config(args)
        if args.command in ("operating-point", "threshold-scan"):
            # the optimal gain tanh(chi2)/sqrt(eta) must be finite and nonzero
            if args.command == "operating-point" and config.eta == 0:
                raise ValueError("operating-point needs eta > 0: the optimal gain "
                                 "tanh(chi2)/sqrt(eta) diverges at eta = 0")
            zero = [s for s, chi in zip(config.squeezing, _chis(config)) if chi == 0]
            if zero:
                raise ValueError(f"{args.command} needs chi2 > 0 at every squeezing "
                                 "level: the optimal gain tanh(chi2)/sqrt(eta) is 0 "
                                 f"at level {zero[0]}")
    except (ValueError, OSError) as exc:
        print(f"cvswap: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](config, sys.stdout)
    except NoCoincidencesError as exc:
        print(f"cvswap: degenerate physics: {exc}", file=sys.stderr)
        return 2
    except (RateOverflowError, MemoryError, OSError) as exc:
        # the config passed validation, but its rates exceed float range, its
        # grid does not fit in memory or its output directory cannot be written
        print(f"cvswap: config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
