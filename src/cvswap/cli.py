"""Command-line front end reproducing the headline sweeps as CSV (+ SVG) tables.

Subcommands:

* ``fig3``            S of the teleported pair vs analyzer angle at unity gain
* ``fig4``            S of the teleported pair vs feedforward gain
* ``operating-point`` lossy-detector operating point at optimal gain
* ``threshold-scan``  S at optimal gain vs detection efficiency and the S = 1
                      crossing
* ``selftest``        algebra/oracle invariant suite

Each sweep is one batched evaluation through :func:`cvswap.metrics.ch_kernel`,
the single CH-assembly path, with as few circuit builds as the physics
allows:

* ``fig3`` builds once per squeezing level and evaluates the whole angle grid
  in one kernel call.
* ``fig4`` builds twice per squeezing level, at gain 0 and gain 1.  The gain
  enters the network only through the feedforward displacement, which is
  linear in it, so D'(g) = D'(0) + g (D'(1) - D'(0)) exactly; every
  canonical-commutator and Hermiticity check in the build acts on fields
  that do not depend on the gain, so the two builds run every check that a
  build per gain would.
* ``threshold-scan`` builds once per (efficiency, level) point, since the
  efficiency sets the homodyne loss and the optimal gain, and evaluates all
  points in one kernel call.

The gain, angle and efficiency grids use the scalar expression
``lo + (hi - lo) * k / (steps - 1)`` elementwise.

Defaults may be placed in a flat ``key = value`` config file (``#`` comments);
command-line flags override file values.  Squeezing levels name their CSV
columns by whole percent, so levels that round to the same percent are
rejected.  Exit codes: 0 success, 1 bad flags/config, 2 degenerate physics
(no coincidences), 3 selftest failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .circuit import SwapCircuitOutput, SwapParams, build_swap_circuit
from .metrics import (
    OPTIMAL_ANGLES,
    DenseBeam,
    NoCoincidencesError,
    angle_family,
    ch_kernel,
    ch_s,
    dense_beams,
    optimal_gain,
    squeezing_to_chi,
)
from .selftest import run_selftest

__all__ = ["ExperimentConfig", "main"]

_CONFIG_KEYS = {
    "chi1", "squeezing", "eta", "lambda_min", "lambda_max", "lambda_steps",
    "angles_steps", "eta_min", "eta_max", "eta_steps", "out", "svg",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one command run."""

    chi1: float = 0.1
    squeezing_levels: tuple[float, ...] = ()
    eta: float = 1.0
    lambda_min: float = 0.01
    lambda_max: float = 2.0
    lambda_steps: int = 200
    angle_steps: int = 721
    eta_min: float = 0.70
    eta_max: float = 1.0
    eta_steps: int = 61
    output_dir: Path = Path(".")
    emit_svg: bool = False

    def validate(self) -> None:
        if not self.squeezing_levels:
            raise ValueError("at least one squeezing level is required")
        columns: dict[str, float] = {}
        for s in self.squeezing_levels:
            if not 0.0 <= s < 1.0:
                raise ValueError(f"squeezing must lie in [0, 1), got {s}")
            if _pct(s) in columns:
                raise ValueError(f"squeezing levels {columns[_pct(s)]} and {s} share "
                                 f"the CSV column suffix _{_pct(s)}; levels must "
                                 "differ in whole percent")
            columns[_pct(s)] = s
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.chi1 < 0 or not math.isfinite(self.chi1):
            raise ValueError(f"chi1 must be a nonnegative finite value, got {self.chi1}")
        for name, steps in (("lambda_steps", self.lambda_steps),
                            ("angles_steps", self.angle_steps),
                            ("eta_steps", self.eta_steps)):
            if steps < 2:
                raise ValueError(f"{name} must be >= 2, got {steps}")
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
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve_config(args: argparse.Namespace,
                    default_squeezing: tuple[float, ...],
                    default_eta: float) -> ExperimentConfig:
    config = ExperimentConfig(squeezing_levels=default_squeezing, eta=default_eta)
    if args.config is not None:
        raw = read_config_file(Path(args.config))
        updates: dict[str, object] = {}
        if "chi1" in raw:
            updates["chi1"] = float(raw["chi1"])
        if "squeezing" in raw:
            updates["squeezing_levels"] = _parse_level_list(raw["squeezing"])
        if "eta" in raw:
            updates["eta"] = float(raw["eta"])
        if "lambda_min" in raw:
            updates["lambda_min"] = float(raw["lambda_min"])
        if "lambda_max" in raw:
            updates["lambda_max"] = float(raw["lambda_max"])
        if "lambda_steps" in raw:
            updates["lambda_steps"] = int(raw["lambda_steps"])
        if "angles_steps" in raw:
            updates["angle_steps"] = int(raw["angles_steps"])
        if "eta_min" in raw:
            updates["eta_min"] = float(raw["eta_min"])
        if "eta_max" in raw:
            updates["eta_max"] = float(raw["eta_max"])
        if "eta_steps" in raw:
            updates["eta_steps"] = int(raw["eta_steps"])
        if "out" in raw:
            updates["output_dir"] = Path(raw["out"])
        if "svg" in raw:
            updates["emit_svg"] = _parse_bool(raw["svg"])
        config = replace(config, **updates)
    overrides: dict[str, object] = {}
    if args.chi1 is not None:
        overrides["chi1"] = args.chi1
    if args.squeezing:
        overrides["squeezing_levels"] = tuple(args.squeezing)
    if args.eta is not None:
        overrides["eta"] = args.eta
    if args.lambda_min is not None:
        overrides["lambda_min"] = args.lambda_min
    if args.lambda_max is not None:
        overrides["lambda_max"] = args.lambda_max
    if args.lambda_steps is not None:
        overrides["lambda_steps"] = args.lambda_steps
    if args.angles_steps is not None:
        overrides["angle_steps"] = args.angles_steps
    if getattr(args, "eta_min", None) is not None:
        overrides["eta_min"] = args.eta_min
    if getattr(args, "eta_max", None) is not None:
        overrides["eta_max"] = args.eta_max
    if getattr(args, "eta_steps", None) is not None:
        overrides["eta_steps"] = args.eta_steps
    if args.out is not None:
        overrides["output_dir"] = Path(args.out)
    if args.svg:
        overrides["emit_svg"] = True
    config = replace(config, **overrides)
    config.validate()
    return config


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    """Write rows at 9 significant digits, comma-separated, LF line endings."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_svg(path: Path, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    """Minimal line plot: one polyline per data column against column 0."""
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
          rows: Sequence[Sequence[float]], stream: TextIO) -> None:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = config.output_dir / f"{stem}.csv"
    write_csv(csv_path, header, rows)
    stream.write(f"wrote {csv_path}\n")
    if config.emit_svg:
        svg_path = config.output_dir / f"{stem}.svg"
        write_svg(svg_path, header, rows)
        stream.write(f"wrote {svg_path}\n")


def _pct(level: float) -> str:
    return str(round(level * 100))


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    return lo + (hi - lo) * np.arange(steps) / (steps - 1)


def _dense_swap_beams(outputs: Iterable[SwapCircuitOutput]) -> tuple[DenseBeam, DenseBeam]:
    # beams A and D' stacked on axis 0; each circuit is exported as it comes,
    # so no more than one circuit's dict fields are alive at a time
    exported = [dense_beams([out.beam_a, out.beam_d_prime], len(out.registry))
                for out in outputs]
    ann = np.stack([part[0] for part in exported])
    cre = np.stack([part[1] for part in exported])
    return (ann[:, 0], cre[:, 0]), (ann[:, 1], cre[:, 1])


def gain_sweep_beams(chi1: float, chi2s: Sequence[float], eta: float,
                     gains: np.ndarray) -> tuple[DenseBeam, DenseBeam]:
    """Dense beams A, of shape (len(chi2s), 2, n), and D'(gain), of shape
    (len(gains), len(chi2s), 2, n), from two builds per chi2.

    feedforward_displace is linear in the gain and no other component sees
    it, so D'(g) = D'(0) + g (D'(1) - D'(0)); A does not depend on the gain.
    """
    beam_a, d_zero = _dense_swap_beams(
        build_swap_circuit(SwapParams(chi1, chi2, 0.0, eta)) for chi2 in chi2s)
    _, d_one = _dense_swap_beams(
        build_swap_circuit(SwapParams(chi1, chi2, 1.0, eta)) for chi2 in chi2s)
    g = gains[:, None, None, None]
    ann, cre = (g * (one - zero) for zero, one in zip(d_zero, d_one))
    ann += d_zero[0]  # in place: no second (gains, levels, 2, n) temporary
    cre += d_zero[1]
    return beam_a, (ann, cre)


def _write_columns(config: ExperimentConfig, stem: str, header: Sequence[str],
                   grid: np.ndarray, s: np.ndarray, stream: TextIO) -> list[list[float]]:
    rows = np.column_stack([grid, s]).tolist()
    _emit(config, stem, header, rows, stream)
    return rows


def cmd_fig3(config: ExperimentConfig, stream: TextIO) -> int:
    """S vs analyzer angle at unity gain, one column per squeezing level."""
    outputs = (build_swap_circuit(SwapParams(config.chi1, squeezing_to_chi(level),
                                             1.0, config.eta))
               for level in config.squeezing_levels)
    header = ["theta_a_rad"] + [f"s_{_pct(level)}" for level in config.squeezing_levels]
    thetas = _grid(0.0, math.pi / 2, config.angle_steps)
    s = ch_kernel(*_dense_swap_beams(outputs), angle_family(thetas[:, None]))["s"]
    _write_columns(config, "fig3", header, thetas, s, stream)
    return 0


def cmd_fig4(config: ExperimentConfig, stream: TextIO) -> int:
    """S vs feedforward gain at the maximizing angles, per squeezing level."""
    chis = [squeezing_to_chi(level) for level in config.squeezing_levels]
    header = ["lambda"] + [f"s_{_pct(level)}" for level in config.squeezing_levels]
    gains = _grid(config.lambda_min, config.lambda_max, config.lambda_steps)
    beam_a, d_prime = gain_sweep_beams(config.chi1, chis, config.eta, gains)
    s = ch_kernel(beam_a, d_prime, OPTIMAL_ANGLES)["s"]
    _write_columns(config, "fig4", header, gains, s, stream)
    return 0


def cmd_operating_point(config: ExperimentConfig, stream: TextIO) -> int:
    """Optimal-gain operating point for the first configured squeezing level.

    Emits the engine CH ratio, the optimal gain, and the coincidence
    transmission factor gain^2 * eta (the teleporter acts as an attenuator of
    that transmissivity on the paired-photon signal).
    """
    level = config.squeezing_levels[0]
    chi2 = squeezing_to_chi(level)
    gain = optimal_gain(chi2, config.eta)
    out = build_swap_circuit(SwapParams(config.chi1, chi2, gain, config.eta))
    s_ad = ch_s(out, OPTIMAL_ANGLES).s
    ratio = gain * gain * config.eta
    _emit(config, "operating_point", ["s_ad", "lambda_op", "coincidence_ratio"],
          [[s_ad, gain, ratio]], stream)
    return 0


def cmd_threshold_scan(config: ExperimentConfig, stream: TextIO) -> int:
    """S at optimal gain over an eta grid; prints the interpolated S=1 crossing."""
    chis = [squeezing_to_chi(level) for level in config.squeezing_levels]
    header = ["eta"] + [f"s_ad_{_pct(level)}" for level in config.squeezing_levels]
    etas = _grid(config.eta_min, config.eta_max, config.eta_steps)
    outputs = (build_swap_circuit(SwapParams(config.chi1, chi2,
                                             optimal_gain(chi2, eta), eta))
               for eta in etas.tolist() for chi2 in chis)
    s = ch_kernel(*_dense_swap_beams(outputs), OPTIMAL_ANGLES)["s"]
    rows = _write_columns(config, "threshold_scan", header, etas,
                          s.reshape(len(etas), len(chis)), stream)
    for column, level in enumerate(config.squeezing_levels, start=1):
        crossing = _interpolate_crossing([row[0] for row in rows],
                                         [row[column] for row in rows])
        value = _fmt(crossing) if crossing is not None else "none"
        stream.write(f"threshold_crossing_eta_{_pct(level)} = {value}\n")
    return 0


def _interpolate_crossing(etas: Sequence[float], values: Sequence[float]) -> float | None:
    for i in range(len(etas) - 1):
        if values[i] < 1.0 <= values[i + 1]:
            slope = (values[i + 1] - values[i]) / (etas[i + 1] - etas[i])
            return etas[i] + (1.0 - values[i]) / slope
    return None


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chi1", type=float, default=None,
                        help="source squeezer conversion efficiency (default 0.1)")
    parser.add_argument("--squeezing", type=float, action="append", default=None,
                        metavar="S", help="squeezing level in [0, 1); repeatable")
    parser.add_argument("--eta", type=float, default=None,
                        help="homodyne detection efficiency in [0, 1]")
    parser.add_argument("--lambda-min", type=float, default=None,
                        help="gain sweep lower bound (default 0.01)")
    parser.add_argument("--lambda-max", type=float, default=None,
                        help="gain sweep upper bound (default 2.0)")
    parser.add_argument("--lambda-steps", type=int, default=None,
                        help="gain sweep point count (default 200)")
    parser.add_argument("--angles-steps", type=int, default=None,
                        help="analyzer-angle grid point count (default 721)")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory for CSV/SVG files (default .)")
    parser.add_argument("--svg", action="store_true",
                        help="also write a minimal SVG line plot")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvswap",
                     description="Continuous-variable entanglement swapping sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p3 = sub.add_parser("fig3", parents=[], help="S vs analyzer angle at unity gain")
    _add_common_flags(p3)
    p4 = sub.add_parser("fig4", help="S vs feedforward gain at maximizing angles")
    _add_common_flags(p4)
    pop = sub.add_parser("operating-point",
                         help="optimal-gain operating point (default eta 0.9, 50% squeezing)")
    _add_common_flags(pop)
    pth = sub.add_parser("threshold-scan",
                         help="S at optimal gain vs detection efficiency")
    _add_common_flags(pth)
    pth.add_argument("--eta-min", type=float, default=None,
                     help="efficiency grid lower bound (default 0.70)")
    pth.add_argument("--eta-max", type=float, default=None,
                     help="efficiency grid upper bound (default 1.0)")
    pth.add_argument("--eta-steps", type=int, default=None,
                     help="efficiency grid point count (default 61)")
    sub.add_parser("selftest", help="run the algebra/oracle invariant suite")
    return parser


_COMMAND_DEFAULTS: dict[str, tuple[tuple[float, ...], float]] = {
    # command -> (default squeezing levels, default eta)
    "fig3": ((0.99, 0.80), 1.0),
    "fig4": ((0.10, 0.50, 0.80, 0.99), 1.0),
    "operating-point": ((0.5,), 0.9),
    "threshold-scan": ((0.3, 0.5, 0.9), 1.0),
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
    default_squeezing, default_eta = _COMMAND_DEFAULTS[args.command]
    try:
        config = _resolve_config(args, default_squeezing, default_eta)
        if args.command == "operating-point" and config.eta == 0:
            raise ValueError("operating-point needs eta > 0: the optimal gain "
                             "tanh(chi2)/sqrt(eta) diverges at eta = 0")
    except (ValueError, OSError) as exc:
        print(f"cvswap: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](config, sys.stdout)
    except NoCoincidencesError as exc:
        print(f"cvswap: degenerate physics: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
