"""The contract of cvswap's eight record types.

Six are NamedTuples and two, whose constructors check or build their
fields, are ``__slots__`` classes that refuse assignment.  None is a
dataclass: a dataclass writes and compiles its methods as its class is
created, at every import of the package, and with the package's bytecode
cached that was half of its import time.
"""

import ast
import importlib
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cvswap
from cvswap import (
    OPTIMAL_ANGLES,
    AnalyticInputs,
    AnalyzerAngles,
    CHResult,
    FockState,
    PolarizedBeam,
    SwapCircuitOutput,
    SwapParams,
    build_source_state,
    build_swap_circuit,
    ch_s,
    maximize_s,
)
from cvswap.cli import ExperimentConfig, main

FIELDS = {
    AnalyzerAngles: ("theta_a", "theta_b", "theta_a_prime", "theta_b_prime"),
    CHResult: ("r_ab", "r_ab_prime", "r_a_prime_b", "r_a_prime_b_prime", "r_singles_a",
               "r_singles_b", "s"),
    AnalyticInputs: ("s_ab", "chi2", "gain", "eta"),
    FockState: ("cutoff", "amplitudes"),
    SwapCircuitOutput: ("beam_a", "beam_d0", "parts", "weights", "registry"),
    ExperimentConfig: ("chi1", "squeezing", "eta", "lambda_min", "lambda_max", "lambda_steps",
                       "angles_steps", "eta_min", "eta_max", "eta_steps", "out", "svg"),
    PolarizedBeam: ("field",),
    SwapParams: ("chi1", "chi2", "gain", "eta"),
}

# each command's --help at 80 columns
HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text())


def records() -> dict:
    """One instance of each record type, by type."""
    params = SwapParams(0.1, 0.5, 0.7, 0.9)
    out = build_swap_circuit(params)
    instances = [OPTIMAL_ANGLES, ch_s(out, OPTIMAL_ANGLES), AnalyticInputs(1.2, 0.5, 0.4, 0.9),
                 build_source_state(0.1, 3, "exact_product"), out, ExperimentConfig(),
                 out.beam_a, params]
    return {type(instance): instance for instance in instances}


def test_field_names_order_and_defaults():
    for record, fields in FIELDS.items():
        if issubclass(record, tuple):
            assert record._fields == fields, record.__name__
        else:
            assert record.__slots__ == fields, record.__name__
    assert ExperimentConfig._field_defaults == {
        "chi1": 0.1, "squeezing": (), "eta": 1.0, "lambda_min": 0.01, "lambda_max": 2.0,
        "lambda_steps": 200, "angles_steps": 721, "eta_min": 0.7, "eta_max": 1.0,
        "eta_steps": 61, "out": Path("."), "svg": False}
    assert all(record._field_defaults == {} for record in FIELDS
               if issubclass(record, tuple) and record is not ExperimentConfig)


@pytest.mark.parametrize("record_type", FIELDS, ids=lambda record_type: record_type.__name__)
def test_assignment_raises(record_type):
    record = records()[record_type]
    for name in (*FIELDS[record_type], "extra"):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert getattr(record, name, None) is before


@pytest.mark.parametrize("args", [
    (-0.1, 0.5, 0.7, 0.8),
    (0.1, 0.5, 0.7, 1.2),
    (0.1, 0.5, -0.7, 0.8),
    (0.1, math.inf, 0.7, 0.8),
    (0.1, np.array([0.5, -0.5]), 0.7, 0.8),
    (0.1, 0.5, 0.7, np.array([0.8, math.nan])),
])
def test_swap_params_raises_at_construction(args):
    with pytest.raises(ValueError):
        SwapParams(*args)


def test_circuit_output_is_read_as_its_beams_not_as_a_tuple():
    """ch_s and maximize_s take a circuit output as (A, D'); its first two
    items, (A, D'(0)), give another S."""
    out = build_swap_circuit(SwapParams(0.1, 0.5, 0.7, 0.9))
    pair = (out.beam_a, out.beam_d_prime)
    assert ch_s(out, OPTIMAL_ANGLES).s == ch_s(pair, OPTIMAL_ANGLES).s
    assert maximize_s(out, steps=41) == maximize_s(pair, steps=41)
    assert ch_s(out[:2], OPTIMAL_ANGLES).s != ch_s(pair, OPTIMAL_ANGLES).s


@pytest.mark.parametrize("command", HELP)
def test_help_is_unchanged(monkeypatch, capsys, command):
    """Each flag's help shows its command's default, from the command's
    table row or ExperimentConfig's field defaults."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_no_module_imports_dataclasses():
    for path in sorted(Path(cvswap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [m.split(".")[0] for m in modules], \
                f"{path.name}:{node.lineno}"


def test_no_class_is_a_dataclass():
    modules = [importlib.import_module(f"cvswap.{info.name}")
               for info in pkgutil.iter_modules(cvswap.__path__)]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("cvswap")}
    assert set(FIELDS) <= classes
    assert [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")] == []
