"""The package's top-level names."""

import pytest

import cvswap
from cvswap import circuit, metrics, modes, oracle

# the 45 names cvswap has exported since it listed them one by one
EXPORTED = """
AnalyticInputs AnalyzerAngles CHResult FockState LinearField ModeRegistry
NoCoincidencesError OPTIMAL_ANGLES PolarizedBeam SwapCircuitOutput SwapParams
TruncationError analytic_rate_teleported analytic_s_ad
analytic_singles_teleported analyzer angle_family attenuate beamsplitter_5050
build_source_state build_swap_circuit ch_s coincidence_rate commutator
eta_threshold feedforward_displace fock_coincidence_rate fock_singles_rate
gain_window halfwave_swap homodyne_currents maximize_s
normal_order_expectation opo_type2 optimal_gain pair_contraction
quadrature_minus quadrature_plus single_mode_teleporter singles_rate
squeezing_to_chi two_mode_squeezer vacuum_expectation vacuum_field
wick_matchings
""".split()


def test_exported_names_stay_importable():
    assert len(EXPORTED) == 45
    assert [name for name in EXPORTED if not hasattr(cvswap, name)] == []


@pytest.mark.parametrize("module", [circuit, metrics, modes, oracle])
def test_top_level_exports_each_submodule_all(module):
    for name in module.__all__:
        assert getattr(cvswap, name) is getattr(module, name), name
