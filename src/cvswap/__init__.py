"""Exact simulator of continuous-variable entanglement swapping.

Builds the optical network in the Heisenberg picture, evaluates photon
coincidence rates as vacuum moments via Wick's theorem, and computes
Clauser-Horne inequality violations across squeezing, feedforward gain and
detection efficiency.
"""

from .circuit import (
    PolarizedBeam,
    SwapCircuitOutput,
    SwapParams,
    attenuate,
    beamsplitter_5050,
    build_swap_circuit,
    feedforward_displace,
    halfwave_swap,
    homodyne_currents,
    opo_type2,
    single_mode_teleporter,
    two_mode_squeezer,
)
from .metrics import (
    OPTIMAL_ANGLES,
    AnalyticInputs,
    AnalyzerAngles,
    CHResult,
    NoCoincidencesError,
    analytic_rate_teleported,
    analytic_s_ad,
    analytic_singles_teleported,
    analyzer,
    angle_family,
    ch_s,
    coincidence_rate,
    eta_threshold,
    gain_window,
    maximize_s,
    optimal_gain,
    singles_rate,
    squeezing_to_chi,
)
from .modes import (
    LinearField,
    ModeRegistry,
    commutator,
    pair_contraction,
    quadrature_minus,
    quadrature_plus,
    vacuum_expectation,
    vacuum_field,
    wick_matchings,
)
from .oracle import (
    FockState,
    TruncationError,
    build_source_state,
    fock_coincidence_rate,
    fock_singles_rate,
    normal_order_expectation,
)

__version__ = "0.1.0"
