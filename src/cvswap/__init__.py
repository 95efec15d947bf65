"""Exact simulator of continuous-variable entanglement swapping.

Builds the optical network in the Heisenberg picture, evaluates photon
coincidence rates as vacuum moments via Wick's theorem, and computes
Clauser-Horne inequality violations across squeezing, feedforward gain and
detection efficiency.
"""

from .circuit import *
from .metrics import *
from .modes import *
from .oracle import *

__version__ = "0.1.0"
