"""Vector linear index codes for cyclic interference with known neighbors.

Builds adjacent-independent-row generator matrices, searches achievable
rate pairs, derives low-complexity decode plans, and verifies per-receiver
decodability over small prime fields.

The package re-exports each submodule's ``__all__``; names outside those
lists (``codec.PlanError``, ``air.layout_cells``, ...) are imported from
their submodule.
"""
from . import air, codec, distances, rates, sim
from .air import *  # noqa: F401,F403
from .codec import *  # noqa: F401,F403
from .distances import *  # noqa: F401,F403
from .rates import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *air.__all__,
    *codec.__all__,
    *distances.__all__,
    *rates.__all__,
    *sim.__all__,
    "__version__",
]
