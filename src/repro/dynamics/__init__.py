"""The four IMDPP factors (Sec. V-A) as pure kernels + model state."""
from repro.dynamics.kernels import (
    init_weights,
    normalize_rows,
    influence_strength,
    weight_gains,
    update_weights,
)
from repro.dynamics.state import ModelData, WorldState, init_state

__all__ = [
    "init_weights",
    "normalize_rows",
    "influence_strength",
    "weight_gains",
    "update_weights",
    "ModelData",
    "WorldState",
    "init_state",
]
