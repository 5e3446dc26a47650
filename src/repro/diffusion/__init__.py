"""IMDPP diffusion engines: local numpy reference + Spark sample shards."""
from repro.diffusion.local import SimResult, simulate, simulate_groups, likelihood_pi
from repro.diffusion.sigma import sigma_from_adopt_t

__all__ = [
    "SimResult", "simulate", "simulate_groups", "likelihood_pi", "sigma_from_adopt_t",
]
