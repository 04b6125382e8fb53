from .energies import EnergyWeights, energy_2d, net_pose_targets
from .fitting import initial_fit, sparse_view_fit
from .lm import LMOptions, LMResult, levenberg_marquardt, numeric_jacobian
from .refine import refine

__all__ = [
    "EnergyWeights", "LMOptions", "LMResult", "energy_2d", "initial_fit",
    "levenberg_marquardt", "net_pose_targets", "numeric_jacobian", "refine",
    "sparse_view_fit",
]
