"""Current density impedance imaging on the unit square.

Forward solves use the complete electrode model; the inverse step
minimizes a weighted gradient functional over CEM-feasible potentials and
a boundary-curve measurement calibrates away the inherent non-uniqueness.
"""

from .calibration import (
    BoundaryVoltageTrace,
    PhiMap,
    apply_calibration,
    build_monotone_map,
    collect_pairs,
)
from .config import ConfigError, PipelineConfig, load_config
from .fem_cem import (
    CemOperator,
    ConductivityField,
    CurrentPattern,
    ForwardSolution,
    LastFactor,
    SolverError,
    electrode_flux,
    interior_current,
    solve_forward,
)
from .mesh import (
    Electrode,
    ElectrodeSetup,
    Mesh,
    ParameterError,
    SIDES,
    build_uniform_mesh,
    centroids,
    locate_electrodes,
    triangle_gradients,
)
from .phantom import (
    add_noise,
    gaussian_phantom,
    simulate_data,
)
from .weighted_gradient import (
    InteriorData,
    IterationRecord,
    ReconstructionConfig,
    ReconstructionResult,
    clamp_conductivity,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryVoltageTrace",
    "CemOperator",
    "ConductivityField",
    "ConfigError",
    "CurrentPattern",
    "Electrode",
    "ElectrodeSetup",
    "ForwardSolution",
    "InteriorData",
    "IterationRecord",
    "LastFactor",
    "Mesh",
    "ParameterError",
    "PhiMap",
    "PipelineConfig",
    "ReconstructionConfig",
    "ReconstructionResult",
    "SIDES",
    "SolverError",
    "add_noise",
    "apply_calibration",
    "build_monotone_map",
    "build_uniform_mesh",
    "centroids",
    "clamp_conductivity",
    "collect_pairs",
    "electrode_flux",
    "gaussian_phantom",
    "interior_current",
    "load_config",
    "locate_electrodes",
    "reconstruct",
    "simulate_data",
    "solve_forward",
    "triangle_gradients",
]
