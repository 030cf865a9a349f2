"""Cycle-approximate simulation of opportunistic near-data computation on a
many-core GPU running direct-convolution layers.

Two cooperating schemes are modeled on top of a baseline machine: per-SM
memoization of predicted future computations executed by an assistant during
stall cycles, and per-cluster forwarding of computations to the SM that
already holds the operand blocks.  `opconv` checks every run against a
naive reference convolution, so the schemes change only where and when work
happens, never its arithmetic result.
"""

from .workload import (
    ConfigError,
    LayerGeometry,
    LayerSpec,
    OpStream,
    Pass,
    TensorLayout,
    alexnet_conv_layers,
    backward_specs,
    enumerate_ops,
    lenet5_layers,
    make_layouts,
    map_to_warps,
    reuse_histogram,
    shrink_layer,
)
from .cachehier import (
    CacheGeometry,
    MemoryHierarchy,
    mesh_placement,
)
from .oracle import MemoryImage, compare, reference_convolution
from .intra import PrecomputeTable, predictor
from .inter import AssignTable, cluster_map
from .metrics import (
    EnergyWeights,
    SimStats,
    computation_distribution,
    energy,
    inter_sm_availability,
    ipc,
    normalize,
    prediction_accuracy,
)
from .smcore import (
    OutputBuffer,
    SimParams,
    Simulation,
    SimulationError,
    run_simulation,
)
from .cli import DEFAULTS, PRESETS, build_layers, run_experiment, sweep

__version__ = "0.1.0"

__all__ = [
    "AssignTable", "CacheGeometry", "ConfigError", "DEFAULTS",
    "EnergyWeights", "LayerGeometry", "LayerSpec",
    "MemoryHierarchy", "MemoryImage", "OpStream", "OutputBuffer",
    "PRESETS",
    "Pass", "PrecomputeTable", "SimParams", "SimStats",
    "Simulation", "SimulationError", "TensorLayout",
    "alexnet_conv_layers", "backward_specs",
    "build_layers", "cluster_map", "compare", "computation_distribution",
    "energy", "enumerate_ops", "inter_sm_availability", "ipc",
    "lenet5_layers", "make_layouts", "map_to_warps", "mesh_placement",
    "normalize", "prediction_accuracy", "predictor", "reference_convolution",
    "reuse_histogram", "run_experiment", "run_simulation", "shrink_layer", "sweep",
]
