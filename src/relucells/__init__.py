"""Sparse measure representations of shallow ReLU networks.

Cell enumeration of the dataset's dual hyperplane arrangement, convex
finite solvers for variation-norm and label-noise interpolation, particle
training dynamics, and sparsity analysis tooling.
"""

from .analysis import (
    EffectiveSupport,
    SparsityReport,
    compare_supports,
    effective_support,
    merge_cell_mass,
    one_point_per_cell,
    representer_check,
)
from .arrangement import (
    Cell,
    CellDecomposition,
    enumerate_cells,
    expected_cell_count,
    locate_cell,
)
from .errors import (
    ConvergenceError,
    InfeasibleError,
    ReluCellsError,
)
from .model import (
    AtomicMeasure,
    Dataset,
    Neuron,
    ParticleNetwork,
    RadonMeasure,
    load_dataset_csv,
    predict_measure,
    predict_network,
    predict_radon,
    project_to_sphere,
)
from .potentials import PotentialKind, cell_gauge, potential, rescale_minimize
from .solver import (
    FiniteProgram,
    LPInstance,
    Solution,
    build_program,
    extract_radon,
    lp_l1,
    solve,
)
from .trainer import (
    TrainConfig,
    TrainTrace,
    gd_weight_decay,
    grad_phi_sq,
    implicit_lambda,
    sgd_label_noise,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "Cell", "CellDecomposition", "ConvergenceError",
    "Dataset", "EffectiveSupport", "FiniteProgram", "InfeasibleError",
    "LPInstance", "Neuron", "ParticleNetwork", "PotentialKind",
    "RadonMeasure", "ReluCellsError", "Solution", "SparsityReport",
    "TrainConfig", "TrainTrace", "build_program", "cell_gauge",
    "compare_supports", "effective_support", "enumerate_cells",
    "expected_cell_count", "extract_radon", "gd_weight_decay", "grad_phi_sq",
    "implicit_lambda", "load_dataset_csv", "locate_cell", "lp_l1",
    "merge_cell_mass", "one_point_per_cell", "potential", "predict_measure",
    "predict_network", "predict_radon", "project_to_sphere",
    "representer_check", "rescale_minimize", "sgd_label_noise", "solve",
]
