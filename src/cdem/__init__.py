"""Cross-domain error minimization: learn a shared linear subspace in which
a labeled source domain and an unlabeled target domain align, by alternating
a generalized eigenproblem with curriculum pseudo-labeling."""

from .errors import (
    CdemError,
    ConfigError,
    DataError,
    DegenerateDataError,
    FormatError,
    NumericError,
)
from .matio import DomainPair, ExperimentConfig, load_config, load_domain_pair
from .synth import ShiftSpec, generate, standard_shift_spec
from .trainer import AdaptationResult, PreparedTask, prepare_task, run_adaptation

__version__ = "0.1.0"

__all__ = [
    "AdaptationResult",
    "CdemError",
    "ConfigError",
    "DataError",
    "DegenerateDataError",
    "DomainPair",
    "ExperimentConfig",
    "FormatError",
    "NumericError",
    "PreparedTask",
    "ShiftSpec",
    "__version__",
    "generate",
    "load_config",
    "load_domain_pair",
    "prepare_task",
    "run_adaptation",
    "standard_shift_spec",
]
