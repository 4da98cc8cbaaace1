"""Exact Hessian spectra, curvature-based attacks, and robust training for
small image classifiers, all in plain NumPy."""

import os as _os

# Honor the thread cap before NumPy initializes its BLAS thread pools; the
# variables are only filled in if the user has not pinned them already.
_threads = _os.environ.get("HESSLENS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from . import autodiff, attacks, dataio, landscape, nn, spectrum, training
from .attacks import (
    ATTACK_NAMES,
    ATTACK_NORMS,
    Damping,
    attack_batch,
    eps_preset,
    evaluate_adversarial,
)
from .autodiff import ParamVector, value_and_grad
from .config import ExperimentConfig, load_config, load_data
from .dataio import (
    Dataset,
    load_checkpoint,
    load_dataset,
    load_idx,
    save_checkpoint,
    save_dataset,
    synth_blobs,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContractError,
    CorruptionError,
    DegenerateDirectionError,
    DegenerateSpectrumError,
    DependencyError,
    DimensionError,
    DivergenceError,
    FormatError,
    HessLensError,
    NumericError,
    PSDViolationError,
    VersionError,
    ZeroDirectionError,
)
from .landscape import (
    grid,
    interpolate_models,
    quadratic_coefficient,
    random_direction,
    scan_1d,
    scan_2d,
)
from .nn import Model, ModelConfig, build_model, c1_desk, m1_desk
from .spectrum import (
    EigenPair,
    InputHvpOperator,
    SpectrumResult,
    ThetaHvpOperator,
    input_spectrum,
    power_iteration_topk,
    theta_spectrum,
)
from .training import TrainConfig, TrainResult, TrainState, sgd_train
