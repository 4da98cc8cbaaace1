"""Exact Hessian spectra, curvature-based attacks, and robust training for
small image classifiers, all in plain NumPy."""

import os as _os

from .errors import ConfigError


def thread_cap():
    """``HESSLENS_THREADS`` as a positive int, None when unset or empty;
    ConfigError for any other value."""
    value = _os.environ.get("HESSLENS_THREADS", "")
    if value and not (value.isascii() and value.isdigit() and int(value) > 0):
        raise ConfigError(f"HESSLENS_THREADS must be a positive integer, got {value!r}")
    return int(value) if value else None


# Honor the thread cap before NumPy initializes its BLAS thread pools; the
# variables are only filled in if the user has not pinned them already, and
# not for a bad value, which cli.main reports.
try:
    _threads = thread_cap()
except ConfigError:
    _threads = None
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, str(_threads))

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
