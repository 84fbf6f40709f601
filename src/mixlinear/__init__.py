"""MixLinear: an ultra-lightweight long-term time series forecaster.

Period-decoupled trend segmentation in the time domain combined with
latent-space spectrum reconstruction in the frequency domain, plus the
full training/evaluation stack and CLI around it.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    MixLinearError,
    NumericError,
)
from .model import (
    MixLinearParams,
    Mode,
    ModelConfig,
    ShapePlan,
    forward,
    forward_multichannel,
    init_params,
    load_checkpoint,
    param_count,
    param_shapes,
    plan_shapes,
    save_checkpoint,
)
from .training import TrainConfig, TrainHistory, evaluate, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "DataError",
    "MixLinearError",
    "NumericError",
    "MixLinearParams",
    "Mode",
    "ModelConfig",
    "ShapePlan",
    "forward",
    "forward_multichannel",
    "init_params",
    "load_checkpoint",
    "param_count",
    "param_shapes",
    "plan_shapes",
    "save_checkpoint",
    "TrainConfig",
    "TrainHistory",
    "evaluate",
    "grad_check",
    "train",
    "__version__",
]
