"""MixLinear forward model: configuration, parameters, and evaluation."""

from .config import Mode, ModelConfig, ShapePlan, check_spectral_bounds, plan_shapes
from .forward import (
    ForwardTrace,
    forward,
    forward_batch,
    forward_batch_with_trace,
    forward_multichannel,
)
from .params import (
    PARAM_NAMES,
    MixLinearParams,
    init_params,
    load_checkpoint,
    param_count,
    param_shapes,
    save_checkpoint,
)

__all__ = [
    "Mode",
    "ModelConfig",
    "ShapePlan",
    "check_spectral_bounds",
    "plan_shapes",
    "ForwardTrace",
    "forward",
    "forward_batch",
    "forward_batch_with_trace",
    "forward_multichannel",
    "PARAM_NAMES",
    "MixLinearParams",
    "init_params",
    "load_checkpoint",
    "param_count",
    "param_shapes",
    "save_checkpoint",
]
