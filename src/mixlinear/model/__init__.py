"""MixLinear forward model: configuration, parameters, and evaluation."""

from .config import Mode, ModelConfig, ShapePlan, plan_shapes
from .forward import (
    forward,
    forward_batch,
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
    "plan_shapes",
    "forward",
    "forward_batch",
    "forward_multichannel",
    "PARAM_NAMES",
    "MixLinearParams",
    "init_params",
    "load_checkpoint",
    "param_count",
    "param_shapes",
    "save_checkpoint",
]
