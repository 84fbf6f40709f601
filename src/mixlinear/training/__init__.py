"""Gradients, optimization, and the training/evaluation loop."""

from .adam import OptimizerState, adam_step, init_adam
from .backward import (
    GradCheckResult,
    GradientSet,
    backward,
    draw_biases,
    grad_check,
    gradcheck_trials,
    random_small_config,
)
from .loop import (
    TrainConfig,
    TrainHistory,
    batch_size_for_channels,
    evaluate,
    train,
    write_history,
)

__all__ = [
    "OptimizerState",
    "adam_step",
    "init_adam",
    "GradCheckResult",
    "GradientSet",
    "backward",
    "draw_biases",
    "grad_check",
    "gradcheck_trials",
    "random_small_config",
    "TrainConfig",
    "TrainHistory",
    "batch_size_for_channels",
    "evaluate",
    "train",
    "write_history",
]
