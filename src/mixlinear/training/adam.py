"""Adam optimizer over the named parameter arrays."""

from dataclasses import dataclass, replace

import numpy as np

from ..model.params import MixLinearParams
from .backward import GradientSet

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimizerState:
    """First/second moment accumulators, one per named parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: MixLinearParams) -> OptimizerState:
    return OptimizerState(
        m={name: np.zeros_like(arr) for name, arr in params.named_arrays()},
        v={name: np.zeros_like(arr) for name, arr in params.named_arrays()},
    )


def adam_step(params: MixLinearParams, grads: GradientSet, state: OptimizerState,
              lr: float) -> tuple[MixLinearParams, OptimizerState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    t = state.step + 1
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    updates: dict[str, np.ndarray] = {}
    for name, arr in params.named_arrays():
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(
                f"gradient for {name!r} has shape {g.shape}, expected {arr.shape}"
            )
        m = BETA1 * state.m[name] + (1.0 - BETA1) * g
        v = BETA2 * state.v[name] + (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        new_m[name] = m
        new_v[name] = v
        updates[name] = arr - lr * m_hat / (np.sqrt(v_hat) + EPS)
    new_params = replace(params, **updates)
    return new_params, OptimizerState(new_m, new_v, t)
