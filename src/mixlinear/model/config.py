"""Model configuration and derived shape planning."""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from ..errors import ConfigError
from ..numerics import spectrum_bins


class Mode(str, Enum):
    """Which transformation branches the forecaster runs.

    MIX combines the time and frequency branches; TIME_ONLY and FREQ_ONLY
    disable one of them; SPARSE_BASELINE replaces both with a single
    pointwise linear map over the downsampled trend.
    """

    MIX = "Mix"
    TIME_ONLY = "TimeOnly"
    FREQ_ONLY = "FreqOnly"
    SPARSE_BASELINE = "SparseBaseline"

    @classmethod
    def parse(cls, value: "Mode | str") -> "Mode":
        if isinstance(value, cls):
            return value
        for mode in cls:
            if mode.value.lower() == str(value).lower():
                return mode
        raise ConfigError(
            f"unknown mode {value!r}; expected one of {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class ModelConfig:
    """All user-facing hyperparameters of one forecaster instance.

    lookback: historical window length L.
    horizon: number of future steps H.
    period: dominant cycle length w (e.g. 24 for hourly data).
    lpf_cutoff: number of low-frequency spectrum bins kept by the low-pass
        filter.
    latent_width: dimension of the compressed complex spectral space.

    A config is validated whole at construction (``dataclasses.replace``
    included), so every instance can run; ``plan`` is its shape plan,
    computed once and outside ``==`` and ``hash``.
    """

    lookback: int
    horizon: int
    period: int
    lpf_cutoff: int = 5
    latent_width: int = 2
    mode: Mode = Mode.MIX

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode.parse(self.mode))
        for name in ("lookback", "horizon", "period", "lpf_cutoff", "latent_width"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.period > self.lookback:
            raise ConfigError(
                f"period {self.period} exceeds lookback {self.lookback}"
            )
        if self.has_freq_branch and self.lpf_cutoff > self.plan.bins_in:
            raise ConfigError(
                f"lpf_cutoff {self.lpf_cutoff} exceeds the {self.plan.bins_in} available "
                f"spectrum bins of the padded trend length {self.plan.n_hat}"
            )

    @cached_property
    def plan(self) -> "ShapePlan":
        return plan_shapes(self)

    @property
    def has_time_branch(self) -> bool:
        return self.mode in (Mode.MIX, Mode.TIME_ONLY)

    @property
    def has_freq_branch(self) -> bool:
        return self.mode in (Mode.MIX, Mode.FREQ_ONLY)


@dataclass(frozen=True)
class ShapePlan:
    """Every dimension derived from (lookback, horizon, period).

    ``n``/``m`` are the downsampled input/output lengths; ``n_hat``/``m_hat``
    round them up to the next perfect square so rows split into ``seg_in``
    (resp. ``seg_out``) segments of that same size; ``bins_in``/``bins_out``
    are the half-spectrum widths of the padded lengths.
    """

    n: int
    m: int
    n_hat: int
    m_hat: int
    seg_in: int
    seg_out: int
    bins_in: int
    bins_out: int


def plan_shapes(config: ModelConfig) -> ShapePlan:
    """Compute the derived dimensions; ``ModelConfig.plan`` caches the result."""
    n = math.ceil(config.lookback / config.period)
    m = math.ceil(config.horizon / config.period)
    # ceil(sqrt(k)) in exact integer arithmetic
    seg_in = math.isqrt(n - 1) + 1
    seg_out = math.isqrt(m - 1) + 1
    n_hat = seg_in * seg_in
    m_hat = seg_out * seg_out
    return ShapePlan(
        n=n,
        m=m,
        n_hat=n_hat,
        m_hat=m_hat,
        seg_in=seg_in,
        seg_out=seg_out,
        bins_in=spectrum_bins(n_hat),
        bins_out=spectrum_bins(m_hat),
    )

