"""Seeded synthetic series for oracle tests and smoke runs."""

import numpy as np

from ..errors import ConfigError
from .series import RawSeries


def synth_generate(length: int, period: int, amplitudes=(1.0,),
                   trend_slope: float = 0.0, noise_std: float = 0.0,
                   seed: int = 0, channels: int = 1) -> RawSeries:
    """Sum-of-harmonics series with optional linear trend and noise.

    Channel value at t is sum_k amplitudes[k] * sin(2*pi*(k+1)*t/period +
    phase) + trend_slope*t + gaussian noise, with phases and noise drawn
    deterministically from ``seed``.  With zero noise and zero slope the
    series is exactly ``period``-periodic.
    """
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    if period < 1:
        raise ConfigError(f"period must be >= 1, got {period}")
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    if not noise_std >= 0:
        raise ConfigError(f"noise std must be >= 0, got {noise_std}")
    if not any(amplitudes) and trend_slope == 0 and noise_std == 0:
        raise ConfigError("amplitudes, slope and noise are all zero, "
                          "so every channel would be constant")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    values = np.empty((length, channels))
    for c in range(channels):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amplitudes))
        signal = np.zeros(length)
        for k, amp in enumerate(amplitudes):
            signal += amp * np.sin(2.0 * np.pi * (k + 1) * t / period + phases[k])
        signal += trend_slope * t
        if noise_std > 0:
            signal += rng.normal(0.0, noise_std, size=length)
        values[:, c] = signal
    timestamps = [f"t{int(i):08d}" for i in range(length)]
    names = [f"ch{c}" for c in range(channels)]
    return RawSeries(timestamps, values, names)
