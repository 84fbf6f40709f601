"""Analytic multiply-accumulate accounting for one univariate prediction.

The DFT pair is evaluated as a product with a precomputed coefficient
matrix, so its multiply count is exact rather than estimated: the forward
transform multiplies complex coefficients by real samples (2 real MACs
each), the inverse needs only the real part of complex*complex products
(2 real MACs each).  Complex linear layers count 4 real MACs per complex
multiply.  The convention string ships inside every report so the
numbers stay auditable.
"""

from ..model.config import Mode, ModelConfig

MAC_CONVENTION = (
    "one L->H univariate prediction; conv L*w; time branch "
    "w*seg_in*seg_out*(seg_in+seg_out); frequency branch w*(2*bins_in*n_hat "
    "[matrix DFT, complex coeff x real sample] + 4*(cutoff*latent + "
    "latent*bins_out) [complex layers] + 2*m_hat*bins_out [matrix inverse "
    "DFT, real part only]); baseline w*n*m"
)


def count_macs(config: ModelConfig) -> int:
    plan = config.plan
    w = config.period
    total = config.lookback * w  # aggregation convolution
    if config.mode is Mode.SPARSE_BASELINE:
        return total + w * plan.n * plan.m
    if config.has_time_branch:
        total += w * plan.seg_in * plan.seg_out * (plan.seg_in + plan.seg_out)
    if config.has_freq_branch:
        forward_dft = 2 * plan.bins_in * plan.n_hat
        layers = 4 * (config.lpf_cutoff * config.latent_width
                      + config.latent_width * plan.bins_out)
        inverse_dft = 2 * plan.m_hat * plan.bins_out
        total += w * (forward_dft + layers + inverse_dft)
    return total
