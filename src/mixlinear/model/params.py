"""Learnable state: shapes, initialization, counting, and checkpoint I/O.

Complex weights are stored as separate real/imaginary float64 arrays so
the whole parameter set is a flat collection of real arrays; the forward
pass assembles complex matrices on the fly.
"""

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, ConfigError
from .config import Mode, ModelConfig, ShapePlan, check_spectral_bounds, plan_shapes

CHECKPOINT_MAGIC = b"MIXLINEAR-CHECKPOINT"
CHECKPOINT_VERSION = 1

# Fixed order of the named parameter arrays (also the checkpoint layout).
PARAM_NAMES = (
    "conv_kernel",
    "conv_bias",
    "w_intra",
    "b_intra",
    "w_inter",
    "b_inter",
    "w_enc_re",
    "w_enc_im",
    "w_dec_re",
    "w_dec_im",
    "w_point",
)


@dataclass
class MixLinearParams:
    """Every learned array, keyed by fixed names.

    conv_kernel/conv_bias: period-wide aggregation filter (all modes).
    w_intra/b_intra, w_inter/b_inter: the two segment maps (time branch).
    w_enc_*/w_dec_*: complex spectral compressor/reconstructor components
        (frequency branch; no biases).
    w_point: single pointwise trend map (sparse baseline only).
    """

    mode: Mode
    conv_kernel: np.ndarray
    conv_bias: np.ndarray
    w_intra: np.ndarray | None = None
    b_intra: np.ndarray | None = None
    w_inter: np.ndarray | None = None
    b_inter: np.ndarray | None = None
    w_enc_re: np.ndarray | None = None
    w_enc_im: np.ndarray | None = None
    w_dec_re: np.ndarray | None = None
    w_dec_im: np.ndarray | None = None
    w_point: np.ndarray | None = None

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Present (name, array) pairs in fixed declaration order."""
        return [(n, getattr(self, n)) for n in PARAM_NAMES if getattr(self, n) is not None]

    def copy(self) -> "MixLinearParams":
        return replace(
            self,
            **{name: arr.copy() for name, arr in self.named_arrays()},
        )

    @property
    def w_enc(self) -> np.ndarray:
        return self.w_enc_re + 1j * self.w_enc_im

    @property
    def w_dec(self) -> np.ndarray:
        return self.w_dec_re + 1j * self.w_dec_im


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every learned array ``config.mode`` has, in PARAM_NAMES order.

    Complex weights appear as their real and imaginary components, so the
    shapes cover every learned scalar exactly once.
    """
    plan = plan_shapes(config)
    shapes = {"conv_kernel": (config.period,), "conv_bias": ()}
    if config.mode is Mode.SPARSE_BASELINE:
        shapes["w_point"] = (plan.m, plan.n)
        return shapes
    if config.has_time_branch:
        shapes["w_intra"] = (plan.seg_out, plan.seg_in)
        shapes["b_intra"] = (plan.seg_out,)
        shapes["w_inter"] = (plan.seg_out, plan.seg_in)
        shapes["b_inter"] = (plan.seg_out,)
    if config.has_freq_branch:
        latent = config.latent_width
        shapes["w_enc_re"] = (latent, config.lpf_cutoff)
        shapes["w_enc_im"] = (latent, config.lpf_cutoff)
        shapes["w_dec_re"] = (plan.bins_out, latent)
        shapes["w_dec_im"] = (plan.bins_out, latent)
    return shapes


def init_params(config: ModelConfig, seed: int) -> MixLinearParams:
    """Draw a fresh parameter set, deterministic in ``seed``.

    Weights (and each complex component) are uniform on +/- 1/sqrt(fan_in),
    where fan_in is the last axis; biases start at zero.  Arrays are drawn
    in PARAM_NAMES order, and every mix-family mode draws the full Mix set
    before keeping its own arrays, so Mix/TimeOnly/FreqOnly runs with the
    same seed share identical values for the parts they share.
    """
    check_spectral_bounds(config, plan_shapes(config))
    draw = config if config.mode is Mode.SPARSE_BASELINE else replace(config, mode=Mode.MIX)
    keep = param_shapes(config)
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(draw).items():
        if name == "conv_bias" or name.startswith("b_"):
            arr = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[-1])
            arr = rng.uniform(-bound, bound, size=shape)
        if name in keep:
            arrays[name] = arr
    return MixLinearParams(mode=config.mode, **arrays)


def param_count(config: ModelConfig) -> int:
    """Exact number of learned scalars (complex entries count twice)."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


# ---------------------------------------------------------------------------
# checkpoint format: one magic line, one JSON header line, then the raw
# float64 little-endian array payloads concatenated in header order.


def _config_to_dict(config: ModelConfig) -> dict:
    return {
        "lookback": config.lookback,
        "horizon": config.horizon,
        "period": config.period,
        "lpf_cutoff": config.lpf_cutoff,
        "latent_width": config.latent_width,
        "mode": config.mode.value,
    }


def _config_from_dict(data: dict) -> ModelConfig:
    try:
        sizes = {key: data[key] for key in
                 ("lookback", "horizon", "period", "lpf_cutoff", "latent_width")}
        # exact ints only: bool is an int subclass, and floats or strings
        # would otherwise be coerced (720.7 -> 720)
        for key, value in sizes.items():
            if type(value) is not int:
                raise ValueError(f"{key} must be an integer, got {value!r}")
        return ModelConfig(**sizes, mode=Mode.parse(data["mode"]))
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"invalid config block in checkpoint: {exc}") from exc


def _array_table(shapes: dict[str, tuple[int, ...]]) -> list[dict]:
    """Header entries for arrays stored back to back in ``shapes`` order."""
    entries = []
    offset = 0
    for name, shape in shapes.items():
        entries.append({"name": name, "shape": list(shape), "dtype": "<f8", "offset": offset})
        offset += 8 * math.prod(shape)
    return entries


def save_checkpoint(path, config: ModelConfig, params: MixLinearParams) -> None:
    """Write config, shape plan, and parameter arrays to ``path``.

    ``params`` must hold exactly ``param_shapes(config)`` (names, order,
    shapes); otherwise nothing is written and ``CheckpointError`` is
    raised, since ``load_checkpoint`` would reject the file.  The file is
    byte-deterministic for identical inputs: a sorted compact JSON header
    followed by raw ``<f8`` payloads.
    """
    arrays = params.named_arrays()
    shapes = param_shapes(config)
    found = [(name, arr.shape) for name, arr in arrays]
    if found != list(shapes.items()):
        raise CheckpointError(
            f"{path}: parameters {found} do not match the {config.mode.value} "
            f"parameter shapes {shapes}"
        )
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": _config_to_dict(config),
        "plan": asdict(plan_shapes(config)),
        "arrays": _array_table(shapes),
    }
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays
    )
    payload = (
        CHECKPOINT_MAGIC
        + b"\n"
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + blob
    )
    Path(path).write_bytes(payload)


def load_checkpoint(path) -> tuple[ModelConfig, ShapePlan, MixLinearParams]:
    """Read a checkpoint, accepting only exactly what ``save_checkpoint`` writes.

    The header's plan must equal the config's, its array table must list
    ``param_shapes(config)`` back to back from offset 0, the payload must
    end after the last array, and every value must be finite.
    """
    data = Path(path).read_bytes()
    magic_end = data.find(b"\n")
    if magic_end < 0 or data[:magic_end] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a MixLinear checkpoint")
    header_end = data.find(b"\n", magic_end + 1)
    if header_end < 0:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[magic_end + 1:header_end])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: bad checkpoint header: not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')}"
        )
    config = _config_from_dict(header.get("config", {}))
    plan = plan_shapes(config)
    if header.get("plan") != asdict(plan):
        raise CheckpointError(f"{path}: header plan does not match the config's {plan}")
    shapes = param_shapes(config)
    if header.get("arrays") != _array_table(shapes):
        raise CheckpointError(
            f"{path}: array table does not list the {config.mode.value} parameter "
            f"shapes {shapes} back to back from offset 0"
        )
    blob = data[header_end + 1:]
    expected_bytes = 8 * param_count(config)
    if len(blob) != expected_bytes:
        raise CheckpointError(
            f"{path}: payload has {len(blob)} bytes, expected {expected_bytes}"
        )
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CheckpointError(f"{path}: non-finite parameter values")
    arrays = {}
    offset = 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        arrays[name] = values[offset:offset + count].reshape(shape)
        offset += count
    return config, plan, MixLinearParams(mode=config.mode, **arrays)
