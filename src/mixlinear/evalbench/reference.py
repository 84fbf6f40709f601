"""Published benchmark results, embedded as read-only reference constants.

These numbers come from the originating benchmark literature.  The CLI
prints the entries for a run's dataset and horizon beside its fresh
numbers; they are never recomputed.
"""

# Multivariate test MSE by dataset -> model -> horizon.
REPORTED_MSE = {
    "etth1": {
        "FEDformer": {96: 0.375, 192: 0.427, 336: 0.459, 720: 0.484},
        "TimesNet": {96: 0.384, 192: 0.436, 336: 0.491, 720: 0.521},
        "PatchTST": {96: 0.385, 192: 0.413, 336: 0.440, 720: 0.456},
        "DLinear": {96: 0.384, 192: 0.443, 336: 0.446, 720: 0.504},
        "FITS": {96: 0.382, 192: 0.417, 336: 0.436, 720: 0.433},
        "SparseTSF": {96: 0.362, 192: 0.403, 336: 0.434, 720: 0.426},
        "MixLinear": {96: 0.351, 192: 0.395, 336: 0.411, 720: 0.423},
    },
    "etth2": {
        "MixLinear": {96: 0.283, 192: 0.337, 336: 0.356, 720: 0.380},
        "SparseTSF": {96: 0.294, 192: 0.339, 336: 0.359, 720: 0.383},
        "FITS": {96: 0.272, 192: 0.333, 336: 0.355, 720: 0.378},
    },
    "electricity": {
        "MixLinear": {96: 0.138, 192: 0.154, 336: 0.170, 720: 0.209},
        "SparseTSF": {96: 0.138, 192: 0.151, 336: 0.166, 720: 0.205},
        "DLinear": {96: 0.140, 192: 0.153, 336: 0.169, 720: 0.204},
    },
    "traffic": {
        "MixLinear": {96: 0.389, 192: 0.403, 336: 0.416, 720: 0.452},
        "SparseTSF": {96: 0.389, 192: 0.398, 336: 0.411, 720: 0.448},
    },
}

# Ablation MSE (time-only / frequency-only / combined).
ABLATION_MSE = {
    "etth1": {
        "TLinear": {96: 0.376, 192: 0.398, 336: 0.412, 720: 0.425},
        "FLinear": {96: 0.434, 192: 0.438, 336: 0.473, 720: 0.474},
        "MixLinear": {96: 0.351, 192: 0.395, 336: 0.411, 720: 0.423},
    },
}

# Low-pass-filter cutoff sweep MSE for ETTh1 by cutoff -> horizon.
LPF_SWEEP_MSE_ETTH1 = {
    1: {96: 0.351, 192: 0.399, 336: 0.412, 720: 0.440},
    5: {96: 0.356, 192: 0.395, 336: 0.412, 720: 0.426},
    10: {96: 0.376, 192: 0.397, 336: 0.413, 720: 0.425},
    15: {96: 0.358, 192: 0.398, 336: 0.413, 720: 0.427},
    19: {96: 0.360, 192: 0.396, 336: 0.413, 720: 0.423},
}

# Static/runtime efficiency on Electricity with horizon 720.
EFFICIENCY_ELECTRICITY_720 = {
    "DLinear": {"parameters": 485_300, "macs": 156_000_000, "epoch_seconds": 36.2, "mse": 0.204},
    "FITS": {"parameters": 10_500, "macs": 79_900_000, "epoch_seconds": 25.7, "mse": 0.212},
    "SparseTSF": {"parameters": 920, "macs": 12_710_000, "epoch_seconds": 33.0, "mse": 0.205},
    "MixLinear": {"parameters": 195, "macs": 9_860_000, "epoch_seconds": 23.9, "mse": 0.209},
}

# Cross-dataset generalization MSE (train/validate on A, test on B).
GENERALIZATION_MSE = {
    ("etth2", "etth1"): {
        "SparseTSF": {96: 0.370, 192: 0.401, 336: 0.412, 720: 0.419},
        "MixLinear": {96: 0.361, 192: 0.388, 336: 0.406, 720: 0.427},
    },
    ("electricity", "etth1"): {
        "SparseTSF": {96: 0.373, 192: 0.409, 336: 0.433, 720: 0.439},
        "MixLinear": {96: 0.373, 192: 0.410, 336: 0.428, 720: 0.434},
    },
}


def _at_horizon(table: dict, horizon: int) -> dict:
    """Each row's entry at ``horizon``, for the rows that have one."""
    return {label: row[horizon] for label, row in table.items() if horizon in row}


def reported_mse(dataset_id: str, horizon: int) -> dict[str, float]:
    """Reference MSE rows for a dataset/horizon, empty when unknown."""
    return _at_horizon(REPORTED_MSE.get(dataset_id.lower(), {}), horizon)


# the ablation table's models under the names of the modes they are, in the
# order ablate runs them
_ABLATION_MODES = {"MixLinear": "Mix", "TLinear": "TimeOnly", "FLinear": "FreqOnly"}


def reported_ablation(dataset_id: str, horizon: int) -> dict[str, float]:
    """Ablation MSE by mode name for a dataset/horizon, empty when unknown."""
    rows = _at_horizon(ABLATION_MSE.get(dataset_id.lower(), {}), horizon)
    return {mode: rows[model] for model, mode in _ABLATION_MODES.items() if model in rows}


def reported_sweep(dataset_id: str, horizon: int, cutoffs) -> dict[int, float]:
    """ETTh1 sweep MSE of each of ``cutoffs`` the table has, empty on another dataset."""
    if dataset_id.lower() != "etth1":
        return {}
    rows = _at_horizon(LPF_SWEEP_MSE_ETTH1, horizon)
    return {cutoff: rows[cutoff] for cutoff in cutoffs if cutoff in rows}


def reported_generalization(dataset_id: str, horizon: int) -> dict[str, float]:
    """Transfer MSE onto a dataset/horizon, keyed "<model> trained on <source>"."""
    return {f"{model} trained on {source}": value
            for (source, target), table in GENERALIZATION_MSE.items()
            if target == dataset_id.lower()
            for model, value in _at_horizon(table, horizon).items()}
