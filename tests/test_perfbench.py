"""The benchmark's tracer wraps functions by the names they are called by.

``perfbench/workloads.py`` names each wrapped call site as (owner,
attribute).  A rename in the program would leave a site that no longer
resolves, and only a benchmark run would notice; these tests notice first.
"""

import importlib

import numpy as np
import pytest

from conftest import REPO_ROOT
from mixlinear.data.windows import WindowSet
from mixlinear.model import ModelConfig, forward_batch, init_params
from mixlinear.model.forward import Path, choose_path, series_channels
from mixlinear.training import TrainConfig, train


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_every_call_site_resolves(workloads):
    sites = workloads.call_sites()
    assert sites
    for site in sites:
        assert callable(getattr(site.owner, site.attr, None)), (site.owner, site.attr)


@pytest.mark.parametrize("rows,channels", [(64, 0), (64, 4)])
def test_conv_span_counts_rows(workloads, rows, channels):
    # the graph and the series path call the band conv through the forward
    # module's namespace, so the traced span fires and counts the rows the
    # conv runs on: every window on the graph, every channel of the series
    config = ModelConfig(48, 48, 4, lpf_cutoff=3, latent_width=2)
    params = init_params(config, 0)
    rng = np.random.default_rng(0)
    if channels:
        series = rng.normal(size=(rows // channels + config.lookback - 1, channels))
        x = np.lib.stride_tricks.sliding_window_view(series, config.lookback, axis=0)
        x = x.reshape(-1, config.lookback)
    else:
        x = rng.normal(size=(rows, config.lookback))
    assert series_channels(x) == channels and choose_path(config) is Path.PHASE_MAP
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install(workloads.call_sites())
    try:
        forward_batch(x, params, config)
    finally:
        tracer.uninstall()
    convs = [span for span in tracer.spans if span.name == "numerics.conv1d"]
    assert [span.work["rows"] for span in convs] == [channels or rows]


def test_training_spans_fire_per_step_and_block(workloads, monkeypatch):
    # a step streams its windows: backward fires once per step, and the
    # gather and the block's forward (model.trace_forward) once per block,
    # inside it, over the rows of its windows
    backward = importlib.import_module("mixlinear.training.backward")
    config = ModelConfig(48, 12, 4, lpf_cutoff=3, latent_width=2)
    values = np.random.default_rng(1).normal(size=(220, 3))
    train_ws = WindowSet(values[:160], 48, 12)
    val_ws = WindowSet(values[100:], 48, 12)
    monkeypatch.setattr(backward, "TRAIN_BLOCK_FLOATS", 5 * (48 + 12) * 3)
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install(workloads.call_sites())
    try:
        train(train_ws, val_ws, config, TrainConfig(max_epochs=1, batch_size=32))
    finally:
        tracer.uninstall()
    steps = [span for span in tracer.spans if span.name == "training.backward"]
    sizes = [min(32, train_ws.count - lo) for lo in range(0, train_ws.count, 32)]
    assert len(steps) == len(sizes)
    blocks = [backward._train_blocks(size, 3, config) for size in sizes]
    assert len(blocks[0]) > 1
    for step, runs in zip(steps, blocks):
        inside = [span for span in tracer.spans if span.parent == step.ident
                  and span.name in ("data.batch", "model.trace_forward")]
        assert [span.name for span in inside] == ["data.batch", "model.trace_forward"] * len(runs)
        assert [span.work["windows"] for span in inside[::2]] == [hi - lo for lo, hi in runs]
        assert [span.work["rows"] for span in inside[1::2]] == [(hi - lo) * 3 for lo, hi in runs]
