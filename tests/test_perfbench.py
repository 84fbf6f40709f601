"""The benchmark's tracer wraps functions by the names they are called by.

``perfbench/workloads.py`` names each wrapped call site as (owner,
attribute).  A rename in the program would leave a site that no longer
resolves, and only a benchmark run would notice; these tests notice first.
"""

import importlib

import numpy as np
import pytest

from conftest import REPO_ROOT
from mixlinear.model import ModelConfig, forward_batch, init_params
from mixlinear.model.forward import Path, choose_path


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_every_call_site_resolves(workloads):
    sites = workloads.call_sites()
    assert sites
    for site in sites:
        assert callable(getattr(site.owner, site.attr, None)), (site.owner, site.attr)


@pytest.mark.parametrize("rows,channels,path", [(64, 0, Path.PHASE_MAP), (64, 4, Path.SERIES)])
def test_conv_span_counts_rows(workloads, rows, channels, path):
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
    assert choose_path(rows, config, channels) is path
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install(workloads.call_sites())
    try:
        forward_batch(x, params, config)
    finally:
        tracer.uninstall()
    convs = [span for span in tracer.spans if span.name == "numerics.conv1d"]
    assert [span.work["rows"] for span in convs] == [channels or rows]
