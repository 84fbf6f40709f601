"""CSV ingestion, splitting, standardization, windows, and synthesis."""

import csv
import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import etth1_path
from oracles import load_csv_loop
from mixlinear.data import (
    RawSeries,
    SplitSpec,
    WindowSet,
    load_csv,
    save_csv,
    split_rows,
    standardize,
    synth_generate,
)
from mixlinear.errors import ConfigError, DataError
from mixlinear.model import ModelConfig, init_params
from mixlinear.training import backward, evaluate


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


FINITE_CELLS = ["1", "-0.0", "2.5e-310", " 3 ", "1_0", "+7", "1E3"]
BAD_CELLS = ["nan", "-inf", "Infinity", "1e999", "abc", "", "0x1", '"5,6"']


def cell_by_cell_csv(series: RawSeries) -> bytes:
    """The bytes of ``series`` written one cell at a time through ``csv.writer``."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["date", *series.channel_names])
    for ts, row in zip(series.timestamps, series.values):
        writer.writerow([ts, *(repr(float(v)) for v in row)])
    return out.getvalue().encode("utf-8")


@st.composite
def raw_series(draw):
    """A RawSeries of 1-20 rows and 1-5 channels: any text for the dates and
    names, any finite values."""
    rows, channels = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    values = draw(arrays(np.float64, (rows, channels),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return RawSeries(draw(st.lists(st.text(), min_size=rows, max_size=rows)), values,
                     draw(st.lists(st.text(), min_size=channels, max_size=channels)))


@st.composite
def csv_texts(draw):
    """Small CSV files mixing good rows with blank, ragged and bad-cell rows."""
    width = draw(st.integers(2, 5))
    cell = st.sampled_from(FINITE_CELLS * 5 + BAD_CELLS)
    row = st.one_of(
        st.lists(cell, min_size=width - 1, max_size=width - 1),
        st.lists(cell, min_size=width - 1, max_size=width - 1),
        st.lists(cell, max_size=4),  # usually ragged
        st.just(None),  # blank line
    )
    lines = [",".join(["date", *(f"c{j}" for j in range(width - 1))])]
    for i, cells in enumerate(draw(st.lists(row, min_size=1, max_size=6))):
        date = draw(st.sampled_from([f"t{i}", f'"t,{i}"']))
        lines.append("" if cells is None else ",".join([date, *cells]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


class TestLoadCsv:
    def test_echo_small_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["date", "a", "b"], [
            ["2020-01-01 00:00", 1.5, -2.0],
            ["2020-01-01 01:00", 2.5, 0.25],
            ["2020-01-01 02:00", -3.5, 7.0],
        ])
        series = load_csv(path)
        assert series.channel_names == ["a", "b"]
        assert series.timestamps[0] == "2020-01-01 00:00"
        assert np.array_equal(series.values,
                              [[1.5, -2.0], [2.5, 0.25], [-3.5, 7.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    # (file content, message after "<path>: "); rows count from 1 at the
    # first data row, blank lines included, and columns from 1 at the date
    ERRORS = {
        "non-numeric": ("date,a,b\nt0,1,2\nt1,oops,3\n",
                        "non-numeric cell at row 2, col 2: 'oops'"),
        "empty-cell": ("date,a,b\nt0,1,\n", "non-numeric cell at row 1, col 3: ''"),
        "hex-cell": ("date,a\nt0,0x10\n", "non-numeric cell at row 1, col 2: '0x10'"),
        "nan": ("date,a\nt0,1.0\nt1,nan\n", "missing/non-finite cell at row 2, col 2"),
        "inf": ("date,a\nt0,inf\n", "missing/non-finite cell at row 1, col 2"),
        "minus-inf": ("date,a,b\nt0,1,-inf\n", "missing/non-finite cell at row 1, col 3"),
        "overflow": ("date,a\nt0,1\nt1,1e999\n", "missing/non-finite cell at row 2, col 2"),
        "ragged": ("date,a,b\nt0,1,2\nt1,3\n", "ragged row 2: expected 3 columns, got 2"),
        "header-and-blank-lines": ("date,a\n\n\n", "no data rows"),
        "empty-file": ("", "file is empty"),
        "no-channel-column": ("date\nt0\n",
                              "expected a date column plus at least one channel"),
        # the first error in row-major order wins
        "non-finite-before-ragged": ("date,a,b\nt0,nan,1\nt1,2\n",
                                     "missing/non-finite cell at row 1, col 2"),
        "non-finite-before-non-numeric": ("date,a,b\nt0,1,inf\nt1,abc,2\n",
                                          "missing/non-finite cell at row 1, col 3"),
        "left-most-non-finite": ("date,a,b\nt0,inf,abc\n",
                                 "missing/non-finite cell at row 1, col 2"),
        "left-most-non-numeric": ("date,a,b\nt0,abc,inf\n",
                                  "non-numeric cell at row 1, col 2: 'abc'"),
        "ragged-before-its-cells": ("date,a,b\nt0,abc\n",
                                    "ragged row 1: expected 3 columns, got 2"),
        "blank-lines-count-non-finite": ("date,a\n\nt0,1\n\nt1,nan\n",
                                         "missing/non-finite cell at row 4, col 2"),
        "blank-lines-count-non-numeric": ("date,a\n\nt0,1\n\nt1,x\n",
                                          "non-numeric cell at row 4, col 2: 'x'"),
        "blank-lines-count-before-ragged": ("date,a,b\n\nt0,nan,1\n\nt1,2\n",
                                            "missing/non-finite cell at row 2, col 2"),
    }

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_error_message_pinned(self, case, tmp_path):
        content, message = self.ERRORS[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(content.encode())
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_accepts_what_float_accepts(self, tmp_path):
        # CRLF endings, a quoted date holding the separator, and cells that
        # float() takes: digit separators and surrounding spaces
        path = tmp_path / "lenient.csv"
        path.write_bytes(b'date,a,b\r\n"t,0",1_000, 2.5 \r\nt1,-0.0,1e-310\r\n')
        series = load_csv(path)
        assert series.timestamps == ["t,0", "t1"]
        assert series.channel_names == ["a", "b"]
        expected = np.array([[1000.0, 2.5], [-0.0, 1e-310]])
        assert series.values.tobytes() == expected.tobytes()

    def test_etth1_dimensions_if_available(self):
        path = etth1_path()
        if path is None:
            pytest.skip("ETTh1.csv not available")
        series = load_csv(path)
        assert series.length == 17420
        assert series.channels == 7

    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        series = RawSeries(
            [f"t{i}" for i in range(20)],
            rng.normal(size=(20, 3)) * 1e3,
            ["x", "y", "z"],
        )
        path = tmp_path / "echo.csv"
        save_csv(series, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.values, series.values)
        assert loaded.channel_names == series.channel_names
        assert loaded.timestamps == series.timestamps

    @given(arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(1, 8)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308]]))
    @settings(max_examples=100, deadline=None)
    def test_save_load_round_trip_is_bitwise(self, tmp_path_factory, values):
        rows, channels = values.shape
        series = RawSeries([f"t{i}" for i in range(rows)], values,
                           [f"c{j}" for j in range(channels)])
        path = tmp_path_factory.mktemp("round_trip") / "series.csv"
        save_csv(series, path)
        loaded = load_csv(path)
        assert loaded.values.dtype == np.float64 and loaded.values.shape == (rows, channels)
        assert loaded.values.flags.c_contiguous
        assert loaded.values.tobytes() == values.tobytes()  # -0.0 and subnormals too
        assert loaded.timestamps == series.timestamps
        assert loaded.channel_names == series.channel_names

    @given(raw_series())
    @example(RawSeries(["", "a,b", 'say "hi"', "x\r\ny", " t "],
                       np.array([[-0.0, 1.5], [5e-324, 2.0], [1e16, -3.0], [1e-5, 0.1],
                                 [123.0, 7.0]]), ['"', ",c"]))
    @settings(max_examples=200, deadline=None)
    def test_save_matches_cell_by_cell_writer(self, tmp_path_factory, series):
        # one join per row writes the bytes csv.writer writes a cell at a time
        path = tmp_path_factory.mktemp("save") / "series.csv"
        save_csv(series, path)
        assert path.read_bytes() == cell_by_cell_csv(series)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite_and_writes_nothing(self, bad, tmp_path):
        values = np.zeros((4, 3))
        values[2, 1] = bad  # load_csv's row 3, col 3
        values[3, 0] = np.nan
        path = tmp_path / "out.csv"
        with pytest.raises(DataError) as excinfo:
            save_csv(RawSeries([f"t{i}" for i in range(4)], values, ["a", "b", "c"]), path)
        assert str(excinfo.value) == f"cannot write {path}: non-finite value at row 3, col 3"
        assert not path.exists()

    @pytest.mark.parametrize("timestamps, names, message", [
        # zip stopped at the shorter list and dropped the third row
        pytest.param(["t0", "t1"], ["a", "b"], "2 timestamps for 3 rows", id="timestamps"),
        # a 2-field header over 3-field rows, which load_csv rejects as ragged
        pytest.param(["t0", "t1", "t2"], ["a"], "1 channel names for 2 columns", id="names"),
    ])
    def test_save_refuses_mismatched_labels_and_writes_nothing(self, timestamps, names,
                                                               message, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(DataError) as excinfo:
            save_csv(RawSeries(timestamps, np.zeros((3, 2)), names), path)
        assert str(excinfo.value) == f"cannot write {path}: {message}"
        assert not path.exists()

    def test_save_streams_its_rows(self, tmp_path):
        # a Python float list of the whole table peaked at 5.2 MB here (21 MB
        # at 2000 rows); short reprs and few rows keep the traced run quick
        values = np.arange(500 * 321).reshape(500, 321) % 1000 / 8
        series = RawSeries([f"t{i}" for i in range(500)], values,
                           [f"c{j}" for j in range(321)])
        save_csv(RawSeries(series.timestamps[:2], values[:2], series.channel_names),
                 tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            save_csv(series, tmp_path / "series.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    @given(csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_matches_cell_by_cell_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("reference") / "data.csv"
        path.write_bytes(text.encode())
        try:
            timestamps, values, names = load_csv_loop(path)
        except ValueError as exc:
            with pytest.raises(DataError) as excinfo:
                load_csv(path)
            assert str(excinfo.value) == str(exc)
            return
        series = load_csv(path)
        assert (series.timestamps, series.channel_names) == (timestamps, names)
        assert series.values.tobytes() == values.tobytes()


def _series_of_length(total, channels=1):
    rng = np.random.default_rng(total)
    return RawSeries(
        [f"t{i}" for i in range(total)],
        rng.normal(size=(total, channels)),
        [f"c{j}" for j in range(channels)],
    )


def _rows(part: slice) -> int:
    return part.stop - part.start


class TestSplitSeries:
    def test_six_two_two_on_ten_rows(self):
        train, val, test = split_rows(10, SplitSpec.ett(), lookback=0, horizon=0)
        assert (_rows(train), _rows(val), _rows(test)) == (6, 2, 2)

    def test_ett_preset_boundaries_17420(self):
        assert SplitSpec.ett().boundaries(17420) == (10452, 13936)
        # lookback overlap is read-only context: val and test start 720 rows early
        assert split_rows(17420, SplitSpec.ett(), lookback=720, horizon=96) == (
            slice(0, 10452), slice(10452 - 720, 13936), slice(13936 - 720, 17420))

    def test_default_preset_boundaries_26304(self):
        assert SplitSpec.default().boundaries(26304) == (18412, 21043)

    def test_no_leakage_past_boundaries(self):
        train, val, test = split_rows(300, SplitSpec.default(), lookback=20, horizon=1)
        b1, b2 = SplitSpec.default().boundaries(300)
        assert (train, val.stop, test.stop) == (slice(0, b1), b2, 300)
        # only the 20 look-back rows of val and test precede their borders
        assert (val.start, test.start) == (b1 - 20, b2 - 20)

    def test_too_short_for_window_rejected(self):
        # the val split carries 10 + 8 overlap rows, below lookback + horizon
        with pytest.raises(ConfigError, match="^val split of a 50-row series has 18 rows"):
            split_rows(50, SplitSpec.ett(), lookback=8, horizon=12)

    @pytest.mark.parametrize("fracs, name", [
        pytest.param((0.2, 0.4, 0.4), "train", id="train"),
        pytest.param((0.6, 0.15, 0.25), "val", id="val"),
        pytest.param((0.6, 0.25, 0.15), "test", id="test")])
    def test_split_of_one_window_accepted_one_row_short_rejected(self, fracs, name):
        spec, lookback = SplitSpec(*fracs), 10
        sizes = dict(zip(("train", "val", "test"), map(_rows, split_rows(100, spec, lookback, 1))))
        size = sizes.pop(name)
        assert size < min(sizes.values())  # the split that runs out first
        split_rows(100, spec, lookback, size - lookback)
        with pytest.raises(ConfigError, match=f"^{name} split of a 100-row series has "
                                              f"{size} rows, need at least {size + 1}"):
            split_rows(100, spec, lookback, size - lookback + 1)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ConfigError):
            SplitSpec(1.0, -0.2, 0.2)


class TestStandardize:
    def test_train_split_becomes_zero_mean_unit_std(self):
        series = _series_of_length(500, channels=3)
        train_rows = split_rows(500, SplitSpec.default(), lookback=10, horizon=1)[0]
        values, stats = standardize(series.values, train_rows)
        assert values.shape == series.values.shape and values.flags.c_contiguous
        train = values[train_rows]
        assert np.max(np.abs(train.mean(axis=0))) < 1e-9
        assert np.max(np.abs(train.std(axis=0) - 1.0)) < 1e-9

    def test_round_trip(self):
        # the returned statistics are the ones every row was scaled with
        series = _series_of_length(200, channels=2)
        values, stats = standardize(series.values, slice(0, 140))
        back = values * stats.std + stats.mean
        assert np.max(np.abs(back - series.values)) < 1e-10

    def test_stats_depend_only_on_train(self):
        series = _series_of_length(400, channels=2)
        _, stats_a = standardize(series.values, slice(0, 280))
        perturbed = _series_of_length(400, channels=2)
        perturbed.values[300:] += 100.0  # test region only
        _, stats_b = standardize(perturbed.values, slice(0, 280))
        assert np.array_equal(stats_a.mean, stats_b.mean)
        assert np.array_equal(stats_a.std, stats_b.std)

    def test_zero_variance_channel_rejected(self):
        values = np.ones((100, 2))
        values[:, 0] = np.random.default_rng(1).normal(size=100)
        with pytest.raises(DataError, match="zero-variance"):
            standardize(values, slice(0, 70))

    def test_channel_constant_up_to_round_off_rejected(self):
        # period-1 harmonics sampled at integer t: a level with ~1e-16 wobble
        values = np.empty((100, 2))
        values[:, 0] = np.random.default_rng(2).normal(size=100)
        values[:, 1] = 0.51 + 4e-14 * np.random.default_rng(3).normal(size=100)
        with pytest.raises(DataError, match=r"channel\(s\) \[1\]"):
            standardize(values, slice(0, 70))

    @pytest.mark.parametrize("rows, named", [(slice(0, 0), r"\[0, 0\)"),
                                             (slice(4, 2), r"\[4, 2\)"),
                                             (slice(12, 20), r"\[10, 10\)")],
                             ids=["empty", "reversed", "past-the-end"])
    def test_empty_train_range_rejected(self, rows, named):
        # raised before any reduction, so numpy warns of no empty slice
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"train rows {named} of a 10-row series"):
                standardize(np.ones((10, 2)), rows)

    def test_large_offset_with_unit_variation_standardizes(self):
        values = 1e6 + np.random.default_rng(4).normal(size=(100, 1))
        standardized, _ = standardize(values, slice(0, 70))
        assert abs(standardized[:70].std() - 1.0) < 1e-9


class TestMakeWindows:
    def test_count_formula(self):
        ws = WindowSet(np.zeros((10, 1)), 4, 3)
        assert ws.count == 4

    def test_first_target_starts_at_lookback(self):
        values = np.arange(20.0)[:, None]
        ws = WindowSet(values, 4, 3)
        x, y = ws.window(0)
        assert y[0, 0] == 4.0

    def test_windows_tile_correctly(self):
        values = np.arange(30.0)[:, None]
        ws = WindowSet(values, 7, 5)
        x, y = ws.window(0)
        assert np.array_equal(np.concatenate([x, y]), values[:12])

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lookback = int(rng.integers(1, 20))
            horizon = int(rng.integers(1, 20))
            extra = int(rng.integers(0, 30))
            length = lookback + horizon + extra
            assert WindowSet(np.zeros((length, 1)), lookback, horizon).count == extra + 1

    def test_batch_stacks_windows(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(40, 3))
        ws = WindowSet(values, 9, 5)
        idx = [0, ws.count - 1, 7, 7, 3]
        x, y = ws.batch(idx)
        # row out*C + c is channel c of window idx[out]
        assert x.shape == (15, 9) and y.shape == (15, 5)
        for out, k in enumerate(idx):
            wx, wy = ws.window(k)
            rows = slice(3 * out, 3 * out + 3)
            assert np.array_equal(x[rows], wx.T) and np.array_equal(y[rows], wy.T)
        x, y = ws.batch([])
        assert x.shape == (0, 9) and y.shape == (0, 5)

    @pytest.mark.parametrize("bad", [-1, 27])
    def test_batch_index_out_of_range(self, bad):
        ws = WindowSet(np.zeros((40, 1)), 9, 5)
        assert ws.count == 27
        with pytest.raises(IndexError):
            ws.batch([0, bad])

    @pytest.mark.parametrize("indices", [
        pytest.param([1.7, 2.2], id="floats"),
        pytest.param(np.array([1.0, 2.0]), id="whole-floats"),
        pytest.param([[1, 2]], id="nested"), pytest.param(np.zeros((2, 2), int), id="2-D"),
        pytest.param(np.array([True, False]), id="bools"), pytest.param(3, id="scalar")])
    def test_batch_rejects_indices_not_1d_integers(self, indices):
        # numpy's int cast would truncate [1.7, 2.2] to windows 1 and 2
        config = ModelConfig(9, 5, 3, lpf_cutoff=2, latent_width=1)
        ws = WindowSet(np.random.default_rng(4).normal(size=(40, 2)), 9, 5)
        with pytest.raises(IndexError, match="1-D integer array"):
            ws.batch(indices)
        with pytest.raises(IndexError, match="1-D integer array"):
            backward(ws, indices, init_params(config, 0), config)

    def test_integer_base_reads_as_float64(self):
        # an integer base is read as its float64 copy: by the series path,
        # and by a training step's gather into its float64 workspace
        config = ModelConfig(8, 4, 2, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 0)
        ints = np.arange(80).reshape(40, 2) % 7
        got, want = (WindowSet(base, 8, 4) for base in (ints, ints.astype(np.float64)))
        assert got.base.dtype == np.float64
        assert evaluate(params, got, config) == evaluate(params, want, config)
        (loss, grads), (want_loss, want_grads) = (backward(ws, np.arange(5), params, config)
                                                  for ws in (got, want))
        assert loss == want_loss
        for name, grad in want_grads.items():
            assert grads[name].tobytes() == grad.tobytes(), name

    def test_too_short_segment_rejected(self):
        with pytest.raises(ConfigError, match=r"shape \(5, 1\) holds no window"):
            WindowSet(np.zeros((5, 1)), 4, 3)

    def test_exactly_one_window_and_one_row_short(self):
        ws = WindowSet(np.arange(7.0)[:, None], 4, 3)
        assert ws.count == 1 and ws.batch([0])[1].tolist() == [[4.0, 5.0, 6.0]]
        with pytest.raises(ConfigError, match="holds no window"):
            WindowSet(np.zeros((6, 1)), 4, 3)

    @pytest.mark.parametrize("shape, lookback, horizon", [
        pytest.param((10, 1), 0, 3, id="no-lookback"), pytest.param((10, 1), 4, 0, id="no-horizon"),
        pytest.param((10,), 4, 3, id="1-D"), pytest.param((10, 1, 1), 4, 3, id="3-D")])
    def test_geometry_without_windows_rejected(self, shape, lookback, horizon):
        with pytest.raises(ConfigError, match="holds no window"):
            WindowSet(np.zeros(shape), lookback, horizon)

    def test_content_hash_tracks_data(self):
        a = WindowSet(np.ones((12, 1)), 4, 3)
        b = WindowSet(np.ones((12, 1)), 4, 3)
        assert a.content_hash() == b.content_hash()
        c = WindowSet(np.ones((12, 1)) * 2, 4, 3)
        assert a.content_hash() != c.content_hash()


def _view_bases():
    """A C-contiguous (40, 3) base and a column slice of a wider array."""
    wide = np.random.default_rng(5).normal(size=(40, 5))
    return {"contiguous": wide[:, :3].copy(), "column-sliced": wide[:, 1:4]}


class TestBatchViews:
    """A run of consecutive windows is read in place; other indices gather."""

    @pytest.mark.parametrize("layout", ["contiguous", "column-sliced"])
    @pytest.mark.parametrize("first, count", [(0, 1), (4, 13), (0, 27), (26, 1)])
    def test_consecutive_run_is_read_only_view(self, layout, first, count):
        base = _view_bases()[layout]
        ws = WindowSet(base, 9, 5)
        # the set holds a C-contiguous base: the array itself, or a copy of
        # the column slice
        assert ws.base.flags.c_contiguous and (ws.base is base) == (layout == "contiguous")
        assert np.array_equal(ws.base, base)
        idx = np.arange(first, first + count)
        views, gathered = ws.batch(idx), ws.batch(idx[::-1])
        for view, copy in zip(views, gathered):
            copy = copy.reshape(count, 3, -1)[::-1].reshape(copy.shape)
            assert np.shares_memory(view, ws.base) and not view.flags.writeable
            assert view.shape == copy.shape
            assert view.tobytes() == copy.tobytes()
            # the rows are the .T of a time-major view: row k*C + c is one
            # item past row k*C + c - 1, and each step one base row on
            assert view.strides == (ws.base.itemsize, ws.base.strides[0])

    @pytest.mark.parametrize("idx", [[3, 5, 6], [2, 2, 3], [7, 6, 5], [1, 0], [4, 4]])
    def test_other_indices_gather_writable_copies(self, idx):
        base = _view_bases()["contiguous"]
        ws = WindowSet(base, 9, 5)
        for got, want in zip(ws.batch(idx), zip(*(ws.window(k) for k in idx))):
            assert got.flags.writeable and not np.shares_memory(got, base)
            assert got.tobytes() == np.concatenate([part.T for part in want]).tobytes()
            # gathered time-major: the rows are the .T of C-contiguous
            # (T, b*C) steps, as the forward reads them
            assert got.T.flags.c_contiguous

    @pytest.mark.parametrize("idx", [[3, 4, 5], [7, 6, 5], []])
    def test_gather_into_given_arrays(self, idx):
        # with out, even a consecutive run is gathered, into the caller's
        # time-major arrays
        ws = WindowSet(_view_bases()["contiguous"], 9, 5)
        out = np.full((9, len(idx) * 3), np.nan), np.full((5, len(idx) * 3), np.nan)
        for got, given, want in zip(ws.batch(idx, out=out), out, ws.batch(idx)):
            assert got.base is given
            assert got.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("layout", [
        pytest.param(lambda x, y: (np.asfortranarray(x), y), id="fortran"),
        pytest.param(lambda x, y: (x, np.full((5, 12), np.nan)[:, ::-2]), id="reversed")])
    def test_gather_into_out_of_any_layout(self, layout):
        # take writes through a reshape of out, a view for any strides
        ws = WindowSet(_view_bases()["contiguous"], 9, 5)
        out = layout(np.full((9, 6), np.nan), np.full((5, 6), np.nan))
        for got, given, want in zip(ws.batch([3, 1], out=out), out, ws.batch([3, 1])):
            assert np.array_equal(got, want) and np.array_equal(given.T, want)

    @pytest.mark.parametrize("shapes", [
        pytest.param(((6, 9), (6, 5)), id="rows"), pytest.param(((9, 2, 3), (5, 2, 3)), id="3-D")])
    def test_gather_rejects_out_of_other_shape(self, shapes):
        # the reshape take writes through could be a copy, or mix up the rows
        ws = WindowSet(_view_bases()["contiguous"], 9, 5)
        with pytest.raises(ValueError, match=re.escape("out must be (9, 6) and (5, 6) arrays")):
            ws.batch([3, 1], out=tuple(np.empty(shape) for shape in shapes))

    @pytest.mark.parametrize("row_stride", [0, 8, 480])
    def test_one_channel_base_of_any_row_stride(self, row_stride):
        # numpy counts a (rows, 1) array as C-contiguous whatever the stride
        # of its channel axis, so the set keeps that stride
        config = ModelConfig(12, 6, 3, lpf_cutoff=2, latent_width=1)
        series = np.random.default_rng(7).normal(size=60)
        base = np.lib.stride_tricks.as_strided(series, (60, 1), (8, row_stride))
        got, want = WindowSet(base, 12, 6), WindowSet(base.copy(), 12, 6)
        for idx in (np.arange(4, 20), [7, 2, 30]):
            for part, copy in zip(got.batch(idx), want.batch(idx)):
                assert part.tobytes() == copy.tobytes()
        params = init_params(config, 0)
        assert evaluate(params, got, config) == evaluate(params, want, config)

    @pytest.mark.parametrize("channels", [1, 300])
    def test_window_set_keeps_no_copy(self, channels):
        # runs are views of the series and a gather copies its own windows
        # only, so the window set holds nothing but the series
        config = ModelConfig(12, 6, 3, lpf_cutoff=2, latent_width=1)
        values = np.random.default_rng(6).normal(size=(60, channels))
        ws = WindowSet(values, 12, 6)
        fields = set(vars(ws))
        evaluate(init_params(config, 0), ws, config)
        ws.batch([1, 0])
        assert set(vars(ws)) == fields == {"base", "lookback", "horizon"}


class TestSynthGenerate:
    def test_noiseless_series_is_exactly_periodic(self):
        series = synth_generate(200, 24, amplitudes=(1.0, 0.5), noise_std=0.0,
                                seed=4, channels=2)
        v = series.values
        assert np.max(np.abs(v[24:] - v[:-24])) < 1e-12

    def test_pure_slope(self):
        series = synth_generate(50, 5, amplitudes=(), trend_slope=1.0,
                                noise_std=0.0, seed=5)
        assert np.allclose(series.values[:, 0], np.arange(50.0))

    def test_seed_determinism(self):
        a = synth_generate(100, 12, amplitudes=(1.0,), noise_std=0.3, seed=6, channels=3)
        b = synth_generate(100, 12, amplitudes=(1.0,), noise_std=0.3, seed=6, channels=3)
        assert np.array_equal(a.values, b.values)
        c = synth_generate(100, 12, amplitudes=(1.0,), noise_std=0.3, seed=7, channels=3)
        assert not np.array_equal(a.values, c.values)
