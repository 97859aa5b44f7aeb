"""Tensor-op tests: naive oracles for conv/pool/resample and SMAPE.

The convolution oracle is a six-loop reference with an instrumented
multiply-add counter, accumulating in float64 and casting once to
float32, which is the same numeric contract the production kernel
promises. Frozen checksums below were produced by that oracle.

_seed_conv2d keeps the first im2col kernel's formula (pad, strided window
view, float32 im2col copy, per-call float64 casts); the current kernel must
reproduce it bit for bit. _seed_maxpool2 does the same for the first
pooling formula (a reshape reduced with max).
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framecache import ops
from framecache.ops import (
    ConvParams,
    _check_map,
    block_mean,
    concat_channels,
    conv2d,
    conv_flops,
    conv_output_hw,
    maxpool2,
    relu,
    repeat_nearest,
    smape,
    tensor,
    upsample_nearest2,
)


def naive_conv(x, params):
    """Reference convolution; returns (output, counted multiply-adds)."""
    in_c, h, w = x.shape
    kh, kw = params.kernel_h, params.kernel_w
    stride, padding = params.stride, params.padding
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((in_c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    padded[:, padding:padding + h, padding:padding + w] = x.astype(np.float64)
    out = np.zeros((params.out_channels, oh, ow), dtype=np.float64)
    ops = 0
    for o in range(params.out_channels):
        for i in range(oh):
            for j in range(ow):
                acc = float(params.bias[o])
                for c in range(in_c):
                    for u in range(kh):
                        for v in range(kw):
                            acc += float(params.weights[o, c, u, v]) * padded[
                                c, i * stride + u, j * stride + v
                            ]
                            ops += 2
                out[o, i, j] = acc
    return out.astype(np.float32), ops


def random_params(rng, in_c, out_c, kernel, stride=1, padding=0):
    return ConvParams(
        weights=rng.standard_normal((out_c, in_c, kernel, kernel)).astype(np.float32),
        bias=rng.standard_normal(out_c).astype(np.float32),
        stride=stride,
        padding=padding,
    )


class TestConv2d:
    def test_frozen_padded_case(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 6)).astype(np.float32)
        params = ConvParams(rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
                            rng.standard_normal(3).astype(np.float32),
                            stride=1, padding=1)
        out = conv2d(x, params)
        assert out.shape == (3, 5, 6)
        assert float(out.astype(np.float64).sum()) == pytest.approx(45.48527394235134, rel=1e-6)
        assert float(out[0, 0, 0]) == pytest.approx(-2.4959769248962402, rel=1e-6)
        assert float(out[2, 4, 5]) == pytest.approx(2.0115702152252197, rel=1e-6)
        assert conv_flops(params, 5, 6) == 3240

    def test_frozen_strided_case(self):
        rng = np.random.default_rng(7)
        rng.standard_normal((2, 5, 6))
        rng.standard_normal((3, 2, 3, 3))
        rng.standard_normal(3)
        x = rng.standard_normal((3, 8, 7)).astype(np.float32)
        params = ConvParams(rng.standard_normal((4, 3, 2, 2)).astype(np.float32),
                            np.zeros(4, dtype=np.float32),
                            stride=2, padding=0)
        out = conv2d(x, params)
        assert out.shape == (4, 4, 3)
        assert float(out.astype(np.float64).sum()) == pytest.approx(-16.60662926081568, rel=1e-6)
        assert conv_flops(params, 4, 3) == 1152

    def test_matches_naive_oracle_on_random_configs(self):
        # 24 random geometries; the flops formula must equal the counted
        # multiply-adds exactly and outputs must agree to float32 precision.
        rng = np.random.default_rng(123)
        for trial in range(24):
            in_c = int(rng.integers(1, 5))
            out_c = int(rng.integers(1, 5))
            kernel = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            h = int(rng.integers(kernel, kernel + 7))
            w = int(rng.integers(kernel, kernel + 7))
            x = rng.standard_normal((in_c, h, w)).astype(np.float32)
            params = random_params(rng, in_c, out_c, kernel, stride, padding)
            expected, counted = naive_conv(x, params)
            got = conv2d(x, params)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)
            oh, ow = conv_output_hw(params, h, w)
            assert (oh, ow) == expected.shape[1:]
            assert conv_flops(params, oh, ow) == counted

    def test_identity_kernel_reproduces_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        weights = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            weights[c, c, 0, 0] = 1.0
        params = ConvParams(weights, np.zeros(3, dtype=np.float32))
        np.testing.assert_array_equal(conv2d(x, params), x)

    def test_box_kernel_sums_window(self):
        x = np.ones((1, 4, 4), dtype=np.float32)
        params = ConvParams(np.ones((1, 1, 3, 3), dtype=np.float32),
                            np.zeros(1, dtype=np.float32))
        out = conv2d(x, params)
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 9.0, dtype=np.float32))

    def test_output_hw_formula(self):
        params = ConvParams(np.zeros((1, 1, 3, 3), dtype=np.float32),
                            np.zeros(1, dtype=np.float32), stride=2, padding=1)
        assert conv_output_hw(params, 7, 9) == ((7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_rejects_channel_mismatch(self):
        params = random_params(np.random.default_rng(0), 2, 2, 3)
        with pytest.raises(ValueError):
            conv2d(np.zeros((3, 5, 5), dtype=np.float32), params)

    def test_rejects_too_small_input(self):
        params = random_params(np.random.default_rng(0), 1, 1, 3)
        with pytest.raises(ValueError):
            conv2d(np.zeros((1, 2, 2), dtype=np.float32), params)

    def test_params_validation(self):
        w = np.zeros((2, 1, 3, 3), dtype=np.float32)
        b = np.zeros(2, dtype=np.float32)
        with pytest.raises(ValueError):
            ConvParams(w, b, stride=0)
        with pytest.raises(ValueError):
            ConvParams(w, b, padding=-1)
        with pytest.raises(ValueError):
            ConvParams(w[:, 0], b)
        with pytest.raises(ValueError):
            ConvParams(w[:, :0], b)
        with pytest.raises(ValueError):
            ConvParams(w, np.zeros(3, dtype=np.float32))


def _seed_conv2d(x, params):
    """The first im2col conv2d, kept word for word as the bitwise reference."""
    _check_map(x)
    c, h, w = x.shape
    if c != params.in_channels:
        raise ValueError(f"conv expects {params.in_channels} channels, got {c}")
    out_h, out_w = conv_output_hw(params, h, w)
    p = params.padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p))) if p else x
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, params.kernel_h, params.kernel_w, out_h, out_w),
        strides=(s0, s1, s2, s1 * params.stride, s2 * params.stride),
        writeable=False,
    )
    cols = windows.reshape(c * params.kernel_h * params.kernel_w, out_h * out_w)
    wmat = params.weights.reshape(params.out_channels, -1).astype(np.float64)
    acc = wmat @ cols.astype(np.float64)
    acc += params.bias.astype(np.float64)[:, None]
    return acc.reshape(params.out_channels, out_h, out_w).astype(np.float32)


def _input_of_kind(rng, kind, shape):
    """A (C, H, W) input: C-contiguous float32, a reversed-row view, or float64."""
    if kind == "view":
        return rng.standard_normal(shape).astype(np.float32)[:, ::-1]
    if kind == "float64":
        return rng.standard_normal(shape)  # not representable in float32
    return rng.standard_normal(shape).astype(np.float32)


def assert_bitwise_seed_match(x, params):
    new = conv2d(x, params)
    old = _seed_conv2d(x, params)
    assert new.dtype == old.dtype == np.float32
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.uint32), old.view(np.uint32))


@st.composite
def conv_cases(draw):
    in_c = draw(st.integers(1, 8))
    out_c = draw(st.integers(1, 8))
    kernel_h = draw(st.integers(1, 5))
    kernel_w = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kernel_h - 2 * padding), 14))
    w = draw(st.integers(max(1, kernel_w - 2 * padding), 14))
    kind = draw(st.sampled_from(["contiguous", "view", "float64"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = ConvParams(
        rng.standard_normal((out_c, in_c, kernel_h, kernel_w)).astype(np.float32),
        rng.standard_normal(out_c).astype(np.float32),
        stride=stride, padding=padding,
    )
    return _input_of_kind(rng, kind, (in_c, h, w)), params


# The convolutions of TestConv2dMatchesSeedKernel.test_cached_frame_shapes,
# with the number of bands each runs in under the module's own _BAND_BYTES.
CACHED_FRAME_SHAPES = [
    pytest.param(6, 8, 3, 1, 48, 2, id="6-8-3-1"),
    pytest.param(8, 8, 3, 1, 48, 3, id="8-8-3-1"),
    pytest.param(24, 8, 3, 1, 48, 8, id="24-8-3-1"),
    pytest.param(8, 6, 1, 0, 48, 1, id="8-6-1-0"),
    pytest.param(48, 16, 3, 1, 24, 4, id="48-16-3-1-24x24"),
    pytest.param(40, 8, 3, 1, 48, 16, id="40-8-3-1-48x48"),
    pytest.param(40, 8, 3, 1, 64, 32, id="40-8-3-1-64x64"),
]


class TestConv2dMatchesSeedKernel:
    """The kernel's float64 operands are unchanged, so outputs match bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(conv_cases())
    def test_random_geometries(self, case):
        x, params = case
        assert_bitwise_seed_match(x, params)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(conv_cases(), st.data())
    def test_banded_geometries(self, case, data):
        # A budget of a few output rows, so most cases run in two or more
        # bands, the last one often shorter (one band where aligning bands
        # to 8 columns needs as many rows as the map has).
        x, params = case
        out_h, out_w = conv_output_hw(params, x.shape[1], x.shape[2])
        assume(out_h > 1)
        rows = data.draw(st.integers(1, out_h - 1))
        row_bytes = params.in_channels * params.kernel_h * params.kernel_w * out_w * 8
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ops, "_BAND_BYTES", rows * row_bytes)
            assert_bitwise_seed_match(x, params)

    @pytest.mark.parametrize("kind", ["contiguous", "view", "float64"])
    @pytest.mark.parametrize(
        "in_c,out_c,kernel,padding,size",
        [pytest.param(*case.values[:5], id=case.id) for case in CACHED_FRAME_SHAPES],
    )
    def test_cached_frame_shapes(self, in_c, out_c, kernel, padding, size, kind):
        # The five convolutions of a cached frame of the U-Net at level 1 on
        # 48x48 inputs: enc0 (6->8, 8->8), dec0 (24->8, 8->8), head (8->6,
        # 1x1); then banded convolutions of the default suite: the U-Net's
        # dec1 at 24x24 and the superres net's fuse at 48x48 and 64x64.
        # Under the module's budget all but the 1x1 head run in bands; enc0's
        # 6->8 and the 8->8 convs end in a shorter band (25 + 23 and
        # 18 + 18 + 12 rows).
        rng = np.random.default_rng(in_c * 100 + out_c)
        params = random_params(rng, in_c, out_c, kernel, padding=padding)
        assert_bitwise_seed_match(_input_of_kind(rng, kind, (in_c, size, size)), params)


def band_columns(monkeypatch, x, params, budget_rows=None):
    """conv2d's output under a budget of budget_rows output rows, or under
    the module's own _BAND_BYTES if None, and the column count of each band
    product it made."""
    out_w = conv_output_hw(params, x.shape[1], x.shape[2])[1]
    row_bytes = params.in_channels * params.kernel_h * params.kernel_w * out_w * 8
    columns = []
    matmul = np.matmul

    def recording(a, b, out=None):
        columns.append(b.shape[1])
        return matmul(a, b, out=out)

    with monkeypatch.context() as patch:
        if budget_rows is not None:
            patch.setattr(ops, "_BAND_BYTES", budget_rows * row_bytes)
        patch.setattr(np, "matmul", recording)
        return conv2d(x, params), columns


class TestConv2dBandAlignment:
    """Every band of a banded map but the last holds a multiple of 8 columns."""

    @pytest.mark.parametrize("width", [5, 6, 7, 9, 13])
    @pytest.mark.parametrize("budget_rows", [1, 3])
    def test_band_columns_multiple_of_8(self, monkeypatch, width, budget_rows):
        rng = np.random.default_rng(width)
        params = random_params(rng, 3, 4, 3, padding=1)
        x = rng.standard_normal((3, 20, width)).astype(np.float32)
        whole, whole_columns = band_columns(monkeypatch, x, params, 20)
        banded, columns = band_columns(monkeypatch, x, params, budget_rows)
        assert whole_columns == [20 * width]
        assert len(columns) > 1 and sum(columns) == 20 * width
        assert all(count % 8 == 0 for count in columns[:-1])
        assert np.array_equal(banded.view(np.uint32), whole.view(np.uint32))

    @pytest.mark.parametrize("in_c,out_c,kernel,padding,size,bands", CACHED_FRAME_SHAPES)
    def test_band_plan_of_cached_frame_shapes(self, monkeypatch, in_c, out_c, kernel, padding, size, bands):
        # Pins the module's budget (512 KiB): at 1 MiB the counts were 1, 2,
        # 4, 1, 2, 7 and 13. Band heights decide which columns each BLAS
        # call sums, so a new budget must pass the golden check again.
        rng = np.random.default_rng(in_c * 100 + out_c)
        params = random_params(rng, in_c, out_c, kernel, padding=padding)
        x = rng.standard_normal((in_c, size, size)).astype(np.float32)
        _, columns = band_columns(monkeypatch, x, params)
        assert len(columns) == bands
        assert sum(columns) == size * size

    def test_map_that_fits_stays_one_product(self, monkeypatch):
        rng = np.random.default_rng(6)
        params = random_params(rng, 3, 4, 3, padding=1)
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        _, columns = band_columns(monkeypatch, x, params, 6)
        assert columns == [36]
        # Five rows of budget: bands of 4 rows (24 columns) and the rest.
        _, columns = band_columns(monkeypatch, x, params, 5)
        assert columns == [24, 12]


# Geometries one process interleaves: (in_c, out_c, kernel, padding, H, W).
WORKSPACE_GEOMETRIES = [
    (6, 8, 3, 1, 48, 48),
    (24, 8, 3, 1, 48, 48),
    (8, 6, 1, 0, 48, 48),
    (16, 16, 3, 1, 24, 24),
    (3, 4, 3, 0, 9, 13),
    (40, 8, 3, 1, 64, 64),
    (8, 8, 3, 1, 48, 48),
]


class TestConv2dWorkspace:
    """conv2d's per-thread workspace and plans change no output byte."""

    def test_interleaved_geometries_match_seed(self):
        rng = np.random.default_rng(11)
        cases = [
            (_input_of_kind(rng, kind, (in_c, h, w)), random_params(rng, in_c, out_c, kernel, padding=padding))
            for kind in ("contiguous", "view", "float64")
            for in_c, out_c, kernel, padding, h, w in WORKSPACE_GEOMETRIES
        ]
        assert {x.dtype for x, _ in cases} == {np.dtype(np.float32), np.dtype(np.float64)}
        assert {params.padding for _, params in cases} == {0, 1}
        kept = []
        for round_ in range(3):
            order = range(len(cases)) if round_ != 1 else reversed(range(len(cases)))
            for i in order:
                x, params = cases[i]
                out = conv2d(x, params)
                assert np.array_equal(out.view(np.uint32), _seed_conv2d(x, params).view(np.uint32))
                kept.append((out, out.tobytes()))
        # Every output is its own array: later calls leave it unchanged.
        assert all(out.tobytes() == data for out, data in kept)
        assert len({id(out) for out, _ in kept}) == len(kept)

    def test_band_budget_patched_after_a_plan_exists(self, monkeypatch):
        rng = np.random.default_rng(12)
        params = random_params(rng, 24, 8, 3, padding=1)
        x = rng.standard_normal((24, 48, 48)).astype(np.float32)
        first, columns = band_columns(monkeypatch, x, params)
        assert len(columns) == 8
        narrow, narrow_columns = band_columns(monkeypatch, x, params, 2)
        assert len(narrow_columns) == 24
        again, again_columns = band_columns(monkeypatch, x, params)
        assert again_columns == columns
        for out in (narrow, again):
            assert np.array_equal(out.view(np.uint32), first.view(np.uint32))

    def test_threads_with_different_geometries(self):
        # More threads than cores and a short switch interval, so the
        # threads' conv2d calls interleave; one shared workspace would mix
        # their bands.
        rng = np.random.default_rng(13)
        cases = []
        for in_c, out_c, kernel, padding, h, w in WORKSPACE_GEOMETRIES[:4]:
            params = random_params(rng, in_c, out_c, kernel, padding=padding)
            inputs = [rng.standard_normal((in_c, h, w)).astype(np.float32) for _ in range(3)]
            cases.append((params, inputs, [_seed_conv2d(x, params).tobytes() for x in inputs]))
        start = threading.Barrier(len(cases), timeout=30)
        matched = []

        def work(params, inputs, expected):
            start.wait()
            outputs = [conv2d(x, params).tobytes() for _ in range(20) for x in inputs]
            matched.append(outputs == expected * 20)

        threads = [threading.Thread(target=work, args=case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matched == [True] * len(cases)


class TestConvParamsCopies:
    def test_source_mutation_does_not_change_output(self):
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        params = ConvParams(weights, bias, padding=1)
        x = rng.standard_normal((2, 7, 7)).astype(np.float32)
        before = conv2d(x, params)
        weights *= 2.0
        bias += 1.0
        after = conv2d(x, params)
        assert np.array_equal(before.view(np.uint32), after.view(np.uint32))
        assert not np.shares_memory(params.weights, weights)
        assert not np.shares_memory(params.bias, bias)

    def test_weights_and_bias_are_read_only(self):
        params = random_params(np.random.default_rng(0), 2, 3, 3)
        with pytest.raises(ValueError):
            params.weights[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            params.bias[0] = 1.0


def _seed_maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2; spatial dims must be even."""
    _check_map(x)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


@st.composite
def pool_inputs(draw):
    c = draw(st.integers(1, 8))
    h = 2 * draw(st.integers(1, 32))
    w = 2 * draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few distinct values, signed zeros among them, so windows tie often.
    palette = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5], dtype=np.float32)
    view = draw(st.sampled_from(["contiguous", "reversed", "strided", "transposed"]))
    if view == "reversed":
        return rng.choice(palette, size=(c, h, w))[:, ::-1, ::-1]
    if view == "strided":
        return rng.choice(palette, size=(c, h, 2 * w))[:, :, ::2]
    if view == "transposed":
        return rng.choice(palette, size=(c, w, h)).transpose(0, 2, 1)
    return rng.choice(palette, size=(c, h, w))


class TestPoolingAndResampling:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pool_inputs())
    def test_maxpool_matches_seed_formula(self, x):
        # The seed's max reduction visits a window in memory order, so on a
        # transposed view a tie between 0.0 and -0.0 resolves the other way;
        # its bits are defined by the C-ordered layout every caller passes.
        new = maxpool2(x)
        old = _seed_maxpool2(np.ascontiguousarray(x))
        assert new.dtype == old.dtype == np.float32
        assert new.shape == old.shape
        assert np.array_equal(new.view(np.uint32), old.view(np.uint32))
        assert np.array_equal(new, _seed_maxpool2(x))

    def test_maxpool_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = int(rng.integers(1, 4))
            h = 2 * int(rng.integers(1, 6))
            w = 2 * int(rng.integers(1, 6))
            x = rng.standard_normal((c, h, w)).astype(np.float32)
            expected = np.zeros((c, h // 2, w // 2), dtype=np.float32)
            for ch in range(c):
                for i in range(h // 2):
                    for j in range(w // 2):
                        expected[ch, i, j] = x[ch, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
            np.testing.assert_array_equal(maxpool2(x), expected)

    def test_maxpool_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            maxpool2(np.zeros((1, 3, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            maxpool2(np.zeros((1, 4, 5), dtype=np.float32))

    def test_upsample_replicates_2x2(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        out = upsample_nearest2(x)
        expected = np.array(
            [[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]], dtype=np.float32
        )
        np.testing.assert_array_equal(out, expected)

    def test_pool_then_upsample_shapes_round_trip(self):
        x = np.random.default_rng(3).standard_normal((2, 8, 10)).astype(np.float32)
        assert upsample_nearest2(maxpool2(x)).shape == x.shape

    def test_block_mean_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 6, 9)).astype(np.float32)
        out = block_mean(x, 3)
        for ch in range(2):
            for i in range(2):
                for j in range(3):
                    window = x[ch, 3 * i:3 * i + 3, 3 * j:3 * j + 3].astype(np.float64)
                    assert out[ch, i, j] == pytest.approx(window.mean(), rel=1e-6)

    def test_block_mean_factor_one_is_identity(self):
        x = np.random.default_rng(1).standard_normal((1, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(block_mean(x, 1), x)

    def test_block_mean_rejects_non_dividing_factor(self):
        with pytest.raises(ValueError):
            block_mean(np.zeros((1, 6, 8), dtype=np.float32), 4)

    def test_repeat_nearest_inverts_block_mean_on_constant_blocks(self):
        rng = np.random.default_rng(9)
        small = rng.standard_normal((3, 4, 5)).astype(np.float32)
        big = repeat_nearest(small, 3)
        assert big.shape == (3, 12, 15)
        np.testing.assert_allclose(block_mean(big, 3), small, rtol=1e-6)

    def test_relu_clamps_negatives_only(self):
        x = np.array([[[-1.5, 0.0], [2.5, -0.0]]], dtype=np.float32)
        out = relu(x)
        np.testing.assert_array_equal(out, np.array([[[0.0, 0.0], [2.5, 0.0]]], dtype=np.float32))


class TestConcat:
    def test_preserves_slot_order(self):
        a = np.full((1, 2, 2), 1.0, dtype=np.float32)
        b = np.full((2, 2, 2), 2.0, dtype=np.float32)
        out = concat_channels([b, a])
        assert out.shape == (3, 2, 2)
        np.testing.assert_array_equal(out[:2], b)
        np.testing.assert_array_equal(out[2:], a)

    def test_rejects_spatial_mismatch(self):
        with pytest.raises(ValueError):
            concat_channels([
                np.zeros((1, 2, 2), dtype=np.float32),
                np.zeros((1, 3, 2), dtype=np.float32),
            ])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            concat_channels([])


class TestTensorValidation:
    def test_coerces_nested_lists(self):
        t = tensor([[[1, 2], [3, 4]]])
        assert t.dtype == np.float32
        assert t.shape == (1, 2, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            tensor(np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tensor(np.full((1, 2, 2), np.nan))


class TestSmape:
    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.standard_normal((2, 4, 4)).astype(np.float32)
            b = rng.standard_normal((2, 4, 4)).astype(np.float32)
            total = 0.0
            for av, bv in zip(a.ravel(), b.ravel()):
                av, bv = float(av), float(bv)
                total += abs(av - bv) / (abs(av) + abs(bv) + 1e-6)
            assert smape(a, b) == pytest.approx(total / a.size, rel=1e-9)

    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((3, 5, 5)).astype(np.float32)
        b = rng.standard_normal((3, 5, 5)).astype(np.float32)
        assert smape(a, a) == 0.0
        assert smape(a, b) == pytest.approx(smape(b, a), rel=1e-12)

    def test_bounded_by_one_for_nonzero_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.uniform(-4, 4, size=(1, 3, 3)).astype(np.float32)
            b = rng.uniform(-4, 4, size=(1, 3, 3)).astype(np.float32)
            assert 0.0 <= smape(a, b) <= 1.0

    def test_opposite_signs_saturate(self):
        a = np.full((1, 2, 2), 3.0, dtype=np.float32)
        assert smape(a, -a) == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            smape(np.zeros((1, 2, 2), dtype=np.float32), np.zeros((1, 2, 3), dtype=np.float32))
