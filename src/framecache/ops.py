"""Dense feature-map primitives shared by every network block.

Feature maps are plain numpy arrays of shape (channels, height, width),
dtype float32 and C-contiguous, so the flat layout is channel-major then
row-major. Every operation here returns a new array that depends only on
its arguments; conv2d alone keeps scratch state, a per-thread workspace
that no result shares, so a thread's outputs do not depend on what other
threads run.

conv2d is an im2col matrix product that accumulates in float64 and rounds
once back to float32, which keeps repeated evaluations bit-identical and
the result within one float32 ulp of the exact sum regardless of summation
order. Its float64 operands, the weights converted once per ConvParams and
the windows cast in the copy that fills the im2col matrix, are the same as
a per-call cast of the weights and of a float32 im2col matrix would give.

The im2col matrix is built and multiplied one band of output rows at a
time, at most _BAND_BYTES of it. The budget is a constant, never read from
the host, so band heights, and with them output bytes, depend on config
and seed alone. When a map needs more than one band, the band height is
rounded down to a row count whose columns are a multiple of 8, but not
below the least such count, so every band starts at a multiple of 8
columns; a map that fits in one band stays one whole product. Every output
is then the same K-long dot product of the same float64 operands, and on
the SkylakeX, Haswell, Sandybridge, Prescott and Katmai OpenBLAS kernels
such bands matched the whole product's columns bit for bit at every map
width tried, 5 to 48; unaligned bands did not.

Two exceptions are known. The Nehalem kernel moved some other heights of
24- and 48-wide maps by an ulp, though none that the default networks use
at this budget. And SkylakeX multiplies a band of at most 10^6
multiply-adds without packing, summing all K terms in one pass, where a
larger product sums them in blocks of 384; so where K exceeds 384 its
columns can differ from the whole product's: the 6-row bands of the
default U-Net's 48->16 convolution at 24x24 (K 432) do. The float32
rounding absorbed every such move the tests and the golden check met, but
that is measured, not guaranteed. CHANGES.md records the budget sweeps and
timings behind these choices.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

SMAPE_EPS = 1e-6

__all__ = [
    "SMAPE_EPS",
    "ConvParams",
    "block_mean",
    "concat_channels",
    "conv2d",
    "conv_flops",
    "conv_output_hw",
    "maxpool2",
    "relu",
    "repeat_nearest",
    "smape",
    "tensor",
    "upsample_nearest2",
]


def tensor(data) -> np.ndarray:
    """Coerce array-like data to a validated (C, H, W) float32 feature map."""
    x = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
    if x.ndim != 3:
        raise ValueError(f"feature map must be rank 3 (C, H, W), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ValueError(f"feature map dimensions must be positive, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature map contains non-finite values")
    return x


def _check_map(x: np.ndarray) -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 3:
        raise ValueError("input must be a rank-3 ndarray (C, H, W)")
    if min(x.shape) < 1:
        raise ValueError(f"input dimensions must be positive, got {x.shape}")


@dataclass(frozen=True, eq=False)
class ConvParams:
    """Weights and geometry for one 2-d convolution (cross-correlation).

    in_channels, out_channels, kernel_h and kernel_w are read from the
    shape of weights, (out_channels, in_channels, kernel_h, kernel_w), each
    at least 1; bias holds out_channels values. Both are stored as
    read-only float32 copies, so changing the arrays passed in does not
    change the layer. Padding is symmetric zero padding. Bias adds are
    excluded from the FLOPs count.
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    in_channels: int = field(init=False)
    out_channels: int = field(init=False)
    kernel_h: int = field(init=False)
    kernel_w: int = field(init=False)

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        w = np.array(self.weights, dtype=np.float32, order="C", copy=True)
        if w.ndim != 4 or min(w.shape) < 1:
            raise ValueError(f"weights must be 4-d with every dimension >= 1, got shape {w.shape}")
        for name, size in zip(("out_channels", "in_channels", "kernel_h", "kernel_w"), w.shape):
            object.__setattr__(self, name, size)
        b = np.array(self.bias, dtype=np.float32, order="C", copy=True)
        if b.size != self.out_channels:
            raise ValueError(f"bias size {b.size} does not match out_channels {self.out_channels}")
        b = b.reshape(-1)
        wmat = w.reshape(self.out_channels, -1).astype(np.float64)
        bias_col = b.astype(np.float64)[:, None]
        for array in (w, b, wmat, bias_col):
            array.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        # conv2d's float64 operands: (out_channels, in_c*kh*kw) and (out_channels, 1).
        object.__setattr__(self, "_wmat", wmat)
        object.__setattr__(self, "_bias_col", bias_col)
        # The geometry conv2d keys its workspace plans by, with the input's shape.
        geometry = (self.out_channels, self.kernel_h, self.kernel_w, self.stride, self.padding)
        object.__setattr__(self, "_geometry", geometry)


def conv_output_hw(params: ConvParams, height: int, width: int) -> tuple[int, int]:
    """Output spatial dims: floor((dim + 2*padding - kernel) / stride) + 1."""
    out_h = (height + 2 * params.padding - params.kernel_h) // params.stride + 1
    out_w = (width + 2 * params.padding - params.kernel_w) // params.stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"conv produces non-positive output dims {out_h}x{out_w} "
            f"for input {height}x{width}"
        )
    return out_h, out_w


# Bytes of float64 im2col matrix built and multiplied at a time: small
# enough for a band and the copy of it that BLAS packs for its product to
# share a core's L2 cache between the copy that fills the band and the
# product that reads it. A constant, never read from the host, so band
# heights, and with them output bytes, depend on config and seed alone.
_BAND_BYTES = 1 << 19


class _Workspace(threading.local):
    """One thread's conv2d scratch: grow-only flat buffers for the padded
    input (raw bytes, viewed in the input's dtype), the float64 band and
    the float64 accumulator, and the _Plan of each geometry seen since the
    buffers last grew. Every plan views the same buffers."""

    def __init__(self):
        self.pad = np.empty(0, dtype=np.uint8)
        self.band = np.empty(0, dtype=np.float64)
        self.acc = np.empty(0, dtype=np.float64)
        self.plans = {}


_workspace = _Workspace()


@dataclass(frozen=True, eq=False)
class _Plan:
    """conv2d's views of the workspace for one input geometry and budget.

    inner is where the input is copied inside its padded map, the whole map
    when padding is 0, and strips is the map's border, which another plan's
    map may have overwritten. windows holds each band's slice of the window
    view of the padded map. bands and flats are each band's im2col block as
    (C, kh, kw, rows, out_w) and as (K, columns), outs its columns of acc,
    and out is acc as (out_channels, out_h, out_w).
    """

    inner: np.ndarray
    strips: tuple
    windows: tuple
    bands: tuple
    flats: tuple
    outs: tuple
    acc: np.ndarray
    out: np.ndarray


def _buffer(ws: _Workspace, name: str, size: int) -> np.ndarray:
    """The workspace buffer called name, grown to at least size items. A
    new buffer drops every plan, whose views are of the old one."""
    buffer = getattr(ws, name)
    if buffer.size < size:
        buffer = np.empty(size, dtype=buffer.dtype)
        setattr(ws, name, buffer)
        ws.plans.clear()
    return buffer


def _make_plan(ws: _Workspace, x: np.ndarray, params: ConvParams, budget: int) -> _Plan:
    c, h, w = x.shape
    out_h, out_w = conv_output_hw(params, h, w)
    kernel = (c, params.kernel_h, params.kernel_w)
    k = c * params.kernel_h * params.kernel_w
    rows = min(out_h, max(1, budget // (k * out_w * 8)))
    if rows < out_h:
        # Several bands: each but the last holds a multiple of 8 columns.
        aligned = 8 // math.gcd(out_w, 8)
        rows = min(out_h, max(aligned, rows - rows % aligned))
    p = params.padding
    hp, wp = h + 2 * p, w + 2 * p
    band = _buffer(ws, "band", k * rows * out_w)
    acc = _buffer(ws, "acc", params.out_channels * out_h * out_w)
    acc = acc[:params.out_channels * out_h * out_w].reshape(params.out_channels, -1)
    pad = _buffer(ws, "pad", c * hp * wp * x.itemsize)
    xp = pad[:c * hp * wp * x.itemsize].view(x.dtype).reshape(c, hp, wp)
    s0, s1, s2 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=kernel + (out_h, out_w),
        strides=(s0, s1, s2, s1 * params.stride, s2 * params.stride),
        writeable=False,
    )
    spans = tuple((r0, min(r0 + rows, out_h)) for r0 in range(0, out_h, rows))
    bands = tuple(band[:k * (r1 - r0) * out_w].reshape(kernel + (r1 - r0, out_w)) for r0, r1 in spans)
    return _Plan(
        inner=xp[:, p:p + h, p:p + w],
        strips=(xp[:, :p], xp[:, p + h:], xp[:, p:p + h, :p], xp[:, p:p + h, p + w:]) if p else (),
        windows=tuple(view[:, :, :, r0:r1] for r0, r1 in spans),
        bands=bands,
        flats=tuple(b.reshape(k, -1) for b in bands),
        outs=tuple(acc[:, r0 * out_w:r1 * out_w] for r0, r1 in spans),
        acc=acc,
        out=acc.reshape(params.out_channels, out_h, out_w),
    )


def conv2d(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Apply a zero-padded strided cross-correlation to a (C, H, W) map.

    The input is padded in its own dtype, then its windows are cast to
    float64 in the single copy that fills each band of the im2col matrix.
    The product with the float64 weights of params, made once per
    ConvParams, gets the same operands as casting the weights and a float32
    im2col matrix on every call would. The padded map, the bands and the
    accumulator live in this thread's workspace; the result is a new array.
    """
    _check_map(x)
    c = x.shape[0]
    if c != params.in_channels:
        raise ValueError(f"conv expects {params.in_channels} channels, got {c}")
    ws = _workspace
    key = (x.shape, x.dtype, params._geometry, _BAND_BYTES)
    plan = ws.plans.get(key)
    if plan is None:
        plan = ws.plans[key] = _make_plan(ws, x, params, _BAND_BYTES)
    for strip in plan.strips:
        strip.fill(0)
    np.copyto(plan.inner, x)
    for band, window, flat, out in zip(plan.bands, plan.windows, plan.flats, plan.outs):
        np.copyto(band, window)
        np.matmul(params._wmat, flat, out=out)
    acc = plan.acc
    acc += params._bias_col
    return plan.out.astype(np.float32)


def conv_flops(params: ConvParams, out_h: int, out_w: int) -> int:
    """Arithmetic ops for one conv: 2 * kh * kw * in_c * out_c * out_h * out_w."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output dims must be positive")
    return (
        2
        * params.kernel_h
        * params.kernel_w
        * params.in_channels
        * params.out_channels
        * out_h
        * out_w
    )


def relu(x: np.ndarray) -> np.ndarray:
    _check_map(x)
    return np.maximum(x, np.float32(0.0))


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2; spatial dims must be even.

    Takes the elementwise maximum of the four strided quarter views in the
    window's row-major order, which gives the same bits, signed zeros
    included, as reducing each 2x2 window of a C-ordered map with max,
    whatever the memory layout of x.
    """
    _check_map(x)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    top = np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2])
    return np.maximum(np.maximum(top, x[:, 1::2, 0::2]), x[:, 1::2, 1::2])


def upsample_nearest2(x: np.ndarray) -> np.ndarray:
    """Double both spatial dims by replicating each element 2x2."""
    return repeat_nearest(x, 2)


def block_mean(x: np.ndarray, factor: int) -> np.ndarray:
    """Area-average downsample by an integer factor; dims must divide."""
    _check_map(x)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    c, h, w = x.shape
    if h % factor or w % factor:
        raise ValueError(f"block_mean factor {factor} does not divide {h}x{w}")
    blocks = x.reshape(c, h // factor, factor, w // factor, factor)
    return blocks.mean(axis=(2, 4), dtype=np.float64).astype(np.float32)


def repeat_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour upsample by an integer factor."""
    _check_map(x)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)


def concat_channels(parts: list[np.ndarray]) -> np.ndarray:
    """Stack feature maps along the channel axis; spatial dims must agree."""
    if not parts:
        raise ValueError("concat_channels needs at least one input")
    for part in parts:
        _check_map(part)
    hw = parts[0].shape[1:]
    for part in parts[1:]:
        if part.shape[1:] != hw:
            raise ValueError(
                f"concat spatial mismatch: {part.shape[1:]} vs {hw}"
            )
    return np.concatenate(parts, axis=0)


def smape(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean absolute percentage error over all elements.

    mean(|a - b| / (|a| + |b| + eps)) with eps = 1e-6, computed in float64.
    Always in [0, 1]; 0 exactly when a == b elementwise.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    return float(np.mean(np.abs(a64 - b64) / (np.abs(a64) + np.abs(b64) + SMAPE_EPS)))
