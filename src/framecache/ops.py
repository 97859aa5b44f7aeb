"""Dense feature-map primitives shared by every network block.

Feature maps are plain numpy arrays of shape (channels, height, width),
dtype float32 and C-contiguous, so the flat layout is channel-major then
row-major. Every operation here is a pure function. The convolution
accumulates in float64 and rounds once back to float32, which keeps
repeated evaluations bit-identical and keeps the result within one float32
ulp of the exact sum regardless of summation order.

The convolution is an im2col matrix product. Each ConvParams converts its
weights and bias to float64 once, when it is built, and conv2d casts the
input to float64 while it copies the windows, so each call makes one copy
of the expanded input instead of two. The float64 operands of the product
are the same as a per-call cast of the weights and of a float32 im2col
matrix would give.

conv2d builds the im2col matrix one band of output rows at a time and
multiplies each band into its columns of the result. _BAND_BYTES, 512 KiB,
sizes the bands for a core's L2 cache, which holds both the band, between
the copy that fills it and the product that reads it, and the copy of the
band that BLAS packs for its product; at 1 MiB the two filled the 2 MiB L2
of the Xeon the budget was tuned on. On that host the budget also keeps
nearly every band within the size, 10^6 multiply-adds, up to which the
SkylakeX OpenBLAS kernel multiplies without packing. There, at one BLAS
thread, 512 KiB made a cached 48x48 frame of the stream U-Net 10% faster
than 1 MiB, and a refresh frame 9% faster, in ten alternated benchmark
runs; in-process sweeps put 384 and 512 KiB ahead of 256, 768 and 1024
KiB, and the default suite wrote the same bytes at each of them. The
budget is a constant, never read from the host, so band heights, and
with them output bytes, depend on config and seed alone.

Every output is still the same K-long dot product of the same float64
operands. When a map needs more than one band, the band height is rounded
down to a row count whose columns are a multiple of 8, but not below the
least such count, so every band starts at a multiple of 8 columns; a map
that fits in one band stays one whole product. On the SkylakeX, Haswell,
Sandybridge, Prescott and Katmai OpenBLAS kernels, such bands matched the
whole product's float64 columns bit for bit at every map width tried, 5
to 48; unaligned bands did not. Two exceptions are known. The Nehalem
kernel moved some other heights of 24- and 48-wide maps by an ulp, though
none that the default networks use at this budget. And on SkylakeX a band
within the unpacked size sums all K terms in one pass, where a larger
product sums them in blocks of 384, so where K exceeds 384 its columns can
differ from the whole product's: the 6-row bands of the default U-Net's
48->16 convolution at 24x24 (K 432) do. The float32 rounding absorbed
every such move the tests and the golden check met, but that is measured,
not guaranteed.
"""

import math
from dataclasses import dataclass

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


def _check_map(x: np.ndarray, what: str = "input") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 3:
        raise ValueError(f"{what} must be a rank-3 ndarray (C, H, W)")
    if min(x.shape) < 1:
        raise ValueError(f"{what} dimensions must be positive, got {x.shape}")


@dataclass(frozen=True, eq=False)
class ConvParams:
    """Weights and geometry for one 2-d convolution (cross-correlation).

    weights has shape (out_channels, in_channels, kernel_h, kernel_w) and
    bias has shape (out_channels,); both are stored as read-only float32
    copies, so changing the arrays passed in does not change the layer.
    Padding is symmetric zero padding. Bias adds are excluded from the
    FLOPs count.
    """

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        for field in ("in_channels", "out_channels", "kernel_h", "kernel_w", "stride"):
            if int(getattr(self, field)) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        w = np.array(self.weights, dtype=np.float32, order="C", copy=True)
        shape = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        if w.size != np.prod(shape):
            raise ValueError(f"weights size {w.size} does not match {shape}")
        b = np.array(self.bias, dtype=np.float32, order="C", copy=True)
        if b.size != self.out_channels:
            raise ValueError(f"bias size {b.size} does not match out_channels")
        w = w.reshape(shape)
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


def conv2d(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Apply a zero-padded strided cross-correlation to a (C, H, W) map.

    The input is padded in its own dtype, then its windows are cast to
    float64 in the single copy that fills each band of the im2col matrix.
    The product with the float64 weights of params, made once per
    ConvParams, gets the same operands as casting the weights and a float32
    im2col matrix on every call would.
    """
    _check_map(x)
    c, h, w = x.shape
    if c != params.in_channels:
        raise ValueError(f"conv expects {params.in_channels} channels, got {c}")
    out_h, out_w = conv_output_hw(params, h, w)
    p = params.padding
    if p:
        xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, p:p + h, p:p + w] = x
    else:
        xp = x
    s0, s1, s2 = xp.strides
    kernel = (c, params.kernel_h, params.kernel_w)
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=kernel + (out_h, out_w),
        strides=(s0, s1, s2, s1 * params.stride, s2 * params.stride),
        writeable=False,
    )
    k = c * params.kernel_h * params.kernel_w
    rows = min(out_h, max(1, _BAND_BYTES // (k * out_w * 8)))
    if rows < out_h:
        # Several bands: each but the last holds a multiple of 8 columns.
        aligned = 8 // math.gcd(out_w, 8)
        rows = min(out_h, max(aligned, rows - rows % aligned))
    buffer = np.empty(k * rows * out_w, dtype=np.float64)
    acc = np.empty((params.out_channels, out_h * out_w), dtype=np.float64)
    for r0 in range(0, out_h, rows):
        r1 = min(r0 + rows, out_h)
        band = buffer[:k * (r1 - r0) * out_w].reshape(kernel + (r1 - r0, out_w))
        np.copyto(band, windows[:, :, :, r0:r1])
        np.matmul(params._wmat, band.reshape(k, -1), out=acc[:, r0 * out_w:r1 * out_w])
    acc += params._bias_col
    return acc.reshape(params.out_channels, out_h, out_w).astype(np.float32)


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
    _check_map(x)
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


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
