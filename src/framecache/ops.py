"""Dense feature-map primitives shared by every network block.

Feature maps are plain numpy arrays of shape (channels, height, width),
dtype float32 and C-contiguous, so the flat layout is channel-major then
row-major. Every operation here is a pure function. The convolution
accumulates in float64 and rounds once back to float32, which keeps
repeated evaluations bit-identical and keeps the result within one float32
ulp of the exact sum regardless of summation order.

The convolution is an im2col matrix product. Each ConvParams converts its
weights and bias to float64 once, when it is built, and conv2d casts the
input to float64 while it copies the im2col windows, so each call makes one
copy of the expanded input instead of two. The float64 operands of the
product are the same as a per-call cast of the weights and of a float32
im2col matrix would give, so the outputs are unchanged bit for bit.
"""

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


def conv2d(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Apply a zero-padded strided cross-correlation to a (C, H, W) map.

    The input is padded in its own dtype, then its windows are cast to
    float64 in the single copy that builds the im2col matrix. The product
    with the float64 weights of params, made once per ConvParams, gets the
    same operands as casting the weights and a float32 im2col matrix on
    every call would, so the result is the same bit for bit.
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
    window_shape = (c, params.kernel_h, params.kernel_w, out_h, out_w)
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=window_shape,
        strides=(s0, s1, s2, s1 * params.stride, s2 * params.stride),
        writeable=False,
    )
    cols = np.empty(window_shape, dtype=np.float64)
    np.copyto(cols, windows)
    cols = cols.reshape(c * params.kernel_h * params.kernel_w, out_h * out_w)
    acc = params._wmat @ cols
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
    """2x2 max pooling with stride 2; spatial dims must be even."""
    _check_map(x)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


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
