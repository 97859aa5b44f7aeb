"""Image quality metrics for comparing cached runs against baselines.

All metrics accept (C, H, W) arrays and treat channels as independent
planes. SSIM uses uniform 8x8 windows with stride 4 and population
statistics, averaged over every window of every channel; it is a
comparative score, not a calibrated reproduction of any published SSIM
variant.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ops import smape

SSIM_WINDOW = 8
SSIM_STRIDE = 4

__all__ = ["QualityReport", "aggregate", "mse", "ssim", "smape"]


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("metrics expect rank-3 (C, H, W) arrays")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error over all channels and pixels."""
    _check_pair(a, b)
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


def _window_views(x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    n_h = (h - SSIM_WINDOW) // SSIM_STRIDE + 1
    n_w = (w - SSIM_WINDOW) // SSIM_STRIDE + 1
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(c, n_h, n_w, SSIM_WINDOW, SSIM_WINDOW),
        strides=(s0, s1 * SSIM_STRIDE, s2 * SSIM_STRIDE, s1, s2),
        writeable=False,
    )


def ssim(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Mean structural similarity over strided 8x8 windows.

    C1 = (0.01 * peak)^2 and C2 = (0.03 * peak)^2; window statistics are
    population moments. Spatial dims must be at least the window size.
    """
    _check_pair(a, b)
    if peak <= 0:
        raise ValueError("peak must be positive")
    _, h, w = a.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"ssim needs spatial dims >= {SSIM_WINDOW}, got {h}x{w}")
    wa = _window_views(np.ascontiguousarray(a, dtype=np.float64))
    wb = _window_views(np.ascontiguousarray(b, dtype=np.float64))
    mu_a = wa.mean(axis=(3, 4))
    mu_b = wb.mean(axis=(3, 4))
    var_a = wa.var(axis=(3, 4))
    var_b = wb.var(axis=(3, 4))
    cov = (wa * wb).mean(axis=(3, 4)) - mu_a * mu_b
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


@dataclass
class QualityReport:
    """Sequence-level comparison of a cached run against baseline outputs."""

    mean_mse: float
    psnr_of_mean_mse: float
    mean_ssim: float
    mean_smape: float
    per_frame_mse: list[float]
    per_frame_ssim: list[float]


def aggregate(report, baseline: list[np.ndarray], peak: float = 1.0, warmup: int = 0) -> QualityReport:
    """Summarize a SequenceReport against per-frame baseline outputs.

    warmup drops the first frames from the quality means (the per-frame
    lists still cover the whole run). The headline PSNR is computed from
    the mean MSE so bit-exact refresh frames cannot push the average to
    infinity.
    """
    outputs = report.outputs
    if len(baseline) != len(outputs):
        raise ValueError("baseline length does not match the report")
    if not 0 <= warmup < len(outputs):
        raise ValueError("warmup must leave at least one scored frame")
    mses = [mse(out, ref) for out, ref in zip(outputs, baseline)]
    ssims = [ssim(out, ref, peak=peak) for out, ref in zip(outputs, baseline)]
    smapes = [smape(out, ref) for out, ref in zip(outputs, baseline)]
    scored = slice(warmup, None)
    mean_mse = float(np.mean(mses[scored]))
    return QualityReport(
        mean_mse=mean_mse,
        psnr_of_mean_mse=math.inf if mean_mse == 0 else 10.0 * math.log10(peak * peak / mean_mse),
        mean_ssim=float(np.mean(ssims[scored])),
        mean_smape=float(np.mean(smapes[scored])),
        per_frame_mse=mses,
        per_frame_ssim=ssims,
    )
