"""Image quality metrics for comparing cached runs against baselines.

All metrics accept (C, H, W) arrays and treat channels as independent
planes. SSIM uses uniform 8x8 windows with stride 4 and population
statistics, averaged over every window of every channel; it is a
comparative score, not a calibrated reproduction of any published SSIM
variant.

A baseline frame is scored against many runs, so aggregate works from
PreparedReference objects: each holds the frame, its SSIM window mean and
variance, and, once asked for, its score against itself. Every run then
reuses that work, and a refresh frame whose output is the baseline array
itself takes the stored self-score. The same numpy calls run on the same
arrays either way, so the scores are bit-identical to scoring from
scratch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ops import smape

SSIM_WINDOW = 8
SSIM_STRIDE = 4

__all__ = [
    "PreparedReference",
    "QualityReport",
    "aggregate",
    "mse",
    "prepare_references",
    "ssim",
    "smape",
]


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("metrics expect rank-3 (C, H, W) arrays")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error over all channels and pixels."""
    _check_pair(a, b)
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
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


def _moments(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-window mean and population variance. var(mean=mu) skips the
    mean numpy's var would compute again; mu is the same sum / count, so
    the variance keeps its bits."""
    mu = windows.mean(axis=(3, 4), keepdims=True)
    return mu[..., 0, 0], windows.var(axis=(3, 4), mean=mu)


class PreparedReference:
    """A baseline frame with the parts of its scores that depend on it alone.

    Holds the frame array, its float64 SSIM window means and variances
    (C x n_h x n_w each) and its (mse, ssim, smape) against itself once
    self_scores asks for it. The frame must not change while the reference
    is in use; full_passes outputs are read-only. It keeps no float64 copy
    of the frame: each score converts it again, so a list of references
    costs little more than the frames themselves.
    """

    __slots__ = ("array", "mean", "var", "_self_scores")

    def __init__(self, frame: np.ndarray):
        array = np.asarray(frame)
        if array.ndim != 3:
            raise ValueError("metrics expect rank-3 (C, H, W) arrays")
        _, h, w = array.shape
        if h < SSIM_WINDOW or w < SSIM_WINDOW:
            raise ValueError(f"ssim needs spatial dims >= {SSIM_WINDOW}, got {h}x{w}")
        self.array = array
        self.mean, self.var = _moments(_window_views(np.ascontiguousarray(array, dtype=np.float64)))
        self._self_scores: tuple[float, float, float] | None = None

    def self_scores(self) -> tuple[float, float, float]:
        """(mse, ssim, smape) of the frame against itself, computed once."""
        if self._self_scores is None:
            self._self_scores = _scores(self.array, self)
        return self._self_scores


def prepare_references(frames) -> list[PreparedReference]:
    """PreparedReference of each baseline frame; prepared ones pass through."""
    return [f if isinstance(f, PreparedReference) else PreparedReference(f) for f in frames]


def ssim(a: np.ndarray, b) -> float:
    """Mean structural similarity over strided 8x8 windows.

    Values are taken to span [0, 1], so C1 = 0.01^2 and C2 = 0.03^2;
    window statistics are population moments. Spatial dims must be at
    least the window size. b is an array or a PreparedReference of one,
    whose window moments are then not computed again.
    """
    _check_pair(a, b.array if isinstance(b, PreparedReference) else b)
    # Preparing checks the spatial dims, which a shares.
    ref = b if isinstance(b, PreparedReference) else PreparedReference(b)
    wa = _window_views(np.ascontiguousarray(a, dtype=np.float64))
    wb = _window_views(np.ascontiguousarray(ref.array, dtype=np.float64))
    mu_a, var_a = _moments(wa)
    mu_b, var_b = ref.mean, ref.var
    cov = (wa * wb).mean(axis=(3, 4)) - mu_a * mu_b
    c1 = (0.01) ** 2
    c2 = (0.03) ** 2
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def _scores(out: np.ndarray, ref: PreparedReference) -> tuple[float, float, float]:
    """(mse, ssim, smape) of one output against a prepared reference; the
    output is converted to float64 once for all three."""
    out64 = np.asarray(out, dtype=np.float64)
    return mse(out64, ref.array), ssim(out64, ref), smape(out64, ref.array)


@dataclass
class QualityReport:
    """Sequence-level comparison of a cached run against baseline outputs."""

    mean_mse: float
    psnr_of_mean_mse: float
    mean_ssim: float
    mean_smape: float
    per_frame_mse: list[float]
    per_frame_ssim: list[float]


def aggregate(report, baseline, warmup: int = 0) -> QualityReport:
    """Summarize a SequenceReport against per-frame baseline outputs.

    baseline is a list of arrays or of PreparedReference; a scenario that
    scores several runs against one baseline prepares it once and passes
    the same list to each. An output that is the baseline's own array (a
    refresh frame served from a full-pass memo) takes the reference's
    stored self-score; an equal-valued copy is scored in full.

    warmup drops the first frames from the quality means (the per-frame
    lists still cover the whole run). Values are taken to span [0, 1], as
    in ssim. The headline PSNR, 10 log10(1 / MSE), is computed from the
    mean MSE so bit-exact refresh frames cannot push the average to
    infinity.
    """
    outputs = report.outputs
    if len(baseline) != len(outputs):
        raise ValueError("baseline length does not match the report")
    if not 0 <= warmup < len(outputs):
        raise ValueError("warmup must leave at least one scored frame")
    scores = [
        ref.self_scores() if out is ref.array else _scores(out, ref)
        for out, ref in zip(outputs, prepare_references(baseline))
    ]
    mses, ssims, smapes = (list(column) for column in zip(*scores))
    scored = slice(warmup, None)
    mean_mse = float(np.mean(mses[scored]))
    return QualityReport(
        mean_mse=mean_mse,
        psnr_of_mean_mse=math.inf if mean_mse == 0 else 10.0 * math.log10(1.0 / mean_mse),
        mean_ssim=float(np.mean(ssims[scored])),
        mean_smape=float(np.mean(smapes[scored])),
        per_frame_mse=mses,
        per_frame_ssim=ssims,
    )
