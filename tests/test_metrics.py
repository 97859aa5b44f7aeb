"""Tests for image quality metrics and the sequence-level aggregate.

The SSIM oracle below walks every strided window with explicit loops and
population statistics, so the vectorized implementation is checked against
a direct transcription of the scoring formula.
"""

import math
import types

import numpy as np
import pytest

from framecache.metrics import (
    SSIM_STRIDE,
    SSIM_WINDOW,
    QualityReport,
    aggregate,
    mse,
    smape,
    ssim,
)


def naive_ssim(a, b, peak=1.0):
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    scores = []
    channels, height, width = a.shape
    for c in range(channels):
        for top in range(0, height - SSIM_WINDOW + 1, SSIM_STRIDE):
            for left in range(0, width - SSIM_WINDOW + 1, SSIM_STRIDE):
                wa = a[c, top : top + SSIM_WINDOW, left : left + SSIM_WINDOW]
                wb = b[c, top : top + SSIM_WINDOW, left : left + SSIM_WINDOW]
                mu_a, mu_b = wa.mean(), wb.mean()
                var_a, var_b = wa.var(), wb.var()
                cov = (wa * wb).mean() - mu_a * mu_b
                scores.append(
                    ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
                )
    return float(np.mean(scores))


def random_pair(rng, shape=(3, 16, 16), scale=0.1):
    a = rng.uniform(0.0, 1.0, size=shape).astype(np.float32)
    b = (a + rng.normal(0.0, scale, size=shape)).astype(np.float32)
    return a, b


class TestMse:
    """Mean squared error closed forms."""

    def test_identical_is_zero(self):
        x = np.random.default_rng(0).uniform(size=(3, 8, 8)).astype(np.float32)
        assert mse(x, x) == 0.0

    def test_unit_offset(self):
        a = np.zeros((2, 4, 4), dtype=np.float32)
        b = np.ones((2, 4, 4), dtype=np.float32)
        assert mse(a, b) == 1.0

    def test_single_pixel_error_averages(self):
        a = np.zeros((1, 4, 4), dtype=np.float32)
        b = a.copy()
        b[0, 0, 0] = 4.0
        assert mse(a, b) == pytest.approx(16.0 / 16.0, abs=0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = random_pair(rng)
        assert mse(a, b) == mse(b, a)

    def test_shape_and_rank_validation(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse(np.zeros((1, 4, 4), dtype=np.float32), np.zeros((1, 4, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="rank-3"):
            mse(np.zeros((4, 4), dtype=np.float32), np.zeros((4, 4), dtype=np.float32))


class TestSsim:
    """Windowed structural similarity."""

    def test_identical_is_one(self):
        x = np.random.default_rng(4).uniform(size=(3, 12, 12)).astype(np.float32)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images_closed_form(self):
        # Flat images: variance terms vanish, score reduces to the
        # luminance factor (2 mu_a mu_b + C1) / (mu_a^2 + mu_b^2 + C1).
        a = np.full((1, 8, 8), 0.2, dtype=np.float32)
        b = np.full((1, 8, 8), 0.4, dtype=np.float32)
        assert ssim(a, b) == pytest.approx(0.8000999500220103, abs=1e-12)

    def test_matches_window_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            height = int(rng.integers(8, 25))
            width = int(rng.integers(8, 25))
            channels = int(rng.integers(1, 4))
            a, b = random_pair(rng, shape=(channels, height, width), scale=0.15)
            assert ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-12)

    def test_frozen_value(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, size=(2, 13, 17)).astype(np.float32)
        b = (a + rng.normal(0, 0.05, size=a.shape)).astype(np.float32)
        assert ssim(a, b) == pytest.approx(0.9845608305303455, abs=1e-12)
        assert mse(a, b) == pytest.approx(0.002469587584545686, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a, b = random_pair(rng, scale=0.3)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_degrades_with_noise(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(0.0, 1.0, size=(2, 16, 16)).astype(np.float32)
        scores = [
            ssim(base, (base + rng.normal(0, scale, size=base.shape)).astype(np.float32))
            for scale in (0.01, 0.05, 0.2)
        ]
        assert scores[0] > scores[1] > scores[2]

    def test_small_spatial_dims_rejected(self):
        a = np.zeros((1, 7, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="spatial dims"):
            ssim(a, a)

    def test_peak_validation(self):
        a = np.zeros((1, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="peak"):
            ssim(a, a, peak=-1.0)


class TestMetricProperties:
    """Identity and symmetry across all three pairwise metrics."""

    def test_seeded_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            a, b = random_pair(rng, shape=(2, 12, 12), scale=float(rng.uniform(0.01, 0.5)))
            assert mse(a, a) == 0.0
            assert smape(a, a) == 0.0
            assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)
            assert mse(a, b) == mse(b, a)
            assert smape(a, b) == smape(b, a)
            assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)
            assert mse(a, b) >= 0.0
            assert 0.0 <= smape(a, b) <= 1.0


class TestAggregate:
    """Sequence-level quality summary."""

    def make_report(self, outputs):
        return types.SimpleNamespace(outputs=outputs)

    def test_identical_outputs(self):
        rng = np.random.default_rng(9)
        outputs = [rng.uniform(size=(2, 8, 8)).astype(np.float32) for _ in range(4)]
        report = self.make_report(outputs)
        quality = aggregate(report, [o.copy() for o in outputs])
        assert isinstance(quality, QualityReport)
        assert quality.mean_mse == 0.0
        assert quality.psnr_of_mean_mse == math.inf
        assert quality.mean_ssim == pytest.approx(1.0, abs=1e-12)
        assert quality.mean_smape == 0.0
        assert quality.per_frame_mse == [0.0] * 4

    def test_means_match_per_frame_lists(self):
        rng = np.random.default_rng(10)
        outputs = [rng.uniform(size=(2, 8, 8)).astype(np.float32) for _ in range(5)]
        baseline = [
            (o + rng.normal(0, 0.1, size=o.shape)).astype(np.float32) for o in outputs
        ]
        quality = aggregate(self.make_report(outputs), baseline)
        assert quality.mean_mse == pytest.approx(float(np.mean(quality.per_frame_mse)), abs=0.0)
        assert quality.mean_ssim == pytest.approx(float(np.mean(quality.per_frame_ssim)), abs=0.0)
        expected_psnr = 10.0 * math.log10(1.0 / quality.mean_mse)
        assert quality.psnr_of_mean_mse == pytest.approx(expected_psnr, abs=1e-12)

    def test_warmup_drops_leading_frames(self):
        rng = np.random.default_rng(11)
        clean = rng.uniform(size=(2, 8, 8)).astype(np.float32)
        noisy = (clean + rng.normal(0, 0.5, size=clean.shape)).astype(np.float32)
        # Frame 0 is corrupted; scoring from frame 1 on must ignore it.
        outputs = [noisy, clean.copy(), clean.copy()]
        baseline = [clean.copy()] * 3
        full = aggregate(self.make_report(outputs), baseline)
        trimmed = aggregate(self.make_report(outputs), baseline, warmup=1)
        assert full.mean_mse > 0.0
        assert trimmed.mean_mse == 0.0
        # Per-frame lists still cover the whole sequence.
        assert len(trimmed.per_frame_mse) == 3
        assert trimmed.per_frame_mse[0] > 0.0

    def test_validation(self):
        rng = np.random.default_rng(13)
        outputs = [rng.uniform(size=(2, 8, 8)).astype(np.float32) for _ in range(3)]
        report = self.make_report(outputs)
        with pytest.raises(ValueError, match="baseline length"):
            aggregate(report, outputs[:-1])
        with pytest.raises(ValueError, match="warmup"):
            aggregate(report, outputs, warmup=3)
        with pytest.raises(ValueError, match="warmup"):
            aggregate(report, outputs, warmup=-1)
