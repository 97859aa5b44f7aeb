"""Tests for image quality metrics and the sequence-level aggregate.

The SSIM oracle below walks every strided window with explicit loops and
population statistics, so the vectorized implementation is checked against
a direct transcription of the scoring formula. _seed_ssim is the
vectorized formula as it was before baseline frames were prepared once;
the prepared path must reproduce it bit for bit.
"""

import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecache.metrics as metrics
from framecache.builders import build_unet
from framecache.engine import full_passes, run_sequence
from framecache.metrics import (
    SSIM_STRIDE,
    SSIM_WINDOW,
    PreparedReference,
    QualityReport,
    aggregate,
    mse,
    prepare_references,
    smape,
    ssim,
)
from framecache.policies import EveryN, preset_policy
from framecache.workload import SceneConfig, generate


def naive_ssim(a, b):
    peak = 1.0
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


def _seed_ssim(a, b):
    """ssim as computed before prepared references: both sides' moments
    from their own float64 window views."""
    peak = 1.0
    wa = metrics._window_views(np.ascontiguousarray(a, dtype=np.float64))
    wb = metrics._window_views(np.ascontiguousarray(b, dtype=np.float64))
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


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def report_bits(report: QualityReport) -> dict:
    """Every field of a QualityReport, floats as their bytes."""
    return {
        "mean_mse": bits(report.mean_mse),
        "psnr_of_mean_mse": bits(report.psnr_of_mean_mse),
        "mean_ssim": bits(report.mean_ssim),
        "mean_smape": bits(report.mean_smape),
        "per_frame_mse": [bits(v) for v in report.per_frame_mse],
        "per_frame_ssim": [bits(v) for v in report.per_frame_ssim],
    }


def plane_pair(seed, shape, kind):
    """Two float32 images of shape: noisy random planes, or ones with
    constant planes, or signed zeros mixed with small values."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
    b = (a + rng.normal(0.0, 0.2, size=shape)).astype(np.float32)
    if kind == "constant":
        for image in (a, b):
            for channel in range(shape[0]):
                if rng.random() < 0.5:
                    image[channel] = np.float32(rng.uniform(-1.0, 1.0))
    elif kind == "signed_zero":
        for image in (a, b):
            zeros = rng.random(shape) < 0.7
            image[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return a, b


class TestPreparedReference:
    """Scoring against prepared baseline frames is bit-identical to scoring
    from scratch, and does the baseline-only work once."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        channels=st.integers(1, 6),
        height=st.integers(8, 40),
        width=st.integers(8, 40),
        kind=st.sampled_from(["noise", "constant", "signed_zero"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ssim_matches_the_seed_formula_by_bits(self, channels, height, width, kind, seed):
        a, b = plane_pair(seed, (channels, height, width), kind)
        expected = bits(_seed_ssim(a, b))
        assert bits(ssim(a, b)) == expected
        assert bits(ssim(a, PreparedReference(b))) == expected
        assert bits(ssim(a.astype(np.float64), PreparedReference(b))) == expected
        assert bits(ssim(b, PreparedReference(b))) == bits(_seed_ssim(b, b))

    def test_reference_holds_only_the_frame_and_its_moments(self):
        frame = np.random.default_rng(0).uniform(size=(3, 16, 24)).astype(np.float32)
        frame.setflags(write=False)
        ref = PreparedReference(frame)
        assert ref.array is frame
        # 3 channels of 3 x 5 windows of stride 4.
        assert ref.mean.shape == ref.var.shape == (3, 3, 5)
        assert ref.mean.dtype == ref.var.dtype == np.float64
        assert ref.mean.nbytes == ref.var.nbytes == 3 * 3 * 5 * 8

    def test_prepared_references_pass_through(self):
        frames = [np.zeros((1, 8, 8), dtype=np.float32) for _ in range(2)]
        refs = prepare_references(frames)
        assert [ref.array for ref in refs] == frames
        assert all(a is b for a, b in zip(prepare_references(refs), refs))

    def test_reference_validation(self):
        with pytest.raises(ValueError, match="rank-3"):
            PreparedReference(np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="spatial dims"):
            PreparedReference(np.zeros((1, 8, 7), dtype=np.float32))
        with pytest.raises(ValueError, match="shape mismatch"):
            ssim(np.zeros((1, 8, 9), dtype=np.float32), PreparedReference(np.zeros((1, 8, 8))))


@pytest.fixture(scope="module")
def memo_runs():
    """A full-pass memo over 7 frames and reports of three policies run on it."""
    spec = build_unet(2, 4, (6, 16, 16), seed=3)
    scene = SceneConfig(seed=2, channels=6, height=16, width=16, pan_speed=2.0, base_cell=8)
    frames = generate(scene, 7).frames
    memo = full_passes([spec], frames)
    policies = (EveryN(3), EveryN(1), preset_policy("no_update", 7))
    reports = [run_sequence(spec, frames, policy, memo=memo) for policy in policies]
    return memo, reports


class TestSharedBaseline:
    """aggregate against one prepared baseline shared by several runs."""

    def test_shared_baseline_gives_the_same_reports_by_bits(self, memo_runs):
        memo, reports = memo_runs
        shared = prepare_references(memo.outputs)
        for warmup in (0, 2):
            for report in reports:
                expected = aggregate(report, [out.copy() for out in memo.outputs], warmup=warmup)
                assert report_bits(aggregate(report, shared, warmup=warmup)) == report_bits(expected)
                assert report_bits(aggregate(report, memo.outputs, warmup=warmup)) == report_bits(expected)

    def test_refresh_frames_scored_once_copies_in_full(self, memo_runs, monkeypatch):
        memo, reports = memo_runs
        calls = []
        seed_ssim = metrics.ssim

        def counting_ssim(a, b):
            calls.append(a.shape)
            return seed_ssim(a, b)

        monkeypatch.setattr(metrics, "ssim", counting_ssim)
        shared = prepare_references(memo.outputs)
        every_3, every_1, _ = reports
        # Frames 0, 3 and 6 refresh and are the memo's own arrays; the
        # other four are cached frames.
        aggregate(every_3, shared)
        assert len(calls) == 7
        # Every frame refreshes: only the four frames not yet scored
        # against themselves need a call, and a second run needs none.
        aggregate(every_1, shared)
        assert len(calls) == 11
        aggregate(every_1, shared)
        assert len(calls) == 11
        # Equal-valued copies of the memo outputs are scored in full.
        copies = types.SimpleNamespace(outputs=[out.copy() for out in memo.outputs])
        aggregate(copies, shared)
        aggregate(copies, shared)
        assert len(calls) == 11 + 2 * 7
