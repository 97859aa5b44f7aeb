"""Tests for cache refresh policies and their preset mappings.

Schedule contents and refresh counts are frozen from hand-checked runs;
the drift cases below are built so the correct comparison target (the
retained refresh-frame input, not the previous frame) is observable.
"""

import math
import types

import numpy as np
import pytest

from framecache.policies import (
    DeltaSmape,
    EveryN,
    MotionThreshold,
    NonLinearSchedule,
    PolicyState,
    initial_state,
    mean_motion_magnitude,
    policy_metric,
    power_schedule,
    preset_policy,
    record_result,
    should_refresh,
)
from framecache.workload import SceneConfig, generate

SWEEP_SCENE = SceneConfig(seed=0, channels=6, height=48, width=48, pan_speed=3.0, base_cell=8)


def simulate(policy, frames, horizon=None):
    """Run a policy over frames, returning the per-frame refresh flags."""
    state = initial_state(policy, horizon if horizon is not None else len(frames))
    flags = []
    for frame in frames:
        refresh = should_refresh(policy, state, policy_metric(policy, state, frame))
        record_result(policy, state, frame, refresh)
        flags.append(refresh)
    return flags


def refresh_indices(policy, frames, horizon=None):
    return [i for i, flag in enumerate(simulate(policy, frames, horizon)) if flag]


def constant_frame(value, shape=(2, 4, 4), motion=0.0):
    return types.SimpleNamespace(
        input=np.full(shape, value, dtype=np.float32),
        motion=np.full((2,) + shape[1:], motion, dtype=np.float32),
    )


class TestEveryN:
    """Fixed-period refreshing."""

    def test_refresh_count_is_ceil(self):
        for n in (1, 2, 3, 5, 7):
            for frame_count in (1, 4, 9, 10, 23):
                frames = [constant_frame(0.5) for _ in range(frame_count)]
                assert sum(simulate(EveryN(n), frames)) == math.ceil(frame_count / n)

    def test_refresh_indices(self):
        frames = [constant_frame(0.5) for _ in range(10)]
        assert refresh_indices(EveryN(5), frames) == [0, 5]
        assert refresh_indices(EveryN(2), frames) == [0, 2, 4, 6, 8]
        assert refresh_indices(EveryN(1), frames) == list(range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            EveryN(0)

    def test_metric_counts_frames_since_refresh(self):
        frames = [constant_frame(0.5) for _ in range(5)]
        policy = EveryN(3)
        state = initial_state(policy, 5)
        metrics = []
        for frame in frames:
            metrics.append(policy_metric(policy, state, frame))
            record_result(policy, state, frame, should_refresh(policy, state, metrics[-1]))
        assert metrics == [0.0, 0.0, 1.0, 2.0, 0.0]


class TestPowerSchedule:
    """Power-spaced refresh indices over a horizon."""

    def test_linear_exponent_frozen(self):
        assert power_schedule(5, 1.0, 10) == (0, 2, 5, 7, 9)

    def test_two_refreshes_hit_endpoints(self):
        for exponent in (0.7, 1.0, 1.4, 2.0):
            assert power_schedule(2, exponent, 10) == (0, 9)

    def test_front_loading_exponent_frozen(self):
        assert power_schedule(5, 2.0, 10) == (0, 1, 2, 5, 9)
        assert power_schedule(4, 1.4, 6) == (0, 1, 3, 5)

    def test_single_refresh(self):
        assert power_schedule(1, 1.4, 10) == (0,)
        assert power_schedule(3, 1.4, 1) == (0,)

    def test_duplicates_collapse(self):
        # More requested refreshes than frames cannot exceed the horizon.
        assert power_schedule(12, 1.0, 8) == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_contains_zero_and_strictly_increasing(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            count = int(rng.integers(1, 12))
            exponent = float(rng.uniform(0.3, 3.0))
            horizon = int(rng.integers(1, 40))
            schedule = power_schedule(count, exponent, horizon)
            assert schedule[0] == 0
            assert all(a < b for a, b in zip(schedule, schedule[1:]))
            assert schedule[-1] <= horizon - 1
            assert len(schedule) <= count

    def test_validation(self):
        with pytest.raises(ValueError):
            power_schedule(0, 1.0, 10)
        with pytest.raises(ValueError):
            power_schedule(3, 1.0, 0)


class TestNonLinearSchedule:
    """Schedule-driven policy plumbing."""

    def test_refreshes_follow_schedule(self):
        frames = [constant_frame(0.5) for _ in range(10)]
        policy = NonLinearSchedule(refresh_count=5, exponent=1.0)
        assert refresh_indices(policy, frames) == [0, 2, 5, 7, 9]

    def test_state_requires_initial_state(self):
        policy = NonLinearSchedule(refresh_count=3)
        state = PolicyState(frame_index=1)
        with pytest.raises(ValueError, match="missing its schedule"):
            should_refresh(policy, state, policy_metric(policy, state, constant_frame(0.5)))

    def test_validation(self):
        with pytest.raises(ValueError):
            NonLinearSchedule(refresh_count=0)
        with pytest.raises(ValueError):
            NonLinearSchedule(refresh_count=3, exponent=0.0)


class TestDeltaSmape:
    """Input-delta thresholding against the retained refresh frame."""

    def test_constant_sequence_refreshes_once(self):
        frames = [constant_frame(0.5) for _ in range(10)]
        assert refresh_indices(DeltaSmape(tau=0.25), frames) == [0]

    def test_compares_against_retained_input(self):
        # Values 0.5 + 0.05k: versus the stored frame the delta crosses
        # tau=0.10 every third frame, versus the previous frame it never
        # would. The slow creep must still trigger periodic refreshes.
        frames = [constant_frame(0.5 + 0.05 * k) for k in range(9)]
        assert refresh_indices(DeltaSmape(tau=0.10), frames) == [0, 3, 6]

    def test_threshold_ladder_on_reference_scene(self):
        frames = generate(SWEEP_SCENE, 10).frames
        counts = [
            sum(simulate(DeltaSmape(tau=tau), frames))
            for tau in (0.05, 0.10, 0.20, 0.25, 0.40)
        ]
        assert counts == [10, 10, 5, 3, 1]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert refresh_indices(DeltaSmape(tau=0.20), frames) == [0, 3, 5, 7, 9]
        assert refresh_indices(DeltaSmape(tau=0.25), frames) == [0, 5, 9]

    def test_metric_none_before_first_store(self):
        policy = DeltaSmape(tau=0.25)
        state = initial_state(policy, 3)
        first = constant_frame(0.5)
        assert policy_metric(policy, state, first) is None
        record_result(policy, state, first, True)
        second = constant_frame(0.6)
        metric = policy_metric(policy, state, second)
        assert metric == pytest.approx(0.1 / 1.1, rel=1e-6)

    def test_unprimed_state_rejected(self):
        policy = DeltaSmape(tau=0.25)
        state = PolicyState(frame_index=2)
        with pytest.raises(ValueError, match="no retained input"):
            should_refresh(policy, state, policy_metric(policy, state, constant_frame(0.5)))

    def test_tau_range_validation(self):
        for tau in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                DeltaSmape(tau=tau)
        DeltaSmape(tau=0.5)


class TestMotionThreshold:
    """Mean motion magnitude thresholding."""

    def test_mean_motion_magnitude_exact(self):
        motion = np.zeros((2, 6, 8), dtype=np.float32)
        motion[0] = 3.0
        motion[1] = 4.0
        assert mean_motion_magnitude(motion) == pytest.approx(5.0, abs=1e-12)

    def test_mixed_field_average(self):
        motion = np.zeros((2, 1, 2), dtype=np.float32)
        motion[0, 0, 0] = 1.0
        motion[1, 0, 1] = 3.0
        assert mean_motion_magnitude(motion) == pytest.approx(2.0, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="motion field"):
            mean_motion_magnitude(np.zeros((3, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="motion field"):
            mean_motion_magnitude(np.zeros((2, 4), dtype=np.float32))

    def test_fast_motion_refreshes_every_frame(self):
        frames = [constant_frame(0.5, motion=2.0 / math.sqrt(2)) for _ in range(8)]
        assert sum(simulate(MotionThreshold(tau=1.0), frames)) == 8

    def test_slow_motion_never_refreshes_after_first(self):
        frames = [constant_frame(0.5, motion=0.5 / math.sqrt(2)) for _ in range(8)]
        assert refresh_indices(MotionThreshold(tau=1.0), frames) == [0]

    def test_metric_reports_magnitude(self):
        policy = MotionThreshold(tau=1.0)
        state = initial_state(policy, 2)
        frame = constant_frame(0.5, motion=3.0 / math.sqrt(2))
        assert policy_metric(policy, state, frame) == pytest.approx(3.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            MotionThreshold(tau=-0.1)
        MotionThreshold(tau=0.0)


class TestPresets:
    """Named presets used by the harness."""

    def test_mapping(self):
        assert preset_policy("delta_h", 10) == DeltaSmape(tau=0.20)
        assert preset_policy("delta_l", 10) == DeltaSmape(tau=0.25)
        assert preset_policy("n2", 10) == EveryN(2)
        assert preset_policy("n5", 10) == EveryN(5)
        assert preset_policy("motion", 10) == MotionThreshold(tau=1.0)
        assert preset_policy("no_update", 40) == EveryN(40)

    def test_nonlinear_budget_tracks_horizon(self):
        assert preset_policy("nonlinear", 10) == NonLinearSchedule(refresh_count=2)
        assert preset_policy("nonlinear", 40) == NonLinearSchedule(refresh_count=8)
        assert preset_policy("nonlinear", 1) == NonLinearSchedule(refresh_count=1)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown policy preset"):
            preset_policy("sometimes", 10)

    def test_preset_counts_on_reference_scene(self):
        frames = generate(SWEEP_SCENE, 10).frames
        counts = {
            name: sum(simulate(preset_policy(name, 10), frames, 10))
            for name in ("n5", "n2", "nonlinear", "delta_h", "delta_l", "motion")
        }
        assert counts == {
            "n5": 2,
            "n2": 5,
            "nonlinear": 2,
            "delta_h": 5,
            "delta_l": 3,
            "motion": 10,
        }

    def test_no_update_refreshes_only_frame_zero(self):
        frames = generate(SWEEP_SCENE, 10).frames
        assert refresh_indices(preset_policy("no_update", 10), frames, 10) == [0]

