"""Cache refresh policies: when to rerun the full network.

A policy decides per frame whether to refresh the cache. Frame 0 always
refreshes because the cache starts empty. Policies are immutable parameter
records; the mutable bookkeeping (frame index, retained comparison input)
lives in PolicyState, which the sequence runner advances via record_result.
policy_metric computes a frame's metric once and should_refresh decides
from that value.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ops import smape

__all__ = [
    "DeltaSmape",
    "EveryN",
    "MotionThreshold",
    "NonLinearSchedule",
    "PRESETS",
    "PolicyState",
    "initial_state",
    "mean_motion_magnitude",
    "policy_metric",
    "power_schedule",
    "preset_policy",
    "record_result",
    "should_refresh",
]


@dataclass(frozen=True)
class EveryN:
    """Refresh on every frame index divisible by n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("EveryN needs n >= 1")


@dataclass(frozen=True)
class NonLinearSchedule:
    """Power-spaced refresh schedule with a fixed refresh budget.

    The schedule places refresh_count refreshes over the horizon at frame
    indices round((k / (K - 1)) ** exponent * (T - 1)); exponent > 1 front-
    loads refreshes early in the sequence.
    """

    refresh_count: int
    exponent: float = 1.4

    def __post_init__(self):
        if self.refresh_count < 1:
            raise ValueError("refresh_count must be >= 1")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")


@dataclass(frozen=True)
class DeltaSmape:
    """Refresh when the input SMAPE against the retained input exceeds tau."""

    tau: float

    def __post_init__(self):
        if not 0 < self.tau < 1:
            raise ValueError("tau must lie in (0, 1)")


@dataclass(frozen=True)
class MotionThreshold:
    """Refresh when the mean motion-vector magnitude exceeds tau."""

    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")


RefreshPolicy = EveryN | NonLinearSchedule | DeltaSmape | MotionThreshold


@dataclass
class PolicyState:
    frame_index: int = 0
    frames_since_refresh: int = 0
    schedule: frozenset[int] | None = None
    stored_input: np.ndarray | None = field(default=None, repr=False)


def power_schedule(refresh_count: int, exponent: float, horizon: int) -> tuple[int, ...]:
    """Frame indices refreshed by a NonLinearSchedule over a horizon.

    Always contains 0 and is strictly increasing; duplicate rounded
    positions collapse, so fewer than refresh_count entries may remain.
    Rounding is half-up so .5 positions land on the later frame.
    """
    if refresh_count < 1:
        raise ValueError("refresh_count must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if refresh_count == 1 or horizon == 1:
        return (0,)
    positions = {
        int(math.floor((k / (refresh_count - 1)) ** exponent * (horizon - 1) + 0.5))
        for k in range(refresh_count)
    }
    return tuple(sorted(positions))


def initial_state(policy: RefreshPolicy, horizon: int) -> PolicyState:
    state = PolicyState()
    if isinstance(policy, NonLinearSchedule):
        state.schedule = frozenset(power_schedule(policy.refresh_count, policy.exponent, horizon))
    return state


def mean_motion_magnitude(motion: np.ndarray) -> float:
    """Mean Euclidean norm of a (2, H, W) motion-vector field."""
    if motion.ndim != 3 or motion.shape[0] != 2:
        raise ValueError(f"motion field must have shape (2, H, W), got {motion.shape}")
    dx = motion[0].astype(np.float64)
    dy = motion[1].astype(np.float64)
    return float(np.mean(np.hypot(dx, dy)))


def policy_metric(policy: RefreshPolicy, state: PolicyState, frame) -> float | None:
    """The quantity the policy thresholds, for should_refresh and for
    reporting; None before an input-delta policy retains an input."""
    if isinstance(policy, DeltaSmape):
        if state.stored_input is None:
            return None
        return smape(frame.input, state.stored_input)
    if isinstance(policy, MotionThreshold):
        return mean_motion_magnitude(frame.motion)
    return float(state.frames_since_refresh)


def should_refresh(policy: RefreshPolicy, state: PolicyState, metric: float | None) -> bool:
    """Decide whether this frame reruns the full network.

    metric is what policy_metric returned for this frame; state must
    describe the situation just before this frame is processed.
    """
    if state.frame_index == 0:
        return True
    if isinstance(policy, EveryN):
        return state.frame_index % policy.n == 0
    if isinstance(policy, NonLinearSchedule):
        if state.schedule is None:
            raise ValueError("NonLinearSchedule state missing its schedule; use initial_state")
        return state.frame_index in state.schedule
    if isinstance(policy, (DeltaSmape, MotionThreshold)):
        if metric is None:
            raise ValueError(f"{type(policy).__name__} state has no retained input after frame 0")
        return metric > policy.tau
    raise TypeError(f"unknown policy {policy!r}")


def record_result(policy: RefreshPolicy, state: PolicyState, frame, refreshed: bool) -> None:
    """Advance the state past one frame."""
    if refreshed:
        state.frames_since_refresh = 0
        if isinstance(policy, DeltaSmape):
            state.stored_input = frame.input
    else:
        state.frames_since_refresh += 1
    state.frame_index += 1


# Named policies for a horizon, in the order error messages list them.
# delta_h / delta_l are the high- and low-refresh input-delta settings,
# n2 / n5 the periodic refreshers, motion the 1-pixel mean-motion
# threshold, nonlinear a power-spaced schedule with the same refresh
# budget as n5, and no_update runs the full network only on frame 0.
PRESETS = {
    "delta_l": lambda horizon: DeltaSmape(tau=0.25),
    "delta_h": lambda horizon: DeltaSmape(tau=0.20),
    "n5": lambda horizon: EveryN(5),
    "n2": lambda horizon: EveryN(2),
    "motion": lambda horizon: MotionThreshold(tau=1.0),
    "nonlinear": lambda horizon: NonLinearSchedule(refresh_count=max(1, math.ceil(horizon / 5))),
    "no_update": lambda horizon: EveryN(max(1, horizon)),
}


def preset_policy(name: str, horizon: int) -> RefreshPolicy:
    """The policy a PRESETS name stands for on the given horizon."""
    if name not in PRESETS:
        raise ValueError(f"unknown policy preset {name!r}")
    return PRESETS[name](horizon)
