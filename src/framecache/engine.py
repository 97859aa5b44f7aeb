"""Sequence runner: drives a network over frames under a refresh policy.

Refresh frames run the full network and atomically replace the cache
(entry tensors plus, for input-delta policies, the retained reference
input). Cached frames run only the live blocks with the stored edge
tensors substituted. An optional corruption hook rewrites the entries
right after each refresh, which is how the sanity study replaces the
cache with zeros, random values or additive noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .netgraph import NetworkSpec, forward_cached, forward_full
from .policies import (
    DeltaSmape,
    PolicyState,
    RefreshPolicy,
    initial_state,
    policy_metric,
    record_result,
    should_refresh,
)

BYTES_PER_VALUE = 4  # float32 entries

__all__ = [
    "BYTES_PER_VALUE",
    "CacheState",
    "Corruption",
    "FrameRecord",
    "SequenceReport",
    "baseline_outputs",
    "cache_bytes_report",
    "corrupt_cache",
    "run_sequence",
]


@dataclass(eq=False)
class CacheState:
    """Stored producer-side edge tensors plus the input-delta reference."""

    entries: dict[str, np.ndarray]
    reference_input: np.ndarray | None = None


def cache_bytes_report(state: CacheState) -> int:
    """Resident cache size: 4 bytes per stored value, reference included."""
    total = sum(entry.size for entry in state.entries.values())
    if state.reference_input is not None:
        total += state.reference_input.size
    return total * BYTES_PER_VALUE


@dataclass(frozen=True)
class Corruption:
    """Cache rewrite applied after every refresh.

    kind "zero" blanks each entry; "uniform_random" redraws values uniformly
    over the displaced entry's [min, max]; "normal_random" draws from a
    normal with that same range's mean and standard deviation (so the two
    random modes are moment-matched to each other); "noise" adds zero-mean
    Gaussian noise with std sigma_scale times the entry's std.
    """

    kind: str
    sigma_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "uniform_random", "normal_random", "noise"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.sigma_scale < 0:
            raise ValueError("sigma_scale must be >= 0")


def corrupt_cache(
    state: CacheState, mode: Corruption, rng: np.random.Generator | None = None
) -> CacheState:
    """Return a CacheState with rewritten entries; shapes are preserved."""
    if not state.entries:
        raise ValueError("cannot corrupt an empty cache")
    if rng is None:
        rng = np.random.default_rng(mode.seed)
    entries: dict[str, np.ndarray] = {}
    for name, entry in state.entries.items():
        if mode.kind == "zero":
            entries[name] = np.zeros_like(entry)
        elif mode.kind == "uniform_random":
            lo, hi = float(entry.min()), float(entry.max())
            entries[name] = rng.uniform(lo, hi, size=entry.shape).astype(np.float32)
        elif mode.kind == "normal_random":
            lo, hi = float(entry.min()), float(entry.max())
            mean = 0.5 * (lo + hi)
            std = (hi - lo) / math.sqrt(12.0)
            entries[name] = rng.normal(mean, std, size=entry.shape).astype(np.float32)
        else:  # noise
            if mode.sigma_scale == 0.0:
                entries[name] = entry
            else:
                std = mode.sigma_scale * float(entry.std())
                noise = rng.normal(0.0, std, size=entry.shape).astype(np.float32)
                entries[name] = entry + noise
    return CacheState(entries=entries, reference_input=state.reference_input)


@dataclass(eq=False)
class FrameRecord:
    index: int
    refreshed: bool
    flops: int
    policy_metric: float | None
    output: np.ndarray


@dataclass(eq=False)
class SequenceReport:
    frames: list[FrameRecord]
    refresh_count: int
    full_pass_flops: int
    cache_bytes: int

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def total_flops(self) -> int:
        return sum(f.flops for f in self.frames)

    @property
    def skipped_frame_fraction(self) -> float:
        return 1.0 - self.refresh_count / self.frame_count

    @property
    def eliminated_flops_fraction(self) -> float:
        return 1.0 - self.total_flops / (self.frame_count * self.full_pass_flops)

    @property
    def outputs(self) -> list[np.ndarray]:
        return [f.output for f in self.frames]


def run_sequence(
    spec: NetworkSpec,
    frames,
    policy: RefreshPolicy,
    corruption: Corruption | None = None,
) -> SequenceReport:
    """Process frames in order, refreshing the cache per the policy.

    frames is any sequence of objects exposing .input (and .motion when the
    policy needs it); both the workload generator's FrameInput and simple
    namespaces work. Refresh frames are bit-identical to a no-cache run.
    """
    frame_list = list(frames)
    if not frame_list:
        raise ValueError("run_sequence needs at least one frame")
    state: PolicyState = initial_state(policy, len(frame_list))
    cache = CacheState(entries={})
    records: list[FrameRecord] = []
    refresh_count = 0
    full_flops = spec.full_flops
    for index, frame in enumerate(frame_list):
        metric = policy_metric(policy, state, frame)
        refreshed = should_refresh(policy, state, frame)
        if refreshed:
            result = forward_full(spec, frame.input)
            cache = CacheState(
                entries=result.edge_tensors,
                reference_input=frame.input if isinstance(policy, DeltaSmape) else None,
            )
            if corruption is not None:
                rng = np.random.default_rng([corruption.seed, index])
                cache = corrupt_cache(cache, corruption, rng)
            refresh_count += 1
        else:
            result = forward_cached(spec, frame.input, cache.entries)
        record_result(policy, state, frame, refreshed)
        records.append(
            FrameRecord(
                index=index,
                refreshed=refreshed,
                flops=result.flops_executed,
                policy_metric=metric,
                output=result.output,
            )
        )
    return SequenceReport(
        frames=records,
        refresh_count=refresh_count,
        full_pass_flops=full_flops,
        cache_bytes=cache_bytes_report(cache),
    )


def baseline_outputs(spec: NetworkSpec, frames) -> list[np.ndarray]:
    """Full-network outputs for every frame (the no-cache reference)."""
    return [forward_full(spec, frame.input).output for frame in frames]
