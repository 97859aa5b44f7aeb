"""Sequence runner: drives a network over frames under a refresh policy.

Refresh frames run the full network and replace the cache entries, a
dict of the producer-side tensors of the cached edges; an input-delta
policy's retained input lives in its PolicyState. Cached frames run only
the live blocks with the stored edge tensors substituted. An optional
corruption hook rewrites the entries right after each refresh, which is
how the sanity study replaces the cache with zeros, random values or
additive noise. A run keeps one netgraph.CacheState and hands it the
entries each refresh leaves, so the first cached frame after a refresh
writes the cached channels of the live blocks' inputs and the frames
after that reuse them.

A full-pass memo (full_passes) holds one read-only full pass per frame
for a network shared by several cache configurations: every frame's
output, and edge tensors on the frames it is asked to keep them for,
which refresh_frames can name ahead of the runs because a policy never
reads the network's outputs. Handed to run_sequence, the memo supplies
the refresh frames' outputs and edge tensors, which criterion 01 makes
bit-identical to running forward_full again.
"""

import math
from dataclasses import dataclass

import numpy as np

from .netgraph import CacheState, ForwardRecord, NetworkSpec, forward_cached, forward_full
from .policies import (
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
    "Corruption",
    "FrameRecord",
    "FullPasses",
    "SequenceReport",
    "baseline_outputs",
    "cache_bytes_report",
    "corrupt_cache",
    "full_passes",
    "refresh_frames",
    "run_sequence",
]


def cache_bytes_report(
    entries: dict[str, np.ndarray], reference_input: np.ndarray | None = None
) -> int:
    """Resident cache size: 4 bytes per stored value, reference included."""
    total = sum(entry.size for entry in entries.values())
    if reference_input is not None:
        total += reference_input.size
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
    entries: dict[str, np.ndarray], mode: Corruption, rng: np.random.Generator | None = None
) -> dict[str, np.ndarray]:
    """Return the entries rewritten, shapes preserved, in descending edge
    name order. The random kinds draw entry by entry in that order, so the
    result does not depend on the order the dict holds its entries in."""
    if not entries:
        raise ValueError("cannot corrupt an empty cache")
    if rng is None:
        rng = np.random.default_rng(mode.seed)
    out: dict[str, np.ndarray] = {}
    for name, entry in sorted(entries.items(), reverse=True):
        if mode.kind == "zero":
            out[name] = np.zeros_like(entry)
        elif mode.kind == "uniform_random":
            lo, hi = float(entry.min()), float(entry.max())
            out[name] = rng.uniform(lo, hi, size=entry.shape).astype(np.float32)
        elif mode.kind == "normal_random":
            lo, hi = float(entry.min()), float(entry.max())
            mean = 0.5 * (lo + hi)
            std = (hi - lo) / math.sqrt(12.0)
            out[name] = rng.normal(mean, std, size=entry.shape).astype(np.float32)
        else:  # noise
            if mode.sigma_scale == 0.0:
                out[name] = entry
            else:
                std = mode.sigma_scale * float(entry.std())
                noise = rng.normal(0.0, std, size=entry.shape).astype(np.float32)
                out[name] = entry + noise
    return out


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


@dataclass(frozen=True, eq=False)
class FullPasses:
    """Read-only full passes of one network over one frame sequence.

    blocks identifies the network; inputs[i] is frame i's input array and
    records[i] its full pass. On a kept frame, the record's edge_tensors
    hold every edge cached by any of the specs the memo was built for; on
    any other frame they are empty.
    """

    blocks: dict
    inputs: tuple[np.ndarray, ...]
    records: tuple[ForwardRecord, ...]

    @property
    def outputs(self) -> list[np.ndarray]:
        return [record.output for record in self.records]


def full_passes(specs, frames, keep=None) -> FullPasses:
    """Run one full pass per frame for specs sharing one network.

    specs differ only in their cache configuration (set_unet_level and
    replace_cache_config share blocks). The pass of a frame whose index is
    in keep records the union of their cached edges, and every other pass
    records none; keep None keeps every frame. Only a run's refresh frames
    read edge tensors, so a memo kept on the union of its runs' refresh
    frames serves them all. Outputs and edge tensors are made read-only so
    no run can change what a later run reads.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("full_passes needs at least one spec")
    blocks = specs[0].blocks
    if any(spec.blocks is not blocks for spec in specs):
        raise ValueError("full_passes needs specs that share one network's blocks")
    edges = frozenset().union(*(spec.cache_config.cached_edges for spec in specs))
    inputs, records = [], []
    for index, frame in enumerate(frames):
        x = frame.input
        record = forward_full(specs[0], x, edges=edges if keep is None or index in keep else ())
        record.output.setflags(write=False)
        for tensor in record.edge_tensors.values():
            tensor.setflags(write=False)
        inputs.append(x)
        records.append(record)
    return FullPasses(blocks=blocks, inputs=tuple(inputs), records=tuple(records))


def _policy_steps(policy: RefreshPolicy, state: PolicyState, frame_list: list):
    """Step the policy over the frames, yielding (index, frame, metric,
    refreshed) for each. The state moves past a frame before it is yielded,
    as decisions never read outputs; the next frame is read only when the
    next step is asked for."""
    for index, frame in enumerate(frame_list):
        metric = policy_metric(policy, state, frame)
        refreshed = should_refresh(policy, state, metric)
        record_result(policy, state, frame, refreshed)
        yield index, frame, metric, refreshed


def run_sequence(
    spec: NetworkSpec,
    frames,
    policy: RefreshPolicy,
    corruption: Corruption | None = None,
    memo: FullPasses | None = None,
) -> SequenceReport:
    """Process frames in order, refreshing the cache per the policy.

    frames is any sequence of objects exposing .input (and .motion when the
    policy needs it); both the workload generator's FrameInput and simple
    namespaces work. Refresh frames are bit-identical to a no-cache run.
    With a memo of the same network and frames, refresh frames take their
    output and cache entries from it instead of running the network.
    """
    frame_list = list(frames)
    if not frame_list:
        raise ValueError("run_sequence needs at least one frame")
    if memo is not None:
        if memo.blocks is not spec.blocks:
            raise ValueError("memo was computed for another network")
        if len(memo.records) != len(frame_list):
            raise ValueError(
                f"memo holds {len(memo.records)} frames, the sequence {len(frame_list)}"
            )
    state: PolicyState = initial_state(policy, len(frame_list))
    cache = CacheState({})
    records: list[FrameRecord] = []
    refresh_count = 0
    for index, frame, metric, refreshed in _policy_steps(policy, state, frame_list):
        if refreshed:
            if memo is None:
                result = forward_full(spec, frame.input)
            else:
                if frame.input is not memo.inputs[index]:
                    raise ValueError(f"frame {index} input is not the memo's input")
                result = memo.records[index]
                missing = [name for name in spec.cache_config.cached_edges if name not in result.edge_tensors]
                if missing:
                    raise ValueError(f"the memo keeps no edge tensors {sorted(missing)} for refresh frame {index}")
            entries = {name: result.edge_tensors[name] for name in spec.cache_config.cached_edges}
            if corruption is not None:
                rng = np.random.default_rng([corruption.seed, index])
                entries = corrupt_cache(entries, corruption, rng)
            cache.refresh(entries)
            refresh_count += 1
        else:
            result = forward_cached(spec, frame.input, cache)
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
        full_pass_flops=spec.full_flops,
        cache_bytes=cache_bytes_report(cache.entries, state.stored_input),
    )


def refresh_frames(policy: RefreshPolicy, frames) -> tuple[int, ...]:
    """The indices of the frames run_sequence refreshes under policy.

    Steps the policy over the frames exactly as run_sequence does, without
    running a network: a policy's decisions read the frame index, the
    inputs and the motion, never the outputs.
    """
    frame_list = list(frames)
    state = initial_state(policy, len(frame_list))
    return tuple(index for index, _, _, refreshed in _policy_steps(policy, state, frame_list) if refreshed)


def baseline_outputs(spec: NetworkSpec, frames) -> list[np.ndarray]:
    """Full-network outputs for every frame (the no-cache reference)."""
    return full_passes([spec], frames, keep=()).outputs
