"""Measurement probes shared by the benchmark's child processes.

The program itself is never edited. Frame timestamps come from wrapping the
frame objects handed to ``run_sequence``; spans come from swapping module
attributes for timing wrappers while a traced run is in progress and
restoring them afterwards.
"""

import hashlib
import os
import platform
import statistics
import struct
import time

perf = time.perf_counter


# ---------------------------------------------------------------------------
# Frame-boundary timestamps
# ---------------------------------------------------------------------------


class StampedFrame:
    """Frame view that timestamps the first read of ``.input``.

    ``run_sequence`` reads ``frame.input`` first when it starts work on that
    frame (the input-delta policy reads it in ``policy_metric``, every other
    path in the forward call), so consecutive stamps bound one iteration of
    its loop. The stamp is a single ``perf_counter`` call, constant in cost.
    """

    __slots__ = ("_frame", "_stamps", "_slot")

    def __init__(self, frame, stamps, slot):
        self._frame = frame
        self._stamps = stamps
        self._slot = slot

    @property
    def input(self):
        if self._stamps[self._slot] is None:
            self._stamps[self._slot] = perf()
        return self._frame.input

    @property
    def motion(self):
        return self._frame.motion


def stamped_run(run_sequence, spec, frames, policy, *args, **kwargs):
    """Call ``run_sequence`` and return (report, wall seconds, frame seconds)."""
    frames = list(frames)
    stamps = [None] * len(frames)
    wrapped = [StampedFrame(frame, stamps, i) for i, frame in enumerate(frames)]
    start = perf()
    report = run_sequence(spec, wrapped, policy, *args, **kwargs)
    end = perf()
    latencies = [b - a for a, b in zip(stamps, stamps[1:] + [end])]
    return report, end - start, latencies


def sequence_record(report, wall, latencies):
    """JSON-ready summary of one ``run_sequence`` call."""
    flags = [rec.refreshed for rec in report.frames]
    return {
        "wall_s": wall,
        "frames": report.frame_count,
        "refresh_count": report.refresh_count,
        "total_flops": report.total_flops,
        "full_pass_flops": report.full_pass_flops,
        "cache_bytes": report.cache_bytes,
        "eliminated_flops_fraction": report.eliminated_flops_fraction,
        "refresh_s": [t for t, f in zip(latencies, flags) if f],
        "cached_s": [t for t, f in zip(latencies, flags) if not f],
    }


class FrameLog:
    """Collects a ``sequence_record`` for every hooked ``run_sequence`` call."""

    def __init__(self):
        self.calls = []

    def hook(self, run_sequence):
        def run(spec, frames, policy, *args, **kwargs):
            report, wall, latencies = stamped_run(run_sequence, spec, frames, policy, *args, **kwargs)
            self.calls.append(sequence_record(report, wall, latencies))
            return report

        return run


def stream_digest(report) -> str:
    """sha256 over every frame's output bytes, refresh flag and FLOPs."""
    h = hashlib.sha256()
    for rec in report.frames:
        h.update(rec.output.tobytes())
        h.update(b"R" if rec.refreshed else b"C")
        h.update(struct.pack("<q", rec.flops))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Records one span per call into each patched module attribute.

    A span is (id, parent id, name, start, end, self seconds, info); self
    seconds is the duration minus the time covered by direct child spans.
    ``info`` holds a per-span note (FLOPs, spec identity) used by the
    per-layer aggregation. Spans stay in memory until ``take`` is called.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._next_id = 0
        self.keep = {}  # objects whose id() keys a note, kept alive so ids stay unique

    def wrap(self, name, fn, note=None):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            info = note(result, *args, **kwargs) if note is not None else None
            spans.append((span_id, parent, name, start, end, end - start - frame[1], info))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, namespace, attr, name, note=None):
        """Replace ``namespace.attr`` (a module or a dict) with a traced wrapper."""
        if isinstance(namespace, dict):
            original = namespace[attr]
            namespace[attr] = self.wrap(name, original, note)
        else:
            original = getattr(namespace, attr)
            setattr(namespace, attr, self.wrap(name, original, note))
        self._patches.append((namespace, attr, original))

    def restore(self):
        for namespace, attr, original in reversed(self._patches):
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)
        self._patches.clear()

    def take(self):
        spans, self.spans[:] = list(self.spans), []
        return spans


def install_layer_probes(tracer, include_harness):
    """Patch the public calls between framecache's modules.

    Each module binds the functions it imports into its own namespace, so
    a call is traced by patching the caller's binding: ``netgraph.conv2d``
    for the executor's convolutions, ``engine.forward_full`` for the
    sequence runner's full passes, and so on.
    """
    from framecache import engine, harness, metrics, netgraph, ops, policies
    from framecache.policies import DeltaSmape

    def conv_note(result, x, params):
        return ops.conv_flops(params, result.shape[1], result.shape[2])

    def spec_key(spec):
        tracer.keep[id(spec.blocks)] = spec.blocks
        return id(spec.blocks)

    def full_note(result, spec, x, *args, **kwargs):
        return (spec_key(spec), hashlib.blake2b(x.tobytes(), digest_size=16).digest())

    def cached_note(result, spec, x, cache):
        return (spec_key(spec), result.flops_executed, spec.full_flops)

    def decision_note(result, policy, state, frame):
        return isinstance(policy, DeltaSmape) and state.frame_index > 0

    tracer.patch(netgraph, "conv2d", "ops.conv2d", conv_note)
    for attr in ("relu", "maxpool2", "upsample_nearest2", "concat_channels"):
        tracer.patch(netgraph, attr, "ops.pointwise")
    for namespace in (policies, metrics, ops):
        tracer.patch(namespace, "smape", "ops.smape")
    for namespace in (engine, netgraph):
        tracer.patch(namespace, "forward_full", "netgraph.forward_full", full_note)
    tracer.patch(engine, "forward_cached", "netgraph.forward_cached", cached_note)
    for attr in ("policy_metric", "record_result", "initial_state"):
        tracer.patch(engine, attr, "policies")
    tracer.patch(engine, "should_refresh", "policies", decision_note)
    tracer.patch(engine, "corrupt_cache", "engine.corrupt_cache")
    tracer.patch(engine, "run_sequence", "engine.run_sequence")
    tracer.patch(metrics, "ssim", "metrics.ssim")
    if include_harness:
        tracer.patch(harness, "run_sequence", "engine.run_sequence")
        tracer.patch(harness, "aggregate", "metrics.aggregate")
        tracer.patch(harness, "generate", "workload.generate", lambda result, config, count: count)
        for attr in ("build_unet", "build_unetpp", "build_superres", "set_unet_level"):
            tracer.patch(harness, attr, "builders.build")
        tracer.patch(harness, "write_tables", "harness.write_tables")
        for name in harness.SCENARIO_NAMES:
            tracer.patch(harness.SCENARIOS, name, f"harness.{name}")


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(spans):
    """Per-layer numbers from one traced unit of work (a pass or a CLI run)."""
    total, own, count = {}, {}, {}
    by_name = {}
    names = {}
    for span_id, parent, name, start, end, self_s, info in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        count[name] = count.get(name, 0) + 1
        by_name.setdefault(name, []).append((end - start, info, parent))
        names[span_id] = name

    full = by_name.get("netgraph.forward_full", [])
    cached = by_name.get("netgraph.forward_cached", [])
    full_by_spec = {}
    for duration, (spec, _), _ in full:
        full_by_spec.setdefault(spec, []).append(duration)
    full_median = {spec: statistics.median(v) for spec, v in full_by_spec.items()}
    live_time = [d / full_median[spec] for d, (spec, _, _), _ in cached if spec in full_median]
    cached_flops = sum(flops for _, (_, flops, _), _ in cached)
    cached_full = sum(full_flops for _, (_, _, full_flops), _ in cached)
    conv_flops = sum(info for _, info, _ in by_name.get("ops.conv2d", []))
    conv_s = total.get("ops.conv2d", 0.0)
    decided = sum(1 for _, info, _ in by_name.get("policies", []) if info)
    policy_smape = sum(1 for _, _, parent in by_name.get("ops.smape", []) if names.get(parent) == "policies")
    unique_full = len({info for _, info, _ in full})

    out = {
        "ops.conv2d.calls": count.get("ops.conv2d", 0),
        "ops.conv2d.s": conv_s,
        "ops.conv2d.gflop_per_s": conv_flops / conv_s / 1e9 if conv_s else 0.0,
        "ops.pointwise.s": total.get("ops.pointwise", 0.0),
        "netgraph.forward_full.calls": len(full),
        "netgraph.forward_full.ms_p50": 1e3 * _median([d for d, _, _ in full]),
        "netgraph.forward_cached.calls": len(cached),
        "netgraph.forward_cached.ms_p50": 1e3 * _median([d for d, _, _ in cached]),
        "netgraph.self_s": own.get("netgraph.forward_full", 0.0) + own.get("netgraph.forward_cached", 0.0),
        "netgraph.live_flops_fraction": cached_flops / cached_full if cached_full else 0.0,
        "netgraph.live_time_fraction": _median(live_time),
        "policies.s": total.get("policies", 0.0),
        "ops.smape.calls": count.get("ops.smape", 0),
        "policies.smape_useful_ratio": decided / policy_smape if policy_smape else 0.0,
        "engine.run_sequence.s": total.get("engine.run_sequence", 0.0),
        "engine.self_s": own.get("engine.run_sequence", 0.0),
        "engine.corrupt_cache.s": total.get("engine.corrupt_cache", 0.0),
        "metrics.aggregate.s": total.get("metrics.aggregate", 0.0),
        "metrics.ssim.calls": count.get("metrics.ssim", 0),
        "metrics.ssim.s": total.get("metrics.ssim", 0.0),
    }
    if "harness.write_tables" in count:
        # Full passes are counted against the harness only on a CLI run.
        out["harness.full_passes"] = len(full)
        out["harness.unique_full_passes"] = unique_full
        out["harness.full_pass_useful_ratio"] = unique_full / len(full) if full else 0.0
    if "workload.generate" in count:
        generated = sum(info for _, info, _ in by_name["workload.generate"])
        out["workload.generate.s"] = total["workload.generate"]
        out["workload.generate.ms_per_frame"] = 1e3 * total["workload.generate"] / generated
    if "builders.build" in count:
        out["builders.build.s"] = total["builders.build"]
    for name, seconds in total.items():
        if name.startswith("harness."):
            out[f"{name}.s"] = seconds
    return out


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment():
    """Interpreter, numpy, BLAS and threading facts for the result block."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {name: os.environ.get(name, "") for name in ("FRAMECACHE_THREADS",) + THREAD_VARS},
        "nproc": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", ""),
    }
