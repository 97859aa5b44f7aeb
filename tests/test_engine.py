"""Tests for the sequence runner, cache accounting and corruption modes.

The FLOPs identities are exact integer equalities; output comparisons on
refresh frames and on constant scenes are bit-level because cached passes
replay the same arithmetic as full passes.
"""

import functools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecache import engine, netgraph, policies
from framecache.builders import (
    build_superres,
    build_unet,
    build_unetpp,
    set_unet_level,
    unetpp_config_a,
    unetpp_config_b,
)
from framecache.engine import (
    BYTES_PER_VALUE,
    Corruption,
    baseline_outputs,
    cache_bytes_report,
    corrupt_cache,
    full_passes,
    refresh_frames,
    run_sequence,
)
from framecache.metrics import aggregate
from framecache.netgraph import forward_cached, forward_full, replace_cache_config
from framecache.policies import (
    PRESETS,
    DeltaSmape,
    EveryN,
    MotionThreshold,
    NonLinearSchedule,
    preset_policy,
)
from framecache.workload import SceneConfig, generate

STILL_SCENE = SceneConfig(seed=5, channels=6, height=16, width=16, pan_speed=0.0, sprite_count=0)
DRIFT_SCENE = SceneConfig(seed=2, channels=6, height=16, width=16, pan_speed=2.0, base_cell=8)


def small_net(seed=3):
    return build_unet(2, 4, (6, 16, 16), seed=seed)


def frame_mse(a, b):
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


class TestCacheBytes:
    """Resident cache size accounting."""

    def test_frozen_reference_shapes(self):
        color = {"color": np.zeros((24, 360, 640), dtype=np.float32)}
        assert cache_bytes_report(color) == 22118400
        pyramid = {f"p{i}": np.zeros((64, 192, 256), dtype=np.float32) for i in range(7)}
        assert cache_bytes_report(pyramid) == 88080384
        assert cache_bytes_report({}) == 0

    def test_four_bytes_per_value(self):
        entries = {"a": np.zeros((3, 5, 7), dtype=np.float32)}
        assert cache_bytes_report(entries) == 3 * 5 * 7 * BYTES_PER_VALUE

    def test_reference_input_included(self):
        entries = {"a": np.zeros((2, 4, 4), dtype=np.float32)}
        reference = np.zeros((6, 8, 8), dtype=np.float32)
        assert cache_bytes_report(entries, reference) - cache_bytes_report(entries) == 6 * 8 * 8 * 4

    def test_run_reports_policy_dependent_bytes(self):
        # Input-delta policies retain the refresh frame input; periodic
        # policies store only the edge tensors.
        spec = small_net()
        frames = generate(STILL_SCENE, 4).frames
        entry_values = int(np.prod(spec.shapes["enc1"]))
        input_values = int(np.prod(spec.input_shape))
        delta_run = run_sequence(spec, frames, DeltaSmape(tau=0.25))
        periodic_run = run_sequence(spec, frames, EveryN(2))
        assert delta_run.cache_bytes == (entry_values + input_values) * 4
        assert periodic_run.cache_bytes == entry_values * 4


class TestCorruption:
    """Cache rewrite modes used by the sanity study."""

    def make_entries(self, seed=0, shape=(8, 12, 12)):
        rng = np.random.default_rng(seed)
        return {
            "a->b:0": rng.normal(0.3, 1.1, size=shape).astype(np.float32),
            "c->b:1": rng.uniform(-2.0, 5.0, size=shape).astype(np.float32),
        }

    def test_zero_blanks_entries(self):
        entries = self.make_entries()
        out = corrupt_cache(entries, Corruption("zero"))
        for name, entry in out.items():
            assert entry.shape == entries[name].shape
            assert not entry.any()

    def test_uniform_respects_entry_range(self):
        entries = self.make_entries(seed=1)
        out = corrupt_cache(entries, Corruption("uniform_random", seed=4))
        for name, entry in out.items():
            lo, hi = float(entries[name].min()), float(entries[name].max())
            assert float(entry.min()) >= lo
            assert float(entry.max()) <= hi
            assert not np.array_equal(entry, entries[name])

    def test_normal_moment_matches_uniform(self):
        # Same mean and std as a uniform draw over the entry's range.
        rng = np.random.default_rng(9)
        big = {"e": rng.uniform(1.0, 3.0, size=(40, 50, 50)).astype(np.float32)}
        out = corrupt_cache(big, Corruption("normal_random", seed=11))
        lo, hi = float(big["e"].min()), float(big["e"].max())
        values = out["e"].astype(np.float64)
        assert float(values.mean()) == pytest.approx(0.5 * (lo + hi), abs=0.01)
        assert float(values.std()) == pytest.approx((hi - lo) / math.sqrt(12.0), rel=0.02)

    def test_noise_scale_tracks_sigma(self):
        rng = np.random.default_rng(10)
        entry = rng.normal(0.0, 2.0, size=(40, 50, 50)).astype(np.float32)
        for sigma in (0.5, 1.0, 2.0):
            out = corrupt_cache({"e": entry}, Corruption("noise", sigma_scale=sigma, seed=6))
            added = out["e"].astype(np.float64) - entry.astype(np.float64)
            assert float(added.std()) == pytest.approx(sigma * float(entry.std()), rel=0.03)
            assert float(added.mean()) == pytest.approx(0.0, abs=0.05 * sigma)

    def test_noise_sigma_zero_is_identity(self):
        entries = self.make_entries(seed=2)
        out = corrupt_cache(entries, Corruption("noise", sigma_scale=0.0))
        for name, entry in out.items():
            assert np.array_equal(entry, entries[name])

    def test_same_seed_reproduces(self):
        entries = self.make_entries(seed=3)
        mode = Corruption("uniform_random", seed=21)
        first = corrupt_cache(entries, mode)
        second = corrupt_cache(entries, mode)
        for name in entries:
            assert np.array_equal(first[name], second[name])

    def test_draws_do_not_depend_on_entry_order(self):
        # Names that sort in neither the dict's order nor its reverse.
        base = self.make_entries(seed=5)
        entries = {"m->x:1": base["a->b:0"], "z->x:0": base["c->b:1"], "a->x:2": base["a->b:0"] * 2}
        reversed_entries = dict(reversed(entries.items()))
        for kind in ("uniform_random", "normal_random", "noise"):
            mode = Corruption(kind, seed=8)
            first = corrupt_cache(entries, mode)
            second = corrupt_cache(reversed_entries, mode)
            for name in entries:
                assert first[name].tobytes() == second[name].tobytes(), (kind, name)

    def test_empty_cache_rejected(self):
        with pytest.raises(ValueError, match="empty cache"):
            corrupt_cache({}, Corruption("zero"))

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            Corruption("garbage")
        with pytest.raises(ValueError):
            Corruption("noise", sigma_scale=-1.0)


class TestRunSequence:
    """Refresh scheduling, FLOPs totals and output equivalences."""

    def test_constant_scene_single_refresh(self):
        # With identical frames the input-delta policy refreshes once and
        # every cached output matches the no-cache baseline bit for bit.
        spec = small_net()
        frames = generate(STILL_SCENE, 8).frames
        report = run_sequence(spec, frames, DeltaSmape(tau=0.25))
        baseline = baseline_outputs(spec, frames)
        assert report.refresh_count == 1
        assert report.skipped_frame_fraction == pytest.approx(7.0 / 8.0, abs=0.0)
        for produced, reference in zip(report.outputs, baseline):
            assert np.array_equal(produced, reference)
        assert aggregate(report, baseline).mean_smape == 0.0

    def test_refresh_frames_match_baseline_on_drift(self):
        spec = small_net()
        frames = generate(DRIFT_SCENE, 10).frames
        report = run_sequence(spec, frames, EveryN(3))
        baseline = baseline_outputs(spec, frames)
        for record, reference in zip(report.frames, baseline):
            if record.refreshed:
                assert np.array_equal(record.output, reference)

    def test_flops_totals_identity(self):
        # total == refreshes * full + cached frames * cached, exactly.
        spec = set_unet_level(build_unet(3, 4, (6, 16, 16), seed=1), 2)
        frames = generate(DRIFT_SCENE, 12).frames
        for policy in (
            EveryN(1),
            EveryN(4),
            DeltaSmape(tau=0.2),
            MotionThreshold(tau=1.0),
            NonLinearSchedule(refresh_count=3),
        ):
            report = run_sequence(spec, frames, policy)
            refreshes = report.refresh_count
            expected = refreshes * spec.full_flops + (12 - refreshes) * spec.cached_flops()
            assert report.total_flops == expected
            per_frame = {True: spec.full_flops, False: spec.cached_flops()}
            assert [f.flops for f in report.frames] == [
                per_frame[f.refreshed] for f in report.frames
            ]

    def test_eliminated_fraction_identity(self):
        spec = small_net()
        frames = generate(DRIFT_SCENE, 10).frames
        report = run_sequence(spec, frames, EveryN(5))
        expected = 1.0 - report.total_flops / (10 * spec.full_flops)
        assert report.eliminated_flops_fraction == pytest.approx(expected, abs=0.0)
        assert report.full_pass_flops == spec.full_flops

    def test_every_frame_refresh_equals_baseline(self):
        spec = small_net()
        frames = generate(DRIFT_SCENE, 6).frames
        report = run_sequence(spec, frames, EveryN(1))
        baseline = baseline_outputs(spec, frames)
        assert report.refresh_count == 6
        assert report.skipped_frame_fraction == 0.0
        assert report.eliminated_flops_fraction == 0.0
        for produced, reference in zip(report.outputs, baseline):
            assert np.array_equal(produced, reference)

    def test_policy_metric_recorded_before_decision(self):
        spec = small_net()
        frames = generate(DRIFT_SCENE, 5).frames
        report = run_sequence(spec, frames, DeltaSmape(tau=0.2))
        assert report.frames[0].policy_metric is None
        for record in report.frames[1:]:
            assert record.policy_metric is not None
            assert record.policy_metric >= 0.0

    @pytest.mark.parametrize(
        ("policy", "counted", "calls"),
        # Over 6 frames: a delta for every frame after the first, a
        # magnitude for every frame.
        [(DeltaSmape(tau=0.2), "smape", 5), (MotionThreshold(tau=1.0), "mean_motion_magnitude", 6)],
    )
    def test_policy_metric_computed_once_per_frame(self, monkeypatch, policy, counted, calls):
        # should_refresh decides from the value policy_metric returned.
        seen = []
        original = getattr(policies, counted)

        def counting(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(policies, counted, counting)
        run_sequence(small_net(), generate(DRIFT_SCENE, 6).frames, policy)
        assert len(seen) == calls

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            run_sequence(small_net(), [], EveryN(1))

    def test_accepts_plain_namespaces(self):
        spec = small_net()
        rng = np.random.default_rng(0)
        frames = [
            types.SimpleNamespace(
                input=rng.uniform(0, 1, size=(6, 16, 16)).astype(np.float32),
                motion=np.zeros((2, 16, 16), dtype=np.float32),
            )
            for _ in range(3)
        ]
        report = run_sequence(spec, frames, EveryN(2))
        assert report.frame_count == 3


class TestRunWithCorruption:
    """Corruption interacts with refreshes, not with cached replays."""

    def test_zero_sigma_noise_matches_proper_run(self):
        spec = small_net()
        frames = generate(DRIFT_SCENE, 8).frames
        proper = run_sequence(spec, frames, EveryN(4))
        noisy = run_sequence(spec, frames, EveryN(4), corruption=Corruption("noise", sigma_scale=0.0))
        for a, b in zip(proper.outputs, noisy.outputs):
            assert np.array_equal(a, b)

    def test_zero_corruption_breaks_only_cached_frames(self):
        spec = small_net()
        frames = generate(STILL_SCENE, 8).frames
        baseline = baseline_outputs(spec, frames)
        report = run_sequence(spec, frames, EveryN(4), corruption=Corruption("zero"))
        for record, reference in zip(report.frames, baseline):
            mse = frame_mse(record.output, reference)
            if record.refreshed:
                assert mse == 0.0
            else:
                assert mse == pytest.approx(0.2892502304834162, rel=1e-9)

    def test_corruption_reproducible_per_frame(self):
        spec = small_net()
        frames = generate(DRIFT_SCENE, 8).frames
        mode = Corruption("uniform_random", seed=13)
        first = run_sequence(spec, frames, EveryN(3), corruption=mode)
        second = run_sequence(spec, frames, EveryN(3), corruption=mode)
        for a, b in zip(first.outputs, second.outputs):
            assert np.array_equal(a, b)

    def test_corruption_seed_changes_outputs(self):
        spec = small_net()
        frames = generate(DRIFT_SCENE, 8).frames
        first = run_sequence(spec, frames, EveryN(3), corruption=Corruption("uniform_random", seed=13))
        second = run_sequence(spec, frames, EveryN(3), corruption=Corruption("uniform_random", seed=14))
        cached = [i for i, rec in enumerate(first.frames) if not rec.refreshed]
        assert any(
            not np.array_equal(first.outputs[i], second.outputs[i]) for i in cached
        )



MEMO_FRAMES = 8
CORRUPTION_KINDS = ("zero", "uniform_random", "normal_random", "noise")


@functools.cache
def memo_case(family):
    """Specs sharing one network, the drifting frames and their memo."""
    if family == "unet":
        unet = build_unet(3, 4, (6, 16, 16), seed=4)
        specs = [set_unet_level(unet, level) for level in (1, 2)]
    elif family == "unetpp":
        unetpp = build_unetpp(2, 4, (6, 16, 16), seed=4)
        specs = [replace_cache_config(unetpp, c) for c in (unetpp_config_b(2), unetpp_config_a(2))]
    else:
        specs = [build_superres((6, 16, 16), base_channels=4, lr_pool=1, seed=4)]
    frames = generate(DRIFT_SCENE, MEMO_FRAMES).frames
    return specs, frames, full_passes(specs, frames)


def run_recording_entries(spec, frames, policy, corruption, memo):
    """run_sequence plus the cache-entry key order each cached frame reads."""
    keys = []
    forward_cached = engine.forward_cached

    def recording(spec_, x, cache):
        keys.append(list(cache.entries))
        return forward_cached(spec_, x, cache)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "forward_cached", recording)
        report = run_sequence(spec, frames, policy, corruption, memo=memo)
    return report, keys


class TestFullPassMemo:
    """A memo replaces refresh-frame full passes without changing a bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from([("unet", 0), ("unet", 1), ("unetpp", 0), ("unetpp", 1), ("superres", 0)]),
        policy=st.one_of(
            st.sampled_from(tuple(PRESETS)).map(lambda name: preset_policy(name, MEMO_FRAMES)),
            st.integers(1, MEMO_FRAMES + 1).map(EveryN),
        ),
        corruption=st.one_of(
            st.none(),
            st.builds(
                Corruption,
                kind=st.sampled_from(CORRUPTION_KINDS),
                sigma_scale=st.sampled_from([0.0, 0.5, 2.0]),
                seed=st.integers(0, 99),
            ),
        ),
    )
    def test_memoized_run_matches_plain_run(self, case, policy, corruption):
        family, index = case
        specs, frames, memo = memo_case(family)
        spec = specs[index]
        plain, plain_keys = run_recording_entries(spec, frames, policy, corruption, None)
        memoized, memo_keys = run_recording_entries(spec, frames, policy, corruption, memo)
        assert memo_keys == plain_keys
        assert memoized.cache_bytes == plain.cache_bytes
        assert memoized.refresh_count == plain.refresh_count
        for a, b in zip(memoized.frames, plain.frames, strict=True):
            assert (a.refreshed, a.flops, a.policy_metric) == (b.refreshed, b.flops, b.policy_metric)
            assert a.output.dtype == b.output.dtype and a.output.tobytes() == b.output.tobytes()

    def test_memo_hit_runs_no_full_pass(self, monkeypatch):
        calls = []
        forward_full = engine.forward_full

        def counting(*args, **kwargs):
            calls.append(args[0])
            return forward_full(*args, **kwargs)

        monkeypatch.setattr(engine, "forward_full", counting)
        unet = build_unet(3, 4, (6, 16, 16), seed=4)
        specs = [set_unet_level(unet, level) for level in (1, 2)]
        frames = generate(DRIFT_SCENE, MEMO_FRAMES).frames
        memo = full_passes(specs, frames)
        assert len(calls) == MEMO_FRAMES
        calls.clear()
        for spec in specs:
            report = run_sequence(spec, frames, EveryN(2), memo=memo)
            assert report.refresh_count == MEMO_FRAMES // 2
        assert calls == []
        run_sequence(specs[0], frames, EveryN(2))
        assert len(calls) == MEMO_FRAMES // 2

    def test_memo_arrays_are_read_only(self):
        specs, frames, memo = memo_case("unet")
        snapshot = [
            [record.output.copy()] + [t.copy() for t in record.edge_tensors.values()]
            for record in memo.records
        ]
        run_sequence(specs[0], frames, EveryN(3), Corruption("noise", sigma_scale=0.0), memo=memo)
        for record, saved in zip(memo.records, snapshot, strict=True):
            arrays = [record.output] + list(record.edge_tensors.values())
            for array, copy in zip(arrays, saved, strict=True):
                assert np.array_equal(array, copy)
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_mismatches_rejected(self):
        specs, frames, memo = memo_case("unet")
        spec = specs[0]
        other = set_unet_level(build_unet(3, 4, (6, 16, 16), seed=4), 1)
        with pytest.raises(ValueError, match="another network"):
            run_sequence(other, frames, EveryN(2), memo=memo)
        with pytest.raises(ValueError, match="memo holds 8 frames, the sequence 7"):
            run_sequence(spec, frames[:-1], EveryN(2), memo=memo)
        moved = [types.SimpleNamespace(input=f.input.copy(), motion=f.motion) for f in frames]
        with pytest.raises(ValueError, match="frame 0 input"):
            run_sequence(spec, moved, EveryN(2), memo=memo)
        with pytest.raises(ValueError, match="share one network"):
            full_passes([spec, other], frames)

    def test_kept_frames_alone_hold_edge_tensors(self):
        specs, frames, whole = memo_case("unet")
        memo = full_passes(specs, frames, keep={0, 3, 6})
        assert [i for i, record in enumerate(memo.records) if record.edge_tensors] == [0, 3, 6]
        for kept, full in zip(memo.records, whole.records, strict=True):
            assert kept.output.tobytes() == full.output.tobytes()
            if kept.edge_tensors:
                assert list(kept.edge_tensors) == list(full.edge_tensors)
        for spec in specs:
            report = run_sequence(spec, frames, EveryN(3), memo=memo)
            expected = run_sequence(spec, frames, EveryN(3), memo=whole)
            assert [r.output.tobytes() for r in report.frames] == [r.output.tobytes() for r in expected.frames]

    def test_refresh_frame_without_kept_edge_tensors_rejected(self):
        specs, frames, _ = memo_case("unet")
        memo = full_passes(specs, frames, keep={0, 3, 6})
        with pytest.raises(ValueError, match="for refresh frame 2$"):
            run_sequence(specs[0], frames, EveryN(2), memo=memo)

    def test_baseline_outputs_keep_no_edge_tensors(self, monkeypatch):
        recorded = []
        forward_full = engine.forward_full

        def recording(spec, x, edges=None):
            recorded.append(tuple(edges))
            return forward_full(spec, x, edges)

        monkeypatch.setattr(engine, "forward_full", recording)
        specs, frames, memo = memo_case("unet")
        outputs = baseline_outputs(specs[0], frames)
        assert recorded == [()] * MEMO_FRAMES
        assert [o.tobytes() for o in outputs] == [o.tobytes() for o in memo.outputs]


class TestRefreshFrames:
    """refresh_frames steps a policy over the inputs as run_sequence does."""

    @pytest.mark.parametrize("name", tuple(PRESETS))
    def test_matches_run_sequence(self, name):
        specs, frames, memo = memo_case("unet")
        policy = preset_policy(name, MEMO_FRAMES)
        report = run_sequence(specs[0], frames, policy, memo=memo)
        assert refresh_frames(policy, frames) == tuple(rec.index for rec in report.frames if rec.refreshed)


RUN_CASES = [("unet", 1), ("unet", 2), ("unet", 3), ("unetpp", "a"), ("unetpp", "b")]
RUN_CASES += [("superres", pool) for pool in (0, 1, 2)]


@functools.cache
def run_case(case):
    """A spec, the drifting frames and their memo."""
    family, variant = case
    if family == "unet":
        spec = set_unet_level(build_unet(4, 4, (6, 16, 16), seed=4), variant)
    elif family == "unetpp":
        config = unetpp_config_a(2) if variant == "a" else unetpp_config_b(2)
        spec = replace_cache_config(build_unetpp(2, 4, (6, 16, 16), seed=4), config)
    else:
        spec = build_superres((6, 16, 16), base_channels=4, lr_pool=variant, seed=4)
    frames = generate(DRIFT_SCENE, MEMO_FRAMES).frames
    return spec, frames, full_passes([spec], frames)


class TestRunMatchesFreshPasses:
    """A run's outputs match passes run afresh, bit for bit.

    The oracle runs a full pass on refresh frames, and on cached frames
    forward_cached on a plain dict of the entries a refresh leaves.
    """

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from(RUN_CASES),
        policy=st.one_of(
            st.sampled_from(tuple(PRESETS)).map(lambda name: preset_policy(name, MEMO_FRAMES)),
            st.integers(1, 4).map(EveryN),
        ),
        corruption=st.one_of(
            st.none(),
            st.builds(
                Corruption,
                kind=st.sampled_from(CORRUPTION_KINDS),
                sigma_scale=st.sampled_from([0.0, 0.5]),
                seed=st.integers(0, 99),
            ),
        ),
        use_memo=st.booleans(),
    )
    def test_run_matches_fresh_passes(self, case, policy, corruption, use_memo):
        spec, frames, memo = run_case(case)
        report = run_sequence(spec, frames, policy, corruption, memo=memo if use_memo else None)
        entries = None
        for frame, rec in zip(frames, report.frames, strict=True):
            if rec.refreshed:
                full = forward_full(spec, frame.input)
                expected = full.output
                entries = full.edge_tensors
                if corruption is not None:
                    rng = np.random.default_rng([corruption.seed, rec.index])
                    entries = corrupt_cache(entries, corruption, rng)
            else:
                expected = forward_cached(spec, frame.input, dict(entries)).output
            assert rec.output.dtype == expected.dtype
            assert rec.output.tobytes() == expected.tobytes(), (rec.index, rec.refreshed)


PREPARED_CASES = [("unet", 1), ("superres", 1)]


def cached_slot_upsamples(spec):
    """How many slots of live blocks upsample a cached edge."""
    live = set(spec.live_blocks)
    return sum(
        slot_op == "upsample2" and src not in live
        for name in spec.live_blocks
        for src, slot_op in spec.blocks[name].inputs
    )


def counted_ops(patch, names=("upsample_nearest2", "maxpool2", "concat_channels")):
    """Count calls of netgraph's bindings of the named ops."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(netgraph, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        patch.setattr(netgraph, name, counting)
    return counts


class TestPreparedCachedInputs:
    """A cache state prepares each live block's cached channels once.

    The first cached frame after a refresh applies the slot ops to the
    cached edges; every cached frame then writes only its live channels,
    with no concat_channels call, and gets the bytes of a pass on a plain
    dict of the same entries.
    """

    @pytest.mark.parametrize("corruption", [None, Corruption("noise", sigma_scale=0.5, seed=3)])
    @pytest.mark.parametrize("case", PREPARED_CASES)
    def test_cached_frames_reuse_the_prepared_channels(self, case, corruption):
        spec, frames, _ = run_case(case)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            counts = counted_ops(patch)
            inner = engine.forward_cached

            def recording(spec_, x, cache):
                before = dict(counts)
                result = inner(spec_, x, cache)
                made = {name: counts[name] - before[name] for name in counts}
                calls.append((x, dict(cache.entries), made, result.output.tobytes()))
                return result

            patch.setattr(engine, "forward_cached", recording)
            report = run_sequence(spec, frames, EveryN(3), corruption)
        cached = [rec for rec in report.frames if not rec.refreshed]
        assert len(calls) == len(cached) >= 4
        prepared = cached_slot_upsamples(spec)
        assert prepared == (1 if case[0] == "unet" else 0)
        steady = calls[1][2]["upsample_nearest2"]
        if case[0] == "unet":
            assert steady == 0
        for rec, (x, entries, made, data) in zip(cached, calls, strict=True):
            first = report.frames[rec.index - 1].refreshed
            assert made["concat_channels"] == 0
            assert made["upsample_nearest2"] == steady + (prepared if first else 0)
            # The bytes the frame had when it was made, of a pass on a
            # plain dict of the same entries, and still the frame's now.
            assert data == forward_cached(spec, x, entries).output.tobytes()
            assert rec.output.tobytes() == data

    @pytest.mark.parametrize("case", PREPARED_CASES)
    def test_refreshing_every_frame_prepares_nothing(self, case):
        spec, frames, _ = run_case(case)
        with pytest.MonkeyPatch.context() as patch:
            counts = counted_ops(patch, ("upsample_nearest2", "maxpool2"))
            forward_full(spec, frames[0].input)
            per_pass = dict(counts)
            counts.update(dict.fromkeys(counts, 0))
            report = run_sequence(spec, frames, EveryN(1))
        assert report.refresh_count == len(frames)
        assert counts == {name: n * len(frames) for name, n in per_pass.items()}
