"""Tests for the procedural scene generator.

Determinism is checked at the bit level: the generator is hash-based, so
the same config must reproduce identical bytes across runs. Motion ground
truth is compared against the configured camera pan exactly.

The _seed_* functions keep the first generator's per-pixel noise formula
(four corner hashes for every pixel, octave and plane); the lattice-cell
generator must reproduce its frames bit for bit.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecache import workload
from framecache.policies import (
    DeltaSmape,
    initial_state,
    mean_motion_magnitude,
    policy_metric,
    record_result,
    should_refresh,
)
from framecache.ops import smape
from framecache.workload import SceneConfig, generate, iter_frames
from framecache.workload import _GRAD_SCALE


def _seed_hash01(ix: np.ndarray, iy: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic [0, 1) values from integer lattice coordinates."""
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _seed_fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _seed_value_noise(xs: np.ndarray, ys: np.ndarray, salt: int) -> np.ndarray:
    """Smoothly interpolated lattice noise at world coordinates (grid input)."""
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    tx = _seed_fade(xs - x0)
    ty = _seed_fade(ys - y0)
    ix0 = x0.astype(np.int64)
    iy0 = y0.astype(np.int64)
    v00 = _seed_hash01(ix0, iy0, salt)
    v10 = _seed_hash01(ix0 + 1, iy0, salt)
    v01 = _seed_hash01(ix0, iy0 + 1, salt)
    v11 = _seed_hash01(ix0 + 1, iy0 + 1, salt)
    top = v00 + (v10 - v00) * tx
    bottom = v01 + (v11 - v01) * tx
    return top + (bottom - top) * ty


def _seed_fbm(xs, ys, salt: int, octaves: int, base_cell: int) -> np.ndarray:
    total = np.zeros(np.broadcast_shapes(xs.shape, ys.shape))
    amplitude = 1.0
    norm = 0.0
    for octave in range(octaves):
        freq = (1 << octave) / base_cell
        total += amplitude * _seed_value_noise(xs * freq, ys * freq, salt + 7919 * octave)
        norm += amplitude
        amplitude *= 0.5
    return total / norm


def _seed_depth_field(xs, ys, seed: int, base_cell: int) -> np.ndarray:
    return _seed_fbm(xs, ys, salt=seed + 104729, octaves=1, base_cell=base_cell * 2)


def _seed_frame_channels(config: SceneConfig, offset_x: float, offset_y: float) -> np.ndarray:
    ys = (np.arange(config.height, dtype=np.float64) + offset_y)[:, None]
    xs = (np.arange(config.width, dtype=np.float64) + offset_x)[None, :]
    planes = []
    for c in range(min(3, config.channels)):
        # Squaring spreads the octave-averaged noise (which clusters near
        # 0.5) over [0, 1] with mass near 0, so relative frame deltas are
        # large enough for SMAPE thresholds in the 0.2 range to matter.
        planes.append(
            _seed_fbm(xs, ys, salt=config.seed + 13 * c, octaves=config.texture_octaves,
                      base_cell=config.base_cell)
            ** 2
        )
    if config.channels >= 4:
        planes.append(_seed_depth_field(xs, ys, config.seed, config.base_cell))
    if config.channels >= 5:
        depth = planes[3]
        gx = np.zeros_like(depth)
        gy = np.zeros_like(depth)
        gx[:, 1:-1] = 0.5 * (depth[:, 2:] - depth[:, :-2])
        gy[1:-1, :] = 0.5 * (depth[2:, :] - depth[:-2, :])
        planes.append(np.clip(0.5 + _GRAD_SCALE * gx, 0.0, 1.0))
        if config.channels >= 6:
            planes.append(np.clip(0.5 + _GRAD_SCALE * gy, 0.0, 1.0))
    for c in range(6, config.channels):
        planes.append(
            _seed_fbm(xs, ys, salt=config.seed + 977 * c, octaves=config.texture_octaves,
                      base_cell=config.base_cell)
            ** 2
        )
    return np.stack(planes[: config.channels]).astype(np.float32)


def seed_generator_frames(config, frame_count):
    """(channels, motion) of each frame, made frame by frame with the
    per-pixel _seed_frame_channels; camera offsets, motion and sprites as
    the generator applies them."""
    norm = float(np.hypot(*config.pan_direction))
    dir_x = config.pan_direction[0] / norm
    dir_y = config.pan_direction[1] / norm
    speeds = workload._per_frame_speeds(config, frame_count)
    sprites = workload._make_sprites(config)
    frames = []
    offset_x = 0.0
    offset_y = 0.0
    for index in range(frame_count):
        if index > 0:
            offset_x += speeds[index] * dir_x
            offset_y += speeds[index] * dir_y
        channels = _seed_frame_channels(config, offset_x, offset_y)
        motion = np.empty((2, config.height, config.width), dtype=np.float32)
        motion[0] = speeds[index] * dir_x
        motion[1] = speeds[index] * dir_y
        workload._apply_sprites(config, sprites, index, channels, motion)
        frames.append((channels, motion))
    return frames


def assert_matches_seed_generator(config, frame_count):
    frames = generate(config, frame_count).frames
    with mock.patch(f"{__name__}._seed_frame_channels", wraps=_seed_frame_channels) as seed:
        expected = seed_generator_frames(config, frame_count)
    assert seed.call_count == frame_count
    for frame, (channels, motion) in zip(frames, expected, strict=True):
        assert frame.input.tobytes() == channels.tobytes()
        assert frame.motion.tobytes() == motion.tobytes()


@st.composite
def scene_configs(draw):
    direction = draw(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
            lambda d: float(np.hypot(*d)) > 0.0
        )
    )
    schedule = draw(
        st.none()
        | st.lists(st.tuples(st.integers(1, 3), st.floats(0.0, 13.0)), min_size=1, max_size=3)
    )
    return SceneConfig(
        seed=draw(st.integers(0, 2**62)),
        channels=draw(st.integers(1, 8)),
        height=draw(st.integers(8, 70)),
        width=draw(st.integers(8, 70)),
        pan_speed=draw(st.floats(0.0, 13.0)),
        pan_direction=direction,
        pan_schedule=tuple(schedule or ()),
        sprite_count=draw(st.integers(0, 2)),
        texture_octaves=draw(st.integers(1, 6)),
        base_cell=draw(st.integers(2, 50)),
    )


def refresh_indices(policy, frames):
    state = initial_state(policy, len(frames))
    indices = []
    for frame in frames:
        if should_refresh(policy, state, policy_metric(policy, state, frame)):
            indices.append(frame.index)
            record_result(policy, state, frame, True)
        else:
            record_result(policy, state, frame, False)
    return indices


def consecutive_smape(frames):
    """SMAPE between each consecutive pair of frame inputs."""
    return [smape(frames[t].input, frames[t - 1].input) for t in range(1, len(frames))]


class TestIterFrames:
    """iter_frames yields generate's frames, one at a time."""

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(scene_configs(), st.integers(1, 4))
    def test_matches_generate(self, config, frame_count):
        streamed = list(iter_frames(config, frame_count))
        expected = generate(config, frame_count).frames
        for frame, reference in zip(streamed, expected, strict=True):
            assert frame.index == reference.index
            assert frame.input.tobytes() == reference.input.tobytes()
            assert frame.motion.tobytes() == reference.motion.tobytes()

    def test_frame_count_checked_on_call(self):
        with pytest.raises(ValueError, match="frame_count"):
            iter_frames(SceneConfig(seed=0), 0)


class TestChunks:
    """Frames are the same bytes wherever the chunks of the scene end."""

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(
        scene_configs(),
        st.sampled_from([None, (1.0, 0.0), (0.0, -1.0)]),
        st.integers(1, 12),
        st.integers(1, 3),
    )
    def test_small_chunks_match_seed_generator(self, config, axis, frame_count, frames_per_budget):
        # A budget of one to three frames' noise planes ends a chunk every
        # one to three frames on a pan along an axis that samples new
        # columns each frame, and every frame on most diagonal pans.
        if axis is not None:
            config = dataclasses.replace(config, pan_direction=axis)
        planes = len(workload._texture_salts(config)) + (config.channels >= 4)
        budget = 8 * planes * config.height * config.width * frames_per_budget
        with mock.patch.object(workload, "_CHUNK_BYTES", budget):
            assert_matches_seed_generator(config, frame_count)
            streamed = list(iter_frames(config, frame_count))
        expected = generate(config, frame_count).frames
        for frame, reference in zip(streamed, expected, strict=True):
            assert frame.index == reference.index
            assert frame.input.tobytes() == reference.input.tobytes()
            assert frame.motion.tobytes() == reference.motion.tobytes()


class TestFrameAssembly:
    """Each frame is written into an array of its own, wherever its depth
    gradients come from."""

    @pytest.mark.parametrize("channels", [1, 4, 5, 6, 8])
    @pytest.mark.parametrize(
        "direction, speed",
        # Along x, along y, a diagonal whose integer steps repeat columns
        # and rows across its chunk, and a half-pixel pan whose frames
        # interleave on the grid, so that each computes its own depth
        # gradients.
        [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((3.0, 4.0), 5.0), ((1.0, 0.0), 0.5)],
    )
    def test_frames_own_c_contiguous_float32_inputs(self, channels, direction, speed):
        config = SceneConfig(
            seed=5, channels=channels, height=12, width=20, pan_speed=speed, pan_direction=direction
        )
        chunks, chunk_planes = [], workload._chunk_planes

        def recording_chunk_planes(config, coords):
            chunks.append(len(coords))
            return chunk_planes(config, coords)

        with mock.patch.object(workload, "_chunk_planes", recording_chunk_planes):
            frames = generate(config, 6).frames
        assert max(chunks) > 1
        for frame in frames:
            assert frame.input.dtype == np.float32
            assert frame.input.flags.c_contiguous and frame.input.flags.owndata
        for i, frame in enumerate(frames):
            for other in frames[i + 1 :]:
                assert not np.shares_memory(frame.input, other.input)
        assert_matches_seed_generator(config, 6)


class TestFrameLayout:
    """Channel layout, dtypes and value ranges."""

    def test_shapes_and_dtypes(self):
        for channels in (1, 3, 4, 6, 8):
            config = SceneConfig(seed=1, channels=channels, height=24, width=20)
            sequence = generate(config, 3)
            assert len(sequence) == 3
            for frame in sequence:
                assert frame.input.shape == (channels, 24, 20)
                assert frame.input.dtype == np.float32
                assert frame.motion.shape == (2, 24, 20)
                assert frame.motion.dtype == np.float32

    def test_values_in_unit_interval(self):
        config = SceneConfig(seed=2, channels=8, height=24, width=24, sprite_count=2)
        for frame in generate(config, 4):
            assert float(frame.input.min()) >= 0.0
            assert float(frame.input.max()) <= 1.0

    def test_frame_indices_sequential(self):
        sequence = generate(SceneConfig(seed=0), 5)
        assert [frame.index for frame in sequence] == [0, 1, 2, 3, 4]

    def test_sequence_indexing(self):
        sequence = generate(SceneConfig(seed=0), 4)
        assert sequence[2] is sequence.frames[2]
        assert len(list(iter(sequence))) == 4

    def test_frozen_first_frame(self):
        frame = generate(SceneConfig(seed=0), 1)[0]
        assert float(frame.input.sum()) == pytest.approx(2119.0810546875, abs=0.0)
        assert float(frame.input[0, 0, 0]) == pytest.approx(0.1031414195895195, abs=0.0)
        # Border rows of the gradient channels clip to the 0.5 midpoint.
        assert float(frame.input[5, 31, 31]) == 0.5


class TestDeterminism:
    """Same config, same bits."""

    def test_regeneration_bit_identical(self):
        config = SceneConfig(seed=9, channels=6, height=24, width=24, pan_speed=1.5, sprite_count=2)
        first = generate(config, 6)
        second = generate(config, 6)
        for a, b in zip(first, second):
            assert np.array_equal(a.input, b.input)
            assert np.array_equal(a.motion, b.motion)

    def test_seed_changes_content(self):
        base = generate(SceneConfig(seed=0), 1)[0]
        other = generate(SceneConfig(seed=1), 1)[0]
        assert not np.array_equal(base.input, other.input)

    def test_prefix_stability(self):
        # A longer render shares its leading frames with a shorter one.
        config = SceneConfig(seed=5, pan_speed=2.0)
        short = generate(config, 3)
        long = generate(config, 6)
        for a, b in zip(short, long):
            assert np.array_equal(a.input, b.input)


class TestMotionGroundTruth:
    """The stored motion field equals the configured camera displacement."""

    def test_magnitude_matches_pan_speed(self):
        for speed in (0.5, 1.0, 2.0, 4.0):
            config = SceneConfig(seed=3, pan_speed=speed, pan_direction=(3.0, 4.0))
            for frame in generate(config, 4):
                assert mean_motion_magnitude(frame.motion) == pytest.approx(speed, abs=1e-6)

    def test_direction_normalized(self):
        config = SceneConfig(seed=3, pan_speed=2.0, pan_direction=(3.0, 4.0))
        motion = generate(config, 2)[1].motion
        assert float(motion[0, 0, 0]) == pytest.approx(2.0 * 0.6, abs=1e-6)
        assert float(motion[1, 0, 0]) == pytest.approx(2.0 * 0.8, abs=1e-6)

    def test_still_scene(self):
        config = SceneConfig(seed=7, pan_speed=0.0, sprite_count=0)
        frames = generate(config, 5).frames
        for frame in frames[1:]:
            assert np.array_equal(frame.input, frames[0].input)
            assert not frame.motion.any()
        assert consecutive_smape(frames) == [0.0] * 4

    def test_sprites_override_motion(self):
        config = SceneConfig(seed=6, sprite_count=2, pan_speed=1.0)
        frame = generate(config, 3)[1]
        camera = (frame.motion[0] == np.float32(1.0)) & (frame.motion[1] == np.float32(0.0))
        overridden = ~camera
        assert overridden.any()
        assert overridden.sum() < camera.size // 4
        plain = generate(SceneConfig(seed=6, sprite_count=0, pan_speed=1.0), 3)[1]
        assert not np.array_equal(frame.input, plain.input)


class TestSharedMotion:
    """Frames of one velocity without sprites share one read-only motion field."""

    @staticmethod
    def distinct_fields(frames):
        return list({id(frame.motion): frame.motion for frame in frames}.values())

    def test_constant_pan_shares_one_read_only_field(self):
        frames = generate(SceneConfig(seed=0, pan_speed=1.0), 6).frames
        (motion,) = self.distinct_fields(frames)
        assert motion.flags.c_contiguous and not motion.flags.writeable
        assert motion.strides == (4 * 32 * 32, 4 * 32, 4)
        with pytest.raises(ValueError):
            motion[0, 0, 0] = 2.0

    def test_one_field_per_run_of_equal_velocity(self):
        config = SceneConfig(seed=0, pan_schedule=((3, 1.0), (2, 2.0), (3, 1.0)))
        frames = generate(config, 8).frames
        assert [frame.motion is frames[0].motion for frame in frames[:3]] == [True] * 3
        assert [frame.motion is frames[3].motion for frame in frames[3:5]] == [True] * 2
        assert [frame.motion is frames[5].motion for frame in frames[5:]] == [True] * 3
        assert len(self.distinct_fields(frames)) == 3

    def test_signed_zero_speeds_get_separate_fields(self):
        config = SceneConfig(seed=0, pan_schedule=((2, 0.0), (2, -0.0)))
        frames = generate(config, 4).frames
        first, second = self.distinct_fields(frames)
        assert first.tobytes() != second.tobytes()
        assert frames[1].motion is first and frames[2].motion is second

    def test_sprites_give_one_field_per_frame(self):
        frames = generate(SceneConfig(seed=0, sprite_count=2), 4).frames
        assert len(self.distinct_fields(frames)) == 4
        assert not any(frame.motion.flags.writeable for frame in frames)

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(scene_configs(), st.integers(1, 6))
    def test_random_scenes_share_only_equal_fields(self, config, frame_count):
        frames = generate(config, frame_count).frames
        assert not any(frame.motion.flags.writeable for frame in frames)
        for previous, frame in zip(frames, frames[1:]):
            equal = previous.motion.tobytes() == frame.motion.tobytes()
            assert (frame.motion is previous.motion) == (config.sprite_count == 0 and equal)

    def test_held_bytes_per_frame(self):
        # A first call makes one-off allocations (~0.8 MB) that a warm-up
        # keeps out of the count. Each frame then holds its input and a
        # small FrameInput; a motion field of its own (8 KiB here) per
        # frame would break the bound.
        config = SceneConfig(seed=0, height=32, width=32, pan_speed=1.0)
        generate(config, 4)
        tracemalloc.start()
        try:
            frames = generate(config, 200).frames
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frame = frames[0]
        assert held <= 200 * (frame.input.nbytes + 1024) + frame.motion.nbytes


class TestTemporalDrift:
    """Faster panning produces larger consecutive-frame deltas."""

    def test_mean_delta_increases_with_speed(self):
        means = []
        for speed in (0.5, 1.0, 2.0, 4.0):
            config = SceneConfig(seed=3, pan_speed=speed, pan_direction=(3.0, 4.0))
            means.append(float(np.mean(consecutive_smape(generate(config, 6).frames))))
        assert means[0] < means[1] < means[2] < means[3]

    def test_schedule_segments_have_distinct_speeds(self):
        config = SceneConfig(seed=4, pan_schedule=((5, 0.2), (5, 4.0)))
        frames = generate(config, 10).frames
        mags = [mean_motion_magnitude(frame.motion) for frame in frames]
        assert mags[:5] == pytest.approx([0.2] * 5, abs=1e-6)
        assert mags[5:] == pytest.approx([4.0] * 5, abs=1e-6)
        deltas = consecutive_smape(generate(config, 10).frames)
        assert max(deltas[:4]) < min(deltas[4:])

    def test_schedule_extends_last_segment(self):
        config = SceneConfig(seed=4, pan_schedule=((2, 0.5), (1, 3.0)))
        frames = generate(config, 6).frames
        mags = [mean_motion_magnitude(frame.motion) for frame in frames]
        assert mags == pytest.approx([0.5, 0.5, 3.0, 3.0, 3.0, 3.0], abs=1e-6)

    def test_refreshes_concentrate_in_fast_segment(self):
        # All post-warmup refreshes land where the camera speeds up.
        config = SceneConfig(seed=4, pan_schedule=((5, 0.2), (5, 4.0)))
        frames = generate(config, 10).frames
        assert refresh_indices(DeltaSmape(tau=0.05), frames) == [0, 5, 6, 7, 8, 9]


class TestMatchesSeedGenerator:
    """Lattice-cell noise reproduces the per-pixel formula bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scene_configs(), st.integers(1, 4))
    def test_random_scenes(self, config, frame_count):
        assert_matches_seed_generator(config, frame_count)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**62),
        st.integers(1, 5),
        st.integers(1, 70),
        st.integers(1, 70),
        st.floats(-1e4, 1e4),
        st.floats(-1e4, 1e4),
        st.integers(1, 8),
        st.integers(2, 50),
    )
    def test_noise_planes_float64(self, seed, planes, height, width, dx, dy, octaves, base_cell):
        # Frames are rounded to float32, which hides most last-bit changes
        # in the float64 noise; compare the noise itself before rounding.
        ys = np.arange(height, dtype=np.float64) + dy
        xs = np.arange(width, dtype=np.float64) + dx
        salts = [seed + 977 * c for c in range(planes)]
        noise = workload._fbm(xs, ys, salts, octaves, base_cell)
        for plane, salt in zip(noise, salts, strict=True):
            expected = _seed_fbm(xs[None, :], ys[:, None], salt, octaves, base_cell)
            assert plane.tobytes() == expected.tobytes()

    def test_stream_cached_scene(self):
        # The 500-frame scene of the perfbench stream_cached workload.
        config = SceneConfig(seed=7, height=48, width=48, pan_speed=1.0, base_cell=8)
        assert_matches_seed_generator(config, 500)

    def test_superres_tradeoff_scene(self):
        # The 192x192 scene superres_tradeoff renders under the default config.
        config = SceneConfig(
            seed=0, height=192, width=192, channels=6, pan_speed=3.0, base_cell=48
        )
        assert_matches_seed_generator(config, 40)

    def test_lattice_stays_within_twice_the_frame(self):
        # At 2**13 / 2 lattice cells per pixel a min..max lattice range
        # would span ~65k points per axis; only touched points are hashed:
        # at most two per distinct coordinate of the chunk's grid, in one
        # _hash01 call per octave and plane group.
        calls, chunks = [], []
        value_noise, hash01, chunk_planes = workload._value_noise, workload._hash01, workload._chunk_planes

        def recording_value_noise(xs, ys, salts):
            calls.append([np.unique(xs).size, np.unique(ys).size])
            return value_noise(xs, ys, salts)

        def recording_hash01(ix, iy, salts):
            calls[-1] += [ix.size, iy.size]
            return hash01(ix, iy, salts)

        def recording_chunk_planes(config, coords):
            chunks.append(len(coords))
            return chunk_planes(config, coords)

        config = SceneConfig(
            seed=3, channels=8, height=16, width=16, pan_speed=2.5, texture_octaves=14,
            base_cell=2,
        )
        with (
            mock.patch.object(workload, "_value_noise", recording_value_noise),
            mock.patch.object(workload, "_hash01", recording_hash01),
            mock.patch.object(workload, "_chunk_planes", recording_chunk_planes),
        ):
            generate(config, 3)
        assert sum(chunks) == 3
        assert len(calls) == (14 + 1) * len(chunks)
        assert all(
            lattice_x <= 2 * xs and lattice_y <= 2 * ys for xs, ys, lattice_x, lattice_y in calls
        )
        assert_matches_seed_generator(config, 3)


class TestValidation:
    """Config and call validation."""

    def test_config_rejections(self):
        with pytest.raises(ValueError):
            SceneConfig(channels=0)
        with pytest.raises(ValueError):
            SceneConfig(height=0)
        with pytest.raises(ValueError):
            SceneConfig(texture_octaves=0)
        with pytest.raises(ValueError):
            SceneConfig(base_cell=1)
        with pytest.raises(ValueError):
            SceneConfig(sprite_count=-1)
        with pytest.raises(ValueError):
            SceneConfig(pan_direction=(0.0, 0.0))
        with pytest.raises(ValueError):
            SceneConfig(pan_schedule=((0, 1.0),))
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="pan_speed must be finite"):
                SceneConfig(pan_speed=bad)
            with pytest.raises(ValueError, match="pan_direction must be finite"):
                SceneConfig(pan_direction=(bad, 0.0))
            with pytest.raises(ValueError, match="pan_direction must be finite"):
                SceneConfig(pan_direction=(1.0, bad))
            with pytest.raises(ValueError, match="pan_schedule speeds must be finite"):
                SceneConfig(pan_schedule=((2, 1.0), (3, bad)))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SceneConfig(seed=-5)

    def test_frame_count_positive(self):
        with pytest.raises(ValueError):
            generate(SceneConfig(seed=0), 0)

