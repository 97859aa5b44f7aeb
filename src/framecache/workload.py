"""Procedural frame sequences with analytic motion ground truth.

Frames sample an infinite lattice value-noise texture under a translating
camera, so consecutive frames are temporally coherent and the screen-space
displacement is known exactly. Channel layout is color (3), depth (1),
screen-space depth gradients (2), then extra noise channels to pad out the
requested channel count; all channels live in [0, 1]. Everything derives
from integer hashes and a seeded PCG stream, so a (config) pair yields
bit-identical sequences on every run and platform.

The noise is evaluated per lattice cell, not per pixel: each lattice point
a frame touches is hashed once, x is interpolated along the lattice rows
and y on the pixel grid, and the texture planes that share an octave
count and base cell go through numpy together. Every lerp has the same
float64 operands as a per-pixel evaluation of the four cell corners, so
the frames are the same bit for bit.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .ops import tensor

__all__ = [
    "FrameInput",
    "FrameSequence",
    "SceneConfig",
    "generate",
    "iter_frames",
]

_GRAD_SCALE = 8.0


@dataclass(frozen=True)
class SceneConfig:
    """Parameters of a generated scene.

    pan_speed applies to every frame unless pan_schedule (segments of
    (frame_count, speed)) is given; speeds are pixels per frame along
    pan_direction. sprite_count overlays that many drifting blobs whose
    screen velocity overrides the camera motion in the pixels they cover.
    """

    seed: int = 0
    channels: int = 6
    height: int = 32
    width: int = 32
    pan_speed: float = 1.0
    pan_direction: tuple[float, float] = (1.0, 0.0)
    pan_schedule: tuple[tuple[int, float], ...] = ()
    sprite_count: int = 0
    texture_octaves: int = 3
    base_cell: int = 16

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"resolution must be positive, got height {self.height}, width {self.width}")
        if self.texture_octaves < 1:
            raise ValueError("texture_octaves must be >= 1")
        if self.sprite_count < 0:
            raise ValueError("sprite_count must be >= 0")
        if self.base_cell < 2:
            raise ValueError("base_cell must be >= 2")
        if not math.isfinite(self.pan_speed):
            raise ValueError(f"pan_speed must be finite, got {self.pan_speed}")
        if not all(math.isfinite(component) for component in self.pan_direction):
            raise ValueError(f"pan_direction must be finite, got {self.pan_direction}")
        norm = float(np.hypot(*self.pan_direction))
        if norm == 0.0:
            raise ValueError("pan_direction must be non-zero")
        for count, speed in self.pan_schedule:
            if count < 1:
                raise ValueError("pan_schedule segments need frame_count >= 1")
            if not math.isfinite(speed):
                raise ValueError(f"pan_schedule speeds must be finite, got {speed}")


@dataclass(eq=False)
class FrameInput:
    """One frame: the network input and its analytic motion field.

    motion[(0, 1)] hold the per-pixel x / y screen displacement since the
    previous frame (frame 0 stores its scheduled velocity).
    """

    index: int
    input: np.ndarray
    motion: np.ndarray


@dataclass(eq=False)
class FrameSequence:
    frames: list[FrameInput] = field(default_factory=list)

    def __len__(self):
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __getitem__(self, item):
        return self.frames[item]


# ---------------------------------------------------------------------------
# Hash-lattice value noise
# ---------------------------------------------------------------------------


def _hash01(ix: np.ndarray, iy: np.ndarray, salts: np.ndarray) -> np.ndarray:
    """Deterministic [0, 1) values from integer lattice coordinates.

    salts is a (P, 1, 1) uint64 array, one salt per plane, so the result
    broadcasts to (P, ...) over the shapes of ix and iy.
    """
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ salts
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _value_noise(xs: np.ndarray, ys: np.ndarray, salts: np.ndarray) -> np.ndarray:
    """Smoothly interpolated lattice noise on the grid of a (W,) row and an (H,) column.

    Returns (P, H, W) for the P salts of _hash01. Only the distinct lattice
    coordinates the pixels touch are hashed, at most 2W by 2H of them
    whatever the frequency, and each point once. x is interpolated on
    those lattice rows first, then y on the pixel grid; each lerp has the
    same float64 operands as evaluating the four corners of every pixel's
    cell, so the result is the same bit for bit.
    """
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    tx = _fade(xs - x0)
    ty = _fade(ys - y0)
    ix0 = x0.astype(np.int64)
    iy0 = y0.astype(np.int64)
    lattice_x, x_index = np.unique(np.concatenate([ix0, ix0 + 1]), return_inverse=True)
    lattice_y, y_index = np.unique(np.concatenate([iy0, iy0 + 1]), return_inverse=True)
    values = _hash01(lattice_x[None, :], lattice_y[:, None], salts)
    width = xs.shape[0]
    left = values[:, :, x_index[:width]]
    right = values[:, :, x_index[width:]]
    rows = left + (right - left) * tx
    height = ys.shape[0]
    top = rows[:, y_index[:height]]
    bottom = rows[:, y_index[height:]]
    return top + (bottom - top) * ty[:, None]


def _fbm(xs, ys, salts: list[int], octaves: int, base_cell: int) -> np.ndarray:
    """Octave sum of value noise for each salt: (len(salts), H, W) in [0, 1)."""
    total = np.zeros((len(salts), ys.shape[0], xs.shape[0]))
    amplitude = 1.0
    norm = 0.0
    for octave in range(octaves):
        freq = (1 << octave) / base_cell
        octave_salts = np.array(
            [(salt + 7919 * octave) & 0xFFFFFFFFFFFFFFFF for salt in salts], dtype=np.uint64
        ).reshape(-1, 1, 1)
        total += amplitude * _value_noise(xs * freq, ys * freq, octave_salts)
        norm += amplitude
        amplitude *= 0.5
    return total / norm


def _depth_field(xs, ys, seed: int, base_cell: int) -> np.ndarray:
    return _fbm(xs, ys, [seed + 104729], octaves=1, base_cell=base_cell * 2)[0]


def _frame_channels(config: SceneConfig, offset_x: float, offset_y: float) -> np.ndarray:
    ys = np.arange(config.height, dtype=np.float64) + offset_y
    xs = np.arange(config.width, dtype=np.float64) + offset_x
    colours = min(3, config.channels)
    texture_salts = [config.seed + 13 * c for c in range(colours)]
    texture_salts += [config.seed + 977 * c for c in range(6, config.channels)]
    # Squaring spreads the octave-averaged noise (which clusters near 0.5)
    # over [0, 1] with mass near 0, so relative frame deltas are large
    # enough for SMAPE thresholds in the 0.2 range to matter.
    texture = (
        _fbm(xs, ys, texture_salts, octaves=config.texture_octaves, base_cell=config.base_cell)
        ** 2
    )
    planes = list(texture[:colours])
    if config.channels >= 4:
        planes.append(_depth_field(xs, ys, config.seed, config.base_cell))
    if config.channels >= 5:
        depth = planes[3]
        gx = np.zeros_like(depth)
        gy = np.zeros_like(depth)
        gx[:, 1:-1] = 0.5 * (depth[:, 2:] - depth[:, :-2])
        gy[1:-1, :] = 0.5 * (depth[2:, :] - depth[:-2, :])
        planes.append(np.clip(0.5 + _GRAD_SCALE * gx, 0.0, 1.0))
        if config.channels >= 6:
            planes.append(np.clip(0.5 + _GRAD_SCALE * gy, 0.0, 1.0))
    planes.extend(texture[colours:])
    return np.stack(planes[: config.channels]).astype(np.float32)


@dataclass(frozen=True)
class _Sprite:
    x: float
    y: float
    vx: float
    vy: float
    radius: float
    tint: tuple[float, float, float]


def _make_sprites(config: SceneConfig) -> list[_Sprite]:
    rng = np.random.default_rng([config.seed, 0x5EED])
    sprites = []
    for _ in range(config.sprite_count):
        sprites.append(
            _Sprite(
                x=float(rng.uniform(0, config.width)),
                y=float(rng.uniform(0, config.height)),
                vx=float(rng.uniform(-2.0, 2.0)),
                vy=float(rng.uniform(-2.0, 2.0)),
                radius=float(rng.uniform(2.0, max(3.0, config.width / 8))),
                tint=tuple(rng.uniform(0.2, 0.8, size=3)),
            )
        )
    return sprites


def _apply_sprites(
    config: SceneConfig,
    sprites: list[_Sprite],
    frame_idx: int,
    channels: np.ndarray,
    motion: np.ndarray,
) -> None:
    if not sprites:
        return
    ys = np.arange(config.height, dtype=np.float64)[:, None]
    xs = np.arange(config.width, dtype=np.float64)[None, :]
    for sprite in sprites:
        cx = (sprite.x + sprite.vx * frame_idx) % config.width
        cy = (sprite.y + sprite.vy * frame_idx) % config.height
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        blob = np.exp(-d2 / (2.0 * sprite.radius**2))
        for c in range(min(3, config.channels)):
            channels[c] = np.clip(channels[c] + sprite.tint[c] * blob, 0.0, 1.0).astype(
                np.float32
            )
        mask = blob > 0.5
        motion[0][mask] = sprite.vx
        motion[1][mask] = sprite.vy


def _per_frame_speeds(config: SceneConfig, frame_count: int) -> np.ndarray:
    if not config.pan_schedule:
        return np.full(frame_count, config.pan_speed, dtype=np.float64)
    speeds = []
    for count, speed in config.pan_schedule:
        speeds.extend([speed] * count)
    if len(speeds) < frame_count:
        speeds.extend([speeds[-1]] * (frame_count - len(speeds)))
    return np.asarray(speeds[:frame_count], dtype=np.float64)


def iter_frames(config: SceneConfig, frame_count: int) -> Iterator[FrameInput]:
    """Yield the frame_count coherent frames of the given scene in order.

    The camera advances by the frame's scheduled speed along pan_direction
    each frame; the stored motion field is that exact displacement (sprite
    pixels report the sprite's velocity instead). Frames are made one at a
    time, so a caller that keeps only part of each frame holds only that.
    frame_count is checked when this is called, not on the first frame.
    """
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    return _frames(config, frame_count)


def _frames(config: SceneConfig, frame_count: int) -> Iterator[FrameInput]:
    norm = float(np.hypot(*config.pan_direction))
    dir_x = config.pan_direction[0] / norm
    dir_y = config.pan_direction[1] / norm
    speeds = _per_frame_speeds(config, frame_count)
    sprites = _make_sprites(config)
    offset_x = 0.0
    offset_y = 0.0
    for index in range(frame_count):
        if index > 0:
            offset_x += speeds[index] * dir_x
            offset_y += speeds[index] * dir_y
        channels = _frame_channels(config, offset_x, offset_y)
        motion = np.empty((2, config.height, config.width), dtype=np.float32)
        motion[0] = speeds[index] * dir_x
        motion[1] = speeds[index] * dir_y
        _apply_sprites(config, sprites, index, channels, motion)
        yield FrameInput(index=index, input=tensor(channels), motion=motion)


def generate(config: SceneConfig, frame_count: int) -> FrameSequence:
    """All frames of iter_frames(config, frame_count), held in memory."""
    return FrameSequence(list(iter_frames(config, frame_count)))
