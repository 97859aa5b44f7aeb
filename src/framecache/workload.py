"""Procedural frame sequences with analytic motion ground truth.

Frames sample an infinite lattice value-noise texture under a translating
camera, so consecutive frames are temporally coherent and the screen-space
displacement is known exactly. Channel layout is color (3), depth (1),
screen-space depth gradients (2), then extra noise channels to pad out the
requested channel count; all channels live in [0, 1]. Everything derives
from integer hashes and a seeded PCG stream, so a (config) pair yields
bit-identical sequences on every run and platform.

Frames are made one bounded chunk at a time. A pan resamples the same
columns (or rows) frame after frame, so a chunk's noise is evaluated once
on the grid of its frames' distinct sample xs and ys, and each frame's
planes are gathered from that grid. A chunk grows while its grid has no
more points than its frames have pixels and its noise planes fit in
_CHUNK_BYTES, so a caller holds what it keeps plus at most one chunk's
working set.

The noise is evaluated per lattice cell, not per pixel: each lattice point
a grid touches is hashed once, x is interpolated along the lattice rows
and y on the pixel grid, and the texture planes that share an octave
count and base cell go through numpy together. Every lerp has the same
float64 operands as a per-pixel evaluation of the four cell corners of
each frame's own pixels, so the frames are the same bit for bit.

Each frame is gathered into a float32 array of its own from a float32
copy of its chunk's channels on the grid, with one take of its pixels'
flat grid indices. A frame whose
neighbouring pixels are grid neighbours, as on a whole-pixel pan, takes
its depth gradients from the grid's, with a 0.5 border; any other frame
computes its own from its float64 depth. Either way each value is the
same float64 result, rounded once.

Motion fields are read-only. Consecutive frames without sprites whose
velocity has the same float32 bits share one field, so a constant pan
holds one field however many frames it has; a caller that edits a motion
field copies it first.
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

# Bytes of float64 noise planes one chunk of frames evaluates at a time;
# _fbm's temporaries are a small multiple of it.
_CHUNK_BYTES = 1 << 22


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
    previous frame (frame 0 stores its scheduled velocity). motion is
    read-only and may be shared with neighbouring frames of the same
    velocity (see the module docstring); copy it before editing it.
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


def _texture_salts(config: SceneConfig) -> list[int]:
    """One salt per texture plane: the colour planes, then the extra
    noise planes past the six fixed channels."""
    salts = [config.seed + 13 * c for c in range(min(3, config.channels))]
    return salts + [config.seed + 977 * c for c in range(6, config.channels)]


def _chunks(config: SceneConfig, coords: Iterator) -> Iterator[list]:
    """Group frames, given in order as (xs, ys) sample coordinates, into
    runs whose noise is evaluated together.

    A run grows while its grid of distinct xs by distinct ys has no more
    points than its frames have pixels, so it never evaluates more noise
    than frame by frame, and while that grid's noise planes fit in
    _CHUNK_BYTES of float64. A pan that resamples the same columns (or
    rows) grows long runs; one that samples new columns and rows every
    frame, such as most diagonal pans, gets one frame per run.
    """
    planes = len(_texture_salts(config)) + (config.channels >= 4)
    pixels = config.height * config.width
    chunk, seen_x, seen_y = [], set(), set()
    for xs, ys in coords:
        new_x = set(xs.tolist()).difference(seen_x)
        new_y = set(ys.tolist()).difference(seen_y)
        points = (len(seen_x) + len(new_x)) * (len(seen_y) + len(new_y))
        if chunk and (points > (len(chunk) + 1) * pixels or 8 * planes * points > _CHUNK_BYTES):
            yield chunk
            chunk, seen_x, seen_y = [], set(), set()
            new_x, new_y = set(xs.tolist()), set(ys.tolist())
        chunk.append((xs, ys))
        seen_x |= new_x
        seen_y |= new_y
    yield chunk


def _chunk_planes(config: SceneConfig, coords: list) -> Iterator[np.ndarray]:
    """Each frame's float32 channels, for frames given as (xs, ys) sample
    coordinates.

    The noise is evaluated once on the grid of the frames' distinct xs and
    ys and gathered per frame. Each noise value is an elementwise function
    of its own float64 (x, y), so the frames are the same bit for bit as
    when each is evaluated on its own.
    """
    grid_x, x_index = np.unique(np.concatenate([xs for xs, _ in coords]), return_inverse=True)
    grid_y, y_index = np.unique(np.concatenate([ys for _, ys in coords]), return_inverse=True)
    frames = len(coords)
    x_index, y_index = x_index.reshape(frames, -1), y_index.reshape(frames, -1)
    # Where a frame's neighbouring pixels are neighbours on the grid, its
    # depth gradients inside its border are the grid's.
    on_grid = (np.diff(x_index) == 1).all(axis=1) & (np.diff(y_index) == 1).all(axis=1)
    grid = np.empty((config.channels, grid_y.size, grid_x.size), dtype=np.float32)
    colours = min(3, config.channels)
    # Squaring spreads the octave-averaged noise (which clusters near 0.5)
    # over [0, 1] with mass near 0, so relative frame deltas are large
    # enough for SMAPE thresholds in the 0.2 range to matter.
    texture = _fbm(grid_x, grid_y, _texture_salts(config), octaves=config.texture_octaves,
                   base_cell=config.base_cell) ** 2
    grid[:colours], grid[6:] = texture[:colours], texture[colours:]
    del texture
    depth = None
    if config.channels >= 4:
        depth = _depth_field(grid_x, grid_y, config.seed, config.base_cell)
        grid[3] = depth
        if config.channels >= 5 and on_grid.any():
            _depth_gradients(depth, grid[4:6])
        if on_grid.all():
            depth = None
    grid = grid.reshape(config.channels, -1)
    for cols, rows, adjacent in zip(x_index, y_index, on_grid):
        pixels = (rows[:, None] * grid_x.size + cols).ravel()
        channels = np.empty((config.channels, config.height, config.width), dtype=np.float32)
        # In range, "wrap" takes what "raise" would, without buffering out.
        grid.take(pixels, axis=1, out=channels.reshape(config.channels, -1), mode="wrap")
        if config.channels >= 5 and adjacent:
            gx, gy = channels[4], channels[5:6]
            gx[:, 0] = gx[:, -1] = gy[:, 0] = gy[:, -1] = 0.5
        elif config.channels >= 5:
            _depth_gradients(depth.take(pixels).reshape(config.height, config.width), channels[4:6])
        yield channels


def _depth_gradients(depth: np.ndarray, out: np.ndarray) -> None:
    """Write clip(0.5 + _GRAD_SCALE * (central difference of depth)) along
    x, then along y if out has a second plane, into out. The difference is
    0 on the border columns (rows), so they hold 0.5."""
    grads = np.zeros((len(out),) + depth.shape)
    np.subtract(depth[:, 2:], depth[:, :-2], out=grads[0, :, 1:-1])
    if len(out) > 1:
        np.subtract(depth[2:], depth[:-2], out=grads[1, 1:-1])
    grads *= 0.5
    grads *= _GRAD_SCALE
    grads += 0.5
    out[...] = np.clip(grads, 0.0, 1.0, out=grads)


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
    pixels report the sprite's velocity instead). Frames are made one
    chunk at a time (see the module docstring), so a caller that keeps
    only part of each frame holds only that plus at most one chunk's noise
    planes. Frames of one velocity without sprites share one read-only
    motion field; a caller that edits it copies it first. frame_count is
    checked when this is called, not on the first frame.
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

    def coords():
        offset_x = 0.0
        offset_y = 0.0
        for index in range(frame_count):
            if index > 0:
                offset_x += speeds[index] * dir_x
                offset_y += speeds[index] * dir_y
            yield (
                np.arange(config.width, dtype=np.float64) + offset_x,
                np.arange(config.height, dtype=np.float64) + offset_y,
            )

    index = 0
    motion, velocity = None, None
    for chunk in _chunks(config, coords()):
        for channels in _chunk_planes(config, chunk):
            # Keyed on the float32 bits, so that speeds 0.0 and -0.0 (whose
            # fields differ in sign bits) get fields of their own.
            frame_velocity = np.array(
                [speeds[index] * dir_x, speeds[index] * dir_y], dtype=np.float32
            ).tobytes()
            if sprites or frame_velocity != velocity:
                motion = np.empty((2, config.height, config.width), dtype=np.float32)
                motion[0] = speeds[index] * dir_x
                motion[1] = speeds[index] * dir_y
                velocity = frame_velocity
            _apply_sprites(config, sprites, index, channels, motion)
            motion.setflags(write=False)
            yield FrameInput(index=index, input=tensor(channels), motion=motion)
            index += 1


def generate(config: SceneConfig, frame_count: int) -> FrameSequence:
    """All frames of iter_frames(config, frame_count), held in memory."""
    return FrameSequence(list(iter_frames(config, frame_count)))
