"""Builders for the supported network families and their cache configs.

All weights come from a seeded generator with He-style scaling
(std = sqrt(2 / fan_in)), biases start at zero. Convolution blocks follow
the fixed recipe conv3x3 -> relu -> conv3x3 -> relu with channels doubling
per depth, and every network ends in a 1x1 output conv with no activation.
Builds are deterministic: same arguments and seed give bit-identical
weights. A block's name is its only identity: the cache configs name
edges by their blocks, and set_unet_level counts a U-Net's depth from the
enc{i} names that build_unet gives its encoder.
"""

import numpy as np

from .netgraph import (
    INPUT,
    Block,
    CacheConfig,
    Edge,
    NetworkSpec,
    make_network_spec,
    replace_cache_config,
)
from .ops import ConvParams

__all__ = [
    "build_multibranch",
    "build_superres",
    "build_unet",
    "build_unetpp",
    "make_conv",
    "multibranch_config",
    "set_unet_level",
    "unet_level_config",
    "unetpp_config_a",
    "unetpp_config_b",
]


def make_conv(rng: np.random.Generator, in_channels: int, out_channels: int, kernel: int = 3) -> ConvParams:
    """Seeded He-initialized kernel x kernel conv with stride 1 and
    padding kernel // 2, zero bias."""
    if out_channels < 1:
        raise ValueError(f"out_channels must be >= 1, got {out_channels}")
    fan_in = in_channels * kernel * kernel
    weights = rng.standard_normal((out_channels, in_channels, kernel, kernel))
    weights = (weights * np.sqrt(2.0 / fan_in)).astype(np.float32)
    return ConvParams(weights, np.zeros(out_channels, dtype=np.float32), padding=kernel // 2)


def _conv_block_ops(rng, in_channels: int, out_channels: int) -> tuple:
    return (
        make_conv(rng, in_channels, out_channels),
        "relu",
        make_conv(rng, out_channels, out_channels),
        "relu",
    )


# ---------------------------------------------------------------------------
# Plain U-Net
# ---------------------------------------------------------------------------


def _check_input(input_shape: tuple[int, int, int], levels: int, seed: int) -> None:
    """The arguments every family takes: a positive input_shape whose
    height and width halve evenly levels times, and a non-negative seed."""
    if min(input_shape) < 1:
        raise ValueError(f"input_shape must be positive, got {input_shape}")
    _, height, width = input_shape
    div = 1 << levels
    if height % div or width % div:
        raise ValueError(
            f"input_shape {height}x{width} must be divisible by {div} "
            f"for {levels} downsampling steps"
        )
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def build_unet(
    depth: int,
    base_channels: int,
    input_shape: tuple[int, int, int],
    out_channels: int | None = None,
    seed: int = 0,
) -> NetworkSpec:
    """Encoder-decoder with skip concats: depth resolution levels.

    Blocks enc0..enc{depth-1} double channels while pooling down; each
    decoder dec{i} concatenates the upsampled deeper output with enc{i}'s
    skip. The default cache config is level 1 (only enc0, dec0 and the
    output head stay live on cached frames).
    """
    if depth < 2:
        raise ValueError("build_unet needs depth >= 2")
    if base_channels < 1:
        raise ValueError("base_channels must be >= 1")
    _check_input(input_shape, depth - 1, seed)
    in_c = input_shape[0]
    if out_channels is None:
        out_channels = in_c
    rng = np.random.default_rng(seed)
    blocks: list[Block] = []

    source, source_c = (INPUT, "none"), in_c
    for i in range(depth):
        ops = _conv_block_ops(rng, source_c, base_channels << i)
        blocks.append(Block(name=f"enc{i}", inputs=(source,), ops=ops))
        source, source_c = (f"enc{i}", "maxpool2"), base_channels << i
    for i in range(depth - 2, -1, -1):
        deep = f"enc{depth - 1}" if i == depth - 2 else f"dec{i + 1}"
        deep_c = base_channels << (i + 1)
        skip_c = base_channels << i
        blocks.append(
            Block(
                name=f"dec{i}",
                inputs=((deep, "upsample2"), (f"enc{i}", "none")),
                ops=_conv_block_ops(rng, deep_c + skip_c, skip_c),
            )
        )
    blocks.append(
        Block(
            name="head",
            inputs=(("dec0", "none"),),
            ops=(make_conv(rng, base_channels, out_channels, kernel=1),),
        )
    )
    return make_network_spec(
        blocks,
        input_shape,
        "head",
        cache_config=unet_level_config(depth, 1),
    )


def unet_level_config(depth: int, level: int) -> CacheConfig:
    """Cache config that keeps encoder/decoder depths < level live.

    The single cached edge is the deep-branch tensor feeding the concat of
    decoder level - 1; valid levels are 1..depth-1. Level 1 recomputes only
    enc0, dec0 and the head.
    """
    if not 1 <= level <= depth - 1:
        raise ValueError(f"cache level must be in [1, {depth - 1}], got {level}")
    deep = f"enc{depth - 1}" if level - 1 == depth - 2 else f"dec{level}"
    return CacheConfig(f"unet_level_{level}", frozenset({Edge(deep, f"dec{level - 1}", 0).name}))


def set_unet_level(spec: NetworkSpec, level: int) -> NetworkSpec:
    """spec with unet_level_config(depth, level), its depth counted from
    the enc0, enc1, ... blocks that build_unet names."""
    depth = 0
    while f"enc{depth}" in spec.blocks:
        depth += 1
    if not depth:
        raise ValueError("set_unet_level needs a build_unet spec; this one has no enc{i} blocks")
    return replace_cache_config(spec, unet_level_config(depth, level))


# ---------------------------------------------------------------------------
# Nested-grid U-Net (dense skip pathways)
# ---------------------------------------------------------------------------


def build_unetpp(
    depth: int,
    base_channels: int,
    input_shape: tuple[int, int, int],
    out_channels: int | None = None,
    seed: int = 0,
) -> NetworkSpec:
    """Nested grid x{i}.{j} with i in [0, depth], j in [0, depth - i].

    x{i}.0 is the encoder backbone; x{i}.{j} for j >= 1 concatenates every
    earlier block in its row with the upsampled x{i+1}.{j-1}. The top-row
    block x0.{depth} feeds the 1x1 output head. Default cache config is
    config B (top row live, deep inputs into it cached).
    """
    if depth < 1:
        raise ValueError("build_unetpp needs depth >= 1")
    if base_channels < 1:
        raise ValueError("base_channels must be >= 1")
    _check_input(input_shape, depth, seed)
    in_c = input_shape[0]
    if out_channels is None:
        out_channels = in_c
    rng = np.random.default_rng(seed)
    blocks: list[Block] = []

    source, source_c = (INPUT, "none"), in_c
    for i in range(depth + 1):
        row_c = base_channels << i
        ops = _conv_block_ops(rng, source_c, row_c)
        blocks.append(Block(name=f"x{i}.0", inputs=(source,), ops=ops))
        source, source_c = (f"x{i}.0", "maxpool2"), row_c
    for i in range(depth):
        row_c = base_channels << i
        for j in range(1, depth - i + 1):
            in_total = j * row_c + (row_c << 1)
            row = tuple((f"x{i}.{k}", "none") for k in range(j))
            blocks.append(
                Block(
                    name=f"x{i}.{j}",
                    inputs=row + ((f"x{i + 1}.{j - 1}", "upsample2"),),
                    ops=_conv_block_ops(rng, in_total, row_c),
                )
            )
    blocks.append(
        Block(
            name="head",
            inputs=((f"x0.{depth}", "none"),),
            ops=(make_conv(rng, base_channels, out_channels, kernel=1),),
        )
    )
    return make_network_spec(
        blocks,
        input_shape,
        "head",
        cache_config=unetpp_config_b(depth),
    )


def unetpp_config_b(depth: int) -> CacheConfig:
    """Keep the full top row live; cache every deep input feeding it."""
    cached = {Edge(f"x1.{j - 1}", f"x0.{j}", j).name for j in range(1, depth + 1)}
    return CacheConfig("unetpp_config_b", frozenset(cached))


def unetpp_config_a(depth: int) -> CacheConfig:
    """Keep only the outer U-Net path live; cache inner-grid edges into it.

    The outer path is the encoder backbone x{i}.0 plus each row's last
    block x{i}.{depth - i}. The cached edges are the same-row inputs those
    last blocks take from inner grid blocks.
    """
    cached = set()
    for i in range(depth):
        last = depth - i
        for j in range(1, last):
            cached.add(Edge(f"x{i}.{j}", f"x{i}.{last}", j).name)
    return CacheConfig("unetpp_config_a", frozenset(cached))


# ---------------------------------------------------------------------------
# Multi-branch fusion networks
# ---------------------------------------------------------------------------


def build_multibranch(
    branches: list[tuple[str, tuple]],
    fusion_ops: tuple,
    input_shape: tuple[int, int, int],
    cached_branches: set[str] | None = None,
) -> NetworkSpec:
    """Independent branch extractors over one input, fused by concat.

    branches is an ordered list of (name, ops); every branch reads the
    network input and their outputs (which must share spatial dims) are
    concatenated in list order into the fusion block, whose last op
    produces the network output. By default all branches except the final
    one are cached, leaving that one live alongside the fusion block.
    """
    if not branches:
        raise ValueError("build_multibranch needs at least one branch")
    names = [name for name, _ in branches]
    if len(set(names)) != len(names):
        raise ValueError("branch names must be unique")
    if "fuse" in names or INPUT in names:
        raise ValueError("branch names 'fuse' and 'input' are reserved")
    if cached_branches is None:
        cached_branches = set(names[:-1])
    unknown = set(cached_branches) - set(names)
    if unknown:
        raise ValueError(f"cached branches {sorted(unknown)} are not branch names")
    blocks = [Block(name=name, inputs=((INPUT, "none"),), ops=tuple(ops)) for name, ops in branches]
    blocks.append(
        Block(
            name="fuse",
            inputs=tuple((name, "none") for name in names),
            ops=tuple(fusion_ops),
        )
    )
    return make_network_spec(
        blocks,
        input_shape,
        "fuse",
        cache_config=multibranch_config(names, cached_branches),
    )


def multibranch_config(branch_names: list[str], cached_branches: set[str]) -> CacheConfig:
    cached = {
        Edge(name, "fuse", slot).name for slot, name in enumerate(branch_names) if name in cached_branches
    }
    return CacheConfig("multibranch[" + ",".join(sorted(cached_branches)) + "]", frozenset(cached))


def build_superres(
    input_shape: tuple[int, int, int] = (6, 64, 64),
    base_channels: int = 8,
    lr_pool: int = 2,
    out_channels: int = 3,
    seed: int = 0,
) -> NetworkSpec:
    """Upscaling-style fusion network used by the resolution trade-off study.

    Two full-resolution feature branches ("hr" over auxiliary channels,
    "temporal" standing in for history features) carry most of the cost and
    are cached; the "lr" branch pools the input down lr_pool times, runs its
    convs at that cheap resolution and upsamples back, standing in for the
    scale-factor-dependent render. Smaller lr_pool = larger effective render
    resolution. Weight draws are ordered so two builds with the same seed
    share weights regardless of lr_pool.
    """
    if base_channels < 1:
        raise ValueError("base_channels must be >= 1")
    if lr_pool < 0:
        raise ValueError("lr_pool must be >= 0")
    _check_input(input_shape, lr_pool, seed)
    in_c = input_shape[0]
    rng = np.random.default_rng(seed)
    wide = base_channels * 2
    hr_ops = _conv_block_ops(rng, in_c, wide)
    temporal_ops = _conv_block_ops(rng, in_c, wide)
    lr_convs = _conv_block_ops(rng, in_c, base_channels)
    lr_ops = tuple(["maxpool2"] * lr_pool) + lr_convs + tuple(["upsample2"] * lr_pool)
    fusion_ops = (
        make_conv(rng, wide + wide + base_channels, base_channels),
        "relu",
        make_conv(rng, base_channels, out_channels, kernel=1),
    )
    return build_multibranch(
        [("hr", hr_ops), ("temporal", temporal_ops), ("lr", lr_ops)],
        fusion_ops,
        input_shape,
        cached_branches={"hr", "temporal"},
    )
