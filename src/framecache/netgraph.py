"""Static network graphs and their full / cache-substituting forward passes.

A network is a DAG of blocks. Each block owns an ordered list of input
slots; a slot receives exactly one producer tensor (another block's output
or the network input), optionally resampled (``maxpool2`` / ``upsample2``)
before all slots are concatenated along channels and fed to the block's
primitive sequence. A CacheConfig names the blocks that stay live on cached
frames and the edges whose producer-side tensors are stored on refresh
frames and substituted at the consumer slots afterwards.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .ops import (
    ConvParams,
    concat_channels,
    conv2d,
    conv_flops,
    conv_output_hw,
    maxpool2,
    relu,
    upsample_nearest2,
)

INPUT = "input"

KIND_UNET = "unet"
KIND_UNETPP = "unetpp"
KIND_BRANCH = "branch"
KIND_FUSION = "fusion"

SLOT_OPS = ("none", "maxpool2", "upsample2")


@dataclass(frozen=True)
class BlockId:
    """Structured block identity: kind, depth (resolution level) and index.

    For plain U-Nets index 0 marks the encoder block at that depth and
    index 1 its mirror decoder; for the nested grid index is the position
    along the skip pathway; branches use index for their list position.
    """

    kind: str
    depth: int
    index: int

    def __post_init__(self):
        if self.kind not in (KIND_UNET, KIND_UNETPP, KIND_BRANCH, KIND_FUSION):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.depth < 0 or self.index < 0:
            raise ValueError("depth and index must be non-negative")


@dataclass(frozen=True, eq=False)
class Block:
    name: str
    ident: BlockId
    slot_ops: tuple[str, ...]
    ops: tuple  # ConvParams instances or "relu" / "maxpool2" / "upsample2"

    def __post_init__(self):
        if not self.name or self.name == INPUT:
            raise ValueError(f"bad block name {self.name!r}")
        if not self.slot_ops:
            raise ValueError(f"block {self.name} needs at least one input slot")
        for op in self.slot_ops:
            if op not in SLOT_OPS:
                raise ValueError(f"unknown slot op {op!r} on block {self.name}")
        for op in self.ops:
            if not isinstance(op, ConvParams) and op not in (
                "relu",
                "maxpool2",
                "upsample2",
            ):
                raise ValueError(f"unknown op {op!r} on block {self.name}")


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    slot: int

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}:{self.slot}"


@dataclass(frozen=True)
class CacheConfig:
    """Which blocks run on cached frames and which edges are substituted."""

    label: str
    cached_edges: frozenset[str]
    live_blocks: frozenset[str]


def full_live_config(block_names, label: str = "none") -> CacheConfig:
    """A no-op config: every block live, nothing cached."""
    return CacheConfig(label=label, cached_edges=frozenset(), live_blocks=frozenset(block_names))


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable network description plus derived execution metadata."""

    blocks: dict[str, Block]
    edges: tuple[Edge, ...]
    input_shape: tuple[int, int, int]
    output_block: str
    cache_config: CacheConfig
    order: tuple[str, ...]
    shapes: dict[str, tuple[int, int, int]]
    block_flops: dict[str, int]

    @property
    def full_flops(self) -> int:
        return sum(self.block_flops.values())

    def cached_flops(self) -> int:
        return sum(self.block_flops[name] for name in self.cache_config.live_blocks)

    def edge_by_name(self, name: str) -> Edge:
        for edge in self.edges:
            if edge.name == name:
                return edge
        raise KeyError(name)


def _toposort(blocks: dict[str, Block], edges: tuple[Edge, ...]) -> tuple[str, ...]:
    pending = {name: 0 for name in blocks}
    consumers: dict[str, list[str]] = {name: [] for name in blocks}
    for edge in edges:
        if edge.src == INPUT:
            continue
        pending[edge.dst] += 1
        consumers[edge.src].append(edge.dst)
    ready = sorted(name for name, n in pending.items() if n == 0)
    order: list[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for dst in consumers[name]:
            pending[dst] -= 1
            if pending[dst] == 0:
                ready.append(dst)
        ready.sort()
    if len(order) != len(blocks):
        raise ValueError("network graph contains a cycle")
    return tuple(order)


def _slot_shape(op: str, shape: tuple[int, int, int], where: str) -> tuple[int, int, int]:
    c, h, w = shape
    if op == "none":
        return shape
    if op == "maxpool2":
        if h % 2 or w % 2:
            raise ValueError(f"{where}: maxpool2 needs even dims, got {h}x{w}")
        return (c, h // 2, w // 2)
    if op == "upsample2":
        return (c, 2 * h, 2 * w)
    raise ValueError(f"{where}: unknown slot op {op!r}")


def _ops_shape_flops(block: Block, shape: tuple[int, int, int]) -> tuple[tuple[int, int, int], int]:
    c, h, w = shape
    flops = 0
    for op in block.ops:
        if isinstance(op, ConvParams):
            if c != op.in_channels:
                raise ValueError(
                    f"block {block.name}: conv expects {op.in_channels} channels, has {c}"
                )
            h, w = conv_output_hw(op, h, w)
            c = op.out_channels
            flops += conv_flops(op, h, w)
        elif op == "maxpool2":
            if h % 2 or w % 2:
                raise ValueError(f"block {block.name}: maxpool2 needs even dims, got {h}x{w}")
            h, w = h // 2, w // 2
        elif op == "upsample2":
            h, w = 2 * h, 2 * w
        # relu keeps the shape
    return (c, h, w), flops


def _infer_shapes(
    blocks: dict[str, Block],
    edges: tuple[Edge, ...],
    input_shape: tuple[int, int, int],
    order: tuple[str, ...],
) -> tuple[dict[str, tuple[int, int, int]], dict[str, int]]:
    by_slot: dict[tuple[str, int], Edge] = {}
    for edge in edges:
        key = (edge.dst, edge.slot)
        if key in by_slot:
            raise ValueError(f"slot {edge.slot} of block {edge.dst} is fed twice")
        by_slot[key] = edge
    shapes: dict[str, tuple[int, int, int]] = {}
    flops: dict[str, int] = {}
    for name in order:
        block = blocks[name]
        slot_shapes = []
        for slot, slot_op in enumerate(block.slot_ops):
            edge = by_slot.get((name, slot))
            if edge is None:
                raise ValueError(f"slot {slot} of block {name} has no incoming edge")
            src_shape = input_shape if edge.src == INPUT else shapes[edge.src]
            slot_shapes.append(_slot_shape(slot_op, src_shape, f"edge {edge.name}"))
        hw = slot_shapes[0][1:]
        for s in slot_shapes[1:]:
            if s[1:] != hw:
                raise ValueError(f"block {name}: concat spatial mismatch {s[1:]} vs {hw}")
        merged = (sum(s[0] for s in slot_shapes), hw[0], hw[1])
        shapes[name], flops[name] = _ops_shape_flops(block, merged)
    return shapes, flops


def validate_cache_config(
    blocks: dict[str, Block],
    edges: tuple[Edge, ...],
    output_block: str,
    config: CacheConfig,
) -> None:
    """Static satisfiability check for a cache configuration.

    Every live block must be able to source each input slot from another
    live block, the network input, or a cached edge; cached edges must not
    be produced by live blocks; the output block must stay live.
    """
    edge_names = {edge.name: edge for edge in edges}
    for name in config.cached_edges:
        if name not in edge_names:
            raise ValueError(f"cached edge {name!r} does not exist")
    for name in config.live_blocks:
        if name not in blocks:
            raise ValueError(f"live block {name!r} does not exist")
    if output_block not in config.live_blocks:
        raise ValueError(f"output block {output_block!r} must be live")
    for name in config.cached_edges:
        src = edge_names[name].src
        if src in config.live_blocks:
            raise ValueError(f"cached edge {name!r} is produced by live block {src!r}")
    for edge in edges:
        if edge.dst not in config.live_blocks:
            continue
        if edge.src == INPUT or edge.src in config.live_blocks:
            continue
        if edge.name not in config.cached_edges:
            raise ValueError(
                f"live block {edge.dst!r} needs edge {edge.name!r} which is "
                "neither live-produced nor cached"
            )


def make_network_spec(
    blocks: list[Block],
    edges: list[Edge],
    input_shape: tuple[int, int, int],
    output_block: str,
    cache_config: CacheConfig | None = None,
) -> NetworkSpec:
    """Validate structure, infer shapes and freeze a NetworkSpec."""
    if len(input_shape) != 3 or min(input_shape) < 1:
        raise ValueError(f"bad input shape {input_shape}")
    by_name: dict[str, Block] = {}
    idents = set()
    for block in blocks:
        if block.name in by_name:
            raise ValueError(f"duplicate block name {block.name!r}")
        if block.ident in idents:
            raise ValueError(f"duplicate block id {block.ident}")
        by_name[block.name] = block
        idents.add(block.ident)
    for edge in edges:
        if edge.src != INPUT and edge.src not in by_name:
            raise ValueError(f"edge {edge.name} references unknown source")
        if edge.dst not in by_name:
            raise ValueError(f"edge {edge.name} references unknown destination")
        if edge.slot < 0 or edge.slot >= len(by_name[edge.dst].slot_ops):
            raise ValueError(f"edge {edge.name} targets a slot that does not exist")
    if output_block not in by_name:
        raise ValueError(f"output block {output_block!r} does not exist")
    edge_tuple = tuple(edges)
    order = _toposort(by_name, edge_tuple)
    shapes, block_flops = _infer_shapes(by_name, edge_tuple, tuple(input_shape), order)
    if cache_config is None:
        cache_config = full_live_config(by_name)
    validate_cache_config(by_name, edge_tuple, output_block, cache_config)
    return NetworkSpec(
        blocks=by_name,
        edges=edge_tuple,
        input_shape=tuple(input_shape),
        output_block=output_block,
        cache_config=cache_config,
        order=order,
        shapes=shapes,
        block_flops=block_flops,
    )


def replace_cache_config(spec: NetworkSpec, config: CacheConfig) -> NetworkSpec:
    validate_cache_config(spec.blocks, spec.edges, spec.output_block, config)
    return replace(spec, cache_config=config)


# ---------------------------------------------------------------------------
# Forward execution
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ForwardRecord:
    """Result of one forward pass.

    edge_tensors holds the producer-side tensor for every recorded edge
    (full passes only).
    """

    output: np.ndarray
    edge_tensors: dict[str, np.ndarray] = field(default_factory=dict)
    flops_executed: int = 0
    executed_blocks: tuple[str, ...] = ()


def _run_ops(block: Block, x: np.ndarray) -> tuple[np.ndarray, int]:
    flops = 0
    for op in block.ops:
        if isinstance(op, ConvParams):
            x = conv2d(x, op)
            flops += conv_flops(op, x.shape[1], x.shape[2])
        elif op == "relu":
            x = relu(x)
        elif op == "maxpool2":
            x = maxpool2(x)
        else:
            x = upsample_nearest2(x)
    return x, flops


def _apply_slot_op(op: str, x: np.ndarray) -> np.ndarray:
    if op == "none":
        return x
    if op == "maxpool2":
        return maxpool2(x)
    return upsample_nearest2(x)


def _is_encoder(ident: BlockId) -> bool:
    return ident.kind in (KIND_UNET, KIND_UNETPP) and ident.index == 0


def _execute(
    spec: NetworkSpec,
    x: np.ndarray,
    live: frozenset[str] | None,
    cache: dict[str, np.ndarray] | None,
    edges,
) -> ForwardRecord:
    if x.shape != spec.input_shape:
        raise ValueError(f"input shape {x.shape} does not match spec {spec.input_shape}")
    by_slot = {(e.dst, e.slot): e for e in spec.edges}
    computed: dict[str, np.ndarray] = {INPUT: x}
    flops = 0
    executed: list[str] = []
    for name in spec.order:
        if live is not None and name not in live:
            continue
        block = spec.blocks[name]
        parts = []
        for slot, slot_op in enumerate(block.slot_ops):
            edge = by_slot[(name, slot)]
            if edge.src in computed:
                value = computed[edge.src]
            else:
                if cache is None or edge.name not in cache:
                    raise ValueError(f"missing cache entry for edge {edge.name}")
                value = cache[edge.name]
                expected = spec.shapes[edge.src]
                if value.shape != expected:
                    raise ValueError(
                        f"cache entry for {edge.name} has shape {value.shape}, "
                        f"expected {expected}"
                    )
            parts.append(_apply_slot_op(slot_op, value))
        merged = parts[0] if len(parts) == 1 else concat_channels(parts)
        out, block_flops = _run_ops(block, merged)
        computed[name] = out
        flops += block_flops
        executed.append(name)
    record = ForwardRecord(
        output=computed[spec.output_block],
        flops_executed=flops,
        executed_blocks=tuple(executed),
    )
    for edge_name in edges:
        edge = spec.edge_by_name(edge_name)
        record.edge_tensors[edge_name] = computed[edge.src]
    return record


def forward_full(spec: NetworkSpec, x: np.ndarray, edges=None) -> ForwardRecord:
    """Evaluate every block; record tensors for the named edges.

    edges defaults to the configured cached edges, recorded in the
    iteration order of that frozenset.
    """
    if edges is None:
        edges = spec.cache_config.cached_edges
    return _execute(spec, x, live=None, cache=None, edges=edges)


def forward_cached(
    spec: NetworkSpec, x: np.ndarray, cache: dict[str, np.ndarray]
) -> ForwardRecord:
    """Evaluate only the live blocks, substituting cached edge tensors."""
    return _execute(spec, x, live=spec.cache_config.live_blocks, cache=cache, edges=())


def feature_delta_profile(spec: NetworkSpec, inputs: list[np.ndarray]) -> dict[int, list[float]]:
    """Per-encoder-depth SMAPE of each frame's features against frame 0's.

    An encoder block's features are the tensor recorded on its first
    outgoing edge, so every encoder block must feed one. Returns
    {depth: [value per frame]}; the frame-0 entry is always 0.
    """
    from .ops import smape

    if len(inputs) < 2:
        raise ValueError("feature_delta_profile needs at least two frames")
    first_edge = {edge.src: edge.name for edge in reversed(spec.edges)}
    levels = {}
    for name in spec.order:
        ident = spec.blocks[name].ident
        if _is_encoder(ident):
            levels[ident.depth] = first_edge[name]
    if not levels:
        raise ValueError("network has no encoder blocks to profile")
    records = [forward_full(spec, x, edges=levels.values()) for x in inputs]
    base = records[0].edge_tensors
    profile: dict[int, list[float]] = {depth: [] for depth in sorted(levels)}
    for record in records:
        for depth in profile:
            edge = levels[depth]
            profile[depth].append(smape(record.edge_tensors[edge], base[edge]))
    return profile

