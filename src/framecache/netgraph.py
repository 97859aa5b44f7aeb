"""Static network graphs and their full / cache-substituting forward passes.

A network is a DAG of blocks. Each block names its inputs: an ordered
list of slots, each holding one producer (another block or the network
input) and an optional resampling (``maxpool2`` / ``upsample2``). The
resampled slots are concatenated along channels and fed to the block's
primitive sequence. The graph's edges, one per slot, are derived from the
blocks. A CacheConfig names the edges whose producer-side tensors are
stored on refresh frames and substituted at the consumer slots afterwards;
the blocks a cached frame runs follow from those edges.
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


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    slot: int

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}:{self.slot}"


@dataclass(frozen=True, eq=False)
class Block:
    """One node of the graph. inputs holds a (producer, slot op) pair per
    input slot, in concat order; the producer is a block name or INPUT.
    edges holds the edge into each slot, derived from inputs."""

    name: str
    ident: BlockId
    inputs: tuple[tuple[str, str], ...]
    ops: tuple  # ConvParams instances or "relu" / "maxpool2" / "upsample2"
    edges: tuple[Edge, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.name or self.name == INPUT:
            raise ValueError(f"bad block name {self.name!r}")
        if not self.inputs:
            raise ValueError(f"block {self.name} needs at least one input slot")
        for _, op in self.inputs:
            if op not in SLOT_OPS:
                raise ValueError(f"unknown slot op {op!r} on block {self.name}")
        for op in self.ops:
            if not isinstance(op, ConvParams) and op not in (
                "relu",
                "maxpool2",
                "upsample2",
            ):
                raise ValueError(f"unknown op {op!r} on block {self.name}")
        edges = tuple(Edge(src, self.name, slot) for slot, (src, _) in enumerate(self.inputs))
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class CacheConfig:
    """The edges whose stored tensors cached frames substitute."""

    label: str
    cached_edges: frozenset[str]


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable network description plus derived execution metadata.

    live_blocks are the blocks a cached frame runs, in order.
    """

    blocks: dict[str, Block]
    edges: tuple[Edge, ...]
    input_shape: tuple[int, int, int]
    output_block: str
    cache_config: CacheConfig
    order: tuple[str, ...]
    shapes: dict[str, tuple[int, int, int]]
    block_flops: dict[str, int]
    live_blocks: tuple[str, ...]

    @property
    def full_flops(self) -> int:
        return sum(self.block_flops.values())

    def cached_flops(self) -> int:
        return sum(self.block_flops[name] for name in self.live_blocks)

    def edge_by_name(self, name: str) -> Edge:
        for edge in self.edges:
            if edge.name == name:
                return edge
        raise KeyError(name)


def _toposort(blocks: dict[str, Block]) -> tuple[str, ...]:
    pending = {name: 0 for name in blocks}
    consumers: dict[str, list[str]] = {name: [] for name in blocks}
    for name, block in blocks.items():
        for src, _ in block.inputs:
            if src != INPUT:
                pending[name] += 1
                consumers[src].append(name)
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
    if op == "maxpool2":
        if h % 2 or w % 2:
            raise ValueError(f"{where}: maxpool2 needs even dims, got {h}x{w}")
        return (c, h // 2, w // 2)
    if op == "upsample2":
        return (c, 2 * h, 2 * w)
    return shape


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
    input_shape: tuple[int, int, int],
    order: tuple[str, ...],
) -> tuple[dict[str, tuple[int, int, int]], dict[str, int]]:
    shapes: dict[str, tuple[int, int, int]] = {}
    flops: dict[str, int] = {}
    for name in order:
        block = blocks[name]
        slot_shapes = [
            _slot_shape(slot_op, input_shape if src == INPUT else shapes[src], f"edge {edge.name}")
            for (src, slot_op), edge in zip(block.inputs, block.edges)
        ]
        hw = slot_shapes[0][1:]
        for s in slot_shapes[1:]:
            if s[1:] != hw:
                raise ValueError(f"block {name}: concat spatial mismatch {s[1:]} vs {hw}")
        merged = (sum(s[0] for s in slot_shapes), hw[0], hw[1])
        shapes[name], flops[name] = _ops_shape_flops(block, merged)
    return shapes, flops


def _live_blocks(
    blocks: dict[str, Block],
    order: tuple[str, ...],
    output_block: str,
    cached_edges: frozenset[str],
) -> tuple[str, ...]:
    """The output block and every block it reaches backwards without
    crossing a cached edge, in order.

    Raises ValueError if a cached edge does not exist or leaves one of
    these blocks.
    """
    producers = {edge.name: edge.src for block in blocks.values() for edge in block.edges}
    for name in cached_edges:
        if name not in producers:
            raise ValueError(f"cached edge {name!r} does not exist")
    live = {output_block}
    for name in reversed(order):
        if name in live:
            live.update(
                edge.src
                for edge in blocks[name].edges
                if edge.src != INPUT and edge.name not in cached_edges
            )
    for name in cached_edges:
        if producers[name] in live:
            raise ValueError(f"cached edge {name!r} is produced by live block {producers[name]!r}")
    return tuple(name for name in order if name in live)


def make_network_spec(
    blocks: list[Block],
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
    edges = tuple(edge for block in blocks for edge in block.edges)
    for edge in edges:
        if edge.src != INPUT and edge.src not in by_name:
            raise ValueError(f"edge {edge.name} references unknown source")
    if output_block not in by_name:
        raise ValueError(f"output block {output_block!r} does not exist")
    order = _toposort(by_name)
    shapes, block_flops = _infer_shapes(by_name, tuple(input_shape), order)
    unused = set(order) - set(_live_blocks(by_name, order, output_block, frozenset()))
    if unused:
        raise ValueError(f"blocks {sorted(unused)} do not feed output block {output_block!r}")
    if cache_config is None:
        cache_config = CacheConfig("none", frozenset())
    return NetworkSpec(
        blocks=by_name,
        edges=edges,
        input_shape=tuple(input_shape),
        output_block=output_block,
        cache_config=cache_config,
        order=order,
        shapes=shapes,
        block_flops=block_flops,
        live_blocks=_live_blocks(by_name, order, output_block, cache_config.cached_edges),
    )


def replace_cache_config(spec: NetworkSpec, config: CacheConfig) -> NetworkSpec:
    live = _live_blocks(spec.blocks, spec.order, spec.output_block, config.cached_edges)
    return replace(spec, cache_config=config, live_blocks=live)


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
    names: tuple[str, ...],
    cache: dict[str, np.ndarray] | None,
    edges,
) -> ForwardRecord:
    if x.shape != spec.input_shape:
        raise ValueError(f"input shape {x.shape} does not match spec {spec.input_shape}")
    computed: dict[str, np.ndarray] = {INPUT: x}
    flops = 0
    for name in names:
        block = spec.blocks[name]
        parts = []
        for slot, (src, slot_op) in enumerate(block.inputs):
            if src in computed:
                value = computed[src]
            else:
                edge = block.edges[slot]
                if cache is None or edge.name not in cache:
                    raise ValueError(f"missing cache entry for edge {edge.name}")
                value = cache[edge.name]
                expected = spec.shapes[src]
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
    record = ForwardRecord(
        output=computed[spec.output_block],
        flops_executed=flops,
        executed_blocks=names,
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
    return _execute(spec, x, spec.order, cache=None, edges=edges)


def forward_cached(
    spec: NetworkSpec, x: np.ndarray, cache: dict[str, np.ndarray]
) -> ForwardRecord:
    """Evaluate only the live blocks, substituting cached edge tensors."""
    return _execute(spec, x, spec.live_blocks, cache=cache, edges=())


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

