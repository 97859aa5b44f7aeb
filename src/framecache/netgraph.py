"""Static network graphs and their full / cache-substituting forward passes.

A network is a DAG of blocks. A block is its name, its inputs and its
ops; the name is its only identity, and any structure beyond that (which
blocks form the encoder, at what depth) is read from the graph. A block's
inputs are an ordered list of slots, each holding one producer (another
block or the network input) and an optional resampling (``maxpool2`` /
``upsample2``). The resampled slots are concatenated along channels and
fed to the block's primitive sequence. The graph's edges, one per slot,
are derived from the blocks. A CacheConfig names the edges whose
producer-side tensors are stored on refresh frames and substituted at the
consumer slots afterwards; the blocks a cached frame runs follow from
those edges. A CacheState holds the stored tensors and writes the cached
channels of each live block's input once per set of entries, so cached
frames that share it write only the live channels.
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

SLOT_OPS = ("none", "maxpool2", "upsample2")


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
    """One node of the graph, identified by its name alone. inputs holds a
    (producer, slot op) pair per input slot, in concat order; the producer
    is a block name or INPUT. edges holds the edge into each slot, derived
    from inputs."""

    name: str
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


def _op_shape(op: ConvParams | str, shape: tuple[int, int, int], where: str) -> tuple[int, int, int]:
    """The shape a slot or block op makes of shape; where names the edge or
    block in error messages."""
    c, h, w = shape
    if isinstance(op, ConvParams):
        if c != op.in_channels:
            raise ValueError(f"{where}: conv expects {op.in_channels} channels, has {c}")
        return (op.out_channels, *conv_output_hw(op, h, w))
    if op == "maxpool2":
        if h % 2 or w % 2:
            raise ValueError(f"{where}: maxpool2 needs even dims, got {h}x{w}")
        return (c, h // 2, w // 2)
    if op == "upsample2":
        return (c, 2 * h, 2 * w)
    return shape  # "none" and "relu"


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
            _op_shape(slot_op, input_shape if src == INPUT else shapes[src], f"edge {edge.name}")
            for (src, slot_op), edge in zip(block.inputs, block.edges)
        ]
        hw = slot_shapes[0][1:]
        for s in slot_shapes[1:]:
            if s[1:] != hw:
                raise ValueError(f"block {name}: concat spatial mismatch {s[1:]} vs {hw}")
        shape = (sum(s[0] for s in slot_shapes), hw[0], hw[1])
        flops[name] = 0
        for op in block.ops:
            shape = _op_shape(op, shape, f"block {name}")
            if isinstance(op, ConvParams):
                flops[name] += conv_flops(op, shape[1], shape[2])
        shapes[name] = shape
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
    for block in blocks:
        if block.name in by_name:
            raise ValueError(f"duplicate block name {block.name!r}")
        by_name[block.name] = block
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
    (full passes only); flops_executed sums the spec's block_flops over
    executed_blocks.
    """

    output: np.ndarray
    edge_tensors: dict[str, np.ndarray] = field(default_factory=dict)
    flops_executed: int = 0
    executed_blocks: tuple[str, ...] = ()


def _apply(op: ConvParams | str, x: np.ndarray) -> np.ndarray:
    """Run one slot or block op through this module's bindings of the ops,
    so a caller that rebinds them sees every call."""
    if isinstance(op, ConvParams):
        return conv2d(x, op)
    if op == "relu":
        return relu(x)
    if op == "maxpool2":
        return maxpool2(x)
    if op == "upsample2":
        return upsample_nearest2(x)
    return x  # "none"


def _cached_value(spec: NetworkSpec, entries: dict[str, np.ndarray], edge: Edge) -> np.ndarray:
    """The cache entry for edge, checked against its producer's shape."""
    if edge.name not in entries:
        raise ValueError(f"missing cache entry for edge {edge.name}")
    value = entries[edge.name]
    expected = spec.shapes[edge.src]
    if value.shape != expected:
        raise ValueError(
            f"cache entry for {edge.name} has shape {value.shape}, expected {expected}"
        )
    return value


class CacheState:
    """Cache entries, the producer-side tensors of the cached edges, plus
    the prepared inputs of the live blocks that read them.

    The first cached pass after the entries are set applies the slot ops
    to the cached edges of each such block and writes their channels into
    the block's input buffer; later passes of the same spec write only the
    live slots' channels into it. The buffer outlives new entries, which
    only mark its cached channels for writing again; it is made again only
    for a new spec or when the dtype its parts concatenate to changes.
    Only the block's ops read the buffer, so it never becomes an output or
    an edge tensor. A state serves one pass at a time.
    """

    def __init__(self, entries: dict[str, np.ndarray]):
        self.entries = entries
        self._spec = None
        # block name -> (live slots' dtypes, buffer, per-slot channel views)
        self._inputs: dict[str, tuple] = {}
        self._current: set[str] = set()  # blocks whose cached channels hold entries

    def refresh(self, entries: dict[str, np.ndarray]) -> None:
        """Replace the entries; the next cached pass rewrites the cached
        channels of every prepared input."""
        self.entries = entries
        self._current = set()

    def block_input(self, spec: NetworkSpec, block: Block, computed: dict) -> np.ndarray:
        """The concatenated input of a block that reads a cached edge."""
        if spec is not self._spec:
            self._spec, self._inputs, self._current = spec, {}, set()
        live = {
            slot: _apply(slot_op, computed[src])
            for slot, (src, slot_op) in enumerate(block.inputs)
            if src in computed
        }
        dtypes = tuple(value.dtype for value in live.values())
        prepared = self._inputs.get(block.name)
        if block.name not in self._current or prepared[0] != dtypes:
            prepared = self._prepare(spec, block, live, dtypes, prepared)
        _, buffer, channels = prepared
        for slot, value in live.items():
            np.copyto(channels[slot], value)
        return buffer

    def _prepare(self, spec, block, live, dtypes, prepared) -> tuple:
        cached = {
            slot: _apply(slot_op, _cached_value(spec, self.entries, edge))
            for slot, ((src, slot_op), edge) in enumerate(zip(block.inputs, block.edges))
            if slot not in live
        }
        parts = [live[slot] if slot in live else cached[slot] for slot in range(len(block.inputs))]
        # The dtype concat_channels would give these parts, so writing a
        # part into the buffer casts it as concatenating would.
        dtype = np.result_type(*parts)
        if prepared is None or prepared[1].dtype != dtype:
            buffer = np.empty((sum(part.shape[0] for part in parts), *parts[0].shape[1:]), dtype=dtype)
            channels, start = [], 0
            for part in parts:
                channels.append(buffer[start:start + part.shape[0]])
                start += part.shape[0]
        else:
            buffer, channels = prepared[1:]
        for slot, value in cached.items():
            np.copyto(channels[slot], value)
        self._current.add(block.name)
        prepared = self._inputs[block.name] = (dtypes, buffer, tuple(channels))
        return prepared


def _execute(
    spec: NetworkSpec,
    x: np.ndarray,
    names: tuple[str, ...],
    cache: CacheState | None,
    edges,
) -> ForwardRecord:
    if x.shape != spec.input_shape:
        raise ValueError(f"input shape {x.shape} does not match spec {spec.input_shape}")
    entries = {} if cache is None else cache.entries
    computed: dict[str, np.ndarray] = {INPUT: x}
    for name in names:
        block = spec.blocks[name]
        if cache is not None and block.ops and any(src not in computed for src, _ in block.inputs):
            out = cache.block_input(spec, block, computed)
        else:
            # A block without ops passes its input on as its output, so it
            # never gets a prepared buffer.
            parts = [
                _apply(slot_op, computed[src] if src in computed else _cached_value(spec, entries, edge))
                for (src, slot_op), edge in zip(block.inputs, block.edges)
            ]
            out = parts[0] if len(parts) == 1 else concat_channels(parts)
        for op in block.ops:
            out = _apply(op, out)
        computed[name] = out
    record = ForwardRecord(
        output=computed[spec.output_block],
        flops_executed=sum(spec.block_flops[name] for name in names),
        executed_blocks=names,
    )
    for edge_name in edges:
        edge = spec.edge_by_name(edge_name)
        record.edge_tensors[edge_name] = computed[edge.src]
    return record


def forward_full(spec: NetworkSpec, x: np.ndarray, edges=None) -> ForwardRecord:
    """Evaluate every block; record tensors for the named edges, by
    default the configured cached edges."""
    if edges is None:
        edges = spec.cache_config.cached_edges
    return _execute(spec, x, spec.order, cache=None, edges=edges)


def forward_cached(
    spec: NetworkSpec, x: np.ndarray, cache: "dict[str, np.ndarray] | CacheState"
) -> ForwardRecord:
    """Evaluate only the live blocks, substituting cached edge tensors.

    cache is a dict of entries, whose block inputs are prepared for this
    call alone, or a CacheState, whose prepared inputs later calls reuse.
    """
    if not isinstance(cache, CacheState):
        cache = CacheState(cache)
    return _execute(spec, x, spec.live_blocks, cache=cache, edges=())


def feature_delta_profile(spec: NetworkSpec, inputs: list[np.ndarray]) -> dict[int, list[float]]:
    """Per-encoder-depth SMAPE of each frame's features against frame 0's.

    The encoder blocks are the chain joined by ``maxpool2`` slots. It
    starts at the one block whose output a ``maxpool2`` slot reads and
    which reads no ``maxpool2`` slot itself; each next block pools the one
    before it, and a block's depth is its position in the chain. Every
    ``maxpool2`` slot must lie on that one chain, else there are no
    encoder blocks to profile. An encoder block's features are the tensor
    recorded on its first outgoing edge, so every encoder block must feed
    one. Returns {depth: [value per frame]}; the frame-0 entry is always 0.
    """
    from .ops import smape

    if len(inputs) < 2:
        raise ValueError("feature_delta_profile needs at least two frames")
    pooled = [
        (src, name) for name in spec.order for src, op in spec.blocks[name].inputs if op == "maxpool2"
    ]
    starts = {src for src, _ in pooled} - {dst for _, dst in pooled} - {INPUT}
    following = dict(pooled)
    chain = list(starts) if len(starts) == 1 else []
    while chain and chain[-1] in following:
        chain.append(following[chain[-1]])
    if len(chain) != len(pooled) + 1:
        raise ValueError("network has no encoder blocks to profile")
    first_edge = {edge.src: edge.name for edge in reversed(spec.edges)}
    levels = {depth: first_edge[name] for depth, name in enumerate(chain)}
    records = [forward_full(spec, x, edges=levels.values()) for x in inputs]
    base = records[0].edge_tensors
    profile: dict[int, list[float]] = {depth: [] for depth in levels}
    for record in records:
        for depth, edge in levels.items():
            profile[depth].append(smape(record.edge_tensors[edge], base[edge]))
    return profile
