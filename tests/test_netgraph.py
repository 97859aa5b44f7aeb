"""Tests for network graph construction, execution and FLOPs accounting.

The FLOPs oracle below recomputes every block cost from the architecture
definition alone (channel widths, spatial sizes, kernel sizes) so the
library's per-block ledger is checked against an independent derivation.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecache import engine, netgraph
from framecache.builders import (
    build_multibranch,
    build_superres,
    build_unet,
    build_unetpp,
    make_conv,
    set_unet_level,
    unet_level_config,
    unetpp_config_a,
    unetpp_config_b,
)
from framecache.netgraph import (
    INPUT,
    Block,
    BlockId,
    CacheConfig,
    Edge,
    KIND_BRANCH,
    feature_delta_profile,
    forward_cached,
    forward_full,
    make_network_spec,
    replace_cache_config,
)
from framecache.ops import ConvParams
from framecache.policies import DeltaSmape, EveryN
from framecache.workload import SceneConfig, generate


def conv_cost(kernel, in_c, out_c, h, w):
    return 2 * kernel * kernel * in_c * out_c * h * w


def block_cost(in_c, out_c, h, w):
    # Standard two-conv block: 3x3 in->out then 3x3 out->out.
    return conv_cost(3, in_c, out_c, h, w) + conv_cost(3, out_c, out_c, h, w)


def unet_block_costs(depth, base, in_c, out_c, h, w):
    per = {"enc0": block_cost(in_c, base, h, w)}
    for i in range(1, depth):
        per[f"enc{i}"] = block_cost(base << (i - 1), base << i, h >> i, w >> i)
    for i in range(depth - 1):
        per[f"dec{i}"] = block_cost((base << (i + 1)) + (base << i), base << i, h >> i, w >> i)
    per["head"] = conv_cost(1, base, out_c, h, w)
    return per


def unetpp_block_costs(depth, base, in_c, out_c, h, w):
    per = {"x0.0": block_cost(in_c, base, h, w)}
    for i in range(1, depth + 1):
        per[f"x{i}.0"] = block_cost(base << (i - 1), base << i, h >> i, w >> i)
    for i in range(depth):
        row = base << i
        for j in range(1, depth - i + 1):
            per[f"x{i}.{j}"] = block_cost(j * row + (row << 1), row, h >> i, w >> i)
    per["head"] = conv_cost(1, base, out_c, h, w)
    return per


def superres_block_costs(in_c, base, pool, out_c, h, w):
    wide = base * 2
    return {
        "hr": block_cost(in_c, wide, h, w),
        "temporal": block_cost(in_c, wide, h, w),
        "lr": block_cost(in_c, base, h >> pool, w >> pool),
        "fuse": conv_cost(3, wide + wide + base, base, h, w)
        + conv_cost(1, base, out_c, h, w),
    }


def unet_live_names(depth, level):
    return {f"enc{i}" for i in range(level)} | {f"dec{i}" for i in range(level)} | {"head"}


def random_input(spec, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=spec.input_shape).astype(np.float32)


def identity_conv(channels):
    weights = np.zeros((channels, channels, 1, 1), dtype=np.float32)
    for c in range(channels):
        weights[c, c, 0, 0] = 1.0
    return ConvParams(
        in_channels=channels,
        out_channels=channels,
        kernel_h=1,
        kernel_w=1,
        weights=weights,
        bias=np.zeros(channels, dtype=np.float32),
    )


class TestUnetStructure:
    """Block naming, shape inference and level configs for the encoder-decoder."""

    def test_depth2_block_names_and_order(self):
        spec = build_unet(2, 4, (3, 16, 16))
        assert set(spec.blocks) == {"enc0", "enc1", "dec0", "head"}
        order = {name: i for i, name in enumerate(spec.order)}
        assert order["enc0"] < order["enc1"] < order["dec0"] < order["head"]

    def test_encoder_shapes_double_channels_halve_space(self):
        spec = build_unet(4, 8, (6, 48, 48))
        for i in range(4):
            assert spec.shapes[f"enc{i}"] == (8 << i, 48 >> i, 48 >> i)
        for i in range(3):
            assert spec.shapes[f"dec{i}"] == (8 << i, 48 >> i, 48 >> i)
        assert spec.shapes["head"] == (6, 48, 48)

    def test_output_channels_default_to_input(self):
        spec = build_unet(2, 4, (5, 16, 16))
        assert spec.shapes["head"][0] == 5
        spec = build_unet(2, 4, (5, 16, 16), out_channels=2)
        assert spec.shapes["head"][0] == 2

    def test_indivisible_spatial_size_rejected(self):
        with pytest.raises(ValueError):
            build_unet(4, 8, (6, 60, 60))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_unet(1, 8, (6, 16, 16))
        with pytest.raises(ValueError):
            build_unet(2, 0, (6, 16, 16))

    def test_level_config_cached_edge(self):
        assert unet_level_config(4, 1).cached_edges == frozenset({"dec1->dec0:0"})
        assert unet_level_config(4, 2).cached_edges == frozenset({"dec2->dec1:0"})
        assert unet_level_config(4, 3).cached_edges == frozenset({"enc3->dec2:0"})
        assert unet_level_config(2, 1).cached_edges == frozenset({"enc1->dec0:0"})

    def test_level_config_live_blocks(self):
        spec = set_unet_level(build_unet(4, 4, (3, 16, 16)), 1)
        assert frozenset(spec.live_blocks) == frozenset({"enc0", "dec0", "head"})
        assert spec.cache_config.label == "unet_level_1"

    def test_level_config_range_checked(self):
        with pytest.raises(ValueError):
            unet_level_config(4, 0)
        with pytest.raises(ValueError):
            unet_level_config(4, 4)

    def test_set_unet_level_swaps_config(self):
        spec = build_unet(4, 4, (3, 32, 32))
        deeper = set_unet_level(spec, 3)
        assert deeper.cache_config == unet_level_config(4, 3)
        # The original spec is untouched.
        assert spec.cache_config == unet_level_config(4, 1)
        assert deeper.full_flops == spec.full_flops


class TestUnetppStructure:
    """Grid naming and the two nested-skip cache configs."""

    def test_depth2_grid_names(self):
        spec = build_unetpp(2, 4, (3, 16, 16))
        expected = {"x0.0", "x1.0", "x2.0", "x0.1", "x1.1", "x0.2", "head"}
        assert set(spec.blocks) == expected

    def test_grid_shapes(self):
        spec = build_unetpp(3, 4, (3, 24, 24))
        for i in range(4):
            assert spec.shapes[f"x{i}.0"] == (4 << i, 24 >> i, 24 >> i)
        for i in range(3):
            for j in range(1, 3 - i + 1):
                assert spec.shapes[f"x{i}.{j}"] == (4 << i, 24 >> i, 24 >> i)

    def test_dense_row_edges(self):
        spec = build_unetpp(2, 4, (3, 16, 16))
        into_top = sorted(e.name for e in spec.edges if e.dst == "x0.2")
        assert into_top == ["x0.0->x0.2:0", "x0.1->x0.2:1", "x1.1->x0.2:2"]

    def test_config_b_edges(self):
        config = unetpp_config_b(2)
        assert config.cached_edges == frozenset({"x1.0->x0.1:1", "x1.1->x0.2:2"})
        spec = replace_cache_config(build_unetpp(2, 4, (3, 16, 16)), config)
        assert frozenset(spec.live_blocks) == frozenset({"x0.0", "x0.1", "x0.2", "head"})

    def test_config_a_edges(self):
        config = unetpp_config_a(2)
        assert config.cached_edges == frozenset({"x0.1->x0.2:1"})
        spec = replace_cache_config(build_unetpp(2, 4, (3, 16, 16)), config)
        assert frozenset(spec.live_blocks) == frozenset(
            {"x0.0", "x1.0", "x2.0", "x1.1", "x0.2", "head"}
        )

    def test_config_a_depth3_edges(self):
        config = unetpp_config_a(3)
        assert config.cached_edges == frozenset(
            {"x0.1->x0.3:1", "x0.2->x0.3:2", "x1.1->x1.2:1"}
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            build_unetpp(0, 4, (3, 16, 16))
        with pytest.raises(ValueError):
            build_unetpp(2, 4, (3, 18, 18))


class TestMultibranchStructure:
    """Branch fusion networks and their cache configs."""

    def test_reserved_and_duplicate_names(self):
        ops = (identity_conv(3),)
        with pytest.raises(ValueError):
            build_multibranch([("fuse", ops)], ops, (3, 8, 8))
        with pytest.raises(ValueError):
            build_multibranch([("a", ops), ("a", ops)], (identity_conv(6),), (3, 8, 8))
        with pytest.raises(ValueError):
            build_multibranch([], ops, (3, 8, 8))

    def test_unknown_cached_branch_rejected(self):
        ops = (identity_conv(3),)
        with pytest.raises(ValueError):
            build_multibranch([("a", ops)], ops, (3, 8, 8), cached_branches={"b"})

    def test_default_caches_all_but_last_branch(self):
        ops = (identity_conv(3),)
        spec = build_multibranch(
            [("a", ops), ("b", ops), ("c", ops)], (identity_conv(9),), (3, 8, 8)
        )
        assert spec.cache_config.cached_edges == frozenset({"a->fuse:0", "b->fuse:1"})
        assert frozenset(spec.live_blocks) == frozenset({"c", "fuse"})
        assert spec.cache_config.label == "multibranch[a,b]"

    def test_superres_branch_layout(self):
        spec = build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=1)
        assert set(spec.blocks) == {"hr", "temporal", "lr", "fuse"}
        assert spec.cache_config.cached_edges == frozenset(
            {"hr->fuse:0", "temporal->fuse:1"}
        )
        assert spec.shapes["fuse"] == (3, 16, 16)

    def test_superres_weights_shared_across_lr_pool(self):
        # Same seed must draw identical weights whatever the pooling depth.
        shallow = build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=0, seed=9)
        deep = build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=2, seed=9)
        for name in ("hr", "temporal", "lr", "fuse"):
            convs_a = [op for op in shallow.blocks[name].ops if isinstance(op, ConvParams)]
            convs_b = [op for op in deep.blocks[name].ops if isinstance(op, ConvParams)]
            assert len(convs_a) == len(convs_b)
            for conv_a, conv_b in zip(convs_a, convs_b):
                assert np.array_equal(conv_a.weights, conv_b.weights)
                assert np.array_equal(conv_a.bias, conv_b.bias)

    def test_superres_lr_pool_validation(self):
        with pytest.raises(ValueError):
            build_superres(input_shape=(6, 16, 16), lr_pool=-1)
        with pytest.raises(ValueError):
            build_superres(input_shape=(6, 18, 18), lr_pool=2)


class TestFlopsAccounting:
    """Per-block FLOPs ledger against the closed-form oracle."""

    def test_unet_frozen_totals(self):
        spec = build_unet(4, 8, (6, 48, 48))
        assert spec.full_flops == 48660480
        cached = [set_unet_level(spec, level).cached_flops() for level in (1, 2, 3)]
        assert cached == [15482880, 30081024, 44679168]

    def test_unetpp_frozen_totals(self):
        spec = build_unetpp(2, 8, (6, 48, 48))
        assert spec.full_flops == 47333376
        assert spec.cached_flops() == 28753920
        assert replace_cache_config(spec, unetpp_config_a(2)).cached_flops() == 36716544

    def test_unet_blocks_match_oracle(self):
        for depth, base, in_c, out_c, hw in [
            (2, 4, 3, 3, 16),
            (3, 8, 6, 2, 24),
            (4, 8, 6, 6, 48),
        ]:
            spec = build_unet(depth, base, (in_c, hw, hw), out_channels=out_c)
            assert spec.block_flops == unet_block_costs(depth, base, in_c, out_c, hw, hw)

    def test_unetpp_blocks_match_oracle(self):
        for depth, base, hw in [(1, 4, 16), (2, 8, 48), (3, 4, 24)]:
            spec = build_unetpp(depth, base, (6, hw, hw))
            assert spec.block_flops == unetpp_block_costs(depth, base, 6, 6, hw, hw)

    def test_superres_blocks_match_oracle(self):
        for pool in (0, 1, 2):
            spec = build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=pool)
            assert spec.block_flops == superres_block_costs(6, 4, pool, 3, 16, 16)
        spec = build_superres()
        assert spec.full_flops == 76210176
        assert spec.cached_flops() == 24305664

    def test_cached_plus_skipped_equals_full(self):
        # The central ledger identity, checked over a grid of configurations.
        cases = []
        for depth in (2, 3, 4):
            spec = build_unet(depth, 4, (3, 32, 32))
            cases.extend(set_unet_level(spec, lv) for lv in range(1, depth))
        for depth in (1, 2, 3):
            spec = build_unetpp(depth, 4, (3, 24, 24))
            cases.append(spec)
            cases.append(replace_cache_config(spec, unetpp_config_a(depth)))
        cases.append(build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=1))
        for spec in cases:
            live = spec.live_blocks
            skipped = sum(f for name, f in spec.block_flops.items() if name not in live)
            assert spec.cached_flops() + skipped == spec.full_flops

    def test_unet_cached_matches_live_oracle(self):
        per = unet_block_costs(4, 8, 6, 6, 48, 48)
        spec = build_unet(4, 8, (6, 48, 48))
        for level in (1, 2, 3):
            live = unet_live_names(4, level)
            expected = sum(cost for name, cost in per.items() if name in live)
            assert set_unet_level(spec, level).cached_flops() == expected

    def test_cached_fraction_increases_with_level(self):
        spec = build_unet(4, 8, (6, 48, 48))
        fractions = [
            set_unet_level(spec, lv).cached_flops() / spec.full_flops for lv in (1, 2, 3)
        ]
        assert fractions[0] < fractions[1] < fractions[2]
        assert fractions[0] < 0.55


class TestConvInstrumentationContract:
    """Every conv goes through the module binding netgraph.conv2d.

    Per-layer tracing patches that name, so a conv that bypassed it would
    vanish from the traced conv counts and times.
    """

    def test_one_call_per_conv_in_executed_blocks(self, monkeypatch):
        calls = []
        original = netgraph.conv2d

        def counting_conv2d(x, params):
            calls.append(params)
            return original(x, params)

        monkeypatch.setattr(netgraph, "conv2d", counting_conv2d)
        spec = set_unet_level(build_unet(4, 8, (6, 48, 48)), 1)

        def convs(names):
            return [op for n in names for op in spec.blocks[n].ops if isinstance(op, ConvParams)]

        x = random_input(spec, 0)
        full = forward_full(spec, x)
        assert len(calls) == len(convs(spec.blocks))
        assert {id(p) for p in calls} == {id(p) for p in convs(spec.blocks)}
        calls.clear()
        forward_cached(spec, x, full.edge_tensors)
        live = convs(spec.live_blocks)
        assert len(calls) == len(live) == 5
        assert {id(p) for p in calls} == {id(p) for p in live}

    @pytest.mark.parametrize("policy", [EveryN(3), DeltaSmape(0.2)])
    def test_one_call_per_conv_through_the_sequence_runner(self, monkeypatch, policy):
        # Each executed conv is one conv2d call, however many bands of
        # output rows it multiplies, on the passes run_sequence makes.
        calls = []
        original = netgraph.conv2d

        def counting_conv2d(x, params):
            calls.append(params)
            return original(x, params)

        passes = []
        for name in ("forward_full", "forward_cached"):
            inner = getattr(engine, name)

            def delimited(*args, _inner=inner, _name=name, **kwargs):
                start = len(calls)
                result = _inner(*args, **kwargs)
                passes.append((_name, calls[start:]))
                return result

            monkeypatch.setattr(engine, name, delimited)
        monkeypatch.setattr(netgraph, "conv2d", counting_conv2d)
        spec = build_superres((6, 16, 16), base_channels=4, lr_pool=1, seed=2)
        frames = generate(SceneConfig(seed=1, channels=6, height=16, width=16, pan_speed=1.0), 10)
        report = engine.run_sequence(spec, frames.frames, policy)

        def convs(names):
            return [op for n in names for op in spec.blocks[n].ops if isinstance(op, ConvParams)]

        kinds = [name for name, _ in passes]
        assert kinds == ["forward_full" if f.refreshed else "forward_cached" for f in report.frames]
        assert kinds.count("forward_cached") >= 2
        for name, made in passes:
            expected = convs(spec.blocks if name == "forward_full" else spec.live_blocks)
            assert sorted(map(id, made)) == sorted(map(id, expected))


class TestSubstitutionEquivalence:
    """Cached passes reusing full-pass tensors must match bit for bit."""

    def check(self, spec, seed):
        x = random_input(spec, seed)
        full = forward_full(spec, x)
        assert set(full.edge_tensors) == set(spec.cache_config.cached_edges)
        cached = forward_cached(spec, x, full.edge_tensors)
        assert cached.output.dtype == np.float32
        assert np.array_equal(full.output, cached.output)
        assert cached.flops_executed == spec.cached_flops()
        assert full.flops_executed == spec.full_flops
        assert cached.executed_blocks == spec.live_blocks

    def test_unet_all_depths_and_levels(self):
        for depth in (2, 3, 4):
            base_spec = build_unet(depth, 4, (3, 32, 32), seed=depth)
            for level in range(1, depth):
                spec = set_unet_level(base_spec, level)
                for seed in range(3):
                    self.check(spec, seed)

    def test_unetpp_both_configs(self):
        for depth in (2, 3):
            spec = build_unetpp(depth, 4, (3, 24, 24), seed=depth)
            for config in (unetpp_config_b(depth), unetpp_config_a(depth)):
                for seed in range(3):
                    self.check(replace_cache_config(spec, config), seed)

    def test_superres_and_multibranch(self):
        for pool in (0, 1, 2):
            spec = build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=pool)
            for seed in range(3):
                self.check(spec, seed)
        rng = np.random.default_rng(3)
        branches = [
            ("edges", (make_conv(rng, 3, 4), "relu")),
            ("coarse", ("maxpool2", make_conv(rng, 3, 4), "relu", "upsample2")),
            ("tones", (make_conv(rng, 3, 4, kernel=1),)),
        ]
        fusion = (make_conv(rng, 12, 2), "relu", make_conv(rng, 2, 2, kernel=1))
        for cached in ({"edges"}, {"edges", "coarse"}, {"coarse", "tones"}):
            spec = build_multibranch(branches, fusion, (3, 16, 16), cached_branches=cached)
            for seed in range(3):
                self.check(spec, seed)

    def test_frozen_forward_checksum(self):
        spec = build_unet(2, 4, (3, 16, 16), seed=5)
        x = random_input(spec, 11)
        record = forward_full(spec, x)
        assert record.executed_blocks == ("enc0", "enc1", "dec0", "head")
        assert float(record.output.sum()) == pytest.approx(100.74522399902344, abs=0.0)
        assert float(record.output[0, 0, 0]) == pytest.approx(0.012864504009485245, abs=0.0)
        assert float(record.output[-1, -1, -1]) == pytest.approx(0.05404036119580269, abs=0.0)

    def test_frozen_superres_checksum(self):
        spec = build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=1, seed=9)
        x = random_input(spec, 12)
        record = forward_full(spec, x)
        assert record.output.shape == (3, 16, 16)
        assert float(record.output.sum()) == pytest.approx(-46.59983825683594, abs=0.0)


class TestForwardValidation:
    """Input and cache-content checks on the execution paths."""

    def test_wrong_input_shape_rejected(self):
        spec = build_unet(2, 4, (3, 16, 16))
        with pytest.raises(ValueError, match="input shape"):
            forward_full(spec, np.zeros((3, 8, 8), dtype=np.float32))

    def test_missing_cache_entry_rejected(self):
        spec = build_unet(2, 4, (3, 16, 16))
        x = random_input(spec, 0)
        with pytest.raises(ValueError, match="missing cache entry"):
            forward_cached(spec, x, {})

    def test_misshaped_cache_entry_rejected(self):
        spec = build_unet(2, 4, (3, 16, 16))
        x = random_input(spec, 0)
        edge = next(iter(spec.cache_config.cached_edges))
        with pytest.raises(ValueError, match="shape"):
            forward_cached(spec, x, {edge: np.zeros((1, 2, 2), dtype=np.float32)})

    def test_edge_tensor_shapes_match_producers(self):
        spec = set_unet_level(build_unet(3, 4, (3, 16, 16)), 2)
        record = forward_full(spec, random_input(spec, 1))
        for name, value in record.edge_tensors.items():
            src = spec.edge_by_name(name).src
            assert value.shape == spec.shapes[src]

class TestCacheConfigValidation:
    """The checks left on cached edges once the live blocks are derived."""

    def test_cached_edge_from_live_block_rejected(self):
        # enc0 stays live through enc1, so its skip into dec0 cannot be cached.
        spec = build_unet(2, 4, (3, 16, 16))
        with pytest.raises(ValueError, match="produced by live block 'enc0'"):
            replace_cache_config(spec, CacheConfig("bad", frozenset({"enc0->dec0:1"})))

    def test_unknown_names_rejected(self):
        spec = build_unet(2, 4, (3, 16, 16))
        with pytest.raises(ValueError, match="does not exist"):
            replace_cache_config(spec, CacheConfig("bad", frozenset({"nope->dec0:0"})))


@functools.cache
def cut_spec(family, depth):
    build = build_unet if family == "unet" else build_unetpp
    return build(depth, 4, (3, 16, 16), seed=depth)


def feeds_output(spec, block, cached):
    """Whether block reaches the output block along edges that are not cached."""
    frontier, seen = [block], {block}
    while frontier:
        name = frontier.pop()
        if name == spec.output_block:
            return True
        for edge in spec.edges:
            if edge.src == name and edge.name not in cached and edge.dst not in seen:
                seen.add(edge.dst)
                frontier.append(edge.dst)
    return False


class TestArbitraryCuts:
    """Any set of cached edges either leaves a live block, or the derived
    live blocks reproduce the full pass bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from([("unet", 3), ("unet", 4), ("unetpp", 2), ("unetpp", 3)]),
        data=st.data(),
    )
    def test_cut_is_rejected_or_exact(self, case, data):
        spec = cut_spec(*case)
        inner = sorted(edge.name for edge in spec.edges if edge.src != INPUT)
        cut = data.draw(st.frozensets(st.sampled_from(inner)), label="cached_edges")
        producers = [spec.edge_by_name(name).src for name in cut]
        try:
            spec = replace_cache_config(spec, CacheConfig("cut", cut))
        except ValueError as err:
            assert "produced by live block" in str(err)
            assert any(feeds_output(spec, src, cut) for src in producers)
            return
        assert not any(feeds_output(spec, src, cut) for src in producers)
        assert spec.live_blocks == tuple(n for n in spec.order if feeds_output(spec, n, cut))
        x = random_input(spec, len(cut))
        full = forward_full(spec, x)
        cached = forward_cached(spec, x, full.edge_tensors)
        assert cached.output.tobytes() == full.output.tobytes()
        assert cached.executed_blocks == spec.live_blocks
        assert cached.flops_executed == spec.cached_flops()


class TestManualGraphs:
    """make_network_spec on hand-built graphs, including failure modes."""

    def make_chain(self):
        return [
            Block("a", BlockId(KIND_BRANCH, 0, 0), ((INPUT, "none"),), (identity_conv(3),)),
            Block("b", BlockId(KIND_BRANCH, 0, 1), (("a", "none"),), (identity_conv(3),)),
        ]

    def test_identity_chain_preserves_input(self):
        spec = make_network_spec(self.make_chain(), (3, 8, 8), "b")
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 8, 8)).astype(np.float32)
        record = forward_full(spec, x)
        assert np.array_equal(record.output, x)
        assert record.flops_executed == 2 * conv_cost(1, 3, 3, 8, 8)

    def test_default_config_is_fully_live(self):
        spec = make_network_spec(self.make_chain(), (3, 8, 8), "b")
        assert spec.live_blocks == ("a", "b")
        assert spec.cache_config.cached_edges == frozenset()
        assert spec.cached_flops() == spec.full_flops

    def test_duplicate_names_rejected(self):
        blocks = self.make_chain()
        blocks[1] = Block("a", BlockId(KIND_BRANCH, 0, 1), ((INPUT, "none"),), (identity_conv(3),))
        with pytest.raises(ValueError, match="duplicate block name"):
            make_network_spec(blocks, (3, 8, 8), "a")

    def test_duplicate_ident_rejected(self):
        blocks = self.make_chain()
        blocks[1] = Block("b", BlockId(KIND_BRANCH, 0, 0), (("a", "none"),), (identity_conv(3),))
        with pytest.raises(ValueError, match="duplicate block id"):
            make_network_spec(blocks, (3, 8, 8), "b")

    def test_bad_edges_rejected(self):
        # A block names its own slots, so only an unknown producer is left
        # to reject.
        blocks = self.make_chain()
        blocks[1] = Block("b", BlockId(KIND_BRANCH, 0, 1), (("ghost", "none"),), (identity_conv(3),))
        with pytest.raises(ValueError, match="edge ghost->b:0 references unknown source"):
            make_network_spec(blocks, (3, 8, 8), "b")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="block a needs at least one input slot"):
            Block("a", BlockId(KIND_BRANCH, 0, 0), (), (identity_conv(3),))

    def test_unknown_slot_op_rejected(self):
        with pytest.raises(ValueError, match="unknown slot op 'upsample4' on block a"):
            Block("a", BlockId(KIND_BRANCH, 0, 0), ((INPUT, "upsample4"),), (identity_conv(3),))

    def test_edges_follow_block_then_slot_order(self):
        blocks = [
            Block("a", BlockId(KIND_BRANCH, 0, 0), ((INPUT, "none"),), (identity_conv(3),)),
            Block("b", BlockId(KIND_BRANCH, 0, 1), ((INPUT, "none"), ("a", "none")), (identity_conv(6),)),
            Block("c", BlockId(KIND_BRANCH, 0, 2), (("b", "none"), ("a", "none")), (identity_conv(9),)),
        ]
        spec = make_network_spec(blocks, (3, 8, 8), "c")
        assert [edge.name for edge in spec.edges] == [
            "input->a:0",
            "input->b:0",
            "a->b:1",
            "b->c:0",
            "a->c:1",
        ]

    def test_block_outside_the_output_cone_rejected(self):
        # Every block must feed the output, so no config can leave one idle.
        with pytest.raises(ValueError, match=r"blocks \['b'\] do not feed output block 'a'"):
            make_network_spec(self.make_chain(), (3, 8, 8), "a")

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError, match="output block"):
            make_network_spec(self.make_chain(), (3, 8, 8), "ghost")

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ValueError, match="bad input shape"):
            make_network_spec(self.make_chain(), (3, 8), "b")

    def test_cycle_rejected(self):
        blocks = [
            Block("a", BlockId(KIND_BRANCH, 0, 0), ((INPUT, "none"), ("b", "none")), (identity_conv(6),)),
            Block("b", BlockId(KIND_BRANCH, 0, 1), (("a", "none"),), (identity_conv(6),)),
        ]
        with pytest.raises(ValueError, match="cycle"):
            make_network_spec(blocks, (3, 8, 8), "b")

    def test_bad_block_kind_rejected(self):
        with pytest.raises(ValueError):
            BlockId("pyramid", 0, 0)

    def test_edge_name_format(self):
        edge = Edge("enc1", "dec0", 0)
        assert edge.name == "enc1->dec0:0"


class TestFeatureDeltaProfile:
    """Per-depth feature drift relative to the first frame."""

    def test_identical_frames_give_zero_drift(self):
        spec = build_unet(3, 4, (3, 16, 16))
        x = random_input(spec, 6)
        profile = feature_delta_profile(spec, [x, x.copy(), x.copy()])
        assert set(profile) == {0, 1, 2}
        for values in profile.values():
            assert values == [0.0, 0.0, 0.0]

    def test_changed_frame_registers_at_every_depth(self):
        spec = build_unet(3, 4, (3, 16, 16))
        x = random_input(spec, 7)
        profile = feature_delta_profile(spec, [x, (x * 1.5).astype(np.float32)])
        for values in profile.values():
            assert values[0] == 0.0
            assert values[1] > 0.0

    def test_needs_two_frames(self):
        spec = build_unet(2, 4, (3, 16, 16))
        with pytest.raises(ValueError, match="at least two"):
            feature_delta_profile(spec, [random_input(spec, 0)])

    def test_needs_encoder_blocks(self):
        spec = build_superres(input_shape=(6, 16, 16), base_channels=4, lr_pool=1)
        frames = [random_input(spec, s) for s in range(2)]
        with pytest.raises(ValueError, match="encoder"):
            feature_delta_profile(spec, frames)

    def test_frozen_values(self):
        # Exact floats: the feature_profile tables are written from these.
        spec = build_unet(3, 4, (3, 16, 16), seed=5)
        profile = feature_delta_profile(spec, [random_input(spec, 20), random_input(spec, 21)])
        assert profile == {
            0: [0.0, 0.4551706165381618],
            1: [0.0, 0.2529503597945222],
            2: [0.0, 0.2239484223531164],
        }

