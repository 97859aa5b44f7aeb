"""Acceptance suite: one test per headline guarantee of the package.

Every test prints exactly one "criterion NN <name>: PASS|FAIL" line so the
suite doubles as a human-readable acceptance report under pytest -s. Each
check uses independent oracles or closed-form expectations; none of them
reuses the library's own bookkeeping as its reference.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from framecache.builders import (
    build_multibranch,
    build_superres,
    build_unet,
    build_unetpp,
    make_conv,
    set_unet_level,
    unetpp_config_a,
    unetpp_config_b,
)
from framecache.engine import (
    CacheState,
    cache_bytes_report,
    baseline_outputs,
    run_sequence,
)
from framecache.harness import (
    default_run_config,
    scenario_ablation_levels,
    scenario_null_hypothesis,
    scenario_superres_tradeoff,
)
from framecache.metrics import mse, smape, ssim
from framecache.netgraph import forward_cached, forward_full, replace_cache_config
from framecache.ops import ConvParams, conv2d, conv_flops
from framecache.policies import (
    DeltaSmape,
    EveryN,
    MotionThreshold,
    NonLinearSchedule,
    mean_motion_magnitude,
)
from framecache.workload import SceneConfig, generate

DRIFT_SCENE = SceneConfig(seed=0, channels=6, height=48, width=48, pan_speed=3.0, base_cell=8)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    print(f"criterion {number:02d} {name}: PASS")


def random_input(spec, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=spec.input_shape).astype(np.float32)


def assert_substitution_exact(spec, seed):
    x = random_input(spec, seed)
    full = forward_full(spec, x)
    cached = forward_cached(spec, x, full.edge_tensors)
    assert np.array_equal(full.output, cached.output)


def test_criterion_01_substitution_equivalence():
    with criterion(1, "substitution equivalence"):
        for depth in (2, 3, 4):
            spec = build_unet(depth, 4, (6, 32, 32), seed=depth)
            for level in range(1, depth):
                for seed in range(2):
                    assert_substitution_exact(set_unet_level(spec, level), seed)
        for depth in (2, 3):
            spec = build_unetpp(depth, 4, (6, 24, 24), seed=depth)
            for config in (unetpp_config_b(depth), unetpp_config_a(depth)):
                for seed in range(2):
                    assert_substitution_exact(replace_cache_config(spec, config), seed)
        for pool in (0, 1, 2):
            spec = build_superres((6, 16, 16), base_channels=4, lr_pool=pool)
            for seed in range(2):
                assert_substitution_exact(spec, seed)
        rng = np.random.default_rng(5)
        branches = [
            ("fine", (make_conv(rng, 6, 4), "relu")),
            ("coarse", ("maxpool2", make_conv(rng, 6, 4), "relu", "upsample2")),
        ]
        fusion = (make_conv(rng, 8, 3), "relu", make_conv(rng, 3, 3, kernel=1))
        spec = build_multibranch(branches, fusion, (6, 16, 16), cached_branches={"coarse"})
        for seed in range(2):
            assert_substitution_exact(spec, seed)


def test_criterion_02_refresh_count_exactness():
    with criterion(2, "refresh count exactness"):
        spec = build_unet(2, 4, (6, 48, 48), seed=1)
        frames = generate(DRIFT_SCENE, 10).frames
        counts = {
            "n5": run_sequence(spec, frames, EveryN(5)).refresh_count,
            "n2": run_sequence(spec, frames, EveryN(2)).refresh_count,
            "nonlinear_k2": run_sequence(
                spec, frames, NonLinearSchedule(refresh_count=2)
            ).refresh_count,
        }
        assert counts == {"n5": 2, "n2": 5, "nonlinear_k2": 2}


def naive_conv_count_and_value(x, params):
    """Six-loop convolution that counts 2 ops per kernel tap."""
    in_c, h, w = x.shape
    pad = params.padding
    padded = np.zeros((in_c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    padded[:, pad : pad + h, pad : pad + w] = x.astype(np.float64)
    out_h = (h + 2 * pad - params.kernel_h) // params.stride + 1
    out_w = (w + 2 * pad - params.kernel_w) // params.stride + 1
    out = np.zeros((params.out_channels, out_h, out_w), dtype=np.float64)
    ops = 0
    weights = params.weights.astype(np.float64)
    for oc in range(params.out_channels):
        for oy in range(out_h):
            for ox in range(out_w):
                acc = 0.0
                for ic in range(in_c):
                    for ky in range(params.kernel_h):
                        for kx in range(params.kernel_w):
                            acc += (
                                weights[oc, ic, ky, kx]
                                * padded[ic, oy * params.stride + ky, ox * params.stride + kx]
                            )
                            ops += 2
                out[oc, oy, ox] = acc + float(params.bias[oc])
    return out, ops


def test_criterion_03_flops_ledger():
    with criterion(3, "flops ledger"):
        specs = []
        for depth in (2, 3, 4):
            base_spec = build_unet(depth, 4, (6, 32, 32), seed=depth)
            specs += [set_unet_level(base_spec, lv) for lv in range(1, depth)]
        for depth in (1, 2, 3):
            spec = build_unetpp(depth, 4, (6, 24, 24), seed=depth)
            specs += [spec, replace_cache_config(spec, unetpp_config_a(depth))]
        specs.append(build_superres((6, 16, 16), base_channels=4, lr_pool=1))
        for spec in specs:
            live = spec.live_blocks
            skipped = sum(f for n, f in spec.block_flops.items() if n not in live)
            assert spec.full_flops == spec.cached_flops() + skipped

        rng = np.random.default_rng(23)
        for _ in range(24):
            in_c = int(rng.integers(1, 4))
            out_c = int(rng.integers(1, 5))
            kernel = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            h = int(rng.integers(kernel, 7))
            w = int(rng.integers(kernel, 7))
            params = ConvParams(
                in_channels=in_c,
                out_channels=out_c,
                kernel_h=kernel,
                kernel_w=kernel,
                weights=rng.normal(0, 1, size=(out_c, in_c, kernel, kernel)).astype(np.float32),
                bias=rng.normal(0, 1, size=out_c).astype(np.float32),
                stride=stride,
                padding=padding,
            )
            x = rng.uniform(0, 1, size=(in_c, h, w)).astype(np.float32)
            expected, counted = naive_conv_count_and_value(x, params)
            produced = conv2d(x, params)
            assert conv_flops(params, produced.shape[1], produced.shape[2]) == counted
            np.testing.assert_allclose(produced, expected, rtol=1e-5, atol=1e-6)


def test_criterion_04_static_scene_property():
    with criterion(4, "static scene property"):
        spec = build_unet(2, 4, (6, 16, 16), seed=3)
        still = SceneConfig(seed=5, channels=6, height=16, width=16, pan_speed=0.0, sprite_count=0)
        frames = generate(still, 8).frames
        report = run_sequence(spec, frames, DeltaSmape(tau=0.25))
        baseline = baseline_outputs(spec, frames)
        assert report.refresh_count == 1
        assert report.skipped_frame_fraction == pytest.approx(7.0 / 8.0, abs=0.0)
        for produced, reference in zip(report.outputs, baseline):
            delta = np.abs(produced.astype(np.float64) - reference.astype(np.float64))
            assert float(delta.max()) <= 1e-6


def test_criterion_05_threshold_monotonicity():
    with criterion(5, "threshold monotonicity"):
        spec = build_unet(2, 4, (6, 48, 48), seed=1)
        frames = generate(DRIFT_SCENE, 10).frames
        taus = (0.05, 0.10, 0.20, 0.25, 0.40)
        counts = [
            run_sequence(spec, frames, DeltaSmape(tau=tau)).refresh_count for tau in taus
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]
        high = counts[taus.index(0.20)]
        low = counts[taus.index(0.25)]
        assert high >= low


def test_criterion_06_ablation_ordering():
    with criterion(6, "ablation ordering"):
        tables = scenario_ablation_levels(default_run_config("ablation_levels"))
        summary = tables[0]
        families = summary.column("family")
        labels = summary.column("cache_config")
        remaining = summary.column("flops_remaining")
        mean_mse = summary.column("mean_mse")
        unet_rows = [i for i, fam in enumerate(families) if fam == "unet"]
        unet_frac = [remaining[i] for i in unet_rows]
        assert [labels[i] for i in unet_rows] == ["unet_level_1", "unet_level_2", "unet_level_3"]
        assert unet_frac[0] < unet_frac[1] < unet_frac[2]
        unet_mse = [mean_mse[i] for i in unet_rows]
        # Deeper live portion (higher level) must not degrade quality.
        assert unet_mse[2] <= unet_mse[1] <= unet_mse[0]
        by_label = dict(zip(labels, remaining))
        assert by_label["unetpp_config_b"] < by_label["unetpp_config_a"]


def test_criterion_07_null_hypothesis():
    with criterion(7, "null hypothesis"):
        tables = scenario_null_hypothesis(default_run_config("null_hypothesis"))
        summary = tables[0]
        means = dict(zip(summary.column("policy"), summary.column("mean_mse")))
        proper = means["proper"]
        noise = means["noise_1"]
        zero = means["zero"]
        uniform = means["uniform_random"]
        normal = means["normal_random"]
        stale = means["no_update"]
        assert proper < noise <= zero < uniform
        assert zero < normal
        assert noise >= 2.0 * proper
        assert uniform >= 2.0 * zero and normal >= 2.0 * zero
        assert uniform >= 2.0 * stale and normal >= 2.0 * stale


def test_criterion_08_memory_arithmetic():
    with criterion(8, "memory arithmetic"):
        color = CacheState(entries={"c": np.zeros((24, 360, 640), dtype=np.float32)})
        assert cache_bytes_report(color) == 22_118_400
        pyramid = CacheState(
            entries={f"p{i}": np.zeros((64, 192, 256), dtype=np.float32) for i in range(7)}
        )
        assert cache_bytes_report(pyramid) == 88_080_384


def test_criterion_09_motion_policy():
    with criterion(9, "motion policy"):
        spec = build_unet(2, 4, (6, 16, 16), seed=1)
        for speed in (0.5, 2.0):
            for direction in ((1.0, 0.0), (3.0, 4.0)):
                scene = SceneConfig(
                    seed=4, channels=6, height=16, width=16,
                    pan_speed=speed, pan_direction=direction,
                )
                for frame in generate(scene, 6):
                    assert mean_motion_magnitude(frame.motion) == pytest.approx(speed, abs=1e-6)
        fast = generate(SceneConfig(seed=4, channels=6, height=16, width=16, pan_speed=2.0), 8)
        slow = generate(SceneConfig(seed=4, channels=6, height=16, width=16, pan_speed=0.5), 8)
        assert run_sequence(spec, fast.frames, MotionThreshold(tau=1.0)).refresh_count == 8
        assert run_sequence(spec, slow.frames, MotionThreshold(tau=1.0)).refresh_count == 1


def test_criterion_10_superres_tradeoff():
    with criterion(10, "super resolution tradeoff"):
        tables = scenario_superres_tradeoff(default_run_config("superres_tradeoff"))
        summary = tables[0]
        rows = {row[0]: row for row in summary.rows}
        header = summary.header
        total = header.index("total_flops")
        per_full = header.index("full_pass_flops")
        skipped = header.index("skipped_frame_fraction")
        break_even = header.index("break_even_skip")
        small = rows["scale4_baseline"]
        large = rows["scale3_baseline"]
        cached = rows["scale3_n5"]
        # The larger input costs more per frame, and the break-even point
        # derived from per-frame FLOPs sits below the measured skip rate.
        assert large[per_full] > small[per_full]
        assert 0.0 < cached[break_even] < 1.0
        assert cached[skipped] == pytest.approx(0.8, abs=0.0)
        assert cached[skipped] >= cached[break_even]
        assert cached[total] < small[total]


def test_criterion_11_metric_identities():
    with criterion(11, "metric identities"):
        rng = np.random.default_rng(31)
        window_checks = 0
        for index in range(1000):
            channels = int(rng.integers(1, 4))
            height = int(rng.integers(8, 13))
            width = int(rng.integers(8, 13))
            a = rng.uniform(0.0, 1.0, size=(channels, height, width)).astype(np.float32)
            b = (a + rng.normal(0.0, 0.1, size=a.shape)).astype(np.float32)
            assert mse(a, a) == 0.0
            assert smape(a, a) == 0.0
            assert mse(a, b) == mse(b, a)
            assert smape(a, b) == smape(b, a)
            a64 = a.astype(np.float64)
            b64 = b.astype(np.float64)
            assert mse(a, b) == pytest.approx(float(np.mean((a64 - b64) ** 2)), rel=1e-12)
            expected_smape = float(
                np.mean(np.abs(a64 - b64) / (np.abs(a64) + np.abs(b64) + 1e-6))
            )
            assert smape(a, b) == pytest.approx(expected_smape, abs=1e-15)
            if index % 25 == 0:
                assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)
                assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)
                window_checks += 1
        assert window_checks == 40
