"""Tests for the experiment harness: config parsing, tables, scenarios.

The CSV consistency tests parse the written files and recompute every
summary statistic from the per-frame rows; because cells are written with
repr round-tripping, the recomputed means must match bit for bit.
"""

import csv
import functools
import gc
import itertools
import json
import weakref

import numpy as np
import pytest

import framecache.harness as harness
from framecache.builders import build_superres, build_unet, set_unet_level
from framecache.engine import full_passes
from framecache.harness import (
    RunConfig,
    ScenarioError,
    Table,
    default_run_config,
    format_table,
    load_run_config,
    run_config_from_dict,
    run_scenarios,
    scenario_feature_profile,
    scenario_memory_report,
    scenario_policy_sweep,
    scenario_superres_tradeoff,
    write_tables,
)
from framecache.metrics import mse
from framecache.policies import PRESETS, DeltaSmape, EveryN, NonLinearSchedule
from framecache.workload import SceneConfig, generate


def minimal_config(**extra):
    data = {"version": 1}
    data.update(extra)
    return run_config_from_dict(data)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunConfigParsing:
    """JSON config acceptance and rejection."""

    def test_version_required(self):
        with pytest.raises(ValueError, match="config version"):
            run_config_from_dict({})
        with pytest.raises(ValueError, match="config version"):
            run_config_from_dict({"version": 2})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            run_config_from_dict({"version": 1, "speed": 3})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            minimal_config(scenario="everything")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown policy preset"):
            minimal_config(policy={"preset": "eventually"})

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="frames"):
            minimal_config(frames=0)
        with pytest.raises(ValueError, match="warmup"):
            minimal_config(warmup=-1)

    def test_options_keys_must_be_scenarios(self):
        with pytest.raises(ValueError, match="not a scenario name"):
            minimal_config(options={"policy_sweeps": {}})
        cfg = minimal_config(options={"policy_sweep": {"presets": ["n5"]}})
        assert cfg.options["policy_sweep"] == {"presets": ["n5"]}

    def test_option_values_take_their_defaults_json_type(self):
        # An integer may stand for a number, but nothing else for an integer.
        cfg = minimal_config(options={"null_hypothesis": {"noise_scales": [3, 2.5]}})
        assert cfg.options["null_hypothesis"]["noise_scales"] == [3, 2.5]
        for value in (3.0, True, "3"):
            with pytest.raises(ValueError, match="options.ablation_levels.unet_depth"):
                minimal_config(options={"ablation_levels": {"unet_depth": value}})

    def test_json_lists_coerced_to_tuples(self):
        cfg = minimal_config(
            scene={"pan_direction": [3, 4], "pan_schedule": [[5, 0.2], [5, 4.0]]},
            network={"input_shape": [6, 48, 48]},
        )
        assert cfg.scene["pan_direction"] == (3, 4)
        assert cfg.scene["pan_schedule"] == ((5, 0.2), (5, 4.0))
        assert cfg.network["input_shape"] == (6, 48, 48)

    def test_null_sections_become_empty(self):
        cfg = run_config_from_dict(
            {"version": 1, "network": None, "policy": None, "scene": None, "options": None}
        )
        assert cfg.network == {}
        assert cfg.policy == {}
        assert cfg.scene == {}
        assert cfg.options == {}

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"version": 1, "scenario": "memory_report", "seed": 7}))
        cfg = load_run_config(path)
        assert cfg.scenario == "memory_report"
        assert cfg.seed == 7

    def test_defaults(self):
        cfg = default_run_config()
        assert cfg.scenario == "all"
        assert cfg.seed == 0
        assert cfg.frames is None
        assert default_run_config("feature_profile").scenario == "feature_profile"
        with pytest.raises(ValueError):
            default_run_config("nope")


class TestPolicyOverrides:
    """Preset selection plus field overrides from the policy section."""

    def test_default_preset_used(self):
        cfg = minimal_config()
        assert harness._policy_from_config(cfg, 10) == EveryN(5)

    def test_preset_from_config(self):
        cfg = minimal_config(policy={"preset": "delta_h"})
        assert harness._policy_from_config(cfg, 10) == DeltaSmape(tau=0.20)

    def test_field_overrides_applied(self):
        cfg = minimal_config(policy={"preset": "n5", "n": 3})
        assert harness._policy_from_config(cfg, 10) == EveryN(3)
        cfg = minimal_config(policy={"preset": "delta_l", "tau": 0.35})
        assert harness._policy_from_config(cfg, 10) == DeltaSmape(tau=0.35)


class TestTables:
    """Table rendering and file output."""

    def make_table(self):
        return Table(
            name="demo",
            header=("name", "count", "ratio", "flag", "note"),
            rows=[("alpha", 3, 1.0 / 3.0, True, None), ("beta", 12, 0.25, False, "x")],
        )

    def test_column_lookup(self):
        table = self.make_table()
        assert table.column("count") == [3, 12]
        assert table.column("name") == ["alpha", "beta"]
        with pytest.raises(ValueError):
            table.column("missing")

    def test_format_table_layout(self):
        text = format_table(self.make_table())
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert set(lines[2]) <= {"-", " "}
        # Fixed-width cells make every row the same length.
        assert len({len(line) for line in lines[1:]}) == 1
        assert lines[1].split() == ["name", "count", "ratio", "flag", "note"]
        assert "alpha" in lines[3] and "beta" in lines[4]

    def test_write_tables_round_trip(self, tmp_path):
        table = self.make_table()
        written = write_tables([table], tmp_path / "nested")
        assert [p.name for p in written] == ["demo.csv", "demo.txt"]
        assert all(p.exists() for p in written)
        rows = read_csv(written[0])
        # repr cells parse back to the exact same float.
        assert float(rows[0]["ratio"]) == 1.0 / 3.0
        assert rows[0]["flag"] == "1"
        assert rows[1]["flag"] == "0"
        assert rows[0]["note"] == ""
        assert int(rows[1]["count"]) == 12


def small_frames():
    scene = SceneConfig(seed=2, channels=6, height=16, width=16, pan_speed=2.0, base_cell=8)
    return generate(scene, 6).frames


class TestScoredRun:
    """Summary and per-frame rows of sequence runs scored against their network's baseline."""

    def test_rows_match_report_and_baseline(self):
        spec = build_unet(2, 4, (6, 16, 16), seed=3)
        frames = small_frames()
        baseline = full_passes([spec], frames).outputs
        ((report, summary, frame_rows),) = harness._scored_runs([("n3", spec, EveryN(3), None)], frames, 0)
        summary = dict(zip(harness._SUMMARY_COLUMNS, summary))
        rows = [dict(zip(harness._FRAME_COLUMNS, row)) for row in frame_rows]
        assert [row["frame"] for row in rows] == list(range(6))
        assert {row["policy"] for row in rows} == {summary["policy"]} == {"n3"}
        for row, record in zip(rows, report.frames):
            assert row["mse"] == mse(record.output, baseline[record.index])
            if record.refreshed:
                assert row["mse"] == 0.0
        assert summary["refresh_count"] == sum(row["refreshed"] for row in rows) == 2
        assert summary["total_flops"] == sum(row["flops"] for row in rows)
        assert summary["eliminated_flops_fraction"] == 1.0 - summary["total_flops"] / (6 * spec.full_flops)
        assert summary["mean_mse"] == float(np.mean([row["mse"] for row in rows]))

    def test_runs_on_two_networks_each_scored_against_their_own(self, monkeypatch):
        memos, alive = [], []
        build = harness.full_passes

        def capturing(*args, **kwargs):
            # Whether an earlier network's memo is still alive as this one is built.
            gc.collect()
            alive.append([ref() is not None for ref in memos])
            memo = build(*args, **kwargs)
            memos.append(weakref.ref(memo))
            return memo

        monkeypatch.setattr(harness, "full_passes", capturing)
        frames = small_frames()
        unet = build_unet(3, 4, (6, 16, 16), seed=3)
        levels = [set_unet_level(unet, level) for level in (1, 2)]
        other = build_unet(2, 4, (6, 16, 16), seed=5)
        runs = [
            ("level1_n3", levels[0], EveryN(3), None),
            ("level2_n2", levels[1], EveryN(2), None),
            ("other_n5", other, EveryN(5), None),
        ]
        kept = []
        for run, (report, summary, frame_rows) in zip(runs, harness._scored_runs(runs, frames, 0)):
            label, spec, _, _ = run
            assert summary[0] == label
            baseline = full_passes([spec], frames).outputs
            for row, record in zip(frame_rows, report.frames):
                assert row[harness._FRAME_COLUMNS.index("mse")] == mse(record.output, baseline[record.index])
            memo = memos[-1]()
            assert memo.blocks is spec.blocks
            kept.append({i for i, record in enumerate(memo.records) if record.edge_tensors})
            del memo
        # EveryN(3) and EveryN(2) over 6 frames refresh {0, 3} and {0, 2, 4}; EveryN(5) {0, 5}.
        assert kept == [{0, 2, 3, 4}, {0, 2, 3, 4}, {0, 5}]
        assert alive == [[], [False]]


class TestMemoryReportScenario:
    """Footprint table contents."""

    def test_default_workloads_frozen(self):
        tables = scenario_memory_report(default_run_config("memory_report"))
        assert len(tables) == 1
        table = tables[0]
        assert table.name == "memory_report_summary"
        by_label = {row[0]: row for row in table.rows}
        assert by_label["color_history_24x360x640"][3] == 22118400
        assert by_label["pyramid_7x64x192x256"][3] == 88080384
        assert by_label["empty"][3] == 0
        assert by_label["pyramid_7x64x192x256"][1] == 7

    def test_custom_entries(self):
        cfg = minimal_config(
            scenario="memory_report",
            options={"memory_report": {"entries": {"tiny": [[2, 3, 4]]}}},
        )
        table = scenario_memory_report(cfg)[0]
        assert table.rows == [("tiny", 1, 24, 96)]

    def test_counts_shapes_too_large_to_allocate(self):
        # 4e15 bytes: the count must come from the shape, not an array.
        cfg = minimal_config(
            scenario="memory_report",
            options={"memory_report": {"entries": {"big": [[1000000, 1000000, 1000]]}}},
        )
        table = scenario_memory_report(cfg)[0]
        assert table.rows == [("big", 1, 10**15, 4 * 10**15)]


class TestFeatureProfileScenario:
    """Per-depth drift curves."""

    def test_monotone_curves(self):
        tables = scenario_feature_profile(default_run_config("feature_profile"))
        table = tables[0]
        assert table.name == "feature_profile_frames"
        assert table.header[0] == "frame"
        depth_columns = table.header[1:]
        assert list(table.column("frame")) == list(range(12))
        for name in depth_columns:
            curve = table.column(name)
            assert curve[0] == 0.0
            assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))
        assert len(depth_columns) == 4


def small_superres_config(**options):
    """superres_tradeoff over 4 frames of a 24x24 reference scene."""
    opts = {"reference_hw": 24, "small_input_scale": 4, "large_input_scale": 3, "lr_pool": 1}
    opts.update(options)
    return minimal_config(
        scenario="superres_tradeoff", frames=4, options={"superres_tradeoff": opts}
    )


class TestNullHypothesisScenario:
    # Each run of either scenario refreshes frames 0 and 5 of 10 (n5) or
    # frame 0 alone (no_update); ablation_levels builds a memo per network.
    @pytest.mark.parametrize("scenario, networks", [("null_hypothesis", 1), ("ablation_levels", 2)])
    def test_memo_keeps_edge_tensors_on_refreshed_frames_alone(self, monkeypatch, scenario, networks):
        memos = []
        build = harness.full_passes

        def capturing(*args, **kwargs):
            memos.append(build(*args, **kwargs))
            return memos[-1]

        monkeypatch.setattr(harness, "full_passes", capturing)
        tables = harness.SCENARIOS[scenario](minimal_config(scenario=scenario, frames=10))
        assert len(memos) == networks
        frame_table = tables[1]
        refreshed = {
            frame for frame, flag in zip(frame_table.column("frame"), frame_table.column("refreshed")) if flag
        }
        assert refreshed == {0, 5}
        for memo in memos:
            assert {i for i, record in enumerate(memo.records) if record.edge_tensors} == refreshed


class TestSuperresTradeoffScenario:
    def test_no_full_frame_alive_once_the_scene_is_walked(self, monkeypatch):
        # Weak references to every distinct array of the full-resolution
        # frames the scene yields, over both walks (a walk's frames share
        # one motion field), and of each downscaled frame. The
        # first run_sequence call (the small baseline) comes after the first
        # walk, and by then every full-resolution frame must be gone. The
        # second walk scores the rows (the only mse calls): at each of them
        # at most one full-resolution frame is alive, and no downscaled one.
        refs, scaled_refs, alive_at_first_run, alive_while_scoring = [], [], [], []
        iter_frames, run_sequence = harness.iter_frames, harness.run_sequence
        downscale_frame, score = harness._downscale_frame, harness.mse

        def recording_frames(scene, count):
            for frame in iter_frames(scene, count):
                # By identity, not id(): a freed frame's id can come back.
                for array in (frame.input, frame.motion):
                    if not any(ref() is array for ref in refs):
                        refs.append(weakref.ref(array))
                yield frame

        def recording_downscale(frame, factor, motion=None):
            scaled = downscale_frame(frame, factor, motion)
            scaled_refs.extend([weakref.ref(scaled.input), weakref.ref(scaled.motion)])
            return scaled

        def checking_run(*args, **kwargs):
            if not alive_at_first_run:
                gc.collect()
                alive_at_first_run.append(sum(ref() is not None for ref in refs))
            return run_sequence(*args, **kwargs)

        def checking_mse(a, b):
            gc.collect()
            alive_while_scoring.append(
                (sum(ref() is not None for ref in refs), sum(ref() is not None for ref in scaled_refs))
            )
            return score(a, b)

        monkeypatch.setattr(harness, "iter_frames", recording_frames)
        monkeypatch.setattr(harness, "_downscale_frame", recording_downscale)
        monkeypatch.setattr(harness, "run_sequence", checking_run)
        monkeypatch.setattr(harness, "mse", checking_mse)
        tables = scenario_superres_tradeoff(small_superres_config())
        # 4 inputs and one motion field per walk.
        assert len(refs) == 2 * (4 + 1)
        assert len(scaled_refs) == 2 * 2 * 4
        assert alive_at_first_run == [0]
        # Per frame: one mse per baseline row, two per cached row.
        assert len(alive_while_scoring) == 4 * (2 + 2 * 3)
        assert all(full <= 2 and scaled == 0 for full, scaled in alive_while_scoring)
        assert len(tables[1].rows) == 5 * 4

    def test_downscaled_frames_share_one_motion_field(self):
        # The default scene pans at one speed, so its frames share one
        # motion field, and each factor's frames share one downscaled copy.
        frames, opts, _, scene = harness._prepare(minimal_config(), "superres_tradeoff")
        factors = (opts.small_input_scale, opts.large_input_scale)
        walked = harness._stream_reference(scene, frames, factors)
        reference = generate(scene, 1)[0]
        for scaled, factor in zip(walked, factors, strict=True):
            assert len(scaled) == frames == 40
            (motion,) = {id(frame.motion): frame.motion for frame in scaled}.values()
            assert not motion.flags.writeable
            assert motion.tobytes() == harness._downscale_frame(reference, factor).motion.tobytes()

    def test_failed_quality_check_reports_its_numbers(self, tmp_path, monkeypatch):
        # The scoring walk takes, per frame, mse(up, reference) for each
        # baseline row, then mse(up, reference) and mse(up, up_full) for
        # each cached row: 8 calls per frame in the order small baseline,
        # large baseline, n5, delta_h, delta_l. A baseline row is its own
        # uncached run, so its check cannot fail; a cached row's uncached
        # rmse is the large baseline's. Cycling 1, 9, 9, 1, 1 over those
        # calls gives n5 rmse_ref 3, 1, 1, 3 against uncached 3, 1, 3, 1
        # plus cache error 1, 3, 1, 3, which passes, and delta_h rmse_ref 1
        # at frame 0, which passes, then 3 at frame 1 against 1 + 1.
        values = itertools.cycle([1.0, 9.0, 9.0, 1.0, 1.0])
        monkeypatch.setattr(harness, "mse", lambda a, b: next(values))
        logs = []
        status = run_scenarios(small_superres_config(), out_dir=tmp_path, log=logs.append)
        assert status == 1
        assert logs == [
            "[FAIL] superres_tradeoff: per-frame quality must stay within the uncached "
            "quality plus the cache error (row=scale3_delta_h, frame=1, rmse_ref=3.0, "
            "rmse_full_ref_plus_cache=2.0)"
        ]

    def test_failed_flops_check_reports_both_counts(self, tmp_path, monkeypatch):
        # The options reject swapped scales, so the builder swaps the two
        # input sizes instead: the 8x8 "larger" input gets the 6x6 network.
        swapped = {(6, 6, 6): (6, 8, 8), (6, 8, 8): (6, 6, 6)}
        monkeypatch.setattr(
            harness, "build_superres", lambda shape, **kwargs: build_superres(swapped[shape], **kwargs)
        )
        small = build_superres((6, 8, 8), base_channels=8, lr_pool=1).full_flops
        large = build_superres((6, 6, 6), base_channels=8, lr_pool=1).full_flops
        logs = []
        assert run_scenarios(small_superres_config(), out_dir=tmp_path, log=logs.append) == 1
        assert logs == [
            "[FAIL] superres_tradeoff: the larger input must cost more FLOPs per full frame "
            f"(large_flops={large}, small_flops={small})"
        ]


class TestPolicySweepScenario:
    """Preset comparison rows on the reference drifting scene."""

    def test_frozen_refresh_counts(self):
        tables = scenario_policy_sweep(default_run_config("policy_sweep"))
        summary = tables[0]
        assert summary.name == "policy_sweep_summary"
        counts = dict(zip(summary.column("policy"), summary.column("refresh_count")))
        assert counts == {
            "delta_l": 3,
            "delta_h": 5,
            "n5": 2,
            "n2": 5,
            "motion": 10,
            "nonlinear": 2,
        }

    def test_network_built_through_the_module_binding(self, monkeypatch):
        # A tracer replaces harness.build_unet; the scenario's one build
        # must go through that binding.
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(kwargs)
            return build_unet(*args, **kwargs)

        monkeypatch.setattr(harness, "build_unet", functools.wraps(build_unet)(counting_build))
        scenario_policy_sweep(default_run_config("policy_sweep"))
        assert len(calls) == 1

    def test_frame_rows_cover_every_policy(self):
        cfg = minimal_config(scenario="policy_sweep", frames=6)
        tables = scenario_policy_sweep(cfg)
        frames_table = tables[1]
        policies = sorted(set(frames_table.column("policy")))
        assert policies == sorted(
            ["delta_l", "delta_h", "n5", "n2", "motion", "nonlinear"]
        )
        assert len(frames_table.rows) == 6 * 6
        assert max(frames_table.column("frame")) == 5

    def test_preset_subset_option(self):
        cfg = minimal_config(
            scenario="policy_sweep",
            frames=6,
            options={"policy_sweep": {"presets": ["n5", "n2"]}},
        )
        summary = scenario_policy_sweep(cfg)[0]
        assert summary.column("policy") == ["n5", "n2"]
        assert summary.column("refresh_count") == [2, 3]

    def test_count_checks_follow_the_presets(self, monkeypatch):
        # The expected n5, n2 and nonlinear counts are the presets' own.
        monkeypatch.setitem(PRESETS, "n5", lambda horizon: EveryN(4))
        monkeypatch.setitem(PRESETS, "n2", lambda horizon: EveryN(3))
        monkeypatch.setitem(PRESETS, "nonlinear", lambda horizon: NonLinearSchedule(3, 2.0))
        cfg = minimal_config(
            scenario="policy_sweep",
            options={"policy_sweep": {"presets": ["n5", "n2", "nonlinear"]}},
        )
        summary = scenario_policy_sweep(cfg)[0]
        assert summary.column("refresh_count") == [3, 4, 3]

    @pytest.mark.parametrize(
        "network, cache",
        [
            ({}, "unet_level_1"),
            ({}, "unet_level_2"),
            ({"kind": "unetpp"}, "unetpp_config_a"),
            ({"kind": "unetpp"}, "unetpp_config_b"),
        ],
    )
    def test_accepted_cache_labels_are_applied(self, monkeypatch, network, cache):
        labels = []
        full_passes = harness.full_passes

        def recording_full_passes(specs, *args):
            labels.append(specs[0].cache_config.label)
            return full_passes(specs, *args)

        monkeypatch.setattr(harness, "full_passes", recording_full_passes)
        cfg = minimal_config(
            scenario="policy_sweep", frames=5, network=network, cache=cache,
            options={"policy_sweep": {"presets": ["n5"]}},
        )
        assert scenario_policy_sweep(cfg)[0].column("refresh_count") == [1]
        assert labels == [cache]


class TestFailedChecksReportTheirNumbers:
    """A failed scenario check prints the values it compared."""

    def test_policy_sweep_refresh_count(self, tmp_path, monkeypatch):
        # n5 refreshing every 4th frame gives ceil(10/4) = 3 refreshes.
        preset_policy = harness.preset_policy
        monkeypatch.setattr(
            harness,
            "preset_policy",
            lambda name, horizon: EveryN(4) if name == "n5" else preset_policy(name, horizon),
        )
        cfg = minimal_config(scenario="policy_sweep", options={"policy_sweep": {"presets": ["n5"]}})
        logs = []
        assert run_scenarios(cfg, out_dir=tmp_path, log=logs.append) == 1
        assert logs == [
            "[FAIL] policy_sweep: n5 refresh count must be ceil(T/5) (refresh_count=3, expected=2)"
        ]

    def test_null_hypothesis_means(self, tmp_path, monkeypatch):
        # Each run's mean MSE replaced: 1-sigma noise only 1.5x the proper cache.
        means = {"proper": 0.5, "noise_1": 0.75}
        scored_runs = harness._scored_runs

        def fixed_means(*args):
            for report, summary, frames in scored_runs(*args):
                summary = list(summary)
                summary[harness._MEAN_MSE] = means.get(summary[0], 100.0)
                yield report, tuple(summary), frames

        monkeypatch.setattr(harness, "_scored_runs", fixed_means)
        cfg = minimal_config(scenario="null_hypothesis", frames=4)
        logs = []
        assert run_scenarios(cfg, out_dir=tmp_path, log=logs.append) == 1
        assert logs == [
            "[FAIL] null_hypothesis: 1-sigma noise must at least double proper-cache MSE "
            "(noise_1=0.75, proper=0.5)"
        ]

    def test_feature_profile_drift(self, tmp_path, monkeypatch):
        # The depth-3 drift of the seed-63 scene over frames 9-11, rounded.
        profile = {1: [0.0, 0.1, 0.2, 0.3], 3: [0.0, 0.21834, 0.21764, 0.21511]}
        monkeypatch.setattr(harness, "feature_delta_profile", lambda spec, inputs: profile)
        cfg = minimal_config(scenario="feature_profile", frames=4)
        logs = []
        assert run_scenarios(cfg, out_dir=tmp_path, log=logs.append) == 1
        assert logs == [
            "[FAIL] feature_profile: depth 3 drift must be non-decreasing on a monotone pan "
            "(frame=2, previous=0.21834, drift=0.21764)"
        ]


class TestRunScenarios:
    """End-to-end runner behavior and CSV self-consistency."""

    def test_exit_zero_and_files_written(self, tmp_path):
        logs = []
        cfg = minimal_config(scenario="memory_report")
        status = run_scenarios(cfg, out_dir=tmp_path, log=logs.append)
        assert status == 0
        assert (tmp_path / "memory_report_summary.csv").exists()
        assert (tmp_path / "memory_report_summary.txt").exists()
        assert len(logs) == 1 and logs[0].startswith("[PASS] memory_report")

    def test_out_dir_defaults_to_config(self, tmp_path):
        cfg = minimal_config(scenario="memory_report", out_dir=str(tmp_path / "from_cfg"))
        status = run_scenarios(cfg, log=lambda msg: None)
        assert status == 0
        assert (tmp_path / "from_cfg" / "memory_report_summary.csv").exists()

    def test_scenario_error_sets_exit_code(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise ScenarioError("forced failure")

        monkeypatch.setitem(harness.SCENARIOS, "memory_report", boom)
        logs = []
        cfg = minimal_config(scenario="memory_report")
        status = run_scenarios(cfg, out_dir=tmp_path, log=logs.append)
        assert status == 1
        assert logs == ["[FAIL] memory_report: forced failure"]

    def test_failure_does_not_stop_later_scenarios(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise ScenarioError("forced failure")

        monkeypatch.setitem(harness.SCENARIOS, "policy_sweep", boom)
        logs = []
        cfg = minimal_config(frames=6, scenario="policy_sweep")
        status = run_scenarios(cfg, out_dir=tmp_path, log=logs.append)
        assert status == 1
        # A clean scenario still passes within the same process.
        status2 = run_scenarios(
            minimal_config(scenario="memory_report"), out_dir=tmp_path, log=logs.append
        )
        assert status2 == 0
        assert logs[0].startswith("[FAIL]")
        assert logs[1].startswith("[PASS]")

    def test_summary_recomputable_from_frame_rows(self, tmp_path):
        cfg = minimal_config(scenario="policy_sweep", frames=6)
        assert run_scenarios(cfg, out_dir=tmp_path, log=lambda msg: None) == 0
        summary_rows = read_csv(tmp_path / "policy_sweep_summary.csv")
        frame_rows = read_csv(tmp_path / "policy_sweep_frames.csv")
        for summary in summary_rows:
            policy = summary["policy"]
            rows = [r for r in frame_rows if r["policy"] == policy]
            assert len(rows) == 6
            mses = [float(r["mse"]) for r in rows]
            ssims = [float(r["ssim"]) for r in rows]
            # Bit-exact: the CSV cells round-trip the exact float64 values.
            assert float(np.mean(mses)) == float(summary["mean_mse"])
            assert float(np.mean(ssims)) == float(summary["mean_ssim"])
            assert sum(int(r["flops"]) for r in rows) == int(summary["total_flops"])
            assert sum(r["refreshed"] == "1" for r in rows) == int(summary["refresh_count"])

    def test_runs_are_deterministic(self, tmp_path):
        cfg = minimal_config(scenario="policy_sweep", frames=6)
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_scenarios(cfg, out_dir=first, log=lambda msg: None) == 0
        assert run_scenarios(cfg, out_dir=second, log=lambda msg: None) == 0
        for name in ("policy_sweep_summary.csv", "policy_sweep_frames.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
