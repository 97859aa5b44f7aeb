"""Experiment scenarios binding networks, policies, caching and metrics.

Each scenario takes a RunConfig, runs a fixed suite of cached-inference
experiments on a generated scene and returns tables that are written as
both CSV (full float precision, machine-readable) and aligned text.
Scenario-internal assertions raise ScenarioError so the command line can
act as an acceptance runner; everything is a pure function of the config,
so a (RunConfig, seed) pair reproduces its tables bit-identically.

Summary tables are always derived from the same per-frame values emitted
in the companion frame table, so CSV consumers can recompute every mean.

Scenarios that score cached runs against a no-cache baseline build one
full-pass memo per network (engine.full_passes) and share it between
those runs: it is their baseline and supplies their refresh frames, so
each distinct full pass runs once per scenario. The memo's outputs are
prepared as metrics references once per scenario, so each baseline
frame's SSIM moments are computed once and a refresh frame is scored once
across runs. superres_tradeoff keeps running its own passes, because a
memo of its large network would raise the suite's peak memory.
"""

import csv
import dataclasses
import inspect
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .builders import (
    build_superres,
    build_unet,
    build_unetpp,
    set_unet_level,
    unetpp_config_a,
    unetpp_config_b,
)
from .engine import (
    Corruption,
    cache_bytes_report,
    full_passes,
    run_sequence,
)
from .metrics import aggregate, mse, prepare_references
from .netgraph import feature_delta_profile, replace_cache_config
from .ops import block_mean, repeat_nearest
from .policies import PRESETS, EveryN, power_schedule, preset_policy
from .workload import FrameInput, SceneConfig, generate, iter_frames

__all__ = [
    "CONFIG_VERSION",
    "RunConfig",
    "SCENARIO_NAMES",
    "ScenarioError",
    "Table",
    "default_run_config",
    "format_table",
    "load_run_config",
    "run_config_from_dict",
    "run_scenarios",
    "scenario_ablation_levels",
    "scenario_feature_profile",
    "scenario_memory_report",
    "scenario_null_hypothesis",
    "scenario_policy_sweep",
    "scenario_superres_tradeoff",
    "write_tables",
]

CONFIG_VERSION = 1

SCENARIO_NAMES = (
    "policy_sweep",
    "ablation_levels",
    "null_hypothesis",
    "superres_tradeoff",
    "memory_report",
    "feature_profile",
)

# The preset of the scenarios that take their policy from the config.
_DEFAULT_POLICY_PRESET = "n5"


class ScenarioError(RuntimeError):
    """A scenario-internal consistency assertion failed."""


def _require(condition: bool, message: str, **observed) -> None:
    """Raise ScenarioError(message) unless condition holds; the message
    then ends with the observed values, as name=value pairs."""
    if not condition:
        if observed:
            message += " (" + ", ".join(f"{name}={value}" for name, value in observed.items()) + ")"
        raise ScenarioError(message)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@dataclass
class Table:
    """A named rectangular result set; rows hold python scalars."""

    name: str
    header: tuple[str, ...]
    rows: list[tuple]

    def column(self, name: str) -> list:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _csv_cell(value) -> str:
    # repr of a float round-trips exactly, so CSV readers can recompute
    # summary statistics bit-identically.
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _text_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return ""
    return str(value)


def format_table(table: Table) -> str:
    """Render a table as aligned monospace text."""
    cells = [list(table.header)]
    cells += [[_text_cell(v) for v in row] for row in table.rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(table.header))]
    lines = [table.name]
    for j, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def write_tables(tables: list[Table], out_dir) -> list[Path]:
    """Write each table as <name>.csv and <name>.txt under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for table in tables:
        csv_path = out / f"{table.name}.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.header)
            for row in table.rows:
                writer.writerow([_csv_cell(v) for v in row])
        txt_path = out / f"{table.name}.txt"
        txt_path.write_text(format_table(table))
        written += [csv_path, txt_path]
    return written


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One harness run: which scenario(s) with what overrides.

    Empty dicts mean "scenario defaults"; per-scenario extras live under
    options keyed by scenario name. The JSON form carries the same fields
    plus a mandatory "version": 1.
    """

    scenario: str = "all"
    seed: int = 0
    frames: int | None = None
    out_dir: str = "out"
    network: dict = field(default_factory=dict)
    cache: str | None = None
    policy: dict = field(default_factory=dict)
    scene: dict = field(default_factory=dict)
    warmup: int = 0
    options: dict = field(default_factory=dict)


_NETWORK_INT_FIELDS = ("depth", "base_channels", "lr_pool", "out_channels", "seed")

_BUILDERS = {"unet": build_unet, "unetpp": build_unetpp, "superres": build_superres}

# The builder parameters of each scenario that reads the network section;
# the section's keys override them.
_NETWORK_DEFAULTS = {
    "policy_sweep": {"kind": "unet", "depth": 3, "base_channels": 8, "input_shape": (6, 48, 48)},
    "null_hypothesis": {
        "kind": "superres",
        "base_channels": 8,
        "lr_pool": 1,
        "input_shape": (6, 64, 64),
        "seed": 14,
    },
    "feature_profile": {"kind": "unet", "depth": 4, "base_channels": 8, "input_shape": (6, 48, 48)},
}

# The frame count of each scenario that generates a scene, unless the
# config's frames sets it.
_DEFAULT_FRAMES = {
    "policy_sweep": 10,
    "ablation_levels": 20,
    "null_hypothesis": 40,
    "superres_tradeoff": 40,
    "feature_profile": 12,
}
# The scenarios whose quality means skip the config's warmup frames.
_SCORED_SCENARIOS = ("policy_sweep", "ablation_levels", "null_hypothesis")

_MEMORY_DEFAULT_ENTRIES = {
    "color_history_24x360x640": [[24, 360, 640]],
    "pyramid_7x64x192x256": [[64, 192, 256]] * 7,
    "empty": [],
}

# Every key a scenario's options object may hold, with its default.
_OPTION_DEFAULTS = {
    "policy_sweep": {"presets": [name for name in PRESETS if name != "no_update"]},
    "ablation_levels": {"unet_depth": 4, "unetpp_depth": 2, "base_channels": 8, "input_hw": 48},
    "null_hypothesis": {"corruption_seed": 3, "noise_scales": [0.5, 2.0]},
    "superres_tradeoff": {
        "reference_hw": 192,
        "small_input_scale": 4,
        "large_input_scale": 3,
        "base_channels": 8,
        "lr_pool": 2,
        "policies": ["n5", "delta_h", "delta_l"],
    },
    "memory_report": {"entries": _MEMORY_DEFAULT_ENTRIES},
    "feature_profile": {},
}
# The options that list policy presets.
_PRESET_OPTIONS = {("policy_sweep", "presets"), ("superres_tradeoff", "policies")}
# The least value of each numeric option, or of each item of a list one.
_OPTION_MINIMUMS = {
    ("ablation_levels", "unet_depth"): 2,
    ("ablation_levels", "unetpp_depth"): 1,
    ("ablation_levels", "base_channels"): 1,
    ("ablation_levels", "input_hw"): 1,
    ("null_hypothesis", "corruption_seed"): 0,
    ("null_hypothesis", "noise_scales"): 0,
    ("superres_tradeoff", "reference_hw"): 1,
    ("superres_tradeoff", "small_input_scale"): 1,
    ("superres_tradeoff", "large_input_scale"): 1,
    ("superres_tradeoff", "base_channels"): 1,
    ("superres_tradeoff", "lr_pool"): 0,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(value, kind) -> bool:
    """Whether a config value has a field's type: int (not bool), float
    (an int too, such as 1 for 1.0), or a tuple of those."""
    if kind is float:
        return _is_int(value) or isinstance(value, float)
    if kind is int:
        return _is_int(value)
    items = typing.get_args(kind)
    if not isinstance(value, tuple):
        return False
    if items[-1] is Ellipsis:
        return all(_fits(item, items[0]) for item in value)
    return len(value) == len(items) and all(map(_fits, value, items))


def _type_name(kind) -> str:
    return kind.__name__ if isinstance(kind, type) else str(kind)


def _like(value, default) -> bool:
    """Whether a JSON value has the type of an option's default: each item
    of a list (each value of an object) that of the default's first one,
    an int where a float is."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_like(item, default[0]) for item in value)
    if isinstance(default, dict):
        first = next(iter(default.values()))
        return isinstance(value, dict) and all(_like(item, first) for item in value.values())
    if isinstance(default, (int, float)):
        return _fits(value, type(default))
    return isinstance(value, type(default))


def _json_type(default, plural: str = "") -> str:
    """An option default's JSON type, such as "array of numbers"."""
    if isinstance(default, list):
        return f"array{plural} of {_json_type(default[0], 's')}"
    if isinstance(default, dict):
        return f"object{plural} of {_json_type(next(iter(default.values())), 's')}"
    return {int: "integer", float: "number", str: "string"}[type(default)] + plural


def validate_run_config(cfg: RunConfig) -> None:
    if cfg.scenario != "all" and cfg.scenario not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {cfg.scenario!r}; pick from {SCENARIO_NAMES}")
    if not _is_int(cfg.seed) or cfg.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if cfg.frames is not None and not (_is_int(cfg.frames) and cfg.frames >= 1):
        raise ValueError(f"frames must be an integer >= 1, got {cfg.frames!r}")
    if not (_is_int(cfg.warmup) and cfg.warmup >= 0):
        raise ValueError(f"warmup must be an integer >= 0, got {cfg.warmup!r}")
    for key in _NETWORK_INT_FIELDS:
        if key in cfg.network and not _is_int(cfg.network[key]):
            raise ValueError(f"network.{key} must be an integer, got {cfg.network[key]!r}")
    if "input_shape" in cfg.network:
        shape = cfg.network["input_shape"]
        if not (isinstance(shape, (list, tuple)) and len(shape) == 3 and all(map(_is_int, shape))):
            raise ValueError(f"network.input_shape must be three integers, got {shape!r}")
    preset = cfg.policy.get("preset", _DEFAULT_POLICY_PRESET)
    if preset not in PRESETS:
        raise ValueError(f"unknown policy preset {preset!r}; pick from {tuple(PRESETS)}")
    # A preset's policy class does not depend on the horizon.
    policy = preset_policy(preset, 1)
    fields = {f.name: f.type for f in dataclasses.fields(policy)}
    overrides = {key: value for key, value in cfg.policy.items() if key != "preset"}
    for key, value in overrides.items():
        if key not in fields:
            raise ValueError(
                f"policy field {key!r} is not a field of {type(policy).__name__}; "
                f"allowed: {list(fields)}"
            )
        if not _fits(value, fields[key]):
            raise ValueError(f"policy.{key} must be {_type_name(fields[key])}, got {value!r}")
    try:
        dataclasses.replace(policy, **overrides)
    except ValueError as err:
        raise ValueError(f"policy: {err}") from None
    scene_fields = {f.name: f.type for f in dataclasses.fields(SceneConfig)}
    for key, value in cfg.scene.items():
        if key not in scene_fields:
            raise ValueError(
                f"scene field {key!r} is not a field of SceneConfig; allowed: {list(scene_fields)}"
            )
        if not _fits(value, scene_fields[key]):
            raise ValueError(f"scene.{key} must be {_type_name(scene_fields[key])}, got {value!r}")
    try:
        SceneConfig(**{"seed": cfg.seed, **cfg.scene})
    except ValueError as err:
        raise ValueError(f"scene: {err}") from None
    if cfg.cache is not None and not isinstance(cfg.cache, str):
        raise ValueError(f"cache must be null or a string, got {cfg.cache!r}")
    if not isinstance(cfg.out_dir, str):
        raise ValueError(f"out_dir must be a string, got {cfg.out_dir!r}")
    for name, value in cfg.options.items():
        if name not in SCENARIO_NAMES:
            raise ValueError(f"options key {name!r} is not a scenario name")
        if not isinstance(value, dict):
            raise ValueError(f"options.{name} must be a JSON object, got {value!r}")
        _check_options(name, value)
    _check_option_sizes(cfg)


def _check_options(name: str, options: dict) -> None:
    """Each key must be an option of the scenario and have its default's
    JSON type and at least its _OPTION_MINIMUMS value; a list of policy
    presets must name known presets, and a memory_report shape
    non-negative dimensions."""
    defaults = _OPTION_DEFAULTS[name]
    for key, value in options.items():
        if key not in defaults:
            raise ValueError(f"options.{name} has no key {key!r}; allowed: {list(defaults)}")
        if not _like(value, defaults[key]):
            expected = _json_type(defaults[key])
            raise ValueError(f"options.{name}.{key} must be a JSON {expected}, got {value!r}")
        least = _OPTION_MINIMUMS.get((name, key))
        if least is not None:
            items = value if isinstance(value, list) else [value]
            if not all(math.isfinite(item) and item >= least for item in items):
                raise ValueError(f"options.{name}.{key} must be >= {least}, got {value!r}")
        if (name, key) == ("memory_report", "entries"):
            for label, shapes in value.items():
                if any(dim < 0 for shape in shapes for dim in shape):
                    raise ValueError(f"options.{name}.{key}: {label!r} has a negative dimension")
        if (name, key) not in _PRESET_OPTIONS:
            continue
        unknown = [item for item in value if item not in PRESETS]
        if unknown:
            raise ValueError(
                f"options.{name}.{key}: unknown policy presets {unknown}; pick from {tuple(PRESETS)}"
            )


def _halvings(size: int) -> int:
    """How many times a positive size halves evenly."""
    return (size & -size).bit_length() - 1


def _check_option_sizes(cfg: RunConfig) -> None:
    """The input sizes of ablation_levels and superres_tradeoff must halve
    evenly as often as their networks pool, after superres_tradeoff's
    downscale by each scale factor."""
    opts = _options(cfg, "ablation_levels")
    steps = max(opts["unet_depth"] - 1, opts["unetpp_depth"])
    if steps > _halvings(opts["input_hw"]):
        raise ValueError(
            f"options.ablation_levels.input_hw must halve evenly {steps} times for "
            f"unet_depth {opts['unet_depth']} and unetpp_depth {opts['unetpp_depth']}, "
            f"got {opts['input_hw']}"
        )
    opts = _options(cfg, "superres_tradeoff")
    hw, lr_pool = opts["reference_hw"], opts["lr_pool"]
    for key in ("small_input_scale", "large_input_scale"):
        if hw % opts[key] or lr_pool > _halvings(hw // opts[key]):
            raise ValueError(
                f"options.superres_tradeoff.reference_hw must divide by {key} {opts[key]} "
                f"into a size that halves evenly lr_pool {lr_pool} times, got {hw}"
            )


def _tuples(value):
    """A JSON array, nested ones included, as tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {data!r}")
    if data.get("version") != CONFIG_VERSION:
        raise ValueError(f"config version must be {CONFIG_VERSION}, got {data.get('version')!r}")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known - {"version"}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    kwargs = {k: v for k, v in data.items() if k in known}
    for key in ("network", "policy", "scene", "options"):
        if kwargs.get(key) is None:
            kwargs[key] = {}
        elif not isinstance(kwargs[key], dict):
            raise ValueError(f"{key} must be a JSON object, got {kwargs[key]!r}")
    for key in ("network", "scene"):
        kwargs[key] = {name: _tuples(value) for name, value in kwargs[key].items()}
    cfg = RunConfig(**kwargs)
    validate_run_config(cfg)
    return cfg


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        return run_config_from_dict(json.load(fh))


def default_run_config(scenario: str = "all") -> RunConfig:
    cfg = RunConfig(scenario=scenario)
    validate_run_config(cfg)
    return cfg


def _options(cfg: RunConfig, scenario: str) -> dict:
    return {**_OPTION_DEFAULTS[scenario], **cfg.options.get(scenario, {})}


def _frame_count(cfg: RunConfig, scenario: str) -> int:
    return cfg.frames or _DEFAULT_FRAMES[scenario]


def _network_params(cfg: RunConfig, scenario: str) -> dict:
    return {"seed": cfg.seed, **_NETWORK_DEFAULTS[scenario], **cfg.network}


def _scene_shape(cfg: RunConfig, scenario: str) -> tuple[int, int, int]:
    """The (channels, height, width) of a scenario's scene: its network's
    input shape, ablation_levels' input_hw square, or the reference_hw
    square superres_tradeoff downscales to its networks' inputs."""
    if scenario == "ablation_levels":
        hw = _options(cfg, scenario)["input_hw"]
    elif scenario == "superres_tradeoff":
        hw = _options(cfg, scenario)["reference_hw"]
    else:
        return tuple(_network_params(cfg, scenario)["input_shape"])
    return (6, hw, hw)


def _scene_config(cfg: RunConfig, scenario: str, **defaults) -> SceneConfig:
    """A scenario's scene of _scene_shape; the config's scene section
    overrides any field (run_scenarios lets it repeat the size only)."""
    channels, height, width = _scene_shape(cfg, scenario)
    size = {"channels": channels, "height": height, "width": width}
    return SceneConfig(**{"seed": cfg.seed, **size, **defaults, **cfg.scene})


def _builder(params: dict):
    """The builder a network dict ({"kind": ..., params...}) names, and its
    keyword arguments."""
    kwargs = dict(params)
    kind = kwargs.pop("kind", "unet")
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ValueError(f"unknown network kind {kind!r}")
    return _BUILDERS[kind], kwargs


def _build_network(params: dict):
    build, kwargs = _builder(params)
    return build(**kwargs)


def _check_scenes(cfg: RunConfig, names) -> None:
    """Each named scenario's frame count must exceed warmup where the
    scenario scores its runs, and be at least 2 for feature_profile; a
    scene size in the config must equal the scenario's _scene_shape."""
    for name in names:
        if name not in _DEFAULT_FRAMES:
            continue
        frames = _frame_count(cfg, name)
        if name in _SCORED_SCENARIOS and cfg.warmup >= frames:
            raise ValueError(
                f"warmup must be less than the {frames} frames of scenario {name}, got {cfg.warmup}"
            )
        if name == "feature_profile" and frames < 2:
            raise ValueError(f"frames must be >= 2 for scenario feature_profile, got {frames}")
        for key, size in zip(("channels", "height", "width"), _scene_shape(cfg, name)):
            if cfg.scene.get(key, size) != size:
                raise ValueError(
                    f"scene.{key} must be {size} to fit the network of scenario {name}, "
                    f"got {cfg.scene[key]}"
                )


def _check_network(cfg: RunConfig, names) -> None:
    """The network section must fit the builder each named scenario calls."""
    for name in names:
        if name in _NETWORK_DEFAULTS:
            build, kwargs = _builder(_network_params(cfg, name))
            try:
                inspect.signature(build).bind(**kwargs)
            except TypeError as err:
                raise ValueError(f"network for scenario {name}: {err}") from None


def _apply_cache_label(spec, kind: str, label: str | None):
    if label is None:
        return spec
    if kind == "unet" and label.startswith("unet_level_"):
        return set_unet_level(spec, int(label.rsplit("_", 1)[1]))
    # In the U-Net++ grid the deepest row index equals the build depth.
    depth = max(b.ident.depth for b in spec.blocks.values())
    if kind == "unetpp" and label == "unetpp_config_a":
        return replace_cache_config(spec, unetpp_config_a(depth))
    if kind == "unetpp" and label == "unetpp_config_b":
        return replace_cache_config(spec, unetpp_config_b(depth))
    raise ValueError(f"unknown cache label {label!r} for network kind {kind!r}")


def _policy_from_config(cfg: RunConfig, horizon: int, default_preset: str):
    preset = cfg.policy.get("preset", default_preset)
    policy = preset_policy(preset, horizon)
    overrides = {k: v for k, v in cfg.policy.items() if k != "preset"}
    if overrides:
        policy = dataclasses.replace(policy, **overrides)
    return policy


# ---------------------------------------------------------------------------
# Shared row builders
# ---------------------------------------------------------------------------

_SUMMARY_COLUMNS = (
    "policy",
    "refresh_count",
    "skipped_frame_fraction",
    "eliminated_flops_fraction",
    "total_flops",
    "cache_bytes",
    "mean_mse",
    "psnr_db",
    "mean_ssim",
    "mean_smape",
)

_FRAME_COLUMNS = ("policy", "frame", "refreshed", "flops", "policy_metric", "mse", "ssim")


_MEAN_MSE = _SUMMARY_COLUMNS.index("mean_mse")


def _scored_run(label: str, spec, sequence, policy, memo, warmup: int, corruption=None, baseline=None):
    """Run one sequence and score it against the no-cache baseline.

    memo holds the full passes of spec's network over sequence: it feeds
    the refresh frames and its outputs are the baseline. baseline is
    prepare_references(memo.outputs), built once by the scenario and
    shared by its runs so each baseline frame is prepared once and each
    refresh frame scored once; without it this run prepares its own.
    Returns the SequenceReport, its summary row (_SUMMARY_COLUMNS) and its
    per-frame rows (_FRAME_COLUMNS).
    """
    report = run_sequence(spec, sequence, policy, corruption, memo=memo)
    quality = aggregate(report, memo.outputs if baseline is None else baseline, warmup=warmup)
    summary = (
        label,
        report.refresh_count,
        report.skipped_frame_fraction,
        report.eliminated_flops_fraction,
        report.total_flops,
        report.cache_bytes,
        quality.mean_mse,
        quality.psnr_of_mean_mse,
        quality.mean_ssim,
        quality.mean_smape,
    )
    frames = [
        (
            label,
            rec.index,
            rec.refreshed,
            rec.flops,
            rec.policy_metric,
            quality.per_frame_mse[rec.index],
            quality.per_frame_ssim[rec.index],
        )
        for rec in report.frames
    ]
    return report, summary, frames


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def scenario_policy_sweep(cfg: RunConfig) -> list[Table]:
    """Refresh-policy comparison on one drifting sequence.

    Runs every policy preset against the same scene and reports refresh
    counts and quality against the no-cache baseline, one row per policy.
    """
    frames = _frame_count(cfg, "policy_sweep")
    params = _network_params(cfg, "policy_sweep")
    spec = _apply_cache_label(_build_network(params), params["kind"], cfg.cache)
    scene = _scene_config(cfg, "policy_sweep", pan_speed=3.0, base_cell=8)
    presets = _options(cfg, "policy_sweep")["presets"]
    sequence = generate(scene, frames)
    memo = full_passes([spec], sequence)
    baseline = prepare_references(memo.outputs)
    summary_rows, frame_rows = [], []
    counts: dict[str, int] = {}
    for preset in presets:
        policy = preset_policy(preset, frames)
        report, summary, per_frame = _scored_run(
            preset, spec, sequence, policy, memo, cfg.warmup, baseline=baseline
        )
        counts[preset] = report.refresh_count
        summary_rows.append(summary)
        frame_rows += per_frame
    for preset, period in (("n5", 5), ("n2", 2)):
        if preset in counts:
            expected = math.ceil(frames / period)
            _require(
                counts[preset] == expected,
                f"{preset} refresh count must be ceil(T/{period})",
                refresh_count=counts[preset],
                expected=expected,
            )
    if "delta_h" in counts and "delta_l" in counts:
        _require(
            counts["delta_h"] >= counts["delta_l"],
            "delta_h (tau 0.20) must refresh at least as often as delta_l (tau 0.25)",
            delta_h=counts["delta_h"],
            delta_l=counts["delta_l"],
        )
    if "nonlinear" in counts:
        expected = len(power_schedule(max(1, math.ceil(frames / 5)), 1.4, frames))
        _require(
            counts["nonlinear"] == expected,
            "nonlinear count must match its schedule",
            refresh_count=counts["nonlinear"],
            expected=expected,
        )
    return [
        Table("policy_sweep_summary", _SUMMARY_COLUMNS, summary_rows),
        Table("policy_sweep_frames", _FRAME_COLUMNS, frame_rows),
    ]


def scenario_ablation_levels(cfg: RunConfig) -> list[Table]:
    """Cache-depth ablation: U-Net levels 1..n-1 and the U-Net++ configs.

    Reports the FLOPs remaining on cached frames and sequence quality for
    each cache configuration under one periodic refresh policy.
    """
    frames = _frame_count(cfg, "ablation_levels")
    opts = _options(cfg, "ablation_levels")
    unet_depth = opts["unet_depth"]
    unetpp_depth = opts["unetpp_depth"]
    base = opts["base_channels"]
    hw = opts["input_hw"]
    scene = _scene_config(cfg, "ablation_levels", pan_speed=0.75)
    sequence = generate(scene, frames)
    policy = _policy_from_config(cfg, frames, _DEFAULT_POLICY_PRESET)

    unet = build_unet(unet_depth, base, (6, hw, hw), seed=cfg.seed)
    unetpp = build_unetpp(unetpp_depth, base, (6, hw, hw), seed=cfg.seed)
    unet_specs = [set_unet_level(unet, level) for level in range(1, unet_depth)]
    unetpp_specs = [
        replace_cache_config(unetpp, config)
        for config in (unetpp_config_b(unetpp_depth), unetpp_config_a(unetpp_depth))
    ]
    variants = []
    for family, specs in (("unet", unet_specs), ("unetpp", unetpp_specs)):
        memo = full_passes(specs, sequence)
        baseline = prepare_references(memo.outputs)
        variants += [(family, spec, memo, baseline) for spec in specs]

    rows, frame_rows = [], []
    level_fracs, level_mse, config_fracs = [], [], {}
    for family, spec, memo, baseline in variants:
        label = spec.cache_config.label
        frac = spec.cached_flops() / spec.full_flops
        _, summary, per_frame = _scored_run(
            label, spec, sequence, policy, memo, cfg.warmup, baseline=baseline
        )
        rows.append((family, label, spec.full_flops, spec.cached_flops(), frac) + summary[1:])
        frame_rows += per_frame
        if family == "unet":
            level_fracs.append(frac)
            level_mse.append(summary[_MEAN_MSE])
        else:
            config_fracs[label] = frac
    # level_fracs[i] and level_mse[i] belong to unet_level_{i + 1}.
    for level, (frac_prev, frac_next) in enumerate(zip(level_fracs, level_fracs[1:]), start=2):
        _require(
            frac_prev < frac_next,
            "FLOPs-remaining must strictly increase with level",
            level=level,
            previous=frac_prev,
            flops_remaining=frac_next,
        )
    for level, (mse_prev, mse_next) in enumerate(zip(level_mse, level_mse[1:]), start=2):
        _require(
            mse_next <= mse_prev,
            "mean MSE must be non-increasing with deeper level",
            level=level,
            previous=mse_prev,
            mean_mse=mse_next,
        )
    _require(
        config_fracs["unetpp_config_b"] < config_fracs["unetpp_config_a"],
        "config B must leave fewer FLOPs than config A",
        config_b=config_fracs["unetpp_config_b"],
        config_a=config_fracs["unetpp_config_a"],
    )

    header = ("family", "cache_config", "full_flops", "cached_frame_flops", "flops_remaining") + _SUMMARY_COLUMNS[1:]
    return [
        Table("ablation_levels_summary", header, rows),
        Table("ablation_levels_frames", _FRAME_COLUMNS, frame_rows),
    ]


def scenario_null_hypothesis(cfg: RunConfig) -> list[Table]:
    """Replace refreshed cache contents with junk and measure the damage.

    The proper cache is compared against zeroed, uniform-random,
    normal-random and white-noise-perturbed variants, plus a never-refresh
    run, all on one standard coherent scene. The orderings asserted here
    are what justifies caching at all: cache contents carry signal, and
    wrong contents are worse than stale ones.
    """
    frames = _frame_count(cfg, "null_hypothesis")
    opts = _options(cfg, "null_hypothesis")
    spec = _build_network(_network_params(cfg, "null_hypothesis"))
    scene = _scene_config(cfg, "null_hypothesis", seed=21, pan_speed=0.4)
    corruption_seed = opts["corruption_seed"]
    noise_scales = opts["noise_scales"]
    policy = _policy_from_config(cfg, frames, _DEFAULT_POLICY_PRESET)
    sequence = generate(scene, frames)
    memo = full_passes([spec], sequence)
    baseline = prepare_references(memo.outputs)

    modes: list[tuple[str, Corruption | None]] = [
        ("proper", None),
        ("noise_0", Corruption("noise", sigma_scale=0.0, seed=corruption_seed)),
        ("noise_1", Corruption("noise", sigma_scale=1.0, seed=corruption_seed)),
    ]
    modes += [
        (f"noise_{scale:g}", Corruption("noise", sigma_scale=scale, seed=corruption_seed))
        for scale in noise_scales
    ]
    modes += [
        ("zero", Corruption("zero", seed=corruption_seed)),
        ("uniform_random", Corruption("uniform_random", seed=corruption_seed)),
        ("normal_random", Corruption("normal_random", seed=corruption_seed)),
    ]
    runs = [(label, policy, corruption) for label, corruption in modes]
    runs.append(("no_update", preset_policy("no_update", frames), None))

    summary_rows, frame_rows = [], []
    means: dict[str, float] = {}
    outputs: dict[str, list[np.ndarray]] = {}
    for label, run_policy, corruption in runs:
        report, summary, per_frame = _scored_run(
            label, spec, sequence, run_policy, memo, cfg.warmup, corruption, baseline
        )
        summary_rows.append(summary)
        frame_rows += per_frame
        means[label] = summary[_MEAN_MSE]
        if label in ("proper", "noise_0"):
            outputs[label] = report.outputs

    differing = [
        index
        for index, (a, b) in enumerate(zip(outputs["noise_0"], outputs["proper"]))
        if not np.array_equal(a, b)
    ]
    _require(
        not differing,
        "noise with sigma_scale 0 must reproduce the proper cache exactly",
        differing_frames=differing,
    )
    _require(
        means["noise_1"] >= 2 * means["proper"],
        "1-sigma noise must at least double proper-cache MSE",
        noise_1=means["noise_1"],
        proper=means["proper"],
    )
    _require(
        means["noise_1"] <= means["zero"],
        "zeroing must hurt at least as much as 1-sigma noise",
        noise_1=means["noise_1"],
        zero=means["zero"],
    )
    for label in ("uniform_random", "normal_random"):
        for bound, name in (("zero", "zero-cache"), ("no_update", "no-update")):
            _require(
                means[label] >= 2 * means[bound],
                f"{label} must at least double {name} MSE",
                **{label: means[label], bound: means[bound]},
            )
    return [
        Table("null_hypothesis_summary", _SUMMARY_COLUMNS, summary_rows),
        Table("null_hypothesis_frames", _FRAME_COLUMNS, frame_rows),
    ]


def _downscale_frame(frame: FrameInput, factor: int) -> FrameInput:
    """Area-average a reference frame to a smaller network input.

    Motion vectors are averaged and rescaled into the coarse pixel grid.
    """
    motion = (block_mean(frame.motion, factor) / factor).astype(np.float32)
    return FrameInput(frame.index, block_mean(frame.input, factor), motion)


def _stream_reference(scene: SceneConfig, frame_count: int, factors):
    """Walk a scene one frame at a time, keeping a copy of each frame's
    colour channels and its _downscale_frame at each factor; no
    full-resolution frame is alive once this returns. Returns the colour
    list and one frame list per factor.
    """
    colours, scaled = [], [[] for _ in factors]
    for frame in iter_frames(scene, frame_count):
        colours.append(frame.input[:3].copy())
        for frames, factor in zip(scaled, factors):
            frames.append(_downscale_frame(frame, factor))
    return colours, scaled


def scenario_superres_tradeoff(cfg: RunConfig) -> list[Table]:
    """Spend saved FLOPs on a bigger input: cache vs render scale.

    One reference scene is streamed at high resolution, one frame at a
    time: each frame is area-downscaled to both network inputs and only
    its colour channels are kept as the reference, so no full-resolution
    frame outlives its turn. Each row runs the same super-resolution
    network on one of the downscaled sequences. A larger input (smaller
    scale factor) costs more per frame, so the question is whether
    caching at the larger input undercuts the total FLOPs of the
    small-input no-cache baseline. The break-even skipped fraction is
    computed from per-frame FLOPs and asserted against measured totals.
    Output quality is measured against the reference color channels after
    nearest upsampling back to reference resolution. Each frame's uncached
    RMSE against the reference is computed once per scale, by the baseline
    row, whose cache error is zero; the cached rows at that scale reuse it.
    """
    frames = _frame_count(cfg, "superres_tradeoff")
    opts = _options(cfg, "superres_tradeoff")
    reference_hw = opts["reference_hw"]
    small_scale = opts["small_input_scale"]
    large_scale = opts["large_input_scale"]
    base = opts["base_channels"]
    lr_pool = opts["lr_pool"]
    cached_policies = opts["policies"]

    scene = _scene_config(cfg, "superres_tradeoff", pan_speed=3.0, base_cell=48)
    reference, (small_frames, large_frames) = _stream_reference(
        scene, frames, (small_scale, large_scale)
    )

    def spec_for(scale: int):
        hw = reference_hw // scale
        return build_superres((6, hw, hw), base_channels=base, lr_pool=lr_pool, seed=cfg.seed)

    small_spec, large_spec = spec_for(small_scale), spec_for(large_scale)
    _require(
        large_spec.full_flops > small_spec.full_flops,
        "the larger input must cost more FLOPs per full frame",
        large_flops=large_spec.full_flops,
        small_flops=small_spec.full_flops,
    )
    live_fraction = large_spec.cached_flops() / large_spec.full_flops
    flops_ratio = small_spec.full_flops / large_spec.full_flops
    break_even = (1.0 - flops_ratio) / (1.0 - live_fraction)

    def run_row(scale, spec, frames_in, label, policy, uncached=None):
        """One row's summary and frame rows, and its (outputs, per-frame
        rmse_vs_reference). A baseline row (uncached None) refreshes every
        frame, so it is its own uncached run; a cached row takes its
        scale's baseline pair as uncached."""
        report = run_sequence(spec, frames_in, policy)
        rows = []
        vs_ref, vs_full = [], []
        for rec in report.frames:
            up = repeat_nearest(rec.output, scale)
            rmse_ref = math.sqrt(mse(up, reference[rec.index]))
            if uncached is None:
                rmse_full_ref, rmse_cache = rmse_ref, 0.0
            else:
                full_outputs, full_rmse = uncached
                rmse_full_ref = full_rmse[rec.index]
                rmse_cache = math.sqrt(mse(up, repeat_nearest(full_outputs[rec.index], scale)))
            _require(
                rmse_ref <= rmse_full_ref + rmse_cache + 1e-9,
                "per-frame quality must stay within the uncached quality plus the cache error",
                row=label,
                frame=rec.index,
                rmse_ref=rmse_ref,
                rmse_full_ref_plus_cache=rmse_full_ref + rmse_cache,
            )
            vs_ref.append(rmse_ref)
            vs_full.append(rmse_cache)
            rows.append((label, rec.index, rec.refreshed, rec.flops, rmse_ref, rmse_cache))
        summary = (
            label,
            scale,
            report.refresh_count,
            report.skipped_frame_fraction,
            report.total_flops,
            spec.full_flops,
            break_even,
            float(np.mean(np.asarray(vs_ref, dtype=np.float64))),
            float(np.mean(np.asarray(vs_full, dtype=np.float64))),
        )
        return summary, rows, (report.outputs, vs_ref)

    summary_rows, frame_rows = [], []
    summary, rows, _ = run_row(small_scale, small_spec, small_frames, f"scale{small_scale}_baseline", EveryN(1))
    baseline_total = summary[4]
    summary_rows.append(summary)
    frame_rows += rows
    summary, rows, large_uncached = run_row(
        large_scale, large_spec, large_frames, f"scale{large_scale}_baseline", EveryN(1)
    )
    summary_rows.append(summary)
    frame_rows += rows
    for preset in cached_policies:
        policy = preset_policy(preset, frames)
        summary, rows, _ = run_row(
            large_scale, large_spec, large_frames, f"scale{large_scale}_{preset}", policy, large_uncached
        )
        summary_rows.append(summary)
        frame_rows += rows
        skipped = summary[3]
        if skipped >= break_even:
            _require(
                summary[4] < baseline_total,
                f"{preset}: cached large-input total FLOPs must undercut the small-input baseline",
                cached_total=summary[4],
                baseline_total=baseline_total,
                skipped=skipped,
                break_even=break_even,
            )

    header = (
        "row",
        "scale",
        "refresh_count",
        "skipped_frame_fraction",
        "total_flops",
        "full_pass_flops",
        "break_even_skip",
        "mean_rmse_vs_reference",
        "mean_rmse_vs_uncached",
    )
    frame_header = ("row", "frame", "refreshed", "flops", "rmse_vs_reference", "rmse_vs_uncached")
    return [
        Table("superres_tradeoff_summary", header, summary_rows),
        Table("superres_tradeoff_frames", frame_header, frame_rows),
    ]


_MEMORY_EXPECTED_BYTES = {
    "color_history_24x360x640": 22_118_400,
    "pyramid_7x64x192x256": 88_080_384,
    "empty": 0,
}


def scenario_memory_report(cfg: RunConfig) -> list[Table]:
    """Cache memory footprint per workload: 4 bytes per stored value."""
    entries = _options(cfg, "memory_report")["entries"]
    rows = []
    for label, shapes in entries.items():
        total = cache_bytes_report(
            {f"entry_{i}": np.zeros(tuple(s), dtype=np.float32) for i, s in enumerate(shapes)}
        )
        values = sum(int(np.prod(s)) for s in shapes)
        _require(total == 4 * values, "cache bytes must equal 4 per stored value", bytes=total, values=values)
        expected = _MEMORY_EXPECTED_BYTES.get(label)
        if expected is not None and list(map(list, shapes)) == _MEMORY_DEFAULT_ENTRIES[label]:
            _require(total == expected, f"{label} must occupy {expected} bytes", bytes=total)
        rows.append((label, len(shapes), values, total))
    return [Table("memory_report_summary", ("workload", "entries", "values", "bytes"), rows)]


def scenario_feature_profile(cfg: RunConfig) -> list[Table]:
    """Per-depth feature drift (SMAPE against frame 0) on a panning scene."""
    frames = _frame_count(cfg, "feature_profile")
    spec = _build_network(_network_params(cfg, "feature_profile"))
    scene = _scene_config(cfg, "feature_profile", pan_speed=1.0, base_cell=24)
    sequence = generate(scene, frames)
    profile = feature_delta_profile(spec, [frame.input for frame in sequence])
    depths = sorted(profile)
    for depth in depths:
        curve = profile[depth]
        _require(curve[0] == 0.0, "frame 0 must have zero drift at every depth", depth=depth, drift=curve[0])
        for frame, (previous, drift) in enumerate(zip(curve, curve[1:]), start=1):
            _require(
                drift >= previous - 1e-9,
                f"depth {depth} drift must be non-decreasing on a monotone pan",
                frame=frame,
                previous=previous,
                drift=drift,
            )
    rows = [
        tuple([i] + [profile[d][i] for d in depths])
        for i in range(frames)
    ]
    header = ("frame",) + tuple(f"depth{d}_smape" for d in depths)
    return [Table("feature_profile_frames", header, rows)]


SCENARIOS = {
    "policy_sweep": scenario_policy_sweep,
    "ablation_levels": scenario_ablation_levels,
    "null_hypothesis": scenario_null_hypothesis,
    "superres_tradeoff": scenario_superres_tradeoff,
    "memory_report": scenario_memory_report,
    "feature_profile": scenario_feature_profile,
}


def run_scenarios(cfg: RunConfig, out_dir=None, log=print) -> int:
    """Run the configured scenario(s), write tables, return a CI exit code.

    A ScenarioError marks the run failed (exit 1) but later scenarios
    still execute so one CI run reports every broken scenario.
    """
    validate_run_config(cfg)
    names = list(SCENARIO_NAMES) if cfg.scenario == "all" else [cfg.scenario]
    _check_network(cfg, names)
    _check_scenes(cfg, names)
    destination = Path(out_dir if out_dir is not None else cfg.out_dir)
    status = 0
    for name in names:
        try:
            tables = SCENARIOS[name](cfg)
        except ScenarioError as err:
            log(f"[FAIL] {name}: {err}")
            status = 1
            continue
        written = write_tables(tables, destination)
        log(f"[PASS] {name}: " + ", ".join(str(p) for p in written))
    return status
