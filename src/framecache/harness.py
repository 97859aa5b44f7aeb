"""Experiment scenarios binding networks, policies, caching and metrics.

Each scenario takes a RunConfig, runs a fixed suite of cached-inference
experiments on a generated scene and returns tables that are written as
both CSV (full float precision, machine-readable) and aligned text.
Scenario-internal assertions raise ScenarioError so the command line can
act as an acceptance runner; everything is a pure function of the config,
so a (RunConfig, seed) pair reproduces its tables bit-identically.

Each scenario's facts sit in one Scenario record: its options, default
frame count, network defaults, scene defaults and where its scene size
comes from. _prepare builds a scenario's inputs from its record and the
config, checking as it builds; before any scenario runs, run_scenarios
prepares each selected one exactly as its body will, so a config that
passes this check raises no config error (exit 2) midway. A scenario's
own acceptance checks can still fail it (exit 1).

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
import types
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
from .metrics import SSIM_WINDOW, aggregate, mse, prepare_references
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


def _cell(value, float_text) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return float_text(value)
    return "" if value is None else str(value)


def format_table(table: Table) -> str:
    """Render a table as aligned monospace text."""
    cells = [list(table.header)]
    cells += [[_cell(v, "{:.6g}".format) for v in row] for row in table.rows]
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
            # repr of a float round-trips exactly, so CSV readers can
            # recompute summary statistics bit-identically.
            for row in table.rows:
                writer.writerow([_cell(v, repr) for v in row])
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


_NETWORK_KINDS = ("unet", "unetpp", "superres")


def _builder(kind: str):
    """The builder of a network kind, looked up in this module at call
    time, so a replaced harness.build_<kind> binding is the one called."""
    return globals()[f"build_{kind}"]


_MEMORY_DEFAULT_ENTRIES = {
    "color_history_24x360x640": ((24, 360, 640),),
    "pyramid_7x64x192x256": ((64, 192, 256),) * 7,
    "empty": (),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(value, kind) -> bool:
    """Whether a config value has an annotation's type: int (not bool),
    float (an int too, such as 1 for 1.0), str, None, a tuple or a
    str-keyed dict of those, or a union such as int | None."""
    if kind is float:
        return _is_int(value) or isinstance(value, float)
    if kind is int:
        return _is_int(value)
    if kind in (str, type(None)):
        return isinstance(value, kind)
    origin, items = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, item) for item in items)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(key, items[0]) and _fits(item, items[1]) for key, item in value.items()
        )
    if origin is not tuple or not isinstance(value, tuple):
        return False
    if items[-1] is Ellipsis:
        return all(_fits(item, items[0]) for item in value)
    return len(value) == len(items) and all(map(_fits, value, items))


def _type_name(kind) -> str:
    return kind.__name__ if isinstance(kind, type) else str(kind)


def _tuples(value):
    """A JSON value with every array in it, nested ones and those inside
    objects included, as a tuple."""
    if isinstance(value, list):
        return tuple(map(_tuples, value))
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return value


def _checked(section: str, constructor, values: dict) -> dict:
    """values with JSON arrays as tuples, each key a parameter of
    constructor and each value fitting that parameter's annotation."""
    params = inspect.signature(constructor, eval_str=True).parameters
    checked = {}
    for key, value in values.items():
        if key not in params:
            raise ValueError(
                f"{section} field {key!r} is not a parameter of {constructor.__name__}; "
                f"allowed: {list(params)}"
            )
        checked[key] = value = _tuples(value)
        kind = params[key].annotation
        if not _fits(value, kind):
            raise ValueError(f"{section}.{key} must be {_type_name(kind)}, got {value!r}")
    return checked


def _construct(section: str, constructor, values: dict, defaults: dict | None = None):
    """constructor(**defaults, **values), values checked first by _checked;
    a ValueError of the constructor is re-raised naming the section."""
    checked = _checked(section, constructor, values)
    try:
        return constructor(**{**(defaults or {}), **checked})
    except ValueError as err:
        raise ValueError(f"{section}: {err}") from None


# ---------------------------------------------------------------------------
# Scenario options: one record per scenario, built from options.<scenario>
# ---------------------------------------------------------------------------


def _check_minimums(record, **least) -> None:
    """Each named field of an options record, or each item of a tuple
    field, must be finite and at least its least value."""
    for key, bound in least.items():
        value = getattr(record, key)
        items = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(item) and item >= bound for item in items):
            raise ValueError(f"{key} must be >= {bound}, got {value!r}")


def _check_presets(key: str, names) -> None:
    unknown = [name for name in names if name not in PRESETS]
    if unknown:
        raise ValueError(f"{key}: unknown policy presets {unknown}; pick from {tuple(PRESETS)}")


def _halvings(size: int) -> int:
    """How many times a positive size halves evenly."""
    return (size & -size).bit_length() - 1


@dataclass(frozen=True)
class PolicySweepOptions:
    """The policy presets policy_sweep compares, in row order."""

    presets: tuple[str, ...] = tuple(name for name in PRESETS if name != "no_update")

    def __post_init__(self):
        _check_presets("presets", self.presets)


@dataclass(frozen=True)
class AblationLevelsOptions:
    """The depths and base channels of ablation_levels' U-Net and U-Net++,
    and its square scene size, which must halve evenly as often as they
    pool."""

    unet_depth: int = 4
    unetpp_depth: int = 2
    base_channels: int = 8
    input_hw: int = 48

    def __post_init__(self):
        _check_minimums(self, unet_depth=2, unetpp_depth=1, base_channels=1, input_hw=1)
        steps = max(self.unet_depth - 1, self.unetpp_depth)
        if steps > _halvings(self.input_hw):
            raise ValueError(
                f"input_hw must halve evenly {steps} times for unet_depth {self.unet_depth} "
                f"and unetpp_depth {self.unetpp_depth}, got {self.input_hw}"
            )


@dataclass(frozen=True)
class NullHypothesisOptions:
    """The seed of null_hypothesis' cache corruptions and the noise scales
    it adds to the fixed 0 and 1."""

    corruption_seed: int = 3
    noise_scales: tuple[float, ...] = (0.5, 2.0)

    def __post_init__(self):
        _check_minimums(self, corruption_seed=0, noise_scales=0)


@dataclass(frozen=True)
class SuperresTradeoffOptions:
    """superres_tradeoff's square reference size, the factors it downscales
    by to its two network inputs, their network's parameters and the cached
    rows' presets. The large input's scale is below the small one's, and
    each downscaled size must halve evenly lr_pool times."""

    reference_hw: int = 192
    small_input_scale: int = 4
    large_input_scale: int = 3
    base_channels: int = 8
    lr_pool: int = 2
    policies: tuple[str, ...] = ("n5", "delta_h", "delta_l")

    def __post_init__(self):
        _check_minimums(
            self, reference_hw=1, small_input_scale=1, large_input_scale=1, base_channels=1, lr_pool=0
        )
        if self.large_input_scale >= self.small_input_scale:
            raise ValueError(
                f"large_input_scale must be less than small_input_scale {self.small_input_scale}, "
                f"got {self.large_input_scale}"
            )
        _check_presets("policies", self.policies)
        hw = self.reference_hw
        for key in ("small_input_scale", "large_input_scale"):
            scale = getattr(self, key)
            if hw % scale or self.lr_pool > _halvings(hw // scale):
                raise ValueError(
                    f"reference_hw must divide by {key} {scale} into a size that halves "
                    f"evenly lr_pool {self.lr_pool} times, got {hw}"
                )


@dataclass(frozen=True)
class MemoryReportOptions:
    """memory_report's cache entry shapes by workload label."""

    entries: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=_MEMORY_DEFAULT_ENTRIES.copy)

    def __post_init__(self):
        for label, shapes in self.entries.items():
            if any(dim < 0 for shape in shapes for dim in shape):
                raise ValueError(f"entries: {label!r} has a negative dimension")
            for shape in shapes:
                values, most = math.prod(shape), np.iinfo(np.intp).max
                if values > most:
                    raise ValueError(
                        f"entries: {label!r} shape {shape} has {values} values, "
                        f"more than an intp counts ({most})"
                    )


@dataclass(frozen=True)
class FeatureProfileOptions:
    """feature_profile takes no options."""


@dataclass(frozen=True)
class Scenario:
    """What the harness knows of one scenario besides its body (run).

    frames is its default frame count (0 if it makes no scene) and
    least_frames the fewest it accepts. network holds its builder
    parameters, which the config's network section overrides, or is None
    if it builds its own networks; cache says whether the config's cache
    label applies to that network. A scored scenario's quality means skip
    the config's warmup frames. scene holds its scene's fields apart from
    the size, which is 6 channels of the square size_option field of its
    options, or its network's input_shape when size_option is None.
    """

    run: typing.Callable[[RunConfig], list[Table]]
    options: type
    frames: int = 0
    least_frames: int = 1
    network: dict | None = None
    cache: bool = False
    scored: bool = False
    scene: dict = field(default_factory=dict)
    size_option: str | None = None


def validate_run_config(cfg: RunConfig) -> None:
    if cfg.scenario != "all" and cfg.scenario not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {cfg.scenario!r}; pick from {SCENARIO_NAMES}")
    if not _is_int(cfg.seed) or cfg.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if cfg.frames is not None and not (_is_int(cfg.frames) and cfg.frames >= 1):
        raise ValueError(f"frames must be an integer >= 1, got {cfg.frames!r}")
    if not (_is_int(cfg.warmup) and cfg.warmup >= 0):
        raise ValueError(f"warmup must be an integer >= 0, got {cfg.warmup!r}")
    # A preset's policy class does not depend on the horizon.
    _policy_from_config(cfg, 1)
    _construct("scene", SceneConfig, cfg.scene, {"seed": cfg.seed})
    _check_network_values(cfg.network)
    _check_cache(cfg)
    if not isinstance(cfg.out_dir, str):
        raise ValueError(f"out_dir must be a string, got {cfg.out_dir!r}")
    for name, value in cfg.options.items():
        if name not in SCENARIO_NAMES:
            raise ValueError(f"options key {name!r} is not a scenario name")
        if not isinstance(value, dict):
            raise ValueError(f"options.{name} must be a JSON object, got {value!r}")
        _construct(f"options.{name}", _SCENARIO_RECORDS[name].options, value)


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
        kwargs[key] = _tuples(kwargs[key])
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


def _network_params(cfg: RunConfig, scenario: str) -> dict:
    """The config's network section, then the scenario's builder
    parameters for the keys it leaves out."""
    defaults = {"seed": cfg.seed, **_SCENARIO_RECORDS[scenario].network}
    return {**cfg.network, **{key: value for key, value in defaults.items() if key not in cfg.network}}


def _check_network_values(network: dict) -> None:
    """Each network value must fit its key's annotation in every builder
    that takes the key, or in the one kind names, whichever scenarios run;
    run_scenarios builds the selected scenarios' networks."""
    values = dict(network)
    kind = values.pop("kind", None)
    if "kind" in network and (not isinstance(kind, str) or kind not in _NETWORK_KINDS):
        raise ValueError(f"unknown network kind {kind!r}")
    for name in _NETWORK_KINDS:
        if kind in (None, name):
            build = _builder(name)
            params = inspect.signature(build).parameters
            _checked("network", build, {key: value for key, value in values.items() if key in params})


def _prepare(cfg: RunConfig, name: str):
    """The (frames, options, network or None, SceneConfig or None) of
    scenario name, built from its record and the config. It checks as it
    builds: the network, under the config's cache label if the record
    says so, then a scored scenario's warmup and the fewest frames
    against its frame count, then a scene size in the config against its
    own and a scored scene against the SSIM window.
    run_scenarios prepares every selected scenario before any runs, and
    each scenario body takes its inputs from this call."""
    record = _SCENARIO_RECORDS[name]
    options = _construct(f"options.{name}", record.options, cfg.options.get(name, {}))
    spec = None
    if record.network is not None:
        params = _network_params(cfg, name)
        kind = params.pop("kind")
        spec = _construct(f"network for scenario {name}", _builder(kind), params)
        if record.cache:
            spec = _apply_cache_label(spec, kind, params["depth"], cfg.cache)
    if not record.frames:
        return 0, options, spec, None
    frames = cfg.frames or record.frames
    if record.scored and cfg.warmup >= frames:
        raise ValueError(f"warmup must be less than the {frames} frames of scenario {name}, got {cfg.warmup}")
    if frames < record.least_frames:
        raise ValueError(f"frames must be >= {record.least_frames} for scenario {name}, got {frames}")
    if record.size_option is None:
        shape = spec.input_shape
    else:
        hw = getattr(options, record.size_option)
        shape = (6, hw, hw)
    size = dict(zip(("channels", "height", "width"), shape))
    for key, value in size.items():
        if cfg.scene.get(key, value) != value:
            raise ValueError(
                f"scene.{key} must be {value} to fit the network of scenario {name}, got {cfg.scene[key]}"
            )
    if record.scored and min(shape[1:]) < SSIM_WINDOW:
        source = f"options.{name}.{record.size_option}" if record.size_option else "network.input_shape"
        raise ValueError(
            f"{source} must give scenario {name}, which scores its frames by SSIM, a scene of at least "
            f"{SSIM_WINDOW}x{SSIM_WINDOW}, got {shape[1]}x{shape[2]}"
        )
    scene = _construct("scene", SceneConfig, cfg.scene, {"seed": cfg.seed, **size, **record.scene})
    return frames, options, spec, scene


def _cache_settings(kind: str, depth: int) -> dict:
    """The cache labels of a network kind and build depth, in order, each
    mapped to the function that puts such a network under it."""
    if kind == "unet":
        return {
            f"unet_level_{level}": lambda spec, level=level: set_unet_level(spec, level)
            for level in range(1, depth)
        }
    if kind == "unetpp":
        configs = (unetpp_config_a(depth), unetpp_config_b(depth))
        return {config.label: lambda spec, config=config: replace_cache_config(spec, config) for config in configs}
    return {}


def _check_cache(cfg: RunConfig) -> None:
    """cache is null or a label of policy_sweep's network, the one network
    it applies to."""
    if cfg.cache is None:
        return
    if not isinstance(cfg.cache, str):
        raise ValueError(f"cache must be null or a string, got {cfg.cache!r}")
    params = _network_params(cfg, "policy_sweep")
    labels = _cache_settings(params["kind"], params["depth"])
    if cfg.cache not in labels:
        raise ValueError(
            f"cache must be one of {list(labels)} for the {params['kind']} network of scenario "
            f"policy_sweep, got {cfg.cache!r}"
        )


def _apply_cache_label(spec, kind: str, depth: int, label: str | None):
    if label is None:
        return spec
    settings = _cache_settings(kind, depth)
    if label not in settings:
        raise ValueError(f"unknown cache label {label!r} for network kind {kind!r}")
    return settings[label](spec)


def _policy_from_config(cfg: RunConfig, horizon: int):
    """The policy section's preset (_DEFAULT_POLICY_PRESET if it names
    none) on horizon, with its other keys as field overrides."""
    preset = cfg.policy.get("preset", _DEFAULT_POLICY_PRESET)
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ValueError(f"unknown policy preset {preset!r}; pick from {tuple(PRESETS)}")
    policy = preset_policy(preset, horizon)
    overrides = {key: value for key, value in cfg.policy.items() if key != "preset"}
    return _construct("policy", type(policy), overrides, vars(policy))


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
    frames, opts, spec, scene = _prepare(cfg, "policy_sweep")
    sequence = generate(scene, frames)
    memo = full_passes([spec], sequence)
    baseline = prepare_references(memo.outputs)
    summary_rows, frame_rows = [], []
    counts: dict[str, int] = {}
    for preset in opts.presets:
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
    frames, opts, _, scene = _prepare(cfg, "ablation_levels")
    shape = (scene.channels, scene.height, scene.width)
    sequence = generate(scene, frames)
    policy = _policy_from_config(cfg, frames)

    unet = build_unet(opts.unet_depth, opts.base_channels, shape, seed=cfg.seed)
    unetpp = build_unetpp(opts.unetpp_depth, opts.base_channels, shape, seed=cfg.seed)
    unet_specs = [apply(unet) for apply in _cache_settings("unet", opts.unet_depth).values()]
    # Config B's rows before config A's.
    unetpp_specs = [apply(unetpp) for apply in reversed(_cache_settings("unetpp", opts.unetpp_depth).values())]
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
    frames, opts, spec, scene = _prepare(cfg, "null_hypothesis")
    corruption_seed = opts.corruption_seed
    policy = _policy_from_config(cfg, frames)
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
        for scale in opts.noise_scales
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
    frames, opts, _, scene = _prepare(cfg, "superres_tradeoff")
    small_scale = opts.small_input_scale
    large_scale = opts.large_input_scale

    reference, (small_frames, large_frames) = _stream_reference(
        scene, frames, (small_scale, large_scale)
    )

    def spec_for(scale: int):
        hw = opts.reference_hw // scale
        return build_superres(
            (6, hw, hw), base_channels=opts.base_channels, lr_pool=opts.lr_pool, seed=cfg.seed
        )

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
    for preset in opts.policies:
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
    _, opts, _, _ = _prepare(cfg, "memory_report")
    rows = []
    for label, shapes in opts.entries.items():
        # Read-only broadcasts of one float32 have each shape's size and
        # allocate nothing, however large the shape.
        total = cache_bytes_report(
            {f"entry_{i}": np.broadcast_to(np.float32(0), s) for i, s in enumerate(shapes)}
        )
        values = sum(math.prod(s) for s in shapes)
        _require(total == 4 * values, "cache bytes must equal 4 per stored value", bytes=total, values=values)
        expected = _MEMORY_EXPECTED_BYTES.get(label)
        if expected is not None and shapes == _MEMORY_DEFAULT_ENTRIES[label]:
            _require(total == expected, f"{label} must occupy {expected} bytes", bytes=total)
        rows.append((label, len(shapes), values, total))
    return [Table("memory_report_summary", ("workload", "entries", "values", "bytes"), rows)]


def scenario_feature_profile(cfg: RunConfig) -> list[Table]:
    """Per-depth feature drift (SMAPE against frame 0) on a panning scene."""
    frames, _, spec, scene = _prepare(cfg, "feature_profile")
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


_SCENARIO_RECORDS = {
    "policy_sweep": Scenario(
        scenario_policy_sweep, PolicySweepOptions, frames=10, scored=True, cache=True,
        network={"kind": "unet", "depth": 3, "base_channels": 8, "input_shape": (6, 48, 48)},
        scene={"pan_speed": 3.0, "base_cell": 8},
    ),
    "ablation_levels": Scenario(
        scenario_ablation_levels, AblationLevelsOptions, frames=20, scored=True,
        scene={"pan_speed": 0.75}, size_option="input_hw",
    ),
    "null_hypothesis": Scenario(
        scenario_null_hypothesis, NullHypothesisOptions, frames=40, scored=True,
        network={"kind": "superres", "base_channels": 8, "lr_pool": 1, "input_shape": (6, 64, 64), "seed": 14},
        scene={"seed": 21, "pan_speed": 0.4},
    ),
    "superres_tradeoff": Scenario(
        scenario_superres_tradeoff, SuperresTradeoffOptions, frames=40,
        scene={"pan_speed": 3.0, "base_cell": 48}, size_option="reference_hw",
    ),
    "memory_report": Scenario(scenario_memory_report, MemoryReportOptions),
    "feature_profile": Scenario(
        scenario_feature_profile, FeatureProfileOptions, frames=12, least_frames=2,
        network={"kind": "unet", "depth": 4, "base_channels": 8, "input_shape": (6, 48, 48)},
        scene={"pan_speed": 1.0, "base_cell": 24},
    ),
}
SCENARIOS = {name: record.run for name, record in _SCENARIO_RECORDS.items()}
SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenarios(cfg: RunConfig, out_dir=None, log=print) -> int:
    """Run the configured scenario(s), write tables, return a CI exit code.

    A ScenarioError marks the run failed (exit 1) but later scenarios
    still execute so one CI run reports every broken scenario.
    """
    validate_run_config(cfg)
    names = list(SCENARIO_NAMES) if cfg.scenario == "all" else [cfg.scenario]
    for name in names:
        _prepare(cfg, name)
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
