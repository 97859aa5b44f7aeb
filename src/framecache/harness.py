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

Scenarios that score cached runs against a no-cache baseline list their
runs, and _scored_runs runs and scores them on one full-pass memo per
network (engine.full_passes): it is their baseline and supplies their
refresh frames, so each distinct full pass runs once per scenario, and
it keeps edge tensors only on the frames some run refreshes. Its outputs
are prepared as metrics references once, so each baseline frame's SSIM
moments are computed once and a refresh frame is scored once across
runs. superres_tradeoff keeps running its own passes, because a memo of
its large network would raise the suite's peak memory.
"""

import csv
import dataclasses
import inspect
import itertools
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
    refresh_frames,
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
    "selected_scenarios",
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


def _repeated(items) -> list:
    """The items that occur more than once, each once, in sorted order."""
    items = list(items)
    return sorted({item for item in items if items.count(item) > 1})


def _check_presets(key: str, names) -> None:
    """Each name is a policy preset, and none repeats: each one labels a
    row of its own."""
    unknown = [name for name in names if name not in PRESETS]
    if unknown:
        raise ValueError(f"{key}: unknown policy presets {unknown}; pick from {tuple(PRESETS)}")
    repeated = _repeated(names)
    if repeated:
        raise ValueError(f"{key}: repeated policy presets {repeated}")


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


# The noise scales null_hypothesis always runs, labelled noise_0 and noise_1.
_FIXED_NOISE_SCALES = (0.0, 1.0)


def _noise_label(scale: float) -> str:
    """The label of null_hypothesis' run with noise of sigma_scale scale."""
    return f"noise_{scale:g}"


@dataclass(frozen=True)
class NullHypothesisOptions:
    """The seed of null_hypothesis' cache corruptions and the noise scales
    it adds to the fixed 0 and 1. Each scale's run is labelled
    noise_<scale:g>, so no two scales, nor a scale and 0 or 1, may share
    a label."""

    corruption_seed: int = 3
    noise_scales: tuple[float, ...] = (0.5, 2.0)

    def __post_init__(self):
        _check_minimums(self, corruption_seed=0, noise_scales=0)
        repeated = _repeated(_noise_label(scale) for scale in _FIXED_NOISE_SCALES + self.noise_scales)
        if repeated:
            raise ValueError(
                f"noise_scales must give run labels distinct from each other and from noise_0 "
                f"and noise_1, got {self.noise_scales!r}, which repeat {repeated}"
            )


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


def _scored_runs(runs, sequence, warmup: int):
    """Run each (label, spec, policy, corruption) of runs on sequence and
    score it against its network's no-cache baseline, in run order.

    Consecutive runs on one network (spec.blocks) share one full-pass
    memo over sequence, built before the first of them and released after
    the last. It keeps edge tensors only on the frames some of them
    refresh, and its outputs, prepared as metrics references once, are
    their baseline. Yields each run's SequenceReport, its summary row
    (_SUMMARY_COLUMNS) and its per-frame rows (_FRAME_COLUMNS), so a
    caller keeps only the reports it needs.
    """
    for _, network_runs in itertools.groupby(runs, key=lambda run: id(run[1].blocks)):
        network_runs = list(network_runs)
        policies = dict.fromkeys(policy for _, _, policy, _ in network_runs)
        keep = set().union(*(refresh_frames(policy, sequence) for policy in policies))
        memo = full_passes([spec for _, spec, _, _ in network_runs], sequence, keep)
        baseline = prepare_references(memo.outputs)
        for label, spec, policy, corruption in network_runs:
            report = run_sequence(spec, sequence, policy, corruption, memo=memo)
            quality = aggregate(report, baseline, warmup=warmup)
            summary = (
                label, report.refresh_count, report.skipped_frame_fraction, report.eliminated_flops_fraction,
                report.total_flops, report.cache_bytes, quality.mean_mse, quality.psnr_of_mean_mse,
                quality.mean_ssim, quality.mean_smape,
            )
            frames = [
                (label, rec.index, rec.refreshed, rec.flops, rec.policy_metric,
                 quality.per_frame_mse[rec.index], quality.per_frame_ssim[rec.index])
                for rec in report.frames
            ]
            yield report, summary, frames
        # The next network's memo is built with this one released.
        del memo, baseline


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
    runs = [(preset, spec, preset_policy(preset, frames), None) for preset in opts.presets]
    summary_rows, frame_rows = [], []
    counts: dict[str, int] = {}
    for report, summary, per_frame in _scored_runs(runs, sequence, cfg.warmup):
        counts[summary[0]] = report.refresh_count
        summary_rows.append(summary)
        frame_rows += per_frame
    # Expected counts come from the preset table itself, not from the
    # policies the runs were handed, so a run given another policy fails.
    for preset in ("n5", "n2"):
        if preset in counts:
            period = PRESETS[preset](frames).n
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
        schedule = PRESETS["nonlinear"](frames)
        expected = len(power_schedule(schedule.refresh_count, schedule.exponent, frames))
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
    runs = [(spec.cache_config.label, spec, policy, None) for spec in unet_specs + unetpp_specs]

    rows, frame_rows = [], []
    level_fracs, level_mse, config_fracs = [], [], {}
    for (label, spec, _, _), (_, summary, per_frame) in zip(runs, _scored_runs(runs, sequence, cfg.warmup)):
        family = "unet" if spec.blocks is unet.blocks else "unetpp"
        frac = spec.cached_flops() / spec.full_flops
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

    modes: list[tuple[str, Corruption | None]] = [("proper", None)]
    modes += [
        (_noise_label(scale), Corruption("noise", sigma_scale=scale, seed=corruption_seed))
        for scale in _FIXED_NOISE_SCALES + opts.noise_scales
    ]
    modes += [(kind, Corruption(kind, seed=corruption_seed)) for kind in ("zero", "uniform_random", "normal_random")]
    runs = [(label, spec, policy, corruption) for label, corruption in modes]
    runs.append(("no_update", spec, preset_policy("no_update", frames), None))

    summary_rows, frame_rows = [], []
    means: dict[str, float] = {}
    outputs: dict[str, list[np.ndarray]] = {}
    for report, summary, per_frame in _scored_runs(runs, sequence, cfg.warmup):
        label = summary[0]
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


def _downscale_frame(frame: FrameInput, factor: int, motion=None) -> FrameInput:
    """Area-average a reference frame to a smaller network input.

    Motion vectors are averaged and rescaled into the coarse pixel grid,
    unless motion gives the downscaled field to use; the field is read-only.
    """
    if motion is None:
        motion = (block_mean(frame.motion, factor) / factor).astype(np.float32)
        motion.setflags(write=False)
    return FrameInput(frame.index, block_mean(frame.input, factor), motion)


def _stream_reference(scene: SceneConfig, frame_count: int, factors):
    """Walk a reference scene one frame at a time, keeping only each
    frame's _downscale_frame at each factor; no full-resolution frame is
    alive once this returns. Returns one frame list per factor. A frame
    whose motion field is the previous frame's (see workload) shares the
    previous downscaled field instead of downscaling its own.
    """
    scaled = [[] for _ in factors]
    motion = None
    for frame in iter_frames(scene, frame_count):
        shared = frame.motion is motion
        for frames, factor in zip(scaled, factors):
            frames.append(_downscale_frame(frame, factor, frames[-1].motion if shared else None))
        motion = frame.motion
    return scaled


def scenario_superres_tradeoff(cfg: RunConfig) -> list[Table]:
    """Spend saved FLOPs on a bigger input: cache vs render scale.

    One reference scene is walked twice at high resolution, one frame at a
    time, so no full-resolution frame outlives its turn. The first walk
    area-downscales each frame to both network inputs and keeps only
    those. Each row runs the same super-resolution network on one of the
    downscaled sequences, and the downscaled frames are released once
    every row has run. A larger input (smaller scale factor) costs more
    per frame, so the question is whether caching at the larger input
    undercuts the total FLOPs of the small-input no-cache baseline. The
    break-even skipped fraction is computed from per-frame FLOPs and
    asserted against measured totals. The second walk scores each frame:
    every row's output, after nearest upsampling back to reference
    resolution, against the frame's colour channels. Each frame's
    uncached RMSE against the reference is computed once per scale, by the
    baseline row, whose cache error is zero; the cached rows at that scale
    reuse it, and the large baseline's upsampled output, against which
    they measure their cache error. The checks then run row by row.
    """
    frames, opts, _, scene = _prepare(cfg, "superres_tradeoff")
    small_scale = opts.small_input_scale
    large_scale = opts.large_input_scale

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

    # (label, scale, spec, policy, preset): the small baseline, the large
    # baseline (rows[1]), then one cached large-input row per preset.
    rows = [
        (f"scale{small_scale}_baseline", small_scale, small_spec, EveryN(1), None),
        (f"scale{large_scale}_baseline", large_scale, large_spec, EveryN(1), None),
    ]
    rows += [
        (f"scale{large_scale}_{preset}", large_scale, large_spec, preset_policy(preset, frames), preset)
        for preset in opts.policies
    ]
    scales = (small_scale, large_scale)
    inputs = dict(zip(scales, _stream_reference(scene, frames, scales)))
    reports = [run_sequence(spec, inputs[scale], policy) for _, scale, spec, policy, _ in rows]
    del inputs

    # vs_ref[r][i]: row r's frame i RMSE against the reference; vs_full[r][i]
    # against the large baseline, 0 for a baseline row.
    vs_ref = [[] for _ in rows]
    vs_full = [[] for _ in rows]
    for frame in iter_frames(scene, frames):
        reference = frame.input[:3]
        up_full = repeat_nearest(reports[1].frames[frame.index].output, large_scale)
        for r, ((_, scale, _, _, preset), report) in enumerate(zip(rows, reports)):
            up = up_full if r == 1 else repeat_nearest(report.frames[frame.index].output, scale)
            vs_ref[r].append(math.sqrt(mse(up, reference)))
            vs_full[r].append(0.0 if preset is None else math.sqrt(mse(up, up_full)))

    summary_rows, frame_rows = [], []
    for r, ((label, scale, spec, _, preset), report) in enumerate(zip(rows, reports)):
        # A baseline is its own uncached run; a cached row's is the large baseline.
        uncached = vs_ref[r] if preset is None else vs_ref[1]
        for rec in report.frames:
            rmse_ref, rmse_cache = vs_ref[r][rec.index], vs_full[r][rec.index]
            _require(
                rmse_ref <= uncached[rec.index] + rmse_cache + 1e-9,
                "per-frame quality must stay within the uncached quality plus the cache error",
                row=label,
                frame=rec.index,
                rmse_ref=rmse_ref,
                rmse_full_ref_plus_cache=uncached[rec.index] + rmse_cache,
            )
            frame_rows.append((label, rec.index, rec.refreshed, rec.flops, rmse_ref, rmse_cache))
        summary = (
            label,
            scale,
            report.refresh_count,
            report.skipped_frame_fraction,
            report.total_flops,
            spec.full_flops,
            break_even,
            float(np.mean(np.asarray(vs_ref[r], dtype=np.float64))),
            float(np.mean(np.asarray(vs_full[r], dtype=np.float64))),
        )
        summary_rows.append(summary)
        skipped = summary[3]
        if preset is not None and skipped >= break_even:
            baseline_total = summary_rows[0][4]
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


def selected_scenarios(cfg: RunConfig) -> list[str]:
    """The names of the scenarios cfg selects, in run order, once the
    config is checked and each of them is prepared as it will run; a
    config error raises ValueError here, before any scenario runs."""
    validate_run_config(cfg)
    names = list(SCENARIO_NAMES) if cfg.scenario == "all" else [cfg.scenario]
    for name in names:
        _prepare(cfg, name)
    return names


def run_scenarios(cfg: RunConfig, out_dir=None, log=print) -> int:
    """Run the configured scenario(s), write tables, return a CI exit code.

    A ScenarioError marks the run failed (exit 1) but later scenarios
    still execute so one CI run reports every broken scenario.
    """
    names = selected_scenarios(cfg)
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
