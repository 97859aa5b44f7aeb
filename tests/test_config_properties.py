"""Property tests of the run config check, in-process through cli.main.

A valid config with one field set to a value of the wrong type or out of
range exits 2 before any scenario runs, with one stderr line that names
the field's section and its key as a whole word, and writes no table. A
config drawn from in-range values runs to the end, passing (0) or failing
a scenario check (1).
"""

import json
import math
import os
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framecache import cli
from framecache.cli import _THREAD_ENV_VARS
from framecache.policies import PRESETS

# Values that fit no int field: JSON floats (5.0 stays a float), strings,
# booleans and arrays.
NOT_INT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.booleans(),
    st.lists(st.integers(0, 9), max_size=2),
)
NOT_FLOAT = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.lists(st.floats(0, 1), max_size=2))
NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
NOT_PRESET = st.text(max_size=6).filter(lambda name: name not in PRESETS)
NOT_PRESETS = st.one_of(
    st.integers(),
    st.text(max_size=3),
    st.lists(st.integers(), min_size=1, max_size=2),
    st.lists(NOT_PRESET, min_size=1, max_size=2),
    # A repeated preset would give two rows one label.
    st.lists(st.sampled_from(sorted(PRESETS)), min_size=1, max_size=2).map(lambda names: names + names[:1]),
)


def int_field(least: int):
    """Invalid values of an int field whose least valid value is least."""
    return st.one_of(NOT_INT, st.integers(max_value=least - 1))


# (section, the section's other keys, key, invalid values). A section of
# "" is a top-level field; the run selects every scenario, so a network
# key must suit the U-Net of policy_sweep and the superres network of
# null_hypothesis, and a scene size each scenario's shape.
INVALID_FIELDS = [
    ("", {}, "seed", st.one_of(NOT_INT, st.none(), st.integers(max_value=-1))),
    ("", {}, "frames", st.one_of(NOT_INT, st.integers(max_value=1))),
    ("", {}, "warmup", st.one_of(NOT_INT, st.none(), st.integers(max_value=-1), st.integers(min_value=10))),
    ("", {}, "out_dir", st.one_of(st.integers(), st.booleans(), st.none(), st.lists(st.text(max_size=2), max_size=2))),
    ("", {}, "cache", st.one_of(st.integers(), st.booleans(), st.lists(st.integers(), max_size=2))),
    ("policy", {}, "preset", st.one_of(NOT_PRESET, st.integers(), st.none(), st.lists(st.integers(), max_size=2))),
    ("policy", {}, "n", int_field(1)),
    ("policy", {}, "tau", st.floats(0.1, 0.9)),
    ("policy", {"preset": "delta_h"}, "tau", st.one_of(NOT_FLOAT, st.floats(max_value=0), st.floats(min_value=1))),
    ("policy", {"preset": "motion"}, "tau", st.one_of(NOT_FLOAT, st.floats(max_value=-0.01))),
    ("policy", {"preset": "nonlinear"}, "refresh_count", int_field(1)),
    ("policy", {"preset": "nonlinear"}, "exponent", st.one_of(NOT_FLOAT, st.floats(max_value=0))),
    ("scene", {}, "seed", int_field(0)),
    ("scene", {}, "channels", st.one_of(int_field(1), st.integers(min_value=1).filter(lambda c: c != 6))),
    ("scene", {}, "height", st.one_of(int_field(1), st.integers(min_value=1).filter(lambda h: h != 48))),
    ("scene", {}, "width", st.one_of(int_field(1), st.integers(min_value=1).filter(lambda w: w != 48))),
    ("scene", {}, "pan_speed", st.one_of(NOT_FLOAT, NOT_FINITE)),
    (
        "scene",
        {},
        "pan_direction",
        st.one_of(
            st.floats(-2, 2),
            st.lists(st.floats(-2, 2), max_size=1),
            st.lists(st.floats(-2, 2), min_size=3, max_size=4),
            st.tuples(st.text(max_size=2), st.floats(-2, 2)).map(list),
            st.just([0, 0]),
            st.tuples(NOT_FINITE, st.floats(-2, 2)).map(list),
        ),
    ),
    (
        "scene",
        {},
        "pan_schedule",
        st.one_of(
            st.integers(),
            st.just([[1]]),
            st.tuples(st.text(max_size=2), st.floats(0, 2)).map(lambda seg: [list(seg)]),
            st.tuples(st.integers(max_value=0), st.floats(0, 2)).map(lambda seg: [list(seg)]),
            st.tuples(st.integers(1, 5), NOT_FINITE).map(lambda seg: [list(seg)]),
        ),
    ),
    ("scene", {}, "sprite_count", int_field(0)),
    ("scene", {}, "texture_octaves", int_field(1)),
    ("scene", {}, "base_cell", int_field(2)),
    ("scene", {}, "colour", st.integers()),
    ("network", {}, "kind", st.one_of(st.text(max_size=6).filter(lambda k: k not in ("unet", "unetpp", "superres")), st.integers())),
    ("network", {}, "depth", int_field(2)),
    ("network", {}, "base_channels", int_field(1)),
    (
        "network",
        {},
        "input_shape",
        st.one_of(
            st.integers(),
            st.lists(st.integers(1, 64), max_size=2),
            st.lists(st.integers(1, 64), min_size=4, max_size=5),
            st.tuples(st.just(6), st.text(max_size=2), st.just(48)).map(list),
            st.tuples(st.integers(max_value=0), st.just(48), st.just(48)).map(list),
            st.tuples(st.just(6), st.integers(max_value=0), st.just(48)).map(list),
        ),
    ),
    ("network", {}, "out_channels", st.one_of(NOT_INT, st.integers(max_value=0))),
    ("network", {}, "lr_pool", int_field(0)),
    ("network", {}, "seed", int_field(0)),
    ("network", {}, "width", st.integers()),
    ("options.policy_sweep", {}, "presets", NOT_PRESETS),
    ("options.ablation_levels", {}, "unet_depth", int_field(2)),
    ("options.ablation_levels", {}, "unetpp_depth", int_field(1)),
    ("options.ablation_levels", {}, "base_channels", int_field(1)),
    ("options.ablation_levels", {}, "input_hw", st.one_of(int_field(1), st.integers(0, 99).map(lambda k: 2 * k + 1))),
    ("options.null_hypothesis", {}, "corruption_seed", int_field(0)),
    (
        "options.null_hypothesis",
        {},
        "noise_scales",
        st.one_of(
            st.floats(0, 2),
            st.lists(NOT_FLOAT, min_size=1, max_size=2),
            st.lists(st.floats(max_value=-0.01), min_size=1, max_size=2),
            st.lists(NOT_FINITE, min_size=1, max_size=2),
            # Scales whose runs' labels, noise_<scale:g>, collide with each
            # other or with the fixed noise_0 and noise_1.
            st.floats(0, 4).map(lambda scale: [scale, float(f"{scale:g}")]),
            st.sampled_from([[0], [1], [0.0], [1.0000001]]),
        ),
    ),
    ("options.superres_tradeoff", {}, "reference_hw", int_field(1)),
    ("options.superres_tradeoff", {}, "small_input_scale", int_field(1)),
    ("options.superres_tradeoff", {}, "large_input_scale", int_field(1)),
    ("options.superres_tradeoff", {"small_input_scale": 4}, "large_input_scale", st.integers(min_value=4)),
    ("options.superres_tradeoff", {}, "base_channels", int_field(1)),
    ("options.superres_tradeoff", {}, "lr_pool", int_field(0)),
    ("options.superres_tradeoff", {}, "policies", NOT_PRESETS),
    (
        "options.memory_report",
        {},
        "entries",
        st.one_of(
            st.integers(),
            st.lists(st.integers(0, 4), max_size=2),
            st.dictionaries(st.text(max_size=3), st.integers(), min_size=1, max_size=2),
            st.dictionaries(st.text(max_size=3), st.just([[1.5, 2]]), min_size=1, max_size=2),
            st.dictionaries(st.text(max_size=3), st.lists(st.just([2, -3]), min_size=1, max_size=2), min_size=1, max_size=2),
        ),
    ),
    ("options.feature_profile", {}, "frames", st.integers()),
]


def config_with(section: str, others: dict, key: str, value) -> dict:
    """The config {"version": 1} with the field set to value."""
    data = {"version": 1}
    if not section:
        data[key] = value
    elif section.startswith("options."):
        data["options"] = {section.split(".", 1)[1]: {**others, key: value}}
    else:
        data[section] = {**others, key: value}
    return data


def run_main(data, scenario, directory, capsys, monkeypatch):
    """cli.main on data written to directory, output under directory/out;
    the exit status and stderr. main pins the thread variables with
    setdefault, so they are set here for monkeypatch to restore."""
    for name in _THREAD_ENV_VARS:
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    config = directory / "run.json"
    config.write_text(json.dumps(data))
    out_dir = directory / "out"
    status = cli.main(["run", "--config", str(config), "--scenario", scenario, "--out", str(out_dir)])
    return status, capsys.readouterr().err


def in_process(max_examples: int) -> settings:
    # The fixtures are shared by a test's examples, which is safe here:
    # each example writes into its own directory and reads its own output.
    return settings(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


@in_process(150)
@given(field=st.sampled_from(INVALID_FIELDS).flatmap(lambda f: st.tuples(st.just(f[:3]), f[3])))
def test_invalid_field_exits_2_naming_it(field, tmp_path_factory, capsys, monkeypatch):
    (section, others, key), value = field
    directory = tmp_path_factory.mktemp("invalid")
    status, stderr = run_main(config_with(section, others, key, value), "all", directory, capsys, monkeypatch)
    assert status == 2, stderr
    assert stderr.count("\n") == 1
    # The key as a whole word: "n" must not pass on "network" or "n5".
    assert section in stderr and re.search(rf"(?<!\w){re.escape(key)}(?!\w)", stderr), stderr
    assert not (directory / "out").exists()


SHAPES = st.lists(st.lists(st.integers(0, 6), max_size=3), max_size=3)
MEMORY_RUNS = st.fixed_dictionaries(
    {"options": st.fixed_dictionaries({"memory_report": st.fixed_dictionaries({"entries": st.dictionaries(st.text(max_size=4), SHAPES, max_size=3)})})}
).map(lambda data: ("memory_report", data))


@st.composite
def policy_sweep_runs(draw):
    frames = draw(st.integers(1, 4))
    data = {
        "seed": draw(st.integers(0, 3)),
        "frames": frames,
        "warmup": draw(st.integers(0, frames - 1)),
        "policy": draw(st.sampled_from([{}, {"preset": "delta_l", "tau": 0.3}, {"preset": "nonlinear", "exponent": 2}])),
        "network": draw(st.fixed_dictionaries({}, optional={"depth": st.integers(2, 4), "base_channels": st.integers(1, 6)})),
        "scene": draw(st.fixed_dictionaries({}, optional={"pan_speed": st.floats(-4, 4), "sprite_count": st.integers(0, 2)})),
        "options": {"policy_sweep": {"presets": draw(st.lists(st.sampled_from(sorted(PRESETS)), max_size=3, unique=True))}},
    }
    return "policy_sweep", data


@st.composite
def ablation_levels_runs(draw):
    unet_depth, unetpp_depth = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    # input_hw halves evenly as often as the deeper network pools, and
    # holds an SSIM window.
    steps = max(unet_depth - 1, unetpp_depth)
    options = {
        "unet_depth": unet_depth,
        "unetpp_depth": unetpp_depth,
        "base_channels": draw(st.integers(1, 6)),
        "input_hw": draw(st.sampled_from([hw for hw in range(8, 49) if hw % (1 << steps) == 0])),
    }
    policy = draw(st.sampled_from([{}, {"preset": "n2"}, {"preset": "delta_l", "tau": 0.3}]))
    return "ablation_levels", {"policy": policy, "options": {"ablation_levels": options}}


@st.composite
def null_hypothesis_runs(draw):
    network = draw(st.fixed_dictionaries({}, optional={"base_channels": st.integers(1, 6), "lr_pool": st.integers(0, 2)}))
    options = {
        "corruption_seed": draw(st.integers(0, 9)),
        # Each scale's run is labelled noise_<scale:g>, which must be new.
        "noise_scales": draw(
            st.lists(st.floats(0, 4), max_size=2, unique_by=lambda scale: f"{scale:g}").filter(
                lambda scales: not {f"{scale:g}" for scale in scales} & {"0", "1"}
            )
        ),
    }
    return "null_hypothesis", {"network": network, "options": {"null_hypothesis": options}}


@st.composite
def superres_tradeoff_runs(draw):
    # The options take only a large input's scale below the small one's.
    small = draw(st.integers(2, 4))
    large = draw(st.integers(1, small - 1))
    lr_pool = draw(st.integers(0, 2))
    # reference_hw divides by each scale into a size that halves lr_pool times.
    unit = math.lcm(small, large) << lr_pool
    options = {
        "reference_hw": unit * draw(st.integers(1, 96 // unit)),
        "small_input_scale": small,
        "large_input_scale": large,
        "base_channels": draw(st.integers(1, 6)),
        "lr_pool": lr_pool,
        "policies": draw(st.lists(st.sampled_from(sorted(PRESETS)), max_size=3, unique=True)),
    }
    return "superres_tradeoff", {"options": {"superres_tradeoff": options}}


@st.composite
def feature_profile_runs(draw):
    network = draw(st.fixed_dictionaries({}, optional={"depth": st.integers(2, 4), "base_channels": st.integers(1, 6)}))
    return "feature_profile", {"network": network}


@st.composite
def scene_runs(draw):
    """A run of one of the scenarios above, at 2 or 3 frames with warmup
    below them, and a seed and scene motion drawn like policy_sweep's."""
    scenario, data = draw(
        st.one_of(ablation_levels_runs(), null_hypothesis_runs(), superres_tradeoff_runs(), feature_profile_runs())
    )
    frames = draw(st.integers(2, 3))
    data.update(
        seed=draw(st.integers(0, 3)),
        frames=frames,
        warmup=draw(st.integers(0, frames - 1)),
        scene=draw(st.fixed_dictionaries({}, optional={"pan_speed": st.floats(-4, 4), "sprite_count": st.integers(0, 2)})),
    )
    return scenario, data


@in_process(40)
@given(run=st.one_of(MEMORY_RUNS, policy_sweep_runs()))
def test_valid_config_runs(run, tmp_path_factory, capsys, monkeypatch):
    scenario, data = run
    directory = tmp_path_factory.mktemp("valid")
    status, stderr = run_main({"version": 1, **data}, scenario, directory, capsys, monkeypatch)
    assert status in (0, 1), stderr
    assert (directory / "out").is_dir()


@in_process(30)
@given(run=scene_runs())
def test_valid_scene_config_runs_to_the_end(run, tmp_path_factory, capsys, monkeypatch):
    """A valid config of a scenario that makes a scene raises no config
    error midway (exit 2). At 2 or 3 frames a scenario's own acceptance
    checks (orderings of MSE, drift and FLOPs) may fail it (exit 1), and
    then it writes no table."""
    scenario, data = run
    directory = tmp_path_factory.mktemp("valid")
    status, stderr = run_main({"version": 1, **data}, scenario, directory, capsys, monkeypatch)
    assert status in (0, 1), stderr
    assert (directory / "out").is_dir() == (status == 0)
