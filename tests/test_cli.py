"""End-to-end tests of the command line, most through real subprocesses;
the table of rejected config fields and the bench command call cli.main
in-process, and so does the check of the benchmark's stream pass against
its digest."""

import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

from framecache import bench, cli, harness, ops
from framecache.builders import build_unet, set_unet_level
from framecache.cli import _THREAD_ENV_VARS
from framecache.engine import run_sequence
from framecache.policies import preset_policy
from framecache.workload import SceneConfig, generate

MODULE = [sys.executable, "-m", "framecache.cli"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def write_config(tmp_path, **fields):
    data = {"version": 1}
    data.update(fields)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        MODULE + list(args), capture_output=True, text=True, env=merged
    )


def declared_entry_point() -> str:
    """The `framecache` target in pyproject.toml's [project.scripts]."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["framecache"]


def console_script_launcher(target: str) -> str:
    """Python source that loads and calls `target` the way the wrapper an
    installer writes for a console script does."""
    return (
        "import sys; from importlib.metadata import EntryPoint; "
        "sys.argv[0] = 'framecache'; "
        f"sys.exit(EntryPoint('framecache', {target!r}, 'console_scripts').load()())"
    )


def framecache_installed() -> bool:
    try:
        distribution("framecache")
    except PackageNotFoundError:
        return False
    return True


def check_script(command, tmp_path):
    """`command` runs a scenario, and a bad config becomes exit status 2."""
    config = write_config(tmp_path, scenario="memory_report")
    out_dir = tmp_path / "out"
    result = subprocess.run(
        command + ["run", "--config", str(config), "--out", str(out_dir)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (out_dir / "memory_report_summary.csv").exists()
    missing = subprocess.run(
        command + ["run", "--config", str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
    )
    assert missing.returncode == 2, missing.stderr
    assert missing.stderr.startswith("framecache: ")


class TestRunCommand:
    """The run subcommand against real configs."""

    def test_memory_report_succeeds(self, tmp_path):
        config = write_config(tmp_path, scenario="memory_report")
        out_dir = tmp_path / "out"
        result = run_cli("run", "--config", str(config), "--out", str(out_dir))
        assert result.returncode == 0, result.stderr
        assert "[PASS] memory_report" in result.stdout
        assert (out_dir / "memory_report_summary.csv").exists()
        assert (out_dir / "memory_report_summary.txt").exists()

    def test_scenario_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, scenario="policy_sweep", frames=4)
        out_dir = tmp_path / "out"
        result = run_cli(
            "run", "--config", str(config), "--out", str(out_dir), "--scenario", "memory_report"
        )
        assert result.returncode == 0, result.stderr
        assert (out_dir / "memory_report_summary.csv").exists()
        assert not (out_dir / "policy_sweep_summary.csv").exists()

    def test_seed_flag_changes_results(self, tmp_path):
        config = write_config(tmp_path, scenario="policy_sweep", frames=4)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        first = run_cli("run", "--config", str(config), "--out", str(out_a), "--seed", "0")
        second = run_cli("run", "--config", str(config), "--out", str(out_b), "--seed", "1")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        a = (out_a / "policy_sweep_summary.csv").read_bytes()
        b = (out_b / "policy_sweep_summary.csv").read_bytes()
        assert a != b

    def test_network_section_checked_against_the_selected_scenario(self, tmp_path):
        # null_hypothesis's superres builder takes no depth, but policy_sweep's U-Net does.
        config = write_config(tmp_path, scenario="all", frames=4, network={"depth": 3})
        out_dir = tmp_path / "out"
        result = run_cli(
            "run", "--config", str(config), "--out", str(out_dir), "--scenario", "policy_sweep"
        )
        assert result.returncode == 0, result.stderr
        assert (out_dir / "policy_sweep_summary.csv").exists()

    def test_input_shape_sizes_the_scene(self, tmp_path):
        # null_hypothesis's scene takes its height and width from the network.
        config = write_config(tmp_path, frames=4, network={"input_shape": [6, 32, 32]})
        out_dir = tmp_path / "out"
        result = run_cli(
            "run", "--config", str(config), "--out", str(out_dir), "--scenario", "null_hypothesis"
        )
        assert result.returncode == 0, result.stderr
        assert (out_dir / "null_hypothesis_summary.csv").exists()

    def test_same_seed_reproduces_bytes(self, tmp_path):
        config = write_config(tmp_path, scenario="policy_sweep", frames=4, seed=3)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", str(config), "--out", str(out_a)).returncode == 0
        assert run_cli("run", "--config", str(config), "--out", str(out_b)).returncode == 0
        for name in ("policy_sweep_summary.csv", "policy_sweep_frames.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def small_suite_config(tmp_path):
    """Every scenario at 4 frames, superres_tradeoff on a 24x24 reference."""
    superres = {"reference_hw": 24, "lr_pool": 1}
    return write_config(tmp_path, frames=4, options={"superres_tradeoff": superres})


class TestBenchCommand:
    """The bench subcommand, in-process on a small config."""

    def test_writes_environment_and_one_entry_per_scenario(self, tmp_path, monkeypatch, capsys):
        config = small_suite_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        status = cli.main(["bench", "--config", str(config), "--out", "BENCH.json", "--seed", "2"])
        assert status == 0, capsys.readouterr().err
        result = json.loads((tmp_path / "BENCH.json").read_text())
        assert set(result) == {"environment", "seed", "scenarios"}
        assert result["seed"] == 2
        environment = result["environment"]
        assert set(environment) == {
            "python", "numpy", "blas", "blas_core", "blas_threads", "l2_cache_bytes", "band_bytes",
            "pythonhashseed", "git_commit",
        }
        assert environment["numpy"] == np.__version__
        assert environment["band_bytes"] == ops._BAND_BYTES
        assert list(result["scenarios"]) == list(harness.SCENARIO_NAMES)
        for entry in result["scenarios"].values():
            assert set(entry) == {"status", "wall_s", "tracemalloc_peak_bytes"}
            assert entry["status"] == "pass"
            assert entry["wall_s"] > 0.0
            assert isinstance(entry["tracemalloc_peak_bytes"], int)
        assert result["scenarios"]["null_hypothesis"]["tracemalloc_peak_bytes"] > 0
        # No table is written, neither to --out nor to the config's out_dir.
        assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH.json", "run.json"]

    def test_l2_cache_size_read_from_level_2_entry(self, tmp_path, monkeypatch):
        for index, (level, size) in enumerate([("1", "48K"), ("2", "2048K"), ("3", "105M")]):
            entry = tmp_path / f"index{index}"
            entry.mkdir()
            (entry / "level").write_text(level + "\n")
            (entry / "size").write_text(size + "\n")
        monkeypatch.setattr(bench, "_CPU0_CACHES", tmp_path)
        assert bench.environment()["l2_cache_bytes"] == 2048 * 1024

    def test_l2_cache_size_unknown_where_unreadable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "_CPU0_CACHES", tmp_path / "missing")
        assert bench.environment()["l2_cache_bytes"] == "unknown"

    def test_failed_scenario_recorded_and_exits_1(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise harness.ScenarioError("forced failure")

        monkeypatch.setitem(harness.SCENARIOS, "memory_report", boom)
        config = write_config(tmp_path, scenario="memory_report")
        out = tmp_path / "BENCH.json"
        assert cli.main(["bench", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().out == "[FAIL] memory_report: forced failure\n"
        assert json.loads(out.read_text())["scenarios"]["memory_report"]["status"] == "fail"

    def test_bad_config_exits_2_before_measuring(self, tmp_path, capsys):
        config = write_config(tmp_path, frames=0)
        out = tmp_path / "BENCH.json"
        assert cli.main(["bench", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("framecache: frames must be")
        assert not out.exists()


class TestErrorHandling:
    """Bad inputs exit nonzero with a one-line message."""

    def test_missing_config_file(self, tmp_path):
        result = run_cli("run", "--config", str(tmp_path / "absent.json"))
        assert result.returncode == 2
        assert result.stderr.startswith("framecache:")

    def test_bad_config_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 7}))
        result = run_cli("run", "--config", str(path))
        assert result.returncode == 2
        assert "config version" in result.stderr

    def test_unknown_scenario_flag(self, tmp_path):
        config = write_config(tmp_path, scenario="memory_report")
        result = run_cli("run", "--config", str(config), "--scenario", "nonsense")
        assert result.returncode == 2
        assert "unknown scenario" in result.stderr

    def test_multibranch_network_kind_rejected(self, tmp_path):
        config = write_config(tmp_path, scenario="policy_sweep", network={"kind": "multibranch"})
        result = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "unknown network kind" in result.stderr

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"seed": -5}, "seed"),
            ({"seed": "x"}, "seed"),
            ({"seed": True}, "seed"),
            ({"policy": {"preset": "delta_h", "n": 3}}, "policy field 'n'"),
            ({"policy": {"tau": 0.1}}, "policy field 'tau'"),
            ({"policy": {"preset": None}}, "policy preset None"),
            ({"policy": {"n": "x"}}, "policy.n"),
            ({"policy": {"preset": "delta_h", "tau": True}}, "policy.tau"),
            ({"policy": {"n": 0}}, "n >= 1"),
            ({"network": {"depth": "x"}}, "network.depth"),
            ({"network": {"base_channels": 8.0}}, "network.base_channels"),
            ({"network": {"kind": "superres", "lr_pool": True}}, "network.lr_pool"),
            ({"network": {"input_shape": [6, "48", 48]}}, "network.input_shape"),
            ({"network": {"input_shape": 48}}, "network.input_shape"),
            ({"frames": "x"}, "frames"),
            ({"frames": 2.5}, "frames"),
            ({"frames": True}, "frames"),
            ({"warmup": "x"}, "warmup"),
            ({"scene": {"height": "x"}}, "scene.height"),
            ({"scene": {"pan_direction": 5}}, "scene.pan_direction"),
            ({"scene": {"pan_schedule": [[2, "fast"]]}}, "scene.pan_schedule"),
            ({"scene": {"colour": 1}}, "scene field 'colour'"),
            ({"scene": {"height": 0}}, "scene: resolution"),
            ({"scene": 5}, "scene must be"),
            ({"cache": 5}, "cache"),
            ({"options": {"policy_sweep": 5}}, "options.policy_sweep"),
            ({"out_dir": 5}, "out_dir"),
            ({"network": {"depth": 3}}, "network for scenario null_hypothesis"),
            ({"network": {"kind": "superres", "depth": 3}}, "network for scenario policy_sweep"),
            ({"options": {"policy_sweep": {"presets": 5}}}, "options.policy_sweep.presets"),
            ({"options": {"policy_sweep": {"presets": ["n5", "n7"]}}}, "['n7']"),
            ({"options": {"superres_tradeoff": {"policies": ["fast"]}}}, "['fast']"),
            ({"options": {"null_hypothesis": {"noise_scales": [0.5, "2"]}}}, "noise_scales"),
            ({"options": {"ablation_levels": {"unet_dpth": 3}}}, "'unet_dpth'"),
            ({"options": {"memory_report": {"entries": {"a": 5}}}}, "options.memory_report.entries"),
            ({"options": {"memory_report": {"entries": {"a": [[2, -3]]}}}}, "options.memory_report: entries"),
            (
                {"frames": 4, "options": {"null_hypothesis": {"corruption_seed": -1}}},
                "options.null_hypothesis: corruption_seed",
            ),
            (
                {"frames": 4, "options": {"null_hypothesis": {"noise_scales": [-1.0]}}},
                "options.null_hypothesis: noise_scales",
            ),
            (
                {"frames": 4, "options": {"ablation_levels": {"input_hw": 0}}},
                "options.ablation_levels: input_hw",
            ),
            (
                {"frames": 4, "options": {"ablation_levels": {"input_hw": 36}}},
                "options.ablation_levels: input_hw",
            ),
            (
                {"frames": 4, "options": {"superres_tradeoff": {"small_input_scale": 0}}},
                "options.superres_tradeoff: small_input_scale",
            ),
            (
                {"frames": 4, "options": {"superres_tradeoff": {"reference_hw": 100}}},
                "options.superres_tradeoff: reference_hw",
            ),
            ({"frames": 1}, "frames must be >= 2 for scenario feature_profile"),
            ({"warmup": 30}, "warmup must be less than the 10 frames of scenario policy_sweep"),
            ({"frames": 4, "warmup": 4}, "warmup must be less than the 4 frames of scenario policy_sweep"),
            ({"scene": {"height": 40}}, "scene.height must be 48 to fit the network of scenario policy_sweep"),
            ({"scene": {"width": 64}}, "scene.width must be 48 to fit the network of scenario policy_sweep"),
            ({"scene": {"channels": 3}}, "scene.channels must be 6"),
            (
                {"scene": {"height": 48, "width": 48}, "options": {"ablation_levels": {"input_hw": 32}}},
                "scene.height must be 32 to fit the network of scenario ablation_levels",
            ),
            ({"network": {"depth": 1}}, "network for scenario policy_sweep"),
            ({"network": {"base_channels": 0}}, "network for scenario policy_sweep"),
            (
                {"network": {"base_channels": 0}},
                "framecache: network for scenario policy_sweep: base_channels must be >= 1",
            ),
            (
                {"cache": "unet_level_9"},
                "cache must be one of ['unet_level_1', 'unet_level_2'] for the unet network of "
                "scenario policy_sweep, got 'unet_level_9'",
            ),
            ({"network": {"kind": "unetpp"}, "cache": "unet_level_1"}, "cache must be one of"),
            (
                {"options": {"memory_report": {"entries": {"big": [[2**40, 2**40]]}}}},
                "options.memory_report: entries: 'big' shape (1099511627776, 1099511627776) has",
            ),
            (
                {"frames": 4, "options": {"superres_tradeoff": {"large_input_scale": 4}}},
                "options.superres_tradeoff: large_input_scale must be less than small_input_scale 4, got 4",
            ),
        ],
    )
    def test_bad_field_rejected_before_any_scenario(self, tmp_path, capsys, monkeypatch, fields, named):
        # main pins the thread variables with setdefault; setting them here
        # lets monkeypatch restore them, so no value leaks into later tests.
        for name in _THREAD_ENV_VARS:
            monkeypatch.setenv(name, os.environ.get(name, "1"))
        config = write_config(tmp_path, **fields)
        out_dir = tmp_path / "out"
        status = cli.main(["run", "--config", str(config), "--scenario", "all", "--out", str(out_dir)])
        stderr = capsys.readouterr().err
        assert status == 2
        assert stderr.count("\n") == 1 and named in stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "scenario, fields, line",
        [
            (
                "policy_sweep",
                {"scene": {"height": 40}},
                "scene.height must be 48 to fit the network of scenario policy_sweep, got 40",
            ),
            (
                "ablation_levels",
                {"scene": {"height": 40}},
                "scene.height must be 48 to fit the network of scenario ablation_levels, got 40",
            ),
            (
                "superres_tradeoff",
                {"scene": {"height": 40}},
                "scene.height must be 192 to fit the network of scenario superres_tradeoff, got 40",
            ),
            (
                "null_hypothesis",
                {"warmup": 40},
                "warmup must be less than the 40 frames of scenario null_hypothesis, got 40",
            ),
            ("feature_profile", {"frames": 1}, "frames must be >= 2 for scenario feature_profile, got 1"),
            (
                "policy_sweep",
                {"frames": 3, "network": {"depth": 2, "input_shape": [6, 4, 4]}},
                "network.input_shape must give scenario policy_sweep, which scores its frames by SSIM, "
                "a scene of at least 8x8, got 4x4",
            ),
            (
                "ablation_levels",
                {"frames": 3, "options": {"ablation_levels": {"unet_depth": 2, "unetpp_depth": 1, "input_hw": 4}}},
                "options.ablation_levels.input_hw must give scenario ablation_levels, which scores its frames "
                "by SSIM, a scene of at least 8x8, got 4x4",
            ),
        ],
    )
    def test_scenario_run_alone_checked_before_it_runs(self, tmp_path, capsys, monkeypatch, scenario, fields, line):
        for name in _THREAD_ENV_VARS:
            monkeypatch.setenv(name, os.environ.get(name, "1"))
        config = write_config(tmp_path, **fields)
        out_dir = tmp_path / "out"
        status = cli.main(["run", "--config", str(config), "--scenario", scenario, "--out", str(out_dir)])
        assert status == 2
        assert capsys.readouterr().err == f"framecache: {line}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("scenario", ["memory_report", "ablation_levels"])
    def test_network_value_type_checked_whichever_scenario_runs(self, tmp_path, capsys, monkeypatch, scenario):
        # Neither scenario builds a network; the value still fails the
        # annotation of every builder that takes depth.
        for name in _THREAD_ENV_VARS:
            monkeypatch.setenv(name, os.environ.get(name, "1"))
        config = write_config(tmp_path, network={"depth": "x"})
        out_dir = tmp_path / "out"
        status = cli.main(["run", "--config", str(config), "--scenario", scenario, "--out", str(out_dir)])
        stderr = capsys.readouterr().err
        assert status == 2
        assert stderr.count("\n") == 1 and "network.depth" in stderr
        assert not out_dir.exists()

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1]")
        out_dir = tmp_path / "out"
        result = run_cli("run", "--config", str(path), "--scenario", "all", "--out", str(out_dir))
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1 and "config must be a JSON object" in result.stderr
        assert not out_dir.exists()

    def test_negative_seed_flag_rejected(self, tmp_path):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        result = run_cli(
            "run", "--config", str(config), "--scenario", "all", "--seed", "-5", "--out", str(out_dir)
        )
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1 and "seed" in result.stderr
        assert not out_dir.exists()

    def test_missing_subcommand(self):
        result = run_cli()
        assert result.returncode == 2

    def test_config_flag_required(self):
        result = run_cli("run")
        assert result.returncode == 2


class TestThreadPinning:
    """BLAS thread caps come from FRAMECACHE_THREADS with a default of 1."""

    def probe(self, env):
        code = (
            "import framecache.cli as cli, os; "
            "cli._pin_threads(); "
            "print(os.environ['OMP_NUM_THREADS'])"
        )
        merged = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        merged.update(env)
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=merged
        ).stdout.strip()

    def test_default_is_single_threaded(self):
        assert self.probe({}) == "1"

    def test_env_var_override(self):
        assert self.probe({"FRAMECACHE_THREADS": "3"}) == "3"

    def test_existing_setting_respected(self):
        assert self.probe({"OMP_NUM_THREADS": "5"}) == "5"

    def test_run_with_thread_override(self, tmp_path):
        config = write_config(tmp_path, scenario="memory_report")
        result = run_cli(
            "run", "--config", str(config), "--out", str(tmp_path / "out"),
            env={"FRAMECACHE_THREADS": "2"},
        )
        assert result.returncode == 0, result.stderr


def run_tables(config, out_dir, env, scenario="all"):
    """Run a scenario in a child process; its CSV tables by name, and stderr."""
    result = subprocess.run(
        MODULE + ["run", "--config", str(config), "--scenario", scenario, "--out", str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return {path.name: path.read_bytes() for path in out_dir.glob("*.csv")}, result.stderr


def pinned_env(**extra):
    # Explicit BLAS variables would override FRAMECACHE_THREADS, and the
    # null_hypothesis tables still depend on the hash seed.
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_ENV_VARS}
    env.update(PYTHONHASHSEED="0", **extra)
    return env


def blas_build() -> dict:
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})


def recorded_reference() -> dict:
    """perfbench/reference.json: the digests at seed 0 and
    PYTHONHASHSEED=0, recorded on one numpy and BLAS build. Skips the
    test on another build."""
    reference = json.loads(REFERENCE.read_text())
    recorded = reference["environment"]
    if (recorded["numpy"], recorded["blas_version"]) != (np.__version__, blas_build().get("version")):
        pytest.skip("the digests were recorded on another numpy or BLAS build")
    return reference


def dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS can be made to load another core's kernels."""
    return "DYNAMIC_ARCH" in blas_build().get("openblas configuration", "")


class TestThreadIndependence:
    """Scenario tables do not depend on the BLAS thread count or, where the
    BLAS can switch cores, on its kernel, and at one thread they match the
    benchmark's recorded digests."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        # The one-thread run loads the host's own core. Where numpy's
        # OpenBLAS is built with DYNAMIC_ARCH, the two-thread run also forces
        # the Nehalem kernel, the one that moved some banded products by an
        # ulp in float64, so the whole suite is checked on it at no added cost.
        tmp_path = tmp_path_factory.mktemp("threads")
        config = write_config(tmp_path)
        forced = {"OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_VERBOSE": "2"} if dynamic_arch() else {}
        runs = []
        for n, extra in (("1", {}), ("2", forced)):
            env = pinned_env(FRAMECACHE_THREADS=n)
            env.pop("OPENBLAS_CORETYPE", None)
            env.update(extra)
            runs.append(run_tables(config, tmp_path / f"threads{n}", env))
        return runs

    def test_all_scenarios_identical_at_one_and_two_threads(self, runs):
        assert len(runs[0][0]) == 10
        assert runs[0][0] == runs[1][0]

    @pytest.mark.skipif(not dynamic_arch(), reason="needs an OpenBLAS built with DYNAMIC_ARCH")
    def test_two_thread_run_loaded_the_forced_core(self, runs):
        assert re.findall(r"^Core: (\w+)", runs[1][1], re.MULTILINE) == ["Nehalem"]

    def test_all_scenarios_match_recorded_digests(self, runs):
        reference = recorded_reference()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in runs[0][0].items()}
        assert digests == reference["suite_default"]["0"]


def test_stream_cached_matches_recorded_digest():
    # The benchmark's stream_cached pass at seed 0: a depth-4 U-Net at cache
    # level 1 under n5, over 500 frames of a 48x48 pan. The digest hashes
    # each frame's output, refresh flag and FLOPs, so a change to how cached
    # frames run fails here, not only in the benchmark.
    reference = recorded_reference()["stream_cached"]["0"]
    spec = set_unet_level(build_unet(4, 8, (6, 48, 48), seed=0), 1)
    scene = SceneConfig(seed=0, height=48, width=48, pan_speed=1.0, base_cell=8)
    report = run_sequence(spec, generate(scene, 500).frames, preset_policy("n5", 500))
    digest = hashlib.sha256()
    for rec in report.frames:
        digest.update(rec.output.tobytes())
        digest.update(b"R" if rec.refreshed else b"C")
        digest.update(struct.pack("<q", rec.flops))
    assert report.refresh_count == reference["refresh_count"]
    assert digest.hexdigest() == reference["digest"]


@pytest.mark.skipif(not dynamic_arch(), reason="needs an OpenBLAS built with DYNAMIC_ARCH")
def test_policy_sweep_identical_under_a_forced_blas_core(tmp_path):
    # policy_sweep's U-Net runs dec0 and dec1 in bands of output rows.
    config = write_config(tmp_path)
    env = pinned_env(FRAMECACHE_THREADS="1", OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    runs = [
        run_tables(config, tmp_path / "auto", env, "policy_sweep"),
        run_tables(config, tmp_path / "forced", dict(env, OPENBLAS_CORETYPE="Nehalem"), "policy_sweep"),
    ]
    cores = [re.findall(r"^Core: (\w+)", stderr, re.MULTILINE) for _, stderr in runs]
    assert len(cores[0]) == 1 and cores[1] == ["Nehalem"]
    assert len(runs[0][0]) == 2
    assert runs[0][0] == runs[1][0]


class TestConsoleScript:
    """The framecache console script: the entry point declared in
    pyproject.toml, run from the source tree as an installed script would
    run it, and the installed script itself where the package is installed."""

    def test_script_available_and_working(self, tmp_path):
        launcher = [sys.executable, "-c", console_script_launcher(declared_entry_point())]
        check_script(launcher, tmp_path)

    @pytest.mark.skipif(not framecache_installed(), reason="framecache distribution is not installed")
    def test_installed_script_matches_declaration(self, tmp_path):
        installed = distribution("framecache").entry_points.select(
            group="console_scripts", name="framecache"
        )
        assert [entry.value for entry in installed] == [declared_entry_point()]
        exe = shutil.which("framecache")
        assert exe is not None
        check_script([exe], tmp_path)
