"""End-to-end tests of the command line through real subprocesses."""

import json
import os
import shutil
import subprocess
import sys

from framecache.cli import _THREAD_ENV_VARS

MODULE = [sys.executable, "-m", "framecache.cli"]


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

    def test_same_seed_reproduces_bytes(self, tmp_path):
        config = write_config(tmp_path, scenario="policy_sweep", frames=4, seed=3)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", str(config), "--out", str(out_a)).returncode == 0
        assert run_cli("run", "--config", str(config), "--out", str(out_b)).returncode == 0
        for name in ("policy_sweep_summary.csv", "policy_sweep_frames.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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


class TestThreadIndependence:
    """Scenario tables do not depend on the BLAS thread count."""

    def test_all_scenarios_identical_at_one_and_two_threads(self, tmp_path):
        config = write_config(tmp_path)
        # Explicit BLAS variables would override FRAMECACHE_THREADS, and the
        # null_hypothesis tables still depend on the hash seed.
        env = {k: v for k, v in os.environ.items() if k not in _THREAD_ENV_VARS}
        env["PYTHONHASHSEED"] = "0"
        tables = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            result = subprocess.run(
                MODULE + ["run", "--config", str(config), "--scenario", "all", "--out", str(out_dir)],
                capture_output=True,
                text=True,
                env=dict(env, FRAMECACHE_THREADS=threads),
            )
            assert result.returncode == 0, result.stderr
            tables.append({path.name: path.read_bytes() for path in out_dir.glob("*.csv")})
        assert len(tables[0]) == 10
        assert tables[0] == tables[1]


class TestConsoleScript:
    """The installed framecache entry point."""

    def test_script_available_and_working(self, tmp_path):
        exe = shutil.which("framecache")
        assert exe is not None
        config = write_config(tmp_path, scenario="memory_report")
        result = subprocess.run(
            [exe, "run", "--config", str(config), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "memory_report_summary.csv").exists()
