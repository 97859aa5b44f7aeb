"""framecache benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a framecache checkout. Workloads:

- stream_cached:  U-Net depth 4 at unet_level_1, policy n5, 500 frames of 48x48;
- suite_default:  ``framecache.cli run --config {"version": 1} --scenario all``
  in a fresh process.

Every measurement happens in a child process started with PYTHONPATH=src,
FRAMECACHE_THREADS=1 (and the BLAS thread variables) and PYTHONHASHSEED
pinned, one at a time. With --trace 0 the result carries the end-to-end
metrics listed in BENCHMARK.json, with --trace 1 the per-layer ones. Every
pass or CLI run is checked against reference digests recorded from the
seed commit (perfbench/reference.json); a mismatch, a [FAIL] line or a
nonzero exit counts as a failed operation. Human-readable lines go first;
the last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from probes import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STREAMS = ("stream_cached",)
WORKLOADS = STREAMS + ("suite_default",)
HASH_SEED = 0
REFERENCE_SEEDS = 32  # reference.json holds seeds 0..31
# Printed with the end-to-end metrics but not gated: on a shared 2-core host
# their run-to-run spread reaches 0.3-0.5 of the median, above any bound.
REPORTED_ONLY = {"cached_frame_ms_p90": "ms", "refresh_frame_ms_p90": "ms"}
BUDGET_S = 170.0  # every run must end within 180 s
IMPORT_LAUNCHES_PER_CLI_RUN = 5  # set-up samples, interleaved with the CLI runs


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def child_env(hash_seed=HASH_SEED):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["FRAMECACHE_THREADS"] = "1"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


class Runner:
    """Starts child processes one at a time, under one overall deadline."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.deadline = time.perf_counter() + BUDGET_S
        self.count = 0

    def remaining(self):
        return self.deadline - time.perf_counter()

    def run(self, script, args, hash_seed=HASH_SEED):
        """Run a child script; return (spawn time, end time, exit code, peak RSS MB, result, log)."""
        self.count += 1
        result_path = self.work_dir / f"child{self.count}.json"
        log_path = self.work_dir / f"child{self.count}.log"
        argv = [sys.executable, str(HERE / script)] + [str(a) for a in args] + ["--result", str(result_path)]
        with open(log_path, "w") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(hash_seed), stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            ended = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        text = log_path.read_text()
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        if result is None:
            raise BenchError(f"{script} {' '.join(map(str, args))} exited {code} without a result:\n{text[-2000:]}")
        return spawned, ended, code, usage.ru_maxrss / 1024.0, result, text


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def csv_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(directory).glob("*.csv"))}


def latency_metrics(sequences):
    refresh = [t for s in sequences for t in s["refresh_s"]]
    cached = [t for s in sequences for t in s["cached_s"]]
    counts = {"refresh": len(refresh), "cached": len(cached)}
    if min(counts.values()) < 10:
        raise BenchError(f"too few frame samples for percentiles: {counts}")
    metrics = {
        "cached_frame_ms_p50": 1e3 * median(cached),
        "cached_frame_ms_p90": 1e3 * p90(cached),
        "refresh_frame_ms_p50": 1e3 * median(refresh),
        "refresh_frame_ms_p90": 1e3 * p90(refresh),
    }
    return metrics, counts


def ledger(sequences):
    """Refresh counts and the FLOPs-vs-time ledger over run_sequence calls."""
    frames = sum(s["frames"] for s in sequences)
    full_flops = sum(s["frames"] * s["full_pass_flops"] for s in sequences)
    full_time = sum(s["frames"] * median(s["refresh_s"]) for s in sequences)
    spent_time = sum(sum(s["refresh_s"]) + sum(s["cached_s"]) for s in sequences)
    return {
        "engine.refresh_count": sum(s["refresh_count"] for s in sequences),
        "engine.eliminated_flops_fraction": 1.0 - sum(s["total_flops"] for s in sequences) / full_flops,
        "engine.eliminated_time_fraction": 1.0 - spent_time / full_time,
        "engine.cache_bytes": max(s["cache_bytes"] for s in sequences),
        "frames": frames,
    }


# ---------------------------------------------------------------------------
# Stream workloads
# ---------------------------------------------------------------------------


def check_stream(record, expected):
    return (
        record["digest"] == expected["digest"]
        and record["refresh_count"] == expected["refresh_count"]
        and record["eliminated_flops_fraction"] == expected["eliminated_flops_fraction"]
    )


def stream_pass(runner, workload, seed):
    """One untimed pass in its own process; returns (exit code, pass record)."""
    args = ["--workload", workload, "--seed", seed, "--seconds", 0, "--setups", 1]
    _, _, code, _, result, _ = runner.run("stream_child.py", args)
    return code, result["passes"][0]


def run_stream(runner, args, reference):
    recorded = reference[args.workload]
    canary = None if str(args.seed) in recorded else args.seed % REFERENCE_SEEDS
    child_args = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    _, _, code, rss_mb, result, log = runner.run("stream_child.py", child_args)
    if code != 0:
        raise BenchError(f"stream child exited {code}:\n{log[-2000:]}")

    passes = result["passes"]
    expected = recorded.get(str(args.seed), passes[0])
    failed = sum(not check_stream(p, expected) for p in passes)
    attempted = len(passes)
    if canary is not None:
        # No recorded digest for this seed: the passes must agree with each
        # other, and one pass at a recorded seed must match its reference.
        attempted += 1
        code, probe = stream_pass(runner, args.workload, canary)
        failed += code != 0 or not check_stream(probe, recorded[str(canary)])

    untraced = [p for p in passes if not p["traced"]]
    setups = result["setups"]
    wall = median([p["wall_s"] for p in untraced])
    metrics, counts = latency_metrics(untraced)
    metrics.update(
        setup_s=median([s["setup_s"] for s in setups]),
        wall_s=wall,
        frames_per_s=untraced[0]["frames"] / wall,
        peak_rss_mb=rss_mb,
    )
    notes = {
        "samples": dict(counts, passes=len(untraced), setups=len(setups)),
        "environment": result["environment"],
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer = median_dict([p["layer"] for p in traced])
        generate_s = median([s["generate_s"] for s in setups])
        ledgers = [ledger([p]) for p in untraced]
        layer.update(ledgers[0])
        layer["engine.eliminated_time_fraction"] = median([g["engine.eliminated_time_fraction"] for g in ledgers])
        layer.update(
            {
                "workload.generate.s": generate_s,
                "workload.generate.ms_per_frame": 1e3 * generate_s / untraced[0]["frames"],
                "builders.build.s": median([s["build_s"] for s in setups]),
                "cli.import_s": result["import_s"],
                "trace.overhead_fraction": median([p["wall_s"] for p in traced]) / wall - 1.0,
            }
        )
        notes["samples"]["traced_passes"] = len(traced)
        metrics = layer
    return metrics, attempted, failed, notes


def median_dict(dicts):
    return {key: median([d[key] for d in dicts]) for key in dicts[0]}


# ---------------------------------------------------------------------------
# Suite workload
# ---------------------------------------------------------------------------


class Suite:
    """Runs the CLI child and checks its tables."""

    def __init__(self, runner, seed, reference):
        self.runner = runner
        self.seed = seed
        self.recorded = reference["suite_default"]
        self.config = runner.work_dir / "run_config.json"
        self.config.write_text(json.dumps({"version": 1}))
        self.runs = 0

    def cli(self, seed=None, trace=0, hash_seed=HASH_SEED):
        """One CLI run; returns a dict of its timings, status and CSV digests."""
        self.runs += 1
        out = self.runner.work_dir / f"tables{self.runs}"
        seed = self.seed if seed is None else seed
        args = ["--mode", "cli", "--seed", seed, "--trace", trace, "--config", self.config, "--out", out]
        spawned, ended, code, rss_mb, result, log = self.runner.run("suite_child.py", args, hash_seed)
        run = {
            "wall_s": ended - spawned,
            "setup_s": result["t_imported"] - spawned,
            "import_s": result["import_s"],
            "peak_rss_mb": rss_mb,
            "ok": code == 0 and "[FAIL]" not in log,
            "digests": csv_digests(out),
            "result": result,
        }
        shutil.rmtree(out, ignore_errors=True)
        return run

    def check(self, runs):
        """Count failed runs: bad exit, [FAIL] lines, or tables off the reference.

        For a seed without recorded digests the runs must agree with each
        other, and one extra run at a recorded seed must match its reference.
        """
        expected = self.recorded.get(str(self.seed))
        attempted, failed = len(runs), 0
        if expected is None:
            expected = runs[0]["digests"]
            canary = self.seed % REFERENCE_SEEDS
            probe = self.cli(seed=canary)
            attempted += 1
            failed += not (probe["ok"] and probe["digests"] == self.recorded[str(canary)])
        failed += sum(not (r["ok"] and r["digests"] == expected) for r in runs)
        return attempted, failed


def run_suite(runner, args, reference):
    suite = Suite(runner, args.seed, reference)
    if not args.trace:
        import_args = ["--mode", "import", "--seed", args.seed]
        runs, setups = [], []
        begin = time.perf_counter()
        while not runs or time.perf_counter() - begin < args.seconds:
            for _ in range(IMPORT_LAUNCHES_PER_CLI_RUN):
                spawned, _, code, _, result, log = runner.run("suite_child.py", import_args)
                if code != 0:
                    raise BenchError(f"import child exited {code}:\n{log[-2000:]}")
                setups.append(result["t_imported"] - spawned)
            runs.append(suite.cli())
        sequences = [s for r in runs for s in r["result"]["sequences"]]
        metrics, counts = latency_metrics(sequences)
        throughput = [
            sum(s["frames"] for s in r["result"]["sequences"]) / sum(s["wall_s"] for s in r["result"]["sequences"])
            for r in runs
        ]
        metrics.update(
            setup_s=median(setups + [r["setup_s"] for r in runs]),
            wall_s=median([r["wall_s"] for r in runs]),
            frames_per_s=median(throughput),
            peak_rss_mb=median([r["peak_rss_mb"] for r in runs]),
        )
        attempted, failed = suite.check(runs)
        samples = dict(counts, cli_runs=len(runs), setups=len(setups) + len(runs))
        notes = {"samples": samples, "environment": runs[0]["result"]["environment"]}
        return metrics, attempted, failed, notes

    # Traced: untraced, traced, then untraced under another hash seed.
    plain = suite.cli()
    traced = suite.cli(trace=1)
    other_hash = suite.cli(hash_seed=1)
    attempted, failed = suite.check([plain, traced])
    _, _, code, _, even, log = runner.run("suite_child.py", ["--mode", "break_even", "--seed", args.seed])
    if code != 0:
        raise BenchError(f"break-even child exited {code}:\n{log[-2000:]}")
    layer = dict(traced["result"]["layer"])
    layer.update(ledger(plain["result"]["sequences"]))
    sensitive = [n for n in plain["digests"] if plain["digests"][n] != other_hash["digests"].get(n)]
    layer.update(
        {
            "cli.import_s": median([r["import_s"] for r in (plain, traced, other_hash)]),
            "harness.break_even_skip": even["break_even_skip"],
            "harness.break_even_skip_time": even["break_even_skip_time"],
            "harness.hashseed_sensitive_tables": len(sensitive),
            "trace.overhead_fraction": traced["wall_s"] / median([plain["wall_s"], other_hash["wall_s"]]) - 1.0,
        }
    )
    notes = {
        "samples": {"cli_runs": 3},
        "hashseed_sensitive_tables": sensitive,
        "environment": plain["result"]["environment"],
    }
    return layer, attempted, failed, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def select_metrics(values, wanted):
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None):
    parser = argparse.ArgumentParser(description="framecache benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "framecache" / "__init__.py").is_file():
        print("perfbench: src/framecache not found; run from the root of a framecache checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work_dir = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work_dir)
        reference = load_reference()
        measure = run_suite if args.workload == "suite_default" else run_stream
        values, attempted, failed, notes = measure(runner, args, reference)
        if args.trace and args.workload in STREAMS:
            for name in (m["name"] for m in wanted if m["name"].startswith("harness.")):
                values.setdefault(name, 0)  # a stream does not run the harness
        metrics = select_metrics(values, wanted)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    notes["environment"]["git_commit"] = git_commit()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("environment " + json.dumps(notes.pop("environment"), sort_keys=True))
    for key, value in notes.items():
        print(f"{key} {json.dumps(value, sort_keys=True)}")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for name, unit in REPORTED_ONLY.items():
        if not args.trace:
            print(f"  {name:<36} {values[name]:>14.6g} {unit}  (reported, not gated)")
    print(f"  {'failed_fraction':<36} {failed / attempted:>14.6g} fraction  ({failed} of {attempted} operations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
