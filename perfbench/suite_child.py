"""Child process for the suite workload: the framecache CLI in a fresh process.

Started by run.py with PYTHONPATH, the BLAS thread count and the hash seed
pinned. Modes:

- ``import``: import ``framecache.harness`` and stop (set-up time);
- ``cli``: run ``python -m framecache.cli run ...`` on the default config
  (through ``runpy``, as ``-m`` does) with every ``run_sequence`` call
  frame-stamped, and with --trace 1 also traced layer by layer;
- ``break_even``: time full and cached passes of the network pair that
  the default ``superres_tradeoff`` scenario builds.

The result JSON carries perf_counter timestamps, which share the
system-wide monotonic clock with the parent process.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def break_even(seed, rounds=3):
    """Analytic and measured break-even skip fraction of superres_tradeoff.

    Runs the harness's own ``superres_tradeoff`` scenario on the default
    config and keeps the networks and inputs of its two no-cache baselines,
    the first two ``run_sequence`` calls (small input, then large). The
    analytic value is the scenario's ``break_even_skip`` column; the
    measured one puts median ``forward_full`` / ``forward_cached`` times of
    those networks in place of FLOPs, the three calls interleaved per frame
    over ``rounds`` rounds.
    """
    import framecache.harness as harness
    from framecache.netgraph import forward_cached, forward_full

    calls = []
    run_sequence = harness.run_sequence

    def capture(spec, frames, policy, *args, **kwargs):
        calls.append((spec, frames))
        return run_sequence(spec, frames, policy, *args, **kwargs)

    cfg = harness.default_run_config("superres_tradeoff")
    cfg.seed = seed
    harness.run_sequence = capture
    try:
        tables = harness.scenario_superres_tradeoff(cfg)
    finally:
        harness.run_sequence = run_sequence
    summary = next(t for t in tables if t.name == "superres_tradeoff_summary")
    (small_spec, small_frames), (large_spec, large_frames) = calls[:2]
    t_small, t_large, t_cached = [], [], []
    for _ in range(rounds):
        for small, large in zip(small_frames, large_frames):
            start = time.perf_counter()
            forward_full(small_spec, small.input)
            t_small.append(time.perf_counter() - start)
            start = time.perf_counter()
            record = forward_full(large_spec, large.input)
            t_large.append(time.perf_counter() - start)
            start = time.perf_counter()
            forward_cached(large_spec, large.input, record.edge_tensors)
            t_cached.append(time.perf_counter() - start)
    small_s, large_s, cached_s = (statistics.median(t) for t in (t_small, t_large, t_cached))
    return {
        "break_even_skip": summary.column("break_even_skip")[0],
        "break_even_skip_time": (1.0 - small_s / large_s) / (1.0 - cached_s / large_s),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("import", "cli", "break_even"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", help="run config for the cli mode")
    parser.add_argument("--out", help="table directory for the cli mode")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    before_import = time.perf_counter()
    import framecache.harness as harness

    result = {"t_start": T_START, "t_imported": time.perf_counter()}
    result["import_s"] = result["t_imported"] - before_import
    status = 0
    if args.mode == "break_even":
        result.update(break_even(args.seed))
    elif args.mode == "cli":
        from probes import FrameLog, Tracer, environment, install_layer_probes, layer_metrics

        tracer = None
        if args.trace:
            tracer = Tracer()
            install_layer_probes(tracer, include_harness=True)
        # Hooked after the probes, so frame stamping and the per-call
        # records stay outside the traced engine.run_sequence span.
        log = FrameLog()
        harness.run_sequence = log.hook(harness.run_sequence)
        sys.argv = ["framecache.cli", "run", "--config", args.config, "--scenario", "all"]
        sys.argv += ["--seed", str(args.seed), "--out", args.out]
        try:
            runpy.run_module("framecache.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exit_:
            status = exit_.code
        finally:
            if tracer is not None:
                tracer.restore()
        result["t_end"] = time.perf_counter()
        result["status"] = status
        result["sequences"] = log.calls
        result["environment"] = environment()
        if tracer is not None:
            result["layer"] = layer_metrics(tracer.take())
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
