"""Child process for the stream workload: one network over one generated scene.

Started by run.py with PYTHONPATH, the BLAS thread count and the hash seed
pinned. It times set-up (network build plus scene generation), then runs
the whole stream through ``engine.run_sequence`` again and again for the
requested number of seconds, repeating the set-up between the first
passes, and writes every measurement to --result as
JSON. With --trace 1 it alternates untraced and traced passes, so the
tracing overhead is measured on the same drift.
"""

import argparse
import json
import time

from probes import (
    Tracer,
    environment,
    install_layer_probes,
    layer_metrics,
    sequence_record,
    stamped_run,
    stream_digest,
)

perf = time.perf_counter

STREAMS = {
    # Mostly cached frames on small maps: per-call overhead dominates.
    "stream_cached": {
        "frames": 500,
        "policy": "n5",
        "scene": {"height": 48, "width": 48, "pan_speed": 1.0, "base_cell": 8},
    },
}


def build_network(seed):
    from framecache.builders import build_unet, set_unet_level

    return set_unet_level(build_unet(4, 8, (6, 48, 48), seed=seed), 1)


def set_up(workload, seed):
    """Build the network and generate the scene; return both with timings."""
    from framecache.workload import SceneConfig, generate

    stream = STREAMS[workload]
    start = perf()
    spec = build_network(seed)
    built = perf()
    frames = generate(SceneConfig(seed=seed, **stream["scene"]), stream["frames"]).frames
    done = perf()
    return spec, frames, {"setup_s": done - start, "build_s": built - start, "generate_s": done - built}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(STREAMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=9)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    start = perf()
    import framecache.harness  # noqa: F401  (imports every module the CLI loads)

    import_s = perf() - start
    from framecache import engine
    from framecache.policies import preset_policy

    stream = STREAMS[args.workload]
    spec, frames, timing = set_up(args.workload, args.seed)
    setups = [timing]
    policy = preset_policy(stream["policy"], stream["frames"])
    # One untimed pass first: until glibc raises its mmap threshold, every
    # large temporary is a fresh mapping that page-faults, which makes the
    # first pass about 15% slower than the steady state that follows.
    engine.run_sequence(spec, frames, policy)

    tracer = Tracer() if args.trace else None
    passes = []
    begin = perf()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            install_layer_probes(tracer, include_harness=False)
        try:
            report, wall, latencies = stamped_run(engine.run_sequence, spec, frames, policy)
        finally:
            if traced:
                tracer.restore()
        record = sequence_record(report, wall, latencies)
        record["traced"] = traced
        record["digest"] = stream_digest(report)
        if traced:
            record["layer"] = layer_metrics(tracer.take())
        passes.append(record)
        del report
        if len(setups) < args.setups:
            # The other set-ups run between passes, so they sample the host
            # over the whole run; their time does not count towards --seconds.
            spec = frames = None  # free the previous copy first so peak RSS holds one
            spec, frames, timing = set_up(args.workload, args.seed)
            setups.append(timing)
            begin += timing["setup_s"]
        n_traced = sum(p["traced"] for p in passes)
        enough = len(passes) > n_traced and (tracer is None or n_traced > 0)
        if enough and len(setups) >= args.setups and perf() - begin >= args.seconds:
            break

    result = {
        "environment": environment(),
        "import_s": import_s,
        "setups": setups,
        "passes": passes,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
