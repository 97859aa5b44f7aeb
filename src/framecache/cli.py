"""Command-line entry point: run experiment scenarios from a JSON config.

Thread pinning must happen before numpy is imported anywhere in the
process, so this module imports nothing heavy at the top level and the
harness import is deferred until after the environment is prepared.
"""

import argparse
import os
import sys

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads() -> None:
    """Pin BLAS/OpenMP pools so reductions stay bit-deterministic.

    FRAMECACHE_THREADS overrides the default of 1; explicitly set
    per-library variables are left alone.
    """
    count = os.environ.get("FRAMECACHE_THREADS", "1")
    for name in _THREAD_ENV_VARS:
        os.environ.setdefault(name, count)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecache",
        description="Deterministic inter-frame layer-caching experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to a version-1 JSON run config")
    config.add_argument("--seed", type=int, default=None, help="master seed (overrides the config)")
    config.add_argument(
        "--scenario",
        default=None,
        help="a single scenario (overrides the config; 'all' selects every scenario)",
    )
    run = commands.add_parser("run", parents=[config], help="run scenarios from a JSON config")
    run.add_argument("--out", default=None, help="output directory (overrides the config)")
    bench = commands.add_parser(
        "bench", parents=[config], help="write each scenario's wall time and traced peak memory as JSON"
    )
    bench.add_argument("--out", required=True, help="path of the JSON file to write")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _pin_threads()
    from . import harness

    try:
        cfg = harness.load_run_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.scenario is not None:
            cfg.scenario = args.scenario
        if args.command == "bench":
            from .bench import run_bench

            return run_bench(cfg, args.out)
        return harness.run_scenarios(cfg, out_dir=args.out)
    except (OSError, ValueError) as err:
        print(f"framecache: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
