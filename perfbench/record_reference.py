"""Record perfbench/reference.json: output digests of the seed commit.

    python3 perfbench/record_reference.py

Run from the root of a framecache checkout at the commit whose outputs are
the reference. For seeds 0..REFERENCE_SEEDS-1 it records each stream's
digest (output bytes, refresh flags and per-frame FLOPs), refresh count and
eliminated FLOPs fraction, and the sha256 of every CSV the default-config suite
writes, all under the benchmark's pinned environment (PYTHONHASHSEED=0,
one BLAS thread). A later commit must reproduce these bytes exactly, so
re-record only when an output change is intended and documented.
"""

import json
import shutil

from run import HERE, REFERENCE_SEEDS, ROOT, STREAMS, Runner, Suite, git_commit, stream_pass


def main():
    work_dir = ROOT / ".perfbench_out" / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    reference = {workload: {} for workload in STREAMS + ("suite_default",)}
    environment = None
    try:
        for seed in range(REFERENCE_SEEDS):
            for workload in STREAMS:
                code, first = stream_pass(Runner(work_dir), workload, seed)
                if code != 0:
                    raise SystemExit(f"{workload} seed {seed} exited {code}")
                reference[workload][str(seed)] = {
                    key: first[key] for key in ("digest", "refresh_count", "eliminated_flops_fraction")
                }
            suite = Suite(Runner(work_dir), seed, {"suite_default": {}})
            run = suite.cli()
            if not run["ok"]:
                raise SystemExit(f"suite seed {seed} failed")
            reference["suite_default"][str(seed)] = run["digests"]
            environment = run["result"]["environment"]
            print(seed, {w: reference[w][str(seed)].get("refresh_count") for w in STREAMS}, flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    environment["git_commit"] = git_commit()
    document = {"environment": environment, **reference}
    (HERE / "reference.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
