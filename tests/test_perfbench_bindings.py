"""The bindings the benchmark's probes patch are still the ones the program calls.

``perfbench/probes.py`` traces a run by swapping module attributes by
name (``netgraph.conv2d``, ``engine.policy_metric``, ``harness.SCENARIOS``
entries and so on). A renamed binding makes the patch raise; a binding
that still exists but is no longer called reads 0 without any error. These
tests install the probes, run a small traced workload in-process and check
which per-layer metrics came out zero. perfbench itself is imported from
the repository, not edited.
"""

import sys
from pathlib import Path

import pytest

from framecache import engine, harness
from framecache.policies import preset_policy
from framecache.workload import SceneConfig, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's probes and stream child, importable as perfbench runs them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import stream_child

    yield probes, stream_child
    for name in ("probes", "stream_child"):
        sys.modules.pop(name, None)


def traced_layer_metrics(probes, run, include_harness):
    tracer = probes.Tracer()
    probes.install_layer_probes(tracer, include_harness=include_harness)
    try:
        result = run()
    finally:
        tracer.restore()
    return result, probes.layer_metrics(tracer.take())


def test_every_layer_metric_is_measured_on_a_suite_run(perfbench, tmp_path):
    probes, _ = perfbench
    cfg = harness.run_config_from_dict({"version": 1, "frames": 6})

    def run():
        return harness.run_scenarios(cfg, out_dir=tmp_path, log=lambda line: None)

    status, metrics = traced_layer_metrics(probes, run, include_harness=True)
    assert status == 0
    assert [key for key, value in metrics.items() if not value] == []
    # These keys appear only once their probe has seen a call.
    conditional = {f"harness.{name}.s" for name in harness.SCENARIO_NAMES} | {
        "harness.write_tables.s",
        "harness.full_passes",
        "workload.generate.s",
        "builders.build.s",
    }
    assert conditional <= set(metrics)


def test_stream_pass_leaves_only_the_suite_metrics_zero(perfbench):
    probes, stream_child = perfbench
    stream = stream_child.STREAMS["stream_cached"]
    frames = 20
    spec = stream_child.build_network(0)
    sequence = generate(SceneConfig(seed=0, **stream["scene"]), frames).frames
    policy = preset_policy(stream["policy"], frames)

    def run():
        return probes.stamped_run(engine.run_sequence, spec, sequence, policy)

    _, metrics = traced_layer_metrics(probes, run, include_harness=False)
    # The n5 policy makes no smape call, and a stream pass neither corrupts
    # its cache nor scores its frames.
    assert {key for key, value in metrics.items() if not value} == {
        "engine.corrupt_cache.s",
        "metrics.aggregate.s",
        "metrics.ssim.calls",
        "metrics.ssim.s",
        "ops.smape.calls",
        "policies.smape_useful_ratio",
    }
