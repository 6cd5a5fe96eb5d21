"""Tests of the benchmark itself, at smoke size (seconds per workload).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def _bindings():
    """Every attribute of every library module, and of ParamSet, by identity."""
    mods = {n: m for n, m in sys.modules.items()
            if n == tracer.PACKAGE or n.startswith(tracer.PACKAGE + ".")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    ps = sys.modules["mgepool.nn"].ParamSet
    snap.update({("ParamSet", k): v for k, v in vars(ps).items()})
    return snap


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke_run_is_correct_and_installs_no_wrapper(name, tmp_path, monkeypatch):
    installs = []
    monkeypatch.setattr(tracer.Tracer, "install", lambda self: installs.append(self))
    before = _bindings()
    result = bench.run(name, seed=3, seconds=0, trace=False, smoke=True,
                       out_root=str(tmp_path))
    assert result.correct, result.failures
    assert result.failed == 0 and result.attempted > 0
    assert installs == []
    assert list(result.metrics) == [n for n, _ in bench.END_TO_END]
    assert all(v > 0 for v, _ in result.metrics.values())
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_run_restores_every_binding(name, tmp_path):
    before = _bindings()
    result = bench.run(name, seed=3, seconds=0, trace=True, smoke=True,
                       out_root=str(tmp_path))
    assert result.correct, result.failures
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert [(n, u) for n, (_, u) in result.metrics.items()] == bench.per_layer_metrics()
    with open(result.trace_path) as f:
        spans = [json.loads(line) for line in f]
    assert {s["name"] for s in spans} >= {"phase:setup", "phase:timed", "nn.forward"}


def test_traced_run_sees_calls_through_every_binding(tmp_path):
    result = bench.run("lenet_evolve_robust", seed=3, seconds=0, trace=True,
                       smoke=True, out_root=str(tmp_path))
    m = {k: v for k, (v, _) in result.metrics.items()}
    # forward through nn (evaluate_accuracy) and through adversarial
    assert m["nn.forward.calls"] > m["nn.evaluate_accuracy.calls"]
    assert m["nn.loss_and_grads.calls"] == m["adversarial.fgsm_batch.calls"] > 0
    assert m["evolution.mutate.calls"] == 1 and m["evolution.fuse.calls"] == 1
    assert m["nn.train.calls"] == 1
    # generation never runs the backward path
    gen = bench.run("lenet_generate", seed=3, seconds=0, trace=True, smoke=True,
                    out_root=str(tmp_path))
    g = {k: v for k, (v, _) in gen.metrics.items()}
    assert g["nn.loss_and_grads.calls"] == 0 and g["evolution.mutate.calls"] == 0


def test_same_seed_same_digest(tmp_path):
    a = bench.run("lenet_generate", seed=5, seconds=0, trace=False, smoke=True,
                  out_root=str(tmp_path))
    b = bench.run("lenet_generate", seed=5, seconds=0, trace=False, smoke=True,
                  out_root=str(tmp_path))
    c = bench.run("lenet_generate", seed=6, seconds=0, trace=False, smoke=True,
                  out_root=str(tmp_path))
    assert a.digest == b.digest != c.digest


def test_times_are_scaled_by_the_reference_kernel(tmp_path, monkeypatch):
    # a host on which the kernel takes twice its nominal time: every block
    # counts as half as long, so rates double and set-up time halves
    monkeypatch.setattr(reference.Reference, "run", lambda self: 2 * reference.NOMINAL_S)
    result = bench.run("wide_mlp_generate", seed=3, seconds=0, trace=False, smoke=True,
                       out_root=str(tmp_path))
    m, raw = result.metrics, result.unscaled
    assert raw["reference_s"][0] == pytest.approx(2 * reference.NOMINAL_S)
    assert m["setup_s"][0] == pytest.approx(raw["setup_s"][0] / 2)
    assert m["models_per_s"][0] == pytest.approx(raw["models_per_s"][0] * 2)
    assert m["candidates_per_s"][0] == pytest.approx(raw["candidates_per_s"][0] * 2)


def test_zero_call_spans_are_reported():
    agg = tracer.Tracer().aggregate("timed")
    assert {t.span for t in tracer.TARGETS} <= set(agg)
    assert all(a["calls"] == 0 and a["self_s"] == 0.0 for a in agg.values())


def test_a_target_the_library_no_longer_defines_is_skipped(monkeypatch):
    gone = tracer.Target("nn", "no_such_function", "nn.no_such_function")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    t = tracer.Tracer()
    with t.installed():
        assert "no_such_function" not in {attr for _, attr, _ in t.patches}
        assert len(t.patches) > len(tracer.TARGETS)
    assert t.aggregate("timed")["nn.no_such_function"]["calls"] == 0


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans[:] = [["phase:timed", 0.0, 10.0, -1, None],
                  ["a", 1.0, 6.0, 0, None],
                  ["b", 2.0, 3.0, 1, None],
                  ["b", 4.0, 5.5, 1, None]]
    assert t.self_times() == [5.0, 2.5, 1.0, 1.5]
    agg = t.aggregate("timed")
    assert agg["b"]["calls"] == 2 and agg["b"]["self_s"] == 2.5


def test_benchmark_json_matches_the_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_metrics()
