"""Tests of the benchmark's own parts: span arithmetic, hooks, names, smoke runs."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dynhop.harness import experiment  # noqa: E402

from layer_trace import HOOKS, Hook, Span, Tracer, self_times  # noqa: E402
from measure import (  # noqa: E402
    END_TO_END, PER_LAYER, Repetition, _digest, call_key, check_report, family_seconds,
    prepare, repetition, run_seconds, run_workload,
)
from reference import REFERENCE_S, reference_work  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    stats = self_times(spans)
    assert stats["a"] == (1, pytest.approx(3.0))  # 10 - 3 - 4
    assert stats["b"] == (2, pytest.approx(2.0 + 4.0))  # (3 - 1) + 4
    assert stats["c"] == (1, pytest.approx(1.0))
    assert sum(total for _, total in stats.values()) == pytest.approx(10.0)


def _rep(call_s: dict[str, float], ref_s: dict[str, float]) -> Repetition:
    return Repetition(False, call_s, ref_s, sum(call_s.values()), None, "")


def test_times_are_medians_of_ratios_to_the_reference_work():
    keys = [call_key(label) for label in ("glms", "gsd", "sgm-then-glms", "glms-then-sgm")]
    assert keys == ["static", "static", "sgm-then-glms", "glms-then-sgm"]
    fast = dict.fromkeys(keys, REFERENCE_S)
    slow = {k: 2 * v for k, v in fast.items()}
    reps = [
        _rep({"static": 1.0, "sgm-then-glms": 4.0, "glms-then-sgm": 2.0}, fast),
        # the same cost on a host half as fast
        _rep({"static": 2.0, "sgm-then-glms": 8.0, "glms-then-sgm": 4.0}, slow),
        _rep({"static": 9.0, "sgm-then-glms": 4.0, "glms-then-sgm": 2.0}, fast),  # one disturbed call
    ]
    assert family_seconds(reps, "static", runs=2) == pytest.approx(0.5)
    assert family_seconds(reps, "sgm", runs=2) == pytest.approx(3.0)
    assert family_seconds(reps, "dmh-latent", runs=2) == 0.0
    assert run_seconds(reps, runs=2) == pytest.approx(3.5)


def test_reference_work_is_fixed_and_independent_of_the_package():
    assert reference_work() == reference_work()
    imports = [line for line in (ROOT / "bench" / "reference.py").read_text().splitlines()
               if line.startswith(("import ", "from "))]
    assert imports and not any("dynhop" in line for line in imports)


def _fake_module() -> types.ModuleType:
    mod = types.ModuleType("bench_fake_layer")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer_nests_spans_and_restores_originals():
    mod = _fake_module()
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original_inner, original_outer = mod.inner, mod.outer
    hooks = [Hook("outer", (mod.__name__,), "outer"), Hook("inner", (mod.__name__,), "inner")]
    try:
        assert tracer.install(hooks) == []
        assert mod.outer(1) == 4
    finally:
        tracer.uninstall()
    assert (mod.inner, mod.outer) == (original_inner, original_outer)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    stats = self_times(tracer.spans)
    assert stats["inner"] == (1, 1.0)
    assert stats["outer"] == (1, 2.0)  # clock ticks 0..3, inner covers 1..2


def test_missing_hook_target_reads_as_zero_without_crashing():
    mod = _fake_module()
    tracer = Tracer()
    hooks = [Hook("gone", (mod.__name__, "no_such_module_xyz"), "removed_by_refactor"),
             Hook("gone.method", (mod.__name__,), "NoClass.method")]
    missing = tracer.install(hooks)
    tracer.uninstall()
    assert len(missing) == 2
    assert tracer.spans == [] and not tracer.counts


def test_every_hook_target_exists_today():
    tracer = Tracer()
    try:
        assert tracer.install(HOOKS) == []
    finally:
        tracer.uninstall()


def test_metric_names_are_valid_and_match_benchmark_json():
    names = [n for n, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_split_calls_write_the_single_call_report_and_check_it(tmp_path):
    w = WORKLOADS["topo-111"].tiny()
    prep = prepare(write_inputs(w, 3, tmp_path))
    rc = prep.config
    split = repetition(prep, tmp_path / "split", traced=False)
    whole = experiment.run_experiment(rc.dataset, rc.noise, rc.algorithms, rc.graph_build)
    experiment.write_reports(whole, tmp_path / "whole", config=rc.raw)
    assert split.digest == _digest(tmp_path / "whole")

    assert check_report(split, prep) == []
    first = split.report.algorithms[0]
    broken = dataclasses.replace(first, mse=np.full_like(first.mse, np.nan))
    split.report = dataclasses.replace(split.report, algorithms=(broken,) + split.report.algorithms[1:])
    assert check_report(split, prep) == [f"{first.label} mse curve is not finite"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace, tmp_path):
    lines: list[str] = []
    correct, result = run_workload(
        WORKLOADS[name].tiny(), seed=2, seconds=0.01, trace=trace, work=tmp_path, emit=lines.append
    )
    assert correct, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [n for n, _ in expected]
    assert all(m["value"] == m["value"] for m in result["metrics"].values())  # no NaN
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        topology = m["edge_dynamics.calls"] + m["multihop.calls"]
        if name == "static-mc":
            assert topology == 0
        else:
            assert topology > 0
        assert m["estimators.runs"] > 0 and m["trace.overhead_ratio"] > 0
