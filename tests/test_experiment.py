import math

import numpy as np
import pytest

from dynhop import EstimatorConfig, FilterSpec, PruneSpec, StepSizeRule, WindowSpec
from dynhop.harness import (
    DatasetSpec,
    NoiseMaskSpec,
    SplitSpec,
    SyntheticSpec,
    brain_preset,
    run_experiment,
    stock_preset,
    write_reports,
)
from dynhop.harness.experiment import _resolve_dataset
from dynhop.harness.data import GraphBuildSpec

SPLITS = SplitSpec((1, 40), (41, 60), (61, 200))


def synthetic_dataset(**kwargs):
    kwargs.setdefault("switch_times", (101,))
    synth = SyntheticSpec(seed=7, **kwargs)
    return DatasetSpec(splits=SPLITS, synthetic=synth, graph="generator", normalize=False)


def test_dataset_spec_requires_one_source():
    with pytest.raises(ValueError):
        DatasetSpec(splits=SPLITS)
    with pytest.raises(ValueError):
        DatasetSpec(splits=SPLITS, series_csv="x.csv", synthetic=SyntheticSpec())
    with pytest.raises(ValueError):
        DatasetSpec(splits=SPLITS, series_csv="x.csv", graph="generator")


def test_noiseless_single_run_mse_settles_without_regrowth():
    dataset = synthetic_dataset(regimes=1, switch_times=None, drift=0.0)
    noise = NoiseMaskSpec(snr=math.inf, missing_fraction=0.0, seed=0, runs=1)
    cfg = EstimatorConfig("glms", filter=FilterSpec(passband_fraction=0.4),
                          step=StepSizeRule.fixed(0.9))
    mse = run_experiment(dataset, noise, [cfg]).by_label("glms").mse
    floor = np.median(mse[20:])
    # transient decreases monotonically until the floor, then never regrows
    t = 0
    while mse[t] > 2 * floor:
        assert mse[t + 1] < mse[t]
        t += 1
    assert t <= 10
    assert np.max(mse[t:]) < 10 * floor
    assert mse[0] > 50 * floor


def test_identical_reruns_are_bit_identical():
    dataset = synthetic_dataset()
    noise = NoiseMaskSpec(snr=3.0, missing_fraction=0.3, seed=5, runs=2)
    cfgs = [
        EstimatorConfig("dynamic-multihop", step=StepSizeRule.adaptive(0.8, 3.5),
                        hops=3, prune=PruneSpec(0.015), window=WindowSpec(10, 1)),
        EstimatorConfig("glms", step=StepSizeRule.fixed(0.9)),
    ]
    a = run_experiment(dataset, noise, cfgs)
    b = run_experiment(dataset, noise, cfgs)
    for x, y in zip(a.algorithms, b.algorithms):
        assert np.array_equal(x.mse, y.mse)
        assert np.array_equal(x.avg_degree, y.avg_degree)


def test_batched_runs_reduce_like_separate_runs():
    # the shared stacked stream and batched estimation give the curves that
    # separately simulated and estimated runs give, bit for bit
    from dynhop import run_estimation
    from dynhop.edge_dynamics import NodeSignalSeries
    from dynhop.harness import mse_curve, simulate_observations

    dataset = synthetic_dataset()
    noise = NoiseMaskSpec(snr=3.0, missing_fraction=0.3, seed=5, runs=3)
    cfgs = [
        EstimatorConfig("dynamic-multihop", step=StepSizeRule.adaptive(0.8, 3.5),
                        hops=3, prune=PruneSpec(0.015), window=WindowSpec(10, 1)),
        EstimatorConfig("gsd", step=StepSizeRule.fixed(0.9)),
        EstimatorConfig("sgm-then-glms", step=StepSizeRule.fixed(0.9), prune=PruneSpec(0.8)),
    ]
    report = run_experiment(dataset, noise, cfgs)

    series, graph, splits = _resolve_dataset(dataset, GraphBuildSpec())
    truth = series.values[splits.rows("test")]
    train_var = series.values[splits.rows("train")].var(axis=0, ddof=1)
    for cfg, got in zip(cfgs, report.algorithms):
        traces = [
            run_estimation(simulate_observations(NodeSignalSeries(truth), noise, r, train_var),
                           graph, cfg, ground_truth=NodeSignalSeries(truth))
            for r in range(noise.runs)
        ]
        degree = np.mean([2.0 * tr.edge_counts / graph.node_count for tr in traces], axis=0)
        assert np.array_equal(got.mse, mse_curve([tr.estimates for tr in traces], truth))
        assert np.array_equal(got.avg_degree, degree)
        assert got.diverged_runs == sum(tr.diverged for tr in traces)


def test_report_times_are_absolute_one_based():
    dataset = synthetic_dataset()
    noise = NoiseMaskSpec(snr=3.0, missing_fraction=0.0, seed=1, runs=1)
    rep = run_experiment(dataset, noise, [EstimatorConfig("glms", step=StepSizeRule.fixed(0.5))])
    assert rep.times[0] == 61 and rep.times[-1] == 200


def test_validation_split_available_for_sweeps():
    dataset = synthetic_dataset()
    noise = NoiseMaskSpec(snr=3.0, missing_fraction=0.0, seed=1, runs=1)
    rep = run_experiment(dataset, noise,
                         [EstimatorConfig("glms", step=StepSizeRule.fixed(0.5))],
                         split="validation")
    assert len(rep.times) == 20
    assert rep.times[0] == 41


def test_unknown_split_is_a_value_error_naming_the_splits(monkeypatch):
    from dynhop.harness import experiment

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiment, "_resolve_dataset", refuse)
    dataset = synthetic_dataset()
    noise = NoiseMaskSpec(snr=3.0, missing_fraction=0.0, seed=1, runs=1)
    with pytest.raises(ValueError, match="'bogus'; expected train, validation or test"):
        run_experiment(dataset, noise, [EstimatorConfig("glms")], split="bogus")


def test_repeated_labels_are_rejected_before_any_work(monkeypatch):
    from dynhop.harness import experiment

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiment, "_resolve_dataset", refuse)
    monkeypatch.setattr(experiment, "simulate_observations", refuse)
    noise = NoiseMaskSpec(snr=3.0, missing_fraction=0.0, seed=1, runs=1)
    cfgs = [EstimatorConfig("glms"), EstimatorConfig("gsign"),
            EstimatorConfig("glms", step=StepSizeRule.fixed(0.5)),
            EstimatorConfig("gdlms", label="gsign")]
    with pytest.raises(ValueError, match=r"repeated: \['glms', 'gsign'\]"):
        run_experiment(synthetic_dataset(), noise, cfgs)


def test_graph_from_generator_vs_built(rng):
    synth = SyntheticSpec(seed=7, switch_times=(101,))
    ds_gen = DatasetSpec(splits=SPLITS, synthetic=synth, graph="generator", normalize=False)
    ds_build = DatasetSpec(splits=SPLITS, synthetic=synth, graph="build", normalize=False)
    _, g_gen, _ = _resolve_dataset(ds_gen, GraphBuildSpec())
    _, g_built, _ = _resolve_dataset(ds_build, GraphBuildSpec())
    assert g_gen.edge_count == 38
    assert g_built.node_count == 24  # derived from train-window correlations
    assert g_built.edges != g_gen.edges or g_built.weights != g_gen.weights


def test_graph_from_csv_path(tmp_path):
    from dynhop import graph_to_csv
    from dynhop.harness import make_synthetic_dataset, series_to_csv

    synth = SyntheticSpec(seed=7, switch_times=(101,))
    g, series = make_synthetic_dataset(synth)
    series_path = tmp_path / "series.csv"
    graph_path = tmp_path / "graph.csv"
    series_to_csv(series, series_path)
    graph_to_csv(g, graph_path)
    ds = DatasetSpec(splits=SPLITS, series_csv=str(series_path), graph=str(graph_path),
                     normalize=False)
    _, loaded, _ = _resolve_dataset(ds, GraphBuildSpec())
    assert loaded.edges == g.edges


def test_divergence_counts_recorded():
    # growth factor |1 - mu| = 11 per step reaches the overflow guard well
    # inside the 140-step test window
    dataset = synthetic_dataset()
    noise = NoiseMaskSpec(snr=math.inf, missing_fraction=0.0, seed=3, runs=2)
    wild = EstimatorConfig("glms", filter=FilterSpec(passband_fraction=0.4),
                           step=StepSizeRule.fixed(12.0))
    rep = run_experiment(dataset, noise, [wild])
    assert rep.by_label("glms").diverged_runs == 2


def test_write_reports_layout(tmp_path):
    dataset = synthetic_dataset()
    noise = NoiseMaskSpec(snr=3.0, missing_fraction=0.3, seed=5, runs=1)
    cfgs = [EstimatorConfig("glms", step=StepSizeRule.fixed(0.9)),
            EstimatorConfig("glms", step=StepSizeRule.fixed(0.5), label="glms-slow")]
    rep = run_experiment(dataset, noise, cfgs)
    written = write_reports(rep, tmp_path, config={"k": 1})
    names = {p.name for p in written}
    assert names == {"glms_mse.csv", "glms_degree.csv",
                     "glms-slow_mse.csv", "glms-slow_degree.csv", "manifest.json"}
    header = (tmp_path / "glms_mse.csv").read_text().splitlines()[0]
    assert header == "t,mse"
    import json

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["glms"]["runs"] == 1
    assert manifest["config"] == {"k": 1}


# -- preset values ------------------------------------------------------------

def test_brain_preset_protocol_values():
    cfg = brain_preset()
    assert cfg["dataset"]["splits"] == {"train": [1, 40], "validation": [41, 60],
                                        "test": [61, None]}
    assert cfg["graph_build"] == {"top_k": 3, "abs_corr_threshold": 0.95}
    assert cfg["noise"]["runs"] == 100
    assert cfg["noise"]["snr"] in (3.0, 5.0, 10.0)
    dmh = cfg["algorithms"][0]
    assert dmh["algorithm"] == "dynamic-multihop"
    assert dmh["hops"] == 6
    assert dmh["step"] == {"kind": "residual-adaptive", "mu_min": 0.8, "mu_max": 3.5}
    assert dmh["filter"]["passband_fraction"] == 0.4
    assert dmh["window"] == {"window": 10, "stride": 1}
    fixed = [a for a in cfg["algorithms"] if a["step"]["kind"] == "fixed"]
    assert fixed and all(a["step"]["mu"] == 0.9 for a in fixed)
    names = [a["algorithm"] for a in cfg["algorithms"]]
    assert set(names) == {"dynamic-multihop", "glms", "gdlms", "glmp", "gsign", "gsd",
                          "sgm-then-glms", "glms-then-sgm"}
    # these entries go into manifest.json: only the sgm orderings carry a
    # prune, and no static baseline does
    pruned = {a["algorithm"]: a["prune"] for a in cfg["algorithms"]
              if "prune" in a and a["algorithm"] != "dynamic-multihop"}
    assert pruned == {name: {"threshold": 0.8, "metric": "weight-magnitude"}
                      for name in ("sgm-then-glms", "glms-then-sgm")}


def test_stock_preset_protocol_values():
    cfg = stock_preset()
    assert cfg["dataset"]["splits"] == {"train": [1, 200], "validation": [201, 400],
                                        "test": [401, None]}
    assert cfg["noise"]["snr"] == 3.0
    assert cfg["noise"]["missing_fraction"] == 0.3
    for algo in cfg["algorithms"]:
        if algo["step"]["kind"] == "fixed":
            assert algo["step"]["mu"] == 0.4
        else:
            assert (algo["step"]["mu_min"], algo["step"]["mu_max"]) == (0.2, 0.6)
