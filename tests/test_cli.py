import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import get_type_hints

import pytest

import dynhop
from dynhop import EstimatorConfig, FilterSpec, PruneSpec, StepSizeRule, WindowSpec
from dynhop.harness import (DatasetSpec, GraphBuildSpec, NoiseMaskSpec, SplitSpec,
                            SyntheticSpec)
from dynhop.harness import cli, experiment
from dynhop.harness.cli import main
from dynhop.harness.config import (ConfigError, ResolvedConfig, _reader, _schema, deep_merge,
                                   load_config, resolve_config)
from dynhop.estimators import reads
from dynhop.harness.experiment import brain_preset, stock_preset


def run_config(tmp_path, **overrides) -> dict:
    cfg = {
        "dataset": {
            "synthetic": {"seed": 7, "switch_times": [101]},
            "graph": "generator",
            "splits": {"train": [1, 40], "validation": [41, 60], "test": [61, 200]},
            "normalize": False,
        },
        "noise": {"snr": 3.0, "missing_fraction": 0.3, "seed": 5, "runs": 2},
        "algorithms": [
            {
                "algorithm": "dynamic-multihop",
                "step": {"kind": "residual-adaptive", "mu_min": 0.8, "mu_max": 3.5},
                "hops": 3,
                "prune": {"threshold": 0.015},
                "window": {"window": 10, "stride": 1},
            },
            {"algorithm": "glms", "step": {"kind": "fixed", "mu": 0.9}},
        ],
    }
    merged = deep_merge(cfg, overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(merged))
    return {"path": path, "raw": merged}


# -- config parsing --------------------------------------------------------------

def test_unknown_top_level_key_rejected(tmp_path):
    cfg = run_config(tmp_path, extra_knob=1)
    with pytest.raises(ConfigError, match="extra_knob"):
        resolve_config(load_config(cfg["path"]))


def test_unknown_nested_key_rejected(tmp_path, capsys):
    cfg = run_config(tmp_path, noise={"turbo": True})
    with pytest.raises(ConfigError, match="turbo"):
        resolve_config(load_config(cfg["path"]))
    # the generator's cluster count is a constant, not a config key
    cfg = run_config(tmp_path, dataset={"synthetic": {"clusters": 3}})
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    assert "unknown key(s) ['clusters'] in dataset.synthetic" in capsys.readouterr().err


def test_synthetic_keys_are_the_spec_fields(tmp_path):
    raw = run_config(tmp_path, dataset={"synthetic": {"bandlimit": 0.5, "drift": 0.0}})["raw"]
    synthetic = resolve_config(raw).dataset.synthetic
    assert (synthetic.bandlimit, synthetic.drift) == (0.5, 0.0)
    raw["dataset"]["synthetic"]["mode_decay"] = 0.5
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['mode_decay'\] in dataset\.synthetic"):
        resolve_config(raw)


def test_unknown_algorithm_rejected(tmp_path):
    cfg = run_config(tmp_path, algorithms=[{"algorithm": "glmz"}])
    with pytest.raises(ConfigError, match="glmz"):
        resolve_config(load_config(cfg["path"]))


def test_duplicate_labels_rejected(tmp_path):
    cfg = run_config(tmp_path, algorithms=[
        {"algorithm": "glms", "step": {"kind": "fixed", "mu": 0.9}},
        {"algorithm": "glms", "step": {"kind": "fixed", "mu": 0.5}},
    ])
    with pytest.raises(ConfigError, match="unique"):
        resolve_config(load_config(cfg["path"]))


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)
    # past the interpreter's integer digit limit, json.loads raises a plain ValueError
    cfg = run_config(tmp_path)
    cfg["path"].write_text(cfg["path"].read_text().replace('"snr": 3.0', '"snr": 1' + "0" * 5000))
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_run_writes_the_same_bytes_under_different_hash_seeds(tmp_path):
    # two interpreters with different string hashing run the CLI module
    # end to end, through its __main__ line; every report file must match
    cfg = run_config(tmp_path)
    src = str(Path(dynhop.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out-{hash_seed}"
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}
        done = subprocess.run(
            [sys.executable, "-m", "dynhop.harness.cli", "run", "--config", str(cfg["path"]),
             "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and "manifest.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_unreadable_config_and_non_object_top_level_are_config_errors(tmp_path):
    for unreadable in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(ConfigError, match=f"cannot read config {unreadable}: "):
            load_config(unreadable)
    for text in ("[1, 2]", '"run"', "null"):
        path = tmp_path / "top.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{path}: top level must be a JSON object"):
            load_config(path)


def test_empty_algorithm_list_is_config_error(tmp_path, capsys):
    cfg = run_config(tmp_path, algorithms=[])
    with pytest.raises(ConfigError, match="algorithms must be a non-empty list"):
        resolve_config(load_config(cfg["path"]))
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    assert "algorithms must be a non-empty list" in capsys.readouterr().err


def test_window_stride_other_than_one_is_config_error(tmp_path, capsys):
    cfg = run_config(tmp_path, algorithms=[
        {"algorithm": "glms", "window": {"window": 10, "stride": 2}},
    ])
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    assert "stride must be 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--stride" not in capsys.readouterr().out


def test_bad_latent_weight_rejected_at_config_time(tmp_path, capsys):
    # latent edges are weighted by their prune score: there is no such key
    entry = {"algorithm": "dynamic-multihop", "latent_weight": "score"}
    cfg = run_config(tmp_path, algorithms=[entry])
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['latent_weight'\]"):
        resolve_config(load_config(cfg["path"]))
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    assert "unknown key(s) ['latent_weight']" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("dataset", "normalize", "false"),
    ("dataset", "normalize", 0),
    ("noise", "snr_in_db", "true"),
    ("algorithms", "refresh_weights", "false"),
])
def test_flags_accept_only_json_booleans(tmp_path, section, key, value):
    raw = run_config(tmp_path)["raw"]
    target = raw["algorithms"][0] if section == "algorithms" else raw[section]
    target[key] = value
    with pytest.raises(ConfigError, match=key):
        resolve_config(raw)


def test_flags_parse_json_booleans(tmp_path):
    raw = run_config(tmp_path)["raw"]
    raw["noise"]["snr_in_db"] = True
    raw["algorithms"][0]["refresh_weights"] = False
    rc = resolve_config(raw)
    assert rc.dataset.normalize is False and rc.noise.snr_in_db is True
    assert rc.algorithms[0].refresh_weights is False and rc.algorithms[1].refresh_weights is True


def dmh(**section) -> dict:
    """Config overrides whose one algorithm is dynamic-multihop with ``section``."""
    return {"algorithms": [{"algorithm": "dynamic-multihop", **section}]}


OBJECT = "must be a JSON object"


@pytest.mark.parametrize("message, overrides, flags", [
    (f"algorithms[0].prune {OBJECT}", dmh(prune=0.2), []),
    (f"algorithms[0].window {OBJECT}", dmh(window=10), []),
    (f"algorithms[0].step {OBJECT}", dmh(step=0.5), []),
    (f"algorithms[0].filter {OBJECT}", dmh(filter="ideal"), []),
    ("algorithms[0].filter.coefficients[0] must be a number, got 'x'",
     dmh(filter={"kind": "chebyshev", "coefficients": ["x", 1, 2]}), []),
    ("algorithms[0].filter.coefficients must be a list, got 5",
     dmh(filter={"kind": "chebyshev", "coefficients": 5}), []),
    (f"noise {OBJECT}", {"noise": [1]}, []),
    (f"dataset.splits {OBJECT}", {"dataset": {"splits": 5}}, []),
    (f"algorithms[0] {OBJECT}", {"algorithms": ["glms"]}, []),
    ("dataset.synthetic.switch_times[0] must be an integer, got 'a'",
     {"dataset": {"synthetic": {"switch_times": ["a"]}}}, []),
    # a flag that writes into a section never repairs it
    (f"algorithms[0].prune {OBJECT}", dmh(prune=0.2), ["--tau", "0.1"]),
    (f"algorithms[0].window {OBJECT}", dmh(window=10), ["--window", "6"]),
    (f"algorithms[0].step {OBJECT}", dmh(step=0.5), ["--mu", "0.5"]),
    (f"algorithms[0].step {OBJECT}", dmh(step=0.5), ["--mu-min", "0.1"]),
    (f"noise {OBJECT}", {"noise": [1]}, ["--seed", "3"]),
    # a field the section's kind never reads
    ("bad algorithms[0].step: fixed rule reads no mu_min or mu_max",
     {"algorithms": [{"algorithm": "glms", "step": {"kind": "fixed", "mu": 0.9, "mu_max": 3.0}}]},
     []),
    ("bad algorithms[0].step: adaptive rule reads no mu",
     dmh(step={"kind": "residual-adaptive", "mu": 0.9, "mu_min": 0.8, "mu_max": 3.5}), []),
    ("bad algorithms[0].filter: kind 'ideal-band-limited' reads no coefficients",
     {"algorithms": [{"algorithm": "glms", "filter": {"coefficients": [1.0] * 13}}]}, []),
    # a setting the algorithm never reads
    ("bad algorithms[0]: sgm-then-glms reads no refresh_weights, got False",
     {"algorithms": [{"algorithm": "sgm-then-glms", "refresh_weights": False}]}, []),
    ("bad algorithms[0]: gsd reads no weights_source, got 'ground-truth'",
     {"algorithms": [{"algorithm": "gsd", "weights_source": "ground-truth"}]}, []),
    ("bad algorithms[0]: dynamic-multihop with refresh_weights=False reads no weights_source, "
     "got 'ground-truth'", dmh(refresh_weights=False, weights_source="ground-truth"), []),
    ("bad algorithms[0]: dynamic-multihop with refresh_weights=False reads no prune.metric, "
     "got 'correlation'", dmh(refresh_weights=False, prune={"threshold": 0.0,
                                                           "metric": "correlation"}), []),
    ("bad algorithms[0]: glms reads no diffusion_eps, got 0.5",
     {"algorithms": [{"algorithm": "glms", "diffusion_eps": 0.5}]}, []),
], ids=["prune", "window", "step", "filter-string", "coefficient-string", "coefficients-number",
        "noise-list", "splits-number", "algorithm-string", "switch-time-string",
        "prune-with-tau", "window-with-window", "step-with-mu", "step-with-mu-min",
        "noise-list-with-seed", "fixed-step-with-mu-max", "adaptive-step-with-mu",
        "ideal-filter-with-coefficients", "sgm-with-pinned-weights",
        "static-with-ground-truth", "pinned-with-ground-truth", "pinned-with-correlation",
        "glms-with-diffusion-eps"])
def test_malformed_sections_are_config_errors(tmp_path, capsys, message, overrides, flags):
    cfg = run_config(tmp_path, **overrides)
    argv = ["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


# per key path of an algorithm entry: its setting, and a JSON value of that
# setting that differs from the default at that key alone
KEY_PATHS = {
    "filter": ("filter", {"passband_fraction": 0.5}),
    "hops": ("hops", 3),
    "prune.threshold": ("prune", {"threshold": 0.5}),
    "prune.metric": ("prune", {"threshold": 0.2, "metric": "correlation"}),
    "window": ("window", {"window": 5}),
    "p_exponent": ("p_exponent", 2.0),
    "diffusion_eps": ("diffusion_eps", 0.5),
    "refresh_weights": ("refresh_weights", False),
    "weights_source": ("weights_source", "ground-truth"),
}


@pytest.mark.parametrize("algorithm, pinned", [
    *((name, False) for name in dynhop.ALGORITHMS), ("dynamic-multihop", True),
], ids=[*dynhop.ALGORITHMS, "dynamic-multihop-pinned"])
def test_a_setting_the_entry_does_not_read_exits_2_naming_the_entry(
        tmp_path, capsys, algorithm, pinned):
    pin = {"refresh_weights": False} if pinned else {}
    for path, (setting, value) in KEY_PATHS.items():
        if setting in pin:
            continue
        entry = {"algorithm": algorithm, "label": "tested", **pin, setting: value}
        cfg = run_config(tmp_path, algorithms=[{"algorithm": "glms"}, entry])
        if reads(algorithm, path, not pinned):
            resolve_config(cfg["raw"])  # accepted
            continue
        assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        named = path if reads(algorithm, setting, not pinned) else setting  # read in part
        assert err.startswith("config error: bad algorithms[1]: "), (path, err)
        assert f" reads no {named}, got " in err, (path, err)
        assert not (tmp_path / "o").exists()


def test_config_without_noise_is_config_error_naming_the_section(tmp_path, capsys):
    cfg = run_config(tmp_path)
    del cfg["raw"]["noise"]
    cfg["path"].write_text(json.dumps(cfg["raw"]))
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    assert "missing required key 'noise' in config" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["../escaped", "a/b", "..", "", ".hidden", "x y", 7])
def test_labels_that_are_not_plain_file_names_rejected(tmp_path, label):
    cfg = run_config(tmp_path, algorithms=[{"algorithm": "glms", "label": label}])
    with pytest.raises(ConfigError, match="label"):
        resolve_config(load_config(cfg["path"]))


def test_plain_labels_accepted(tmp_path):
    cfg = run_config(tmp_path, algorithms=[{"algorithm": "glms", "label": "glms_slow-0.5"}])
    assert resolve_config(load_config(cfg["path"])).algorithms[0].name == "glms_slow-0.5"


def test_resolved_config_round_trip(tmp_path):
    cfg = run_config(tmp_path)
    resolved = resolve_config(load_config(cfg["path"]))
    assert resolved.noise.runs == 2
    assert resolved.algorithms[0].hops == 3
    assert resolved.algorithms[0].prune.threshold == 0.015
    assert resolved.algorithms[1].step.mu == 0.9
    assert resolved.dataset.synthetic.switch_times == (101,)


def test_filter_section_without_a_fraction_takes_the_default_low_pass(tmp_path):
    # a filter section, an empty one or none at all: one 0.4 low-pass
    raw = run_config(tmp_path, algorithms=[
        {"algorithm": "glms", "filter": {"kind": "ideal-band-limited"}},
        {"algorithm": "glmp", "filter": {}},
        {"algorithm": "gsign"},
    ])["raw"]
    specs = [a.filter for a in resolve_config(raw).algorithms]
    assert specs == [FilterSpec()] * 3 and FilterSpec().passband_fraction == 0.4
    assert EstimatorConfig("glms").filter == FilterSpec()


def test_config_with_a_byte_order_mark_resolves(tmp_path):
    cfg = run_config(tmp_path)
    cfg["path"].write_text("\ufeff" + json.dumps(cfg["raw"]), encoding="utf-8")
    assert resolve_config(load_config(cfg["path"])) == resolve_config(cfg["raw"])


@pytest.mark.parametrize("message, overrides", [
    ("algorithms[0].hops must be an integer, got 2.5", dmh(hops=2.5)),
    ("algorithms[0].hops must be an integer, got True", dmh(hops=True)),
    ("algorithms[0].window.window must be an integer, got 10.5", dmh(window={"window": 10.5})),
    ("algorithms[0].filter.order must be an integer, got 12.0",
     dmh(filter={"kind": "chebyshev", "order": 12.0})),
    ("algorithms[0].diffusion_eps must be a number, got '0.1'",
     {"algorithms": [{"algorithm": "gdlms", "diffusion_eps": "0.1"}]}),
    ("missing required key 'kind' in algorithms[0].step", dmh(step={"mu": 0.5})),
    ("dataset.synthetic.nodes must be an integer, got 12.5",
     {"dataset": {"synthetic": {"nodes": 12.5}}}),
    ("dataset.graph must be a string, got 5", {"dataset": {"graph": 5}}),
    ("dataset.series_csv must be a string, got 5",
     {"dataset": {"synthetic": None, "graph": "build", "series_csv": 5}}),
    ("dataset.splits.train[0] must be an integer, got 1.5",
     {"dataset": {"splits": {"train": [1.5, 40]}}}),
    ("dataset.splits.train must be a list of 2 items, got [1, 40, 50]",
     {"dataset": {"splits": {"train": [1, 40, 50]}}}),
    ("bad dataset.splits: train range (1, 1) holds 1 step; it needs at least 2",
     {"dataset": {"splits": {"train": [1, 1], "validation": [2, 20], "test": [21, None]}}}),
    ("noise.runs must be an integer, got 2.7", {"noise": {"runs": 2.7}}),
    ("noise.runs must be an integer, got True", {"noise": {"runs": True}}),
    ("noise.seed must be an integer, got '3'", {"noise": {"seed": "3"}}),
    ("graph_build.top_k must be an integer, got 2.9", {"graph_build": {"top_k": 2.9}}),
    ("noise.snr must be a number in the float range, got an integer of 401 digits",
     {"noise": {"snr": 10**400}}),
    ("bad algorithms[0].step: fixed rule needs a finite mu > 0, got nan",
     {"algorithms": [{"algorithm": "glms", "step": {"kind": "fixed", "mu": math.nan}}]}),
    ("bad algorithms[0].step: fixed rule needs a finite mu > 0, got inf",
     {"algorithms": [{"algorithm": "glms", "step": {"kind": "fixed", "mu": math.inf}}]}),
    ("bad algorithms[0].step: need finite 0 < mu_min <= mu_max, got 0.1 and inf",
     dmh(step={"kind": "residual-adaptive", "mu_min": 0.1, "mu_max": math.inf})),
    ("bad algorithms[0]: diffusion_eps must be finite, got nan",
     {"algorithms": [{"algorithm": "gdlms", "diffusion_eps": math.nan}]}),
    ("bad algorithms[0]: diffusion_eps must be finite, got -inf",
     {"algorithms": [{"algorithm": "gsd", "diffusion_eps": -math.inf}]}),
    ("bad dataset.synthetic: seed must be a non-negative integer",
     {"dataset": {"synthetic": {"seed": -1}}}),
    ("bad dataset.synthetic: drift must be finite and >= 0, got -1.0",
     {"dataset": {"synthetic": {"drift": -1.0}}}),
    ("bad algorithms[0].filter: coefficients must be finite, got (1.0, nan, 0.0)",
     dmh(filter={"kind": "chebyshev", "order": 2, "coefficients": [1.0, math.nan, 0.0]})),
    ("bad noise: |dB SNR| must be below 3082.547, got 4000.0",
     {"noise": {"snr": 4000, "snr_in_db": True}}),
    ("bad noise: |dB SNR| must be below 3082.547, got -4000.0",
     {"noise": {"snr": -4000, "snr_in_db": True}}),
], ids=["hops-float", "hops-true", "window-float", "order-float", "eps-string", "step-no-kind",
        "nodes-float", "graph-number", "series-number", "train-float", "train-three-items",
        "train-one-step", "runs-float", "runs-true", "seed-string", "top-k-float", "snr-overflow",
        "mu-nan", "mu-inf", "mu-max-inf", "eps-nan", "eps-minus-inf", "synthetic-seed-minus-1",
        "drift-minus-1", "coefficient-nan", "db-snr-4000", "db-snr-minus-4000"])
def test_mistyped_values_are_config_errors_naming_their_key(tmp_path, capsys, message, overrides):
    cfg = run_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_every_section_schema_compiles():
    # compiling the top-level sections compiles every section nested in them,
    # so a field of a type the builder cannot read fails here, not in a run
    sections = get_type_hints(ResolvedConfig)
    del sections["raw"]
    for hint in sections.values():
        _reader(hint)
    for spec in (DatasetSpec, SplitSpec, SyntheticSpec, NoiseMaskSpec, GraphBuildSpec,
                 EstimatorConfig, FilterSpec, StepSizeRule, PruneSpec, WindowSpec):
        readers, _ = _schema(spec)
        assert list(readers) == [f.name for f in dataclasses.fields(spec)]

    @dataclasses.dataclass
    class Unreadable:
        table: dict

    with pytest.raises(TypeError, match="dict"):
        _schema(Unreadable)


def test_presets_resolve_to_the_hand_built_specs():
    filt = FilterSpec("ideal-band-limited", passband_fraction=0.4)
    window = WindowSpec(10, 1)

    def expected(raw, train, validation, test, fixed_mu, mu_min, mu_max):
        algorithms = [EstimatorConfig(
            "dynamic-multihop", filter=filt, step=StepSizeRule.adaptive(mu_min, mu_max),
            hops=6, prune=PruneSpec(0.2, "weight-magnitude"), window=window,
        )]
        for name in ("glms", "gdlms", "glmp", "gsign", "gsd", "sgm-then-glms"):
            extra = {"prune": PruneSpec(0.8, "weight-magnitude")} if "sgm" in name else {}
            algorithms.append(EstimatorConfig(
                name, filter=filt, step=StepSizeRule.fixed(fixed_mu), window=window, **extra
            ))
        return ResolvedConfig(
            dataset=DatasetSpec(SplitSpec(train, validation, test), series_csv="series.csv"),
            noise=NoiseMaskSpec(snr=3.0, missing_fraction=0.3, seed=0, runs=100),
            graph_build=GraphBuildSpec(top_k=3, abs_corr_threshold=0.95),
            algorithms=tuple(algorithms),
            out_dir=None,
            raw=raw,
        )

    brain, stock = brain_preset(), stock_preset()
    for raw in (brain, stock):
        raw["dataset"]["series_csv"] = "series.csv"
    assert resolve_config(brain) == expected(brain, (1, 40), (41, 60), (61, None), 0.9, 0.8, 3.5)
    assert resolve_config(stock) == expected(
        stock, (1, 200), (201, 400), (401, None), 0.4, 0.2, 0.6
    )


# -- CLI ------------------------------------------------------------------------

def test_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--out-dir", str(out), "--seed", "3", "--steps", "50"]) == 0
    assert (out / "series.csv").exists()
    assert (out / "graph.csv").exists()
    from dynhop import graph_from_csv
    from dynhop.harness import ingest_csv

    series = ingest_csv(out / "series.csv")
    assert series.steps == 50 and series.node_count == 24
    assert graph_from_csv(out / "graph.csv").edge_count == 38


def test_synth_without_flags_writes_the_default_spec(tmp_path):
    from dynhop import graph_to_csv
    from dynhop.harness import make_synthetic_dataset, series_to_csv

    out = tmp_path / "data"
    assert main(["synth", "--out-dir", str(out)]) == 0
    graph, series = make_synthetic_dataset(SyntheticSpec())
    series_to_csv(series, tmp_path / "series.csv")
    graph_to_csv(graph, tmp_path / "graph.csv")
    for name in ("series.csv", "graph.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_synth_with_a_bare_switch_times_flag_spaces_the_regimes_evenly(tmp_path):
    from dynhop import graph_to_csv
    from dynhop.harness import make_synthetic_dataset, series_to_csv

    out = tmp_path / "data"
    assert main(["synth", "--out-dir", str(out), "--switch-times", "--steps", "60"]) == 0
    graph, series = make_synthetic_dataset(SyntheticSpec(steps=60))
    series_to_csv(series, tmp_path / "series.csv")
    graph_to_csv(graph, tmp_path / "graph.csv")
    for name in ("series.csv", "graph.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_build_graph_without_flags_uses_the_default_spec(tmp_path):
    from dynhop import graph_to_csv
    from dynhop.harness import build_initial_graph, ingest_csv

    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--steps", "60"]) == 0
    out = tmp_path / "g.csv"
    assert main(["build-graph", str(data / "series.csv"), "--out", str(out)]) == 0
    expected = tmp_path / "expected.csv"
    graph_to_csv(build_initial_graph(ingest_csv(data / "series.csv"), GraphBuildSpec()), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_build_graph_roundtrip(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out-dir", str(data), "--steps", "60"])
    out = tmp_path / "g.csv"
    code = main(["build-graph", str(data / "series.csv"), "--out", str(out),
                 "--top-k", "2", "--threshold", "0.9", "--train-end", "40"])
    assert code == 0
    from dynhop import graph_from_csv

    g = graph_from_csv(out)
    assert g.node_count == 24
    assert g.edge_count >= 24  # at least top-2 coverage


def test_run_writes_reports_and_flags_override(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "reports"
    code = main(["run", "--config", str(cfg["path"]), "--out-dir", str(out),
                 "--runs", "1", "--tau", "0.02"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["noise"]["runs"] == 1
    assert manifest["config"]["algorithms"][0]["prune"]["threshold"] == 0.02
    assert (out / "dynamic-multihop_mse.csv").exists()
    assert (out / "glms_degree.csv").exists()


def test_run_flags_write_what_the_same_config_file_writes(tmp_path):
    cfg = run_config(tmp_path, noise={"runs": 1})
    flagged = tmp_path / "flagged"
    code = main(["run", "--config", str(cfg["path"]), "--out-dir", str(flagged),
                 "--hops", "2", "--window", "6", "--mu-min", "0.5", "--mu-max", "2.0",
                 "--snr", "10", "--snr-db"])
    assert code == 0
    manifest = json.loads((flagged / "manifest.json").read_text())
    dmh, glms = manifest["config"]["algorithms"]
    assert manifest["config"]["noise"]["snr"] == 10.0 and manifest["config"]["noise"]["snr_in_db"]
    # glms reads neither key, so the flags leave its entry alone
    assert dmh["hops"] == 2 and "hops" not in glms
    assert dmh["window"] == {"window": 6, "stride": 1} and "window" not in glms
    assert dmh["step"] == {"kind": "residual-adaptive", "mu_min": 0.5, "mu_max": 2.0}
    assert glms["step"] == {"kind": "fixed", "mu": 0.9}  # the bounds leave a fixed step alone

    written = run_config(tmp_path, noise={"runs": 1, "snr": 10.0, "snr_in_db": True},
                         algorithms=[dmh, glms])
    direct = tmp_path / "direct"
    assert main(["run", "--config", str(written["path"]), "--out-dir", str(direct)]) == 0
    for name in ("dynamic-multihop_mse.csv", "glms_mse.csv", "dynamic-multihop_degree.csv"):
        assert (flagged / name).read_bytes() == (direct / name).read_bytes()


def test_entry_flags_write_only_the_entries_that_read_their_key(tmp_path):
    # under the stock protocol glms reads no hops, prune or window: the flags
    # leave its preset entry as it is (its window is the default one, which
    # it does not read) and write all three into dynamic-multihop's
    data = tmp_path / "data"
    main(["synth", "--out-dir", str(data), "--steps", "80", "--nodes", "12", "--edges", "16"])
    overlay = {"dataset": {"series_csv": str(data / "series.csv"),
                           "splits": {"train": [1, 30], "validation": [31, 40],
                                      "test": [41, 80]}},
               "noise": {"runs": 1}}
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(overlay))
    flagged = tmp_path / "flagged"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the prune may keep no latent edge here
        assert main(["run", "--preset", "stock", "--config", str(path), "--out-dir", str(flagged),
                     "--algo", "glms", "--algo", "dynamic-multihop",
                     "--hops", "2", "--tau", "0.05", "--window", "6"]) == 0
    glms, dmh = json.loads((flagged / "manifest.json").read_text())["config"]["algorithms"]
    preset = {a["algorithm"]: a for a in stock_preset()["algorithms"]}
    assert glms == preset["glms"] and "hops" not in glms and "prune" not in glms
    assert dmh == {**preset["dynamic-multihop"], "hops": 2,
                   "prune": {**preset["dynamic-multihop"]["prune"], "threshold": 0.05},
                   "window": {"window": 6, "stride": 1}}

    written = tmp_path / "written.json"
    written.write_text(json.dumps({**deep_merge(stock_preset(), overlay), "algorithms": [glms, dmh]}))
    direct = tmp_path / "direct"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(written), "--out-dir", str(direct)]) == 0
    for label in ("glms", "dynamic-multihop"):
        for curve in ("mse", "degree"):
            name = f"{label}_{curve}.csv"
            assert (flagged / name).read_bytes() == (direct / name).read_bytes()


def test_run_seed_missing_frac_and_mu_flags(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg["path"]), "--out-dir", str(out), "--runs", "1",
                 "--seed", "11", "--missing-frac", "0.2", "--mu", "0.7"])
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["noise"]["seed"], config["noise"]["missing_fraction"]) == (11, 0.2)
    dmh, glms = config["algorithms"]
    assert glms["step"] == {"kind": "fixed", "mu": 0.7}
    # --mu leaves a residual-adaptive step alone
    assert dmh["step"] == {"kind": "residual-adaptive", "mu_min": 0.8, "mu_max": 3.5}


def test_run_help_names_each_table_flags_key_path(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for flag, type_, path in cli.NOISE_FLAGS + cli.ENTRY_FLAGS:
        assert f"{flag} {type_.__name__.upper()} set {path}" in text


def test_run_without_config_or_preset_is_config_error(tmp_path, capsys):
    assert main(["run", "--out-dir", str(tmp_path / "o")]) == 2
    assert "run needs --config and/or --preset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_is_byte_deterministic(tmp_path):
    cfg = run_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(out)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_exit_code_config_error(tmp_path, capsys):
    cfg = run_config(tmp_path, noise={"bogus": 1})
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_exit_code_missing_series(tmp_path, capsys):
    cfg = run_config(tmp_path, dataset={"synthetic": None, "graph": "build",
                                        "series_csv": str(tmp_path / "absent.csv")})
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 3


def test_run_exit_code_all_diverged(tmp_path, capsys):
    cfg = run_config(tmp_path, noise={"snr": 1e12, "missing_fraction": 0.0, "runs": 1},
                     algorithms=[{"algorithm": "glms", "step": {"kind": "fixed", "mu": 12.0}}])
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(out)]) == 4
    assert "diverged" in capsys.readouterr().err
    assert (out / "manifest.json").exists()  # reports still written


def test_run_with_noise_past_the_divergence_guard_is_data_error_before_any_work(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("estimation started")

    monkeypatch.setattr(experiment, "run_estimation", refuse)
    cfg = run_config(tmp_path, noise={"snr": -3000, "snr_in_db": True})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: noise.snr -3000.0 dB leaves no run that can converge: ")
    assert "not below the divergence guard" in err
    assert not (out / "manifest.json").exists()


def test_run_requires_out_dir(tmp_path, capsys):
    cfg = run_config(tmp_path)
    assert main(["run", "--config", str(cfg["path"])]) == 2


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["run", "synth"])
def test_out_dir_that_is_not_a_directory_is_config_error_before_any_work(
        tmp_path, capsys, monkeypatch, command, below):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    monkeypatch.setattr(cli, "make_synthetic_dataset", refuse)
    argv = ["run", "--config", str(run_config(tmp_path)["path"])] if command == "run" else ["synth"]
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker
    before = sorted(tmp_path.iterdir())
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    assert sorted(tmp_path.iterdir()) == before and blocker.read_text() == "kept\n"


def test_build_graph_out_below_a_file_is_config_error_before_any_work(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "ingest_csv", refuse)
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    out = blocker / "g.csv"
    before = sorted(tmp_path.iterdir())
    assert main(["build-graph", str(tmp_path / "series.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(blocker) in err
    assert sorted(tmp_path.iterdir()) == before and blocker.read_text() == "kept\n"


def test_build_graph_creates_a_missing_out_parent(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--steps", "60"]) == 0
    out = tmp_path / "new" / "sub" / "g.csv"
    assert main(["build-graph", str(data / "series.csv"), "--out", str(out)]) == 0
    expected = tmp_path / "expected.csv"
    assert main(["build-graph", str(data / "series.csv"), "--out", str(expected)]) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_os_errors_are_data_errors(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--steps", "30"]) == 0
    capsys.readouterr()
    # --out names a directory, which the graph could not be written to: that
    # is refused before the series is read, so a missing series is not named
    for series in (data / "series.csv", tmp_path / "missing.csv"):
        assert main(["build-graph", str(series), "--out", str(data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(data) in err
        assert "missing.csv" not in err


def test_algo_flag_replaces_algorithm_list(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg["path"]), "--out-dir", str(out),
                 "--algo", "glms", "--algo", "gsign", "--runs", "1", "--mu", "0.5"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["results"]) == ["glms", "gsign"]
    assert all(a["step"] == {"kind": "fixed", "mu": 0.5}
               for a in manifest["config"]["algorithms"])


def test_preset_plus_overrides(tmp_path):
    # presets carry the full protocol; dataset source comes from the overlay
    data = tmp_path / "data"
    main(["synth", "--out-dir", str(data), "--steps", "80", "--nodes", "12",
          "--edges", "16"])
    overlay = {
        "dataset": {
            "series_csv": str(data / "series.csv"),
            "splits": {"train": [1, 30], "validation": [31, 40], "test": [41, 80]},
        },
        "noise": {"runs": 1},
    }
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(overlay))
    out = tmp_path / "o"
    code = main(["run", "--preset", "brain", "--config", str(path),
                 "--out-dir", str(out), "--algo", "glms", "--runs", "1"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["graph_build"]["top_k"] == 3


def test_algo_flag_keeps_the_listed_entry_of_that_name(tmp_path):
    # under a preset, --algo picks the protocol's entries, steps included;
    # a name the list lacks runs bare
    data = tmp_path / "data"
    main(["synth", "--out-dir", str(data), "--steps", "80", "--nodes", "12", "--edges", "16"])
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"dataset": {
        "series_csv": str(data / "series.csv"),
        "splits": {"train": [1, 30], "validation": [31, 40], "test": [41, 80]},
    }}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the preset's prune keeps no latent edge here
        code = main(["run", "--preset", "stock", "--config", str(path), "--out-dir", str(out),
                     "--algo", "glms", "--algo", "dynamic-multihop", "--runs", "1"])
    assert code == 0
    listed = json.loads((out / "manifest.json").read_text())["config"]["algorithms"]
    assert listed == [a for name in ("glms", "dynamic-multihop")
                      for a in stock_preset()["algorithms"] if a["algorithm"] == name]
    assert [a["step"] for a in listed] == [
        {"kind": "fixed", "mu": 0.4},
        {"kind": "residual-adaptive", "mu_min": 0.2, "mu_max": 0.6},
    ]
    # a label names an entry before its algorithm does
    cfg = run_config(tmp_path, algorithms=[
        {"algorithm": "glms", "label": "slow", "step": {"kind": "fixed", "mu": 0.1}},
        {"algorithm": "glms", "step": {"kind": "fixed", "mu": 0.2}},
        "not an entry",
    ])
    raw = load_config(cfg["path"])
    args = cli.build_parser().parse_args(
        ["run", "--algo", "slow", "--algo", "glms", "--algo", "gsign"])
    assert cli._apply_overrides(raw, args)["algorithms"] == [
        raw["algorithms"][0], raw["algorithms"][1], {"algorithm": "gsign"}]
    # an algorithm list that is not a list is read as empty
    raw["algorithms"] = {"algorithm": "glms"}
    assert cli._apply_overrides(raw, args)["algorithms"] == [
        {"algorithm": name} for name in ("slow", "glms", "gsign")]


def test_report_summary(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "reports"
    main(["run", "--config", str(cfg["path"]), "--out-dir", str(out), "--runs", "1"])
    assert main(["report", "--out-dir", str(out), "--final-window", "50"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["algorithms"]) == {"dynamic-multihop", "glms"}
    entry = summary["algorithms"]["glms"]
    assert {"runs", "diverged_runs", "mean_mse", "final_window_mean_mse",
            "mean_degree", "distinct_degree_values"} <= set(entry)


def test_report_writes_non_finite_means_as_null(tmp_path):
    # a diverged run's MSE curve; strict JSON has no NaN or Infinity
    (tmp_path / "manifest.json").write_text(json.dumps({"results": {"glms": {"runs": 1}}}))
    (tmp_path / "glms_mse.csv").write_text("t,mse\n1,0.5\n2,inf\n3,nan\n")
    (tmp_path / "glms_degree.csv").write_text("t,avg_degree\n1,2.0\n2,3.0\n3,4.0\n")
    assert main(["report", "--out-dir", str(tmp_path)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    text = (tmp_path / "summary.json").read_text()
    entry = json.loads(text, parse_constant=refuse)["algorithms"]["glms"]
    assert (entry["mean_mse"], entry["final_window_mean_mse"]) == (None, None)
    assert entry["mean_degree"] == 3.0


@pytest.mark.parametrize("window", ["-3", "0", "2.5"])
def test_report_final_window_must_be_a_positive_integer(tmp_path, capsys, window):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--out-dir", str(tmp_path), "--final-window", window])
    assert exc.value.code == 2
    assert "--final-window" in capsys.readouterr().err


def test_report_without_reports_is_data_error(tmp_path, capsys):
    assert main(["report", "--out-dir", str(tmp_path)]) == 3


@pytest.mark.parametrize("curve", ["mse", "degree"])
def test_report_on_a_missing_curve_is_data_error_naming_it(tmp_path, capsys, curve):
    # every curve the manifest lists must be there: none is skipped
    out = tmp_path / "reports"
    assert main(["run", "--config", str(run_config(tmp_path)["path"]), "--out-dir", str(out)]) == 0
    (out / f"glms_{curve}.csv").unlink()
    capsys.readouterr()
    assert main(["report", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out / f"glms_{curve}.csv") in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("text", [
    "a,b,c\n0,1,1.0\n",  # wrong header
    "src,dst,weight\n0,1,1.0\n3,3,1.0\n",  # self-loop
    "# node_count=5\nsrc,dst,weight\n0,1,1.0\n",  # 5 nodes, series has 24
    "src,dst,weight\n0,1\n",  # a row of 2 cells
    "src,dst,weight\n0,1,1.0,7\n",  # a row of 4 cells
    "src,dst,weight\n0,x,1.0\n",  # a cell that is not an integer
    "# node_count=abc\nsrc,dst,weight\n0,1,1.0\n",  # a node count that is not a number
    "# node_count=1e3\nsrc,dst,weight\n0,1,1.0\n",  # nor an integer
    "src,dst,weight\n0,1,1.0\n1,0,0.5\n",  # a duplicate edge
], ids=["wrong-header", "self-loop", "node-count", "two-cells", "four-cells", "bad-cell",
        "node-count-abc", "node-count-1e3", "duplicate-edge"])
def test_run_with_bad_graph_csv_is_data_error(tmp_path, capsys, text):
    graph = tmp_path / "graph.csv"
    graph.write_text(text)
    cfg = run_config(tmp_path, dataset={"graph": str(graph)})
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(graph) in err
    assert err.count(str(graph)) == 1


@pytest.mark.parametrize("name, text", [
    ("glms_mse.csv", "t,mse\n"),
    ("glms_mse.csv", ""),
    ("glms_mse.csv", "t,mse\n1,abc\n"),
    ("glms_degree.csv", "t,avg_degree\n1\n"),
    ("manifest.json", "{nope"),
    ("manifest.json", "[]"),
    ("manifest.json", '{"results": [1]}'),
    ("manifest.json", '{"results": {"glms": 5}}'),
    ("manifest.json", '{"results": {"../secret": {"runs": 1}}}'),
], ids=["header-only", "empty", "non-numeric", "short-row", "bad-manifest", "manifest-list",
        "results-list", "result-number", "label-outside-out-dir"])
def test_report_on_malformed_files_is_data_error(tmp_path, capsys, name, text):
    (tmp_path / "manifest.json").write_text(json.dumps({"results": {"glms": {"runs": 1}}}))
    (tmp_path / "glms_mse.csv").write_text("t,mse\n1,0.5\n")
    (tmp_path / "glms_degree.csv").write_text("t,avg_degree\n1,2.0\n")
    (tmp_path / name).write_text(text)
    assert main(["report", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and name in err


def test_report_reads_a_manifest_with_a_byte_order_mark(tmp_path):
    manifest = json.dumps({"version": "x", "results": {"glms": {"runs": 1}}})
    (tmp_path / "manifest.json").write_text(manifest, encoding="utf-8-sig")
    (tmp_path / "glms_mse.csv").write_text("t,mse\n61,0.5\n")
    (tmp_path / "glms_degree.csv").write_text("t,avg_degree\n61,2.0\n")
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["version"] == "x" and summary["algorithms"]["glms"]["mean_mse"] == 0.5


@pytest.mark.parametrize("name", ["glms_mse.csv", "manifest.json"])
def test_report_on_a_file_that_is_not_utf8_is_data_error_naming_it(tmp_path, capsys, name):
    (tmp_path / "manifest.json").write_text(json.dumps({"results": {"glms": {"runs": 1}}}))
    (tmp_path / "glms_mse.csv").write_text("t,mse\n61,0.5\n")
    (tmp_path / name).write_bytes(b"t,mse\n61,\xff\n")
    assert main(["report", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {tmp_path / name}")
    assert "'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("splits, cause", [
    ([[1, 40], [41, 60], [61, 200]], "test range starts at step 61 but series has 50 steps"),
    ([[1, 40], [41, 60], [61, None]], "test range starts at step 61 but series has 50 steps"),
    ([[1, 20], [21, 40], [41, 200]], "test range ends at 200 but series has 50 steps"),
], ids=["closed", "open", "ends-past"])
def test_run_with_splits_past_the_series_is_data_error(tmp_path, capsys, splits, cause):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--steps", "50"]) == 0
    cfg = run_config(tmp_path, dataset={
        "synthetic": None, "graph": "build", "series_csv": str(data / "series.csv"),
        "splits": dict(zip(("train", "validation", "test"), splits)),
    })
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "50-step series" in err
    assert err.endswith(f": {cause}\n")


def test_run_with_series_csv_that_is_not_utf8_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--steps", "80"]) == 0
    series = data / "series.csv"
    series.write_bytes(series.read_bytes().replace(b"\n", b"\n\xff", 1))
    cfg = run_config(tmp_path, dataset={
        "synthetic": None, "graph": "build", "series_csv": str(series),
        "splits": {"train": [1, 40], "validation": [41, 60], "test": [61, 80]},
    })
    capsys.readouterr()
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {series}: 'utf-8' codec can't decode byte 0xff")
    assert err.count(str(series)) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, steps, nodes, message", [
    ("build-graph", 5, 1, "need at least 2 nodes to build a graph, got 1"),
    ("build-graph", 1, 2, "need at least 2 samples to correlate, got 1"),
    ("run", 80, 1, "need at least 2 nodes to build a graph, got 1"),
], ids=["build-graph-one-node", "build-graph-one-row", "run-one-node"])
def test_series_too_small_for_a_graph_is_data_error(tmp_path, capsys, command, steps, nodes,
                                                    message):
    series = tmp_path / "series.csv"
    series.write_text(",".join(f"n{j}" for j in range(nodes)) + "\n" + "".join(
        ",".join(str(1.0 + (t * (j + 2)) % 7) for j in range(nodes)) + "\n"
        for t in range(steps)))
    if command == "build-graph":
        argv = ["build-graph", str(series), "--out", str(tmp_path / "g.csv")]
    else:
        cfg = run_config(tmp_path, dataset={
            "synthetic": None, "graph": "build", "series_csv": str(series),
            "splits": {"train": [1, 30], "validation": [31, 40], "test": [41, None]},
        })
        argv = ["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["synth", "--nodes", "1"],
    ["synth", "--edges", "100000"],
    ["build-graph", "SERIES", "--top-k", "0"],
    ["build-graph", "SERIES", "--threshold", "2"],
    ["synth", "--regimes", "5", "--steps", "3"],
    ["synth", "--seed", "-1"],
    ["build-graph", "SERIES", "--train-end", "1"],
    ["build-graph", "SERIES", "--train-end", "31"],
], ids=["one-node", "too-many-edges", "top-k-0", "threshold-2", "empty-regime", "seed-minus-1",
        "train-end-1", "train-end-past-the-series"])
def test_bad_synth_and_build_graph_values_are_config_errors(tmp_path, capsys, argv):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--steps", "30"]) == 0
    argv = [str(data / "series.csv") if a == "SERIES" else a for a in argv]
    out = ["--out-dir", str(tmp_path / "o")]
    if argv[0] == "build-graph":
        out = ["--out", str(tmp_path / "g.csv")]
    capsys.readouterr()
    assert main(argv + out) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_chebyshev_config_rebinds_only_with_its_coefficients(tmp_path, monkeypatch):
    from dynhop import estimators

    binds = []
    original = estimators.bind_filter
    monkeypatch.setattr(estimators, "bind_filter",
                        lambda lap, spec: binds.append(spec) or original(lap, spec))
    coefficients = [0.5, -0.01, 0.0]
    cfg = run_config(tmp_path, noise={"runs": 1}, algorithms=[{
        "algorithm": "dynamic-multihop",
        "filter": {"kind": "chebyshev", "passband_fraction": 0.4, "order": 2,
                   "coefficients": coefficients},
        "step": {"kind": "fixed", "mu": 0.5},
        "hops": 3,
        "prune": {"threshold": 0.015},
    }])
    assert main(["run", "--config", str(cfg["path"]), "--out-dir", str(tmp_path / "o")]) == 0
    assert len(binds) > 1  # the topology changed and the filter was re-bound
    assert all(s.kind == "chebyshev" and s.coefficients == tuple(coefficients) for s in binds)
