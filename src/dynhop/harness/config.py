"""JSON config parsing for the CLI.

Configs mirror the spec dataclasses field-for-field. Unknown keys are hard
errors: a typo that silently falls back to a default is the fastest way to
an irreproducible experiment.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from ..estimators import ALGORITHMS, EstimatorConfig, StepSizeRule
from ..edge_dynamics import WindowSpec
from ..filters import FilterSpec
from ..multihop import PruneSpec
from .data import GraphBuildSpec, SplitSpec
from .experiment import DatasetSpec
from .simulate import NoiseMaskSpec
from .synthetic import SyntheticSpec

__all__ = ["ConfigError", "ResolvedConfig", "load_config", "resolve_config", "deep_merge"]


class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


@dataclass(frozen=True)
class ResolvedConfig:
    dataset: DatasetSpec
    noise: NoiseMaskSpec
    graph_build: GraphBuildSpec
    algorithms: tuple[EstimatorConfig, ...]
    out_dir: str | None
    raw: dict


def _check_keys(section: dict, allowed: Sequence[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _fields(spec: type) -> list[str]:
    """A section's allowed keys: the fields of the spec class it builds."""
    return [f.name for f in fields(spec)]


def _require(section: dict, key: str, where: str):
    if key not in section or section[key] is None:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _flag(section: dict, key: str, default: bool, where: str) -> bool:
    """A JSON boolean; strings such as "false" are rejected, never read as truthy."""
    value = section.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


# labels become report file names, so they may not carry path separators
LABEL = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def deep_merge(base: dict, overlay: dict) -> dict:
    """Recursive dict merge; overlay wins, lists replace wholesale."""
    merged = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _parse_splits(raw: dict) -> SplitSpec:
    _check_keys(raw, _fields(SplitSpec), "dataset.splits")
    try:
        train = tuple(int(v) for v in _require(raw, "train", "dataset.splits"))
        validation = tuple(int(v) for v in _require(raw, "validation", "dataset.splits"))
        test_raw = _require(raw, "test", "dataset.splits")
        test = (int(test_raw[0]), None if test_raw[1] is None else int(test_raw[1]))
        return SplitSpec(train, validation, test)
    except (TypeError, ValueError, IndexError) as err:
        raise ConfigError(f"bad dataset.splits: {err}") from err


def _parse_synthetic(raw: dict) -> SyntheticSpec:
    _check_keys(raw, _fields(SyntheticSpec), "dataset.synthetic")
    kwargs = dict(raw)
    try:
        if kwargs.get("switch_times") is not None:
            kwargs["switch_times"] = tuple(int(t) for t in kwargs["switch_times"])
        return SyntheticSpec(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad dataset.synthetic: {err}") from err


def _parse_dataset(raw: dict) -> DatasetSpec:
    _check_keys(raw, _fields(DatasetSpec), "dataset")
    splits = _parse_splits(_require(raw, "splits", "dataset"))
    synthetic = None
    if raw.get("synthetic") is not None:
        synthetic = _parse_synthetic(raw["synthetic"])
    try:
        return DatasetSpec(
            splits=splits,
            series_csv=raw.get("series_csv"),
            synthetic=synthetic,
            graph=raw.get("graph", "build"),
            normalize=_flag(raw, "normalize", True, "dataset"),
        )
    except ValueError as err:
        raise ConfigError(f"bad dataset: {err}") from err


def _parse_noise(raw: dict) -> NoiseMaskSpec:
    _check_keys(raw, _fields(NoiseMaskSpec), "noise")
    try:
        return NoiseMaskSpec(
            snr=float(_require(raw, "snr", "noise")),
            missing_fraction=float(raw.get("missing_fraction", 0.0)),
            seed=int(raw.get("seed", 0)),
            runs=int(raw.get("runs", 1)),
            snr_in_db=_flag(raw, "snr_in_db", False, "noise"),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad noise: {err}") from err


def _parse_graph_build(raw: dict) -> GraphBuildSpec:
    _check_keys(raw, _fields(GraphBuildSpec), "graph_build")
    try:
        return GraphBuildSpec(
            top_k=int(raw.get("top_k", 3)),
            abs_corr_threshold=float(raw.get("abs_corr_threshold", 0.95)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad graph_build: {err}") from err


def _parse_filter(raw: dict, where: str) -> FilterSpec:
    _check_keys(raw, _fields(FilterSpec), where)
    kwargs = dict(raw)
    try:
        if kwargs.get("coefficients") is not None:
            kwargs["coefficients"] = tuple(float(c) for c in kwargs["coefficients"])
        return FilterSpec(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {where}: {err}") from err


def _parse_step(raw: dict, where: str) -> StepSizeRule:
    _check_keys(raw, _fields(StepSizeRule), where)
    try:
        return StepSizeRule(**raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {where}: {err}") from err


def _parse_algorithm(raw: dict, index: int) -> EstimatorConfig:
    where = f"algorithms[{index}]"
    _check_keys(raw, _fields(EstimatorConfig), where)
    name = _require(raw, "algorithm", where)
    if name not in ALGORITHMS:
        raise ConfigError(f"{where}: unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    kwargs: dict = {"algorithm": name}
    if raw.get("filter") is not None:
        kwargs["filter"] = _parse_filter(raw["filter"], f"{where}.filter")
    if raw.get("step") is not None:
        kwargs["step"] = _parse_step(raw["step"], f"{where}.step")
    if raw.get("prune") is not None:
        _check_keys(raw["prune"], _fields(PruneSpec), f"{where}.prune")
        try:
            kwargs["prune"] = PruneSpec(**raw["prune"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad {where}.prune: {err}") from err
    if raw.get("window") is not None:
        _check_keys(raw["window"], _fields(WindowSpec), f"{where}.window")
        try:
            kwargs["window"] = WindowSpec(**raw["window"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad {where}.window: {err}") from err
    for key in ("label", "hops", "p_exponent", "diffusion_eps", "latent_weight", "weights_source"):
        if raw.get(key) is not None:
            kwargs[key] = raw[key]
    kwargs["refresh_weights"] = _flag(raw, "refresh_weights", True, where)
    label = kwargs.get("label")
    if label is not None and not (isinstance(label, str) and LABEL.fullmatch(label)):
        raise ConfigError(
            f"{where}.label {label!r} must match {LABEL.pattern} (it names the report files)"
        )
    try:
        return EstimatorConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {where}: {err}") from err


def resolve_config(raw: dict) -> ResolvedConfig:
    _check_keys(raw, ["dataset", "graph_build", "noise", "algorithms", "out_dir"], "config")
    dataset = _parse_dataset(_require(raw, "dataset", "config"))
    noise = _parse_noise(_require(raw, "noise", "config"))
    graph_build = _parse_graph_build({} if raw.get("graph_build") is None else raw["graph_build"])
    algo_raw = _require(raw, "algorithms", "config")
    if not isinstance(algo_raw, list) or not algo_raw:
        raise ConfigError("algorithms must be a non-empty list")
    algorithms = tuple(_parse_algorithm(a, i) for i, a in enumerate(algo_raw))
    labels = [a.name for a in algorithms]
    if len(set(labels)) != len(labels):
        raise ConfigError(
            f"algorithm labels must be unique (got {labels}); set 'label' to disambiguate"
        )
    return ResolvedConfig(
        dataset=dataset,
        noise=noise,
        graph_build=graph_build,
        algorithms=algorithms,
        out_dir=raw.get("out_dir"),
        raw=raw,
    )
