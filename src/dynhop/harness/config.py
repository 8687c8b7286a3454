"""JSON config parsing for the CLI.

Every config section is one spec dataclass. ``_build`` reads a section's
keys, required keys and defaults from the ``dataclasses.fields`` of the
class it builds, and the value types from its type hints, so no key, default
or conversion is written twice. Unknown keys are hard errors: a typo that
silently falls back to a default is the fastest way to an irreproducible
experiment. A mistyped value is an error named by its key path
(``noise.runs must be an integer, got 2.7``):

  int     a JSON integer (``100``, not ``100.0``, ``1e2`` or ``true``)
  float   any JSON number within the float range, stored as a float
  bool    ``true`` or ``false`` only
  str     a string
  tuple   a list whose items are checked the same way
  spec    a JSON object, built the same way

``null`` or an absent key keeps the field's default. Range and choice checks
live in each spec's ``__post_init__``; their ``ValueError`` reads
``bad <section>: ...``.
"""

from __future__ import annotations

import json
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Collection, Union, get_args, get_origin, get_type_hints

from ..estimators import EstimatorConfig
from .data import GraphBuildSpec
from .experiment import DatasetSpec, _check_unique_labels
from .simulate import NoiseMaskSpec

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


def _check_keys(section: dict, allowed: Collection[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = sorted(section.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _require(section: dict, key: str, where: str):
    if key not in section or section[key] is None:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


# a value reader checks one JSON value at key path ``where`` and returns it
# as its field stores it
Reader = Callable[[Any, str], Any]

_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


@cache
def _reader(hint) -> Reader:
    """The reader of a field's type hint, compiled once per hint."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _reader(next(a for a in args if a is not type(None)))
        return lambda value, where: None if value is None else inner(value, where)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        items = [_reader(a) for a in (args[:1] if variadic else args)]

        def read_tuple(value, where):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where} must be a list, got {value!r}")
            if not variadic and len(value) != len(items):
                raise ConfigError(f"{where} must be a list of {len(items)} items, got {value!r}")
            readers = items * len(value) if variadic else items
            return tuple(
                read(v, f"{where}[{i}]") for i, (read, v) in enumerate(zip(readers, value))
            )

        return read_tuple
    if is_dataclass(hint):
        _schema(hint)  # a nested section compiles with the section that holds it
        return partial(_build, hint)
    if hint in _SCALARS:
        accepted, what = _SCALARS[hint]

        def read_scalar(value, where):
            if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
                raise ConfigError(f"{where} must be {what}, got {value!r}")
            if hint is not float:
                return value
            try:
                return float(value)
            except OverflowError:  # a JSON integer beyond the float range
                digits = len(str(abs(value)))
                raise ConfigError(
                    f"{where} must be {what} in the float range, got an integer of {digits} digits"
                ) from None

        return read_scalar
    raise TypeError(f"config values of type {hint!r} have no reader")


@cache
def _schema(spec: type) -> tuple[dict[str, Reader], tuple[str, ...]]:
    """A spec class's value readers by key, and its required keys."""
    hints = get_type_hints(spec)
    readers = {f.name: _reader(hints[f.name]) for f in fields(spec)}
    required = tuple(
        f.name for f in fields(spec) if f.default is MISSING and f.default_factory is MISSING
    )
    return readers, required


def _build(spec: type, raw, where: str):
    """The ``spec`` object that the JSON section ``raw`` at key path ``where`` describes."""
    readers, required = _schema(spec)
    _check_keys(raw, readers, where)
    for key in required:
        _require(raw, key, where)
    kwargs = {
        key: readers[key](value, f"{where}.{key}")
        for key, value in raw.items()
        if value is not None
    }
    try:
        return spec(**kwargs)
    except ValueError as err:
        raise ConfigError(f"bad {where}: {err}") from err


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
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        doc = json.loads(text)
    except ValueError as err:  # a JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def resolve_config(raw: dict) -> ResolvedConfig:
    _check_keys(raw, ["dataset", "graph_build", "noise", "algorithms", "out_dir"], "config")
    dataset = _build(DatasetSpec, _require(raw, "dataset", "config"), "dataset")
    noise = _build(NoiseMaskSpec, _require(raw, "noise", "config"), "noise")
    graph_build = _build(
        GraphBuildSpec, {} if raw.get("graph_build") is None else raw["graph_build"], "graph_build"
    )
    algo_raw = _require(raw, "algorithms", "config")
    if not isinstance(algo_raw, list) or not algo_raw:
        raise ConfigError("algorithms must be a non-empty list")
    algorithms = tuple(
        _build(EstimatorConfig, a, f"algorithms[{i}]") for i, a in enumerate(algo_raw)
    )
    try:
        _check_unique_labels([cfg.name for cfg in algorithms])
    except ValueError as err:
        raise ConfigError(f"{err}; set 'label' to disambiguate") from None
    return ResolvedConfig(
        dataset=dataset,
        noise=noise,
        graph_build=graph_build,
        algorithms=algorithms,
        out_dir=_reader(str | None)(raw.get("out_dir"), "out_dir"),
        raw=raw,
    )
