"""Command-line entry points.

Subcommands: ``synth`` emits a synthetic dataset, ``build-graph`` derives a
static graph from a series, ``run`` executes a configured experiment,
``report`` merges written reports into a summary JSON. A flag left out
passes nothing, so the spec's own default applies; a bad ``synth`` or
``build-graph`` value reads ``bad synth: ...`` like a bad config section.

Each ``run`` flag that writes one config key is a row (flag, type, key path)
of ``NOISE_FLAGS`` or ``ENTRY_FLAGS``, which the parser, its help and
``_apply_overrides`` read. An entry flag writes only the entries that read
its key; no flag repairs a section that is not a JSON object. The step
flags stay explicit: their target depends on the step kind.

Exit codes: 0 success, 2 configuration error (an output directory that is
a file included), 3 data error (any ``OSError`` included), 4 every single
run of every algorithm diverged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from ..edge_dynamics import NodeSignalSeries
from ..estimators import ALGORITHMS, reads
from ..graphs import graph_to_csv
from .config import ConfigError, _build, deep_merge, load_config, resolve_config
from .data import DataError, GraphBuildSpec, build_initial_graph, ingest_csv, series_to_csv
from .experiment import PRESETS, read_reports, run_experiment, write_reports
from .synthetic import SyntheticSpec, make_synthetic_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ALL_DIVERGED = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _given(args: argparse.Namespace, spec_class) -> dict:
    """The flags given for ``spec_class`` fields, keyed by field name."""
    given = {f.name: getattr(args, f.name, None) for f in fields(spec_class)}
    return {name: value for name, value in given.items() if value is not None}


def _out_dir(path: str) -> Path:
    """``path`` as an output directory, checked before any work is done: it,
    or else its nearest existing ancestor, must be a directory."""
    out = Path(path)
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise ConfigError(f"output directory {out}: {existing} is not a directory")
    return out


def _cmd_synth(args: argparse.Namespace) -> int:
    out = _out_dir(args.out_dir)
    kwargs = _given(args, SyntheticSpec)
    # a bare --switch-times spaces the regimes evenly, as leaving it out does
    if kwargs.get("switch_times") == []:
        del kwargs["switch_times"]
    graph, series = make_synthetic_dataset(_build(SyntheticSpec, kwargs, "synth"))
    out.mkdir(parents=True, exist_ok=True)
    series_to_csv(series, out / "series.csv")
    graph_to_csv(graph, out / "graph.csv")
    print(f"wrote {out / 'series.csv'} and {out / 'graph.csv'}")
    return EXIT_OK


def _cmd_build_graph(args: argparse.Namespace) -> int:
    out_dir = _out_dir(str(Path(args.out).parent))
    if Path(args.out).is_dir():
        raise DataError(f"--out {args.out} is a directory, not a graph file")
    series = ingest_csv(args.series_csv)
    if args.train_end is not None:
        if not 2 <= args.train_end <= series.steps:
            raise ConfigError(f"--train-end must lie in 2..{series.steps}")
        series = NodeSignalSeries(series.values[: args.train_end], labels=series.labels)
    spec = _build(GraphBuildSpec, _given(args, GraphBuildSpec), "build-graph")
    graph = build_initial_graph(series, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph_to_csv(graph, args.out)
    print(f"wrote {args.out} ({graph.node_count} nodes, {graph.edge_count} edges)")
    return EXIT_OK


# one row per `run` flag that writes one config key: (flag, type, key path),
# from the top of the config (NOISE_FLAGS) or each entry that reads it (ENTRY_FLAGS)
NOISE_FLAGS = (
    ("--seed", int, "noise.seed"),
    ("--snr", float, "noise.snr"),
    ("--missing-frac", float, "noise.missing_fraction"),
    ("--runs", int, "noise.runs"),
)
ENTRY_FLAGS = (
    ("--hops", int, "hops"),
    ("--tau", float, "prune.threshold"),
    ("--window", int, "window.window"),
)


def _put(section: dict, path: str, value) -> dict:
    """A copy of ``section`` with ``value`` at the dotted key ``path``. Every section
    on the path is copied, or created when missing; one that is not a JSON object
    is left as it is, for ``resolve_config`` to reject: a flag never repairs it."""
    key, _, rest = path.partition(".")
    if not rest:
        return {**section, key: value}
    inner = {} if section.get(key) is None else section[key]
    if not isinstance(inner, dict):
        return section
    return {**section, key: _put(inner, rest, value)}


def _put_flags(section: dict, table, args: argparse.Namespace) -> dict:
    """``section`` with the value of each ``table`` flag that was given."""
    for _, _, path in table:
        if getattr(args, path) is not None:
            section = _put(section, path, getattr(args, path))
    return section


def _override_algorithm(entry: dict, args: argparse.Namespace) -> dict:
    name, pinned = entry.get("algorithm"), entry.get("refresh_weights") is False
    if isinstance(name, str) and name in ALGORITHMS:  # else resolve_config rejects the name
        entry = _put_flags(entry, [f for f in ENTRY_FLAGS if reads(name, f[2], not pinned)], args)
    # the step flags' target depends on the step's kind
    step = {} if entry.get("step") is None else entry["step"]
    kind = step.get("kind", "fixed") if isinstance(step, dict) else None
    if kind == "fixed" and args.mu is not None:
        entry = _put(entry, "step", {"kind": "fixed", "mu": args.mu})
    if kind == "residual-adaptive":
        for key in ("mu_min", "mu_max"):
            if getattr(args, key) is not None:
                entry = _put(entry, f"step.{key}", getattr(args, key))
    return entry


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    raw = _put_flags(dict(raw), NOISE_FLAGS, args)  # a copy: the lines below write into it
    if args.snr_db:
        raw = _put(raw, "noise.snr_in_db", True)
    if args.algo:
        # each name keeps the entry listed under that label, else runs bare
        listed = raw["algorithms"] if isinstance(raw.get("algorithms"), list) else []
        listed = [a for a in listed if isinstance(a, dict)]
        raw["algorithms"] = [
            next((a for a in listed if (a.get("label") or a.get("algorithm")) == name),
                 {"algorithm": name})
            for name in args.algo
        ]
    if isinstance(raw.get("algorithms"), list):
        raw["algorithms"] = [
            _override_algorithm(a, args) if isinstance(a, dict) else a for a in raw["algorithms"]
        ]
    if args.out_dir is not None:
        raw["out_dir"] = args.out_dir
    return raw


def _cmd_run(args: argparse.Namespace) -> int:
    raw: dict = {}
    if args.preset:
        raw = PRESETS[args.preset]()
    if args.config:
        raw = deep_merge(raw, load_config(args.config))
    if not raw:
        raise ConfigError("run needs --config and/or --preset")
    raw = _apply_overrides(raw, args)
    resolved = resolve_config(raw)
    if resolved.out_dir is None:
        raise ConfigError("no output directory: pass --out-dir or set out_dir in the config")
    out = _out_dir(resolved.out_dir)

    report = run_experiment(
        resolved.dataset, resolved.noise, resolved.algorithms, resolved.graph_build
    )
    # out_dir is where the reports land, not part of the experiment: keeping
    # it out of the manifest makes identical runs byte-identical anywhere
    captured = {k: v for k, v in resolved.raw.items() if k != "out_dir"}
    written = write_reports(report, out, config=captured)
    for path in written:
        print(f"wrote {path}")

    total_runs = sum(a.runs for a in report.algorithms)
    total_diverged = sum(a.diverged_runs for a in report.algorithms)
    if total_runs > 0 and total_diverged == total_runs:
        print("every run of every algorithm diverged", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    return EXIT_OK


def _mean(values: list[float]) -> float | None:
    """The mean of ``values``, or None (JSON null) where it is not finite,
    so that ``summary.json`` stays strict JSON."""
    mean = sum(values) / len(values)
    return mean if math.isfinite(mean) else None


def _cmd_report(args: argparse.Namespace) -> int:
    manifest, curves = read_reports(args.out_dir)
    window = args.final_window
    summary: dict = {"version": manifest.get("version"), "algorithms": {}, "final_window": window}
    for label, found in curves.items():
        summary["algorithms"][label] = {
            **manifest["results"][label],
            "mean_mse": _mean(found["mse"]),
            "final_window_mean_mse": _mean(found["mse"][-window:]),
            "mean_degree": _mean(found["degree"]),
            "distinct_degree_values": len(set(found["degree"])),
        }
    out_path = Path(args.out_dir) / "summary.json"
    out_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynhop",
        description="Dynamic multi-hop topologies and online graph-signal estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="emit a synthetic dataset CSV and graph CSV")
    synth.add_argument("--out-dir", required=True)
    for flag in ("--seed", "--nodes", "--edges", "--steps", "--regimes"):
        synth.add_argument(flag, type=int)
    synth.add_argument("--switch-times", type=int, nargs="*")
    synth.add_argument("--bandlimit", type=float)
    synth.set_defaults(func=_cmd_synth)

    build = sub.add_parser("build-graph", help="derive a static graph from a series CSV")
    build.add_argument("series_csv")
    build.add_argument("--out", required=True)
    build.add_argument("--top-k", type=int)
    build.add_argument("--threshold", type=float, dest="abs_corr_threshold", metavar="THRESHOLD")
    build.add_argument("--train-end", type=int, default=None,
                       help="use only the first N rows (1-based inclusive)")
    build.set_defaults(func=_cmd_build_graph)

    run = sub.add_parser("run", help="run a configured experiment and write reports")
    run.add_argument("--config", default=None)
    run.add_argument("--preset", choices=sorted(PRESETS), default=None)
    run.add_argument("--out-dir", default=None)
    # a table flag's value lands at args.<key path>
    for table, where in ((NOISE_FLAGS, ""), (ENTRY_FLAGS, " in every entry that reads it")):
        for flag, type_, path in table:
            run.add_argument(flag, type=type_, dest=path, metavar=type_.__name__.upper(),
                             help=f"set {path}{where}")
    run.add_argument("--snr-db", action="store_true",
                     help="set noise.snr_in_db: read --snr (and the config snr) in decibels")
    run.add_argument("--mu", type=float, default=None,
                     help="replace every fixed step; residual-adaptive steps are left alone")
    run.add_argument("--mu-min", type=float, default=None,
                     help="set mu_min of every residual-adaptive step; fixed steps are left alone")
    run.add_argument("--mu-max", type=float, default=None,
                     help="set mu_max of every residual-adaptive step; fixed steps are left alone")
    run.add_argument("--algo", action="append", default=None, metavar="NAME",
                     help="replace the algorithm list (repeatable): NAME keeps the entry "
                          "listed under that label (label, else algorithm), else runs as a "
                          "bare {\"algorithm\": NAME}")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="merge written reports into summary.json")
    rep.add_argument("--out-dir", required=True)
    rep.add_argument("--final-window", type=_positive_int, default=50)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
