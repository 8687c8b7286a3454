"""Command-line entry points.

Subcommands: ``synth`` emits a synthetic dataset, ``build-graph`` derives a
static graph from a series, ``run`` executes a configured experiment,
``report`` merges written reports into a summary JSON. A flag left out
passes nothing, so the spec's own default applies.

Exit codes: 0 success, 2 configuration error (an output directory that is
a file included), 3 data error (any ``OSError`` included), 4 every single
run of every algorithm diverged.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from ..edge_dynamics import NodeSignalSeries
from ..graphs import graph_to_csv
from .config import ConfigError, deep_merge, load_config, resolve_config
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
    try:
        spec = SyntheticSpec(**kwargs)
    except ValueError as err:
        raise ConfigError(f"synth: {err}") from None
    graph, series = make_synthetic_dataset(spec)
    out.mkdir(parents=True, exist_ok=True)
    series_to_csv(series, out / "series.csv")
    graph_to_csv(graph, out / "graph.csv")
    print(f"wrote {out / 'series.csv'} and {out / 'graph.csv'}")
    return EXIT_OK


def _cmd_build_graph(args: argparse.Namespace) -> int:
    series = ingest_csv(args.series_csv)
    if args.train_end is not None:
        if not 2 <= args.train_end <= series.steps:
            raise ConfigError(f"--train-end must lie in 2..{series.steps}")
        series = NodeSignalSeries(series.values[: args.train_end], labels=series.labels)
    try:
        spec = GraphBuildSpec(**_given(args, GraphBuildSpec))
    except ValueError as err:
        raise ConfigError(f"build-graph: {err}") from None
    graph = build_initial_graph(series, spec)
    graph_to_csv(graph, args.out)
    print(f"wrote {args.out} ({graph.node_count} nodes, {graph.edge_count} edges)")
    return EXIT_OK


def _object(section) -> dict | None:
    """A copy of a config section to override, or None when it is not a JSON
    object: such a section is left as it is, for ``resolve_config`` to reject."""
    if section is None:
        return {}
    return dict(section) if isinstance(section, dict) else None


def _override_algorithm(entry: dict, args: argparse.Namespace) -> dict:
    entry = dict(entry)
    if args.hops is not None:
        entry["hops"] = args.hops
    prune = _object(entry.get("prune"))
    if args.tau is not None and prune is not None:
        entry["prune"] = {**prune, "threshold": args.tau}
    window = _object(entry.get("window"))
    if args.window is not None and window is not None:
        entry["window"] = {**window, "window": args.window}
    step = _object(entry.get("step"))
    if step is None:
        return entry
    kind = step.get("kind", "fixed")
    if kind == "fixed" and args.mu is not None:
        step = {"kind": "fixed", "mu": args.mu}
    if kind == "residual-adaptive":
        bounds = {"mu_min": args.mu_min, "mu_max": args.mu_max}
        step.update({key: mu for key, mu in bounds.items() if mu is not None})
    if step:
        entry["step"] = step
    return entry


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    raw = dict(raw)
    noise = _object(raw.get("noise"))
    if noise is not None:
        for flag, key in [("seed", "seed"), ("snr", "snr"), ("missing_frac", "missing_fraction"),
                          ("runs", "runs")]:
            value = getattr(args, flag)
            if value is not None:
                noise[key] = value
        if args.snr_db:
            noise["snr_in_db"] = True
        raw["noise"] = noise

    if args.algo:
        raw["algorithms"] = [{"algorithm": name} for name in args.algo]
    algorithms = raw.get("algorithms")
    if isinstance(algorithms, list):
        raw["algorithms"] = [
            _override_algorithm(a, args) if isinstance(a, dict) else a for a in algorithms
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


def _cmd_report(args: argparse.Namespace) -> int:
    manifest, curves = read_reports(args.out_dir)
    window = args.final_window
    summary: dict = {"version": manifest.get("version"), "algorithms": {}, "final_window": window}
    for label, found in curves.items():
        entry = dict(manifest["results"][label])
        if "mse" in found:
            mse = found["mse"]
            tail = mse[-window:]
            entry["mean_mse"] = sum(mse) / len(mse)
            entry["final_window_mean_mse"] = sum(tail) / len(tail)
        if "degree" in found:
            deg = found["degree"]
            entry["mean_degree"] = sum(deg) / len(deg)
            entry["distinct_degree_values"] = len(set(deg))
        summary["algorithms"][label] = entry
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
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--snr", type=float, default=None)
    run.add_argument("--snr-db", action="store_true",
                     help="interpret --snr (and the config snr) in decibels")
    run.add_argument("--missing-frac", type=float, default=None)
    run.add_argument("--runs", type=int, default=None)
    run.add_argument("--hops", type=int, default=None)
    run.add_argument("--tau", type=float, default=None)
    run.add_argument("--window", type=int, default=None)
    run.add_argument("--mu", type=float, default=None)
    run.add_argument("--mu-min", type=float, default=None)
    run.add_argument("--mu-max", type=float, default=None)
    run.add_argument("--algo", action="append", default=None,
                     help="replace the algorithm list (repeatable)")
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
