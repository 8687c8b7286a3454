"""One benchmark run: set-up, timed repetitions, correctness checks, metrics.

A repetition is what a user reproducing the paper runs: ``run_experiment``
on the resolved config, then ``write_reports``. It calls
``run_experiment`` once per algorithm (in config order), except for one call
for all static baselines, so each gets its own wall time; the merged report
is the one a single call over all algorithms gives, because runs of
different algorithms share nothing but the read-only dataset.

Every timed call is bracketed by the fixed reference work of
``reference.py``, and times are reported as their ratio to it, scaled to
seconds on the uncontended host: see that module for why.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynhop.graphs import graph_from_csv
from dynhop.harness import MetricsReport, ingest_csv, normalize_by_train_mean
from dynhop.harness import experiment
from dynhop.harness.config import ResolvedConfig, resolve_config

from layer_trace import HOOKS, Tracer, self_times, warn_missing
from reference import REFERENCE_S, reference_seconds
from workloads import STATIC, Workload, family, write_inputs

SETUP_BATCHES = 20  # per run, evenly spaced in time
SETUP_BATCH = 3

# (name, unit) of every metric, in print order; BENCHMARK.json lists the same
END_TO_END = (
    ("mc_run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("converged_frac", "ratio"),
)
MULTIHOP_LABELS = ("dynamic-multihop", "dmh-latent")
REBIND_LABELS = MULTIHOP_LABELS + ("sgm-then-glms", "glms-then-sgm")
MSE_LABELS = ("dynamic-multihop", "dmh-latent", "glms")
PER_LAYER = (
    ("edge_dynamics.calls", "count"),
    ("edge_dynamics.busy_s", "s"),
    ("edge_dynamics.pairs", "count"),
    ("edge_dynamics.us_per_pair", "us"),
    ("multihop.calls", "count"),
    ("multihop.busy_s", "s"),
    ("multihop.hop_expand.busy_s", "s"),
    ("multihop.merge.busy_s", "s"),
    *((f"multihop.{kind}.{label}", unit)
      for kind, unit in (("candidates", "count"), ("survivors", "count"), ("survival_ratio", "ratio"))
      for label in MULTIHOP_LABELS),
    ("graphs.laplacian.calls", "count"),
    ("graphs.laplacian.busy_s", "s"),
    ("graphs.eigh.calls", "count"),
    ("graphs.eigh.busy_s", "s"),
    ("graphs.static_graph.built", "count"),
    ("graphs.static_graph.busy_s", "s"),
    ("filters.binds", "count"),
    ("filters.busy_s", "s"),
    *((f"filters.rebind_ratio.{label}", "ratio") for label in REBIND_LABELS),
    ("filters.route.eigh", "count"),
    ("filters.route.polynomial", "count"),
    ("filters.route.diffusion", "count"),
    ("estimators.runs", "count"),
    ("estimators.steps", "count"),
    ("estimators.self_s", "s"),
    ("estimators.self_us_per_step", "us"),
    ("harness.setup.busy_s", "s"),
    ("harness.simulate.calls", "count"),
    ("harness.simulate.busy_s", "s"),
    ("harness.simulate.distinct_ratio", "ratio"),
    ("harness.mse_curve.busy_s", "s"),
    ("harness.write_reports.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("algo_s.dynamic-multihop", "s"),
    ("algo_s.dmh-latent", "s"),
    ("algo_s.sgm", "s"),
    ("algo_s.static", "s"),
    *((f"mse_final.{label}", "mse") for label in MSE_LABELS),
    ("diverged_frac", "ratio"),
    ("mc_run.samples", "count"),
    ("mc_run.wall_s", "s"),
    ("host.slowdown", "ratio"),
)


def environment() -> dict:
    """Library versions and thread settings the numbers were taken with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
    }


@dataclass
class Prepared:
    config: ResolvedConfig
    test_len: int


def prepare(raw: dict) -> Prepared:
    """Resolve the config and run the public dataset-preparation calls."""
    rc = resolve_config(raw)
    series = ingest_csv(rc.dataset.series_csv)
    splits = rc.dataset.splits.resolve(series.steps)
    normalize_by_train_mean(series, splits)
    graph_from_csv(rc.dataset.graph)
    rows = splits.rows("test")
    return Prepared(rc, rows.stop - rows.start)


@dataclass
class Repetition:
    traced: bool
    call_s: dict[str, float]  # wall seconds of each run_experiment call, by call_key
    ref_s: dict[str, float]  # reference work timed around that call
    wall_s: float  # run_experiment calls plus write_reports
    report: MetricsReport
    digest: str


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def call_key(label: str) -> str:
    """The run_experiment call an algorithm is timed in.

    Short calls track the host's speed best, so each algorithm gets its own
    call; but the static baselines take a few milliseconds per run each, and
    re-reading the dataset for each of them would be a third of the work on
    static-mc, so they share one.
    """
    return "static" if label in STATIC else label


def repetition(prep: Prepared, out_dir: Path, traced: bool) -> Repetition:
    rc = prep.config
    groups: list[tuple[str, list]] = []
    for cfg in rc.algorithms:
        if groups and groups[-1][0] == call_key(cfg.name):
            groups[-1][1].append(cfg)
        else:
            groups.append((call_key(cfg.name), [cfg]))
    call_s: dict[str, float] = {}
    ref_s: dict[str, float] = {}
    parts = []
    before = reference_seconds()
    for key, algos in groups:
        t0 = time.perf_counter()
        parts.append(experiment.run_experiment(rc.dataset, rc.noise, algos, rc.graph_build))
        call_s[key] = call_s.get(key, 0.0) + time.perf_counter() - t0
        # the reference work brackets each call: the host's speed during a
        # call is taken as the mean of its speed just before and just after
        after = reference_seconds()
        ref_s[key] = ref_s.get(key, 0.0) + (before + after) / 2
        before = after
    report = MetricsReport(parts[0].times, tuple(a for p in parts for a in p.algorithms))
    t0 = time.perf_counter()
    shutil.rmtree(out_dir, ignore_errors=True)
    experiment.write_reports(report, out_dir, config=rc.raw)
    wall = sum(call_s.values()) + time.perf_counter() - t0
    return Repetition(traced, call_s, ref_s, wall, report, _digest(out_dir))


def check_report(rep: Repetition, prep: Prepared) -> list[str]:
    """Curves have the test-split length and are finite unless a run diverged."""
    problems = []
    expected = [cfg.name for cfg in prep.config.algorithms]
    got = [a.label for a in rep.report.algorithms]
    if got != expected:
        problems.append(f"report algorithms {got} != config {expected}")
    if len(rep.report.times) != prep.test_len:
        problems.append(f"report has {len(rep.report.times)} steps, test split {prep.test_len}")
    for algo in rep.report.algorithms:
        for name, curve in (("mse", algo.mse), ("avg_degree", algo.avg_degree)):
            if len(curve) != prep.test_len:
                problems.append(f"{algo.label} {name} curve has {len(curve)} steps, "
                                f"expected {prep.test_len}")
            elif algo.diverged_runs == 0 and not np.all(np.isfinite(curve)):
                problems.append(f"{algo.label} {name} curve is not finite")
        if algo.runs != prep.config.noise.runs:
            problems.append(f"{algo.label} reports {algo.runs} runs, "
                            f"expected {prep.config.noise.runs}")
    return problems


def percentile_summary(samples: list[float]) -> str:
    """Fastest, median and the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    text = f"min={min(samples):.4f} p50={statistics.median(samples):.4f} n={n}"
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        value = float(np.percentile(samples, q))
        text += f"; p{q}={value:.4f}"
    else:
        text += "; no percentile above p50 has 10 samples beyond it"
    return text


def layer_metrics(tracer: Tracer, traced: list[Repetition], untraced: list[Repetition],
                  runs: int) -> dict[str, float]:
    """Per-layer figures per Monte-Carlo run, averaged over traced repetitions."""
    stats = self_times(tracer.spans)
    counts = tracer.counts
    n = len(traced) * runs

    def calls(*names: str) -> float:
        return sum(stats.get(x, (0, 0.0))[0] for x in names) / n

    def busy(*names: str) -> float:
        return sum(stats.get(x, (0, 0.0))[1] for x in names) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    multihop = [k for k in stats if k == "multihop" or k.startswith("multihop.")]
    filters = [k for k in stats if k.startswith("filters.")]
    m = {
        "edge_dynamics.calls": calls("edge_dynamics"),
        "edge_dynamics.busy_s": busy("edge_dynamics"),
        "edge_dynamics.pairs": counts["edge_dynamics.pairs"] / n,
        "edge_dynamics.us_per_pair": 1e6 * ratio(busy("edge_dynamics") * n,
                                                 counts["edge_dynamics.pairs"]),
        "multihop.calls": calls("multihop"),
        "multihop.busy_s": busy(*multihop),
        "multihop.hop_expand.busy_s": busy("multihop.hop_expand"),
        "multihop.merge.busy_s": busy("multihop.merge"),
    }
    for kind in ("candidates", "survivors"):
        for label in MULTIHOP_LABELS:
            m[f"multihop.{kind}.{label}"] = counts[f"multihop.{kind}.{label}"] / n
    for label in MULTIHOP_LABELS:
        m[f"multihop.survival_ratio.{label}"] = ratio(
            counts[f"multihop.survivors.{label}"], counts[f"multihop.candidates.{label}"])
    m.update({
        "graphs.laplacian.calls": calls("graphs.laplacian"),
        "graphs.laplacian.busy_s": busy("graphs.laplacian"),
        "graphs.eigh.calls": calls("graphs.eigh"),
        "graphs.eigh.busy_s": busy("graphs.eigh"),
        "graphs.static_graph.built": calls("graphs.static_graph"),
        "graphs.static_graph.busy_s": busy("graphs.static_graph"),
        "filters.binds": calls("filters.bind", "filters.diffusion"),
        "filters.busy_s": busy(*filters),
    })
    for label in REBIND_LABELS:
        m[f"filters.rebind_ratio.{label}"] = ratio(
            counts[f"filters.binds.{label}"], counts[f"estimators.steps.{label}"])
    for route in ("eigh", "polynomial", "diffusion"):
        m[f"filters.route.{route}"] = counts[f"filters.route.{route}"] / n
    m.update({
        "estimators.runs": calls("estimators"),
        "estimators.steps": counts["estimators.steps"] / n,
        "estimators.self_s": busy("estimators"),
        "estimators.self_us_per_step": 1e6 * ratio(busy("estimators") * n,
                                                   counts["estimators.steps"]),
        "harness.setup.busy_s": busy("harness.setup"),
        "harness.simulate.calls": calls("harness.simulate"),
        "harness.simulate.busy_s": busy("harness.simulate"),
        "harness.simulate.distinct_ratio": ratio(
            counts["harness.simulate.distinct"], calls("harness.simulate") * n),
        "harness.mse_curve.busy_s": busy("harness.mse_curve"),
        "harness.write_reports.busy_s": busy("harness.write_reports"),
    })
    m["trace.overhead_ratio"] = run_seconds(traced, runs) / run_seconds(untraced, runs)
    attributed = sum(total for _, total in stats.values())
    m["trace.unattributed_s"] = (sum(r.wall_s for r in traced) - attributed) / n
    return m


def scaled(seconds: float, ref: float) -> float:
    """Seconds as they read on the uncontended host (see reference.py)."""
    return seconds / ref * REFERENCE_S


def call_seconds(reps: list[Repetition], key: str, runs: int) -> float:
    """Median over repetitions of one call's scaled seconds per run."""
    return statistics.median(scaled(r.call_s[key], r.ref_s[key]) for r in reps) / runs


def family_seconds(reps: list[Repetition], fam: str, runs: int) -> float:
    """Scaled per-run seconds of one family; 0 when the workload lacks it."""
    return sum(call_seconds(reps, key, runs) for key in reps[0].call_s if family(key) == fam)


def run_seconds(reps: list[Repetition], runs: int) -> float:
    """Scaled per-run seconds over all calls, each at its median."""
    return sum(call_seconds(reps, key, runs) for key in reps[0].call_s)


def final_window_mse(report: MetricsReport, label: str) -> float:
    """Mean MSE over the second half of the test split; 0 when the workload lacks it."""
    try:
        mse = report.by_label(label).mse
    except KeyError:
        return 0.0
    return float(np.mean(mse[len(mse) // 2 :]))


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 emit=print) -> tuple[bool, dict]:
    """Measure one workload; return (correct, result object for the last line)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = write_inputs(w, seed, work)

    # set-up is sampled in small batches spread over the whole run, each
    # batch bracketed by its own reference work
    setup_samples: list[float] = []
    setup_scaled: list[float] = []
    last_setup = -math.inf
    reps: list[Repetition] = []
    durations: list[float] = []  # of whole repetitions, reference work included
    tracer = Tracer()
    min_reps = 2 if trace else 3
    start = time.perf_counter()
    while True:
        if time.perf_counter() - last_setup >= seconds / SETUP_BATCHES:
            last_setup = time.perf_counter()
            before = reference_seconds()
            batch = []
            for _ in range(SETUP_BATCH):
                t0 = time.perf_counter()
                prep = prepare(raw)
                batch.append(time.perf_counter() - t0)
            ref = (before + reference_seconds()) / 2
            setup_samples += batch
            setup_scaled += [scaled(t, ref) for t in batch]
        traced = trace and len(reps) % 2 == 1
        if traced:
            missing = tracer.install(HOOKS)
            if len(reps) == 1:
                warn_missing(missing)
            tracer.new_repetition()
        t0 = time.perf_counter()
        try:
            reps.append(repetition(prep, work / "reports", traced))
        finally:
            tracer.uninstall()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + statistics.median(durations) > seconds:
            break

    problems = []
    for rep in reps:
        problems += check_report(rep, prep)
    digests = {r.digest for r in reps}
    if len(digests) != 1:
        kinds = "traced and untraced" if trace else "repeated"
        problems.append(f"{kinds} repetitions wrote different reports: {sorted(digests)}")

    runs = prep.config.noise.runs
    untraced = [r for r in reps if not r.traced]
    attempted = sum(a.runs for r in untraced for a in r.report.algorithms)
    failed = sum(a.diverged_runs for r in untraced for a in r.report.algorithms)
    run_samples = [sum(r.call_s.values()) / runs for r in untraced]
    run_scaled = [sum(scaled(r.call_s[k], r.ref_s[k]) for k in r.call_s) / runs
                  for r in untraced]
    ref_samples = [v for r in reps for v in r.ref_s.values()]
    report = reps[0].report

    e2e = {
        "mc_run_s": run_seconds(untraced, runs),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_frac": 1.0 - failed / attempted,
    }
    extra = {f"algo_s.{fam}": family_seconds(untraced, fam, runs)
             for fam in ("dynamic-multihop", "dmh-latent", "sgm", "static")}
    extra.update({f"mse_final.{label}": final_window_mse(report, label) for label in MSE_LABELS})
    extra["diverged_frac"] = failed / attempted
    extra["mc_run.samples"] = float(len(run_samples))
    extra["mc_run.wall_s"] = statistics.median(run_samples)
    extra["host.slowdown"] = statistics.median(ref_samples) / REFERENCE_S

    emit(f"# workload {w.name} seed {seed} trace {int(trace)}")
    emit(f"# environment {environment()}")
    emit(f"# reports sha256 {reps[0].digest} ({len(reps)} repetitions, "
         f"{'all identical' if len(digests) == 1 else 'DIFFERENT'})")
    emit(f"# wall seconds per Monte-Carlo run, by repetition: {percentile_summary(run_samples)}")
    emit(f"# scaled seconds per Monte-Carlo run, by repetition: {percentile_summary(run_scaled)}")
    emit(f"# wall setup seconds, by sample: {percentile_summary(setup_samples)}")
    emit(f"# scaled setup seconds, by sample: {percentile_summary(setup_scaled)}")
    emit(f"# reference work seconds (uncontended {REFERENCE_S}): "
         f"{percentile_summary(ref_samples)}")
    for problem in problems:
        emit(f"# CORRECTNESS FAILURE: {problem}")

    if trace:
        traced_reps = [r for r in reps if r.traced]
        values = layer_metrics(tracer, traced_reps, untraced, runs) | extra
        names = PER_LAYER
    else:
        values = e2e
        names = END_TO_END
        units = dict(PER_LAYER)
        for name, value in extra.items():
            emit(f"{name:40s} {value:.6g} {units[name]} (per-layer set)")
    metrics = {}
    for name, unit in names:
        emit(f"{name:40s} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return not problems, result
