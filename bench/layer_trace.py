"""Layer spans for the traced benchmark run.

The benchmark never edits the package: it swaps a timing wrapper into the
module namespace where the pipeline looks a name up (for example
``dynhop.estimators.sliding_abs_correlation``, which the estimator calls
through its own import) and puts the original back afterwards. Every call
of a wrapped name becomes a span; spans nest through a stack, so a layer's
self time is its span time minus the time of the spans it caused.

A hooked name that a later refactor removes is reported once on stderr and
reads as zero; its time then lands in the self time of the enclosing span,
or in ``trace.unattributed_s`` when no enclosing span is traced.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    """One call of a wrapped name; ``parent`` indexes the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """(span count, summed self time) per span name.

    Spans of one thread nest without overlapping siblings, so the part of a
    span covered by its children is the sum of the direct children's
    durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, tuple[int, float]] = {}
    for k, s in enumerate(spans):
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + (s.end - s.start) - covered[k])
    return out


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


Counter = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Hook:
    """Wrap ``attr`` (``"name"`` or ``"Class.method"``) in each listed module.

    ``count`` runs after a call returns and adds work counts; ``label``
    names the algorithm a call works for, which nested spans inherit.
    """

    span: str
    modules: tuple[str, ...]
    attr: str
    count: Counter | None = None
    label: Callable[[tuple, dict], str] | None = None


class Tracer:
    """Spans and counters of the traced repetitions, plus installed hooks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.label: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._streams: set = set()

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(hook.span, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            outer = tracer.label
            try:
                if hook.label is not None:
                    tracer.label = hook.label(args, kwargs)
                span.start = tracer.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = tracer.clock()
                    stack.pop()
                if hook.count is not None:
                    hook.count(tracer, args, kwargs, result)
                return result
            finally:
                tracer.label = outer

        return wrapper

    def install(self, hooks: Iterable[Hook]) -> list[str]:
        """Wrap every hook target that exists; return the hooks found nowhere."""
        missing = []
        for hook in hooks:
            found = False
            for module_name in hook.modules:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                *path, leaf = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None) if owner is not None else None
                if not callable(original):
                    continue
                self._installed.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(hook, original))
                found = True
            if not found:
                missing.append(f"{hook.span}: {hook.attr} in {', '.join(hook.modules)}")
        return missing

    def new_repetition(self) -> None:
        """Streams repeat across repetitions; count distinct ones per repetition."""
        self._streams.clear()

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)


# -- work counters ------------------------------------------------------------


def _count_pairs(tr: Tracer, args, kwargs, result) -> None:
    # one score per (pair, window position)
    tr.counts["edge_dynamics.pairs"] += len(_arg(args, kwargs, 2, "pairs")) * (
        _arg(args, kwargs, 0, "series").steps - _arg(args, kwargs, 1, "spec").window + 1
    )


def _count_candidates(tr: Tracer, args, kwargs, result) -> None:
    tr.counts[f"multihop.candidates.{tr.label}"] += sum(len(c.pairs) for c in result)


def _count_survivors(tr: Tracer, args, kwargs, result) -> None:
    tr.counts[f"multihop.survivors.{tr.label}"] += len(result.pairs)


def _count_bind(tr: Tracer, args, kwargs, result) -> None:
    spec = _arg(args, kwargs, 1, "spec")
    tr.counts["filters.route.polynomial" if spec.kind == "chebyshev" else "filters.route.eigh"] += 1
    tr.counts[f"filters.binds.{tr.label}"] += 1


def _count_diffusion(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["filters.route.diffusion"] += 1
    tr.counts[f"filters.binds.{tr.label}"] += 1


def _count_steps(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["estimators.steps"] += result.steps
    tr.counts[f"estimators.steps.{tr.label}"] += result.steps


def _count_stream(tr: Tracer, args, kwargs, result) -> None:
    series = _arg(args, kwargs, 0, "series")
    key = (
        _arg(args, kwargs, 1, "spec"),
        int(_arg(args, kwargs, 2, "run_index")),
        hashlib.blake2b(series.values.tobytes(), digest_size=16).digest(),
    )
    if key not in tr._streams:
        tr._streams.add(key)
        tr.counts["harness.simulate.distinct"] += 1


def _algorithm_label(args, kwargs) -> str:
    return _arg(args, kwargs, 2, "cfg").name


_EXPERIMENT = "dynhop.harness.experiment"

HOOKS: tuple[Hook, ...] = (
    Hook("edge_dynamics", ("dynhop.edge_dynamics", "dynhop.estimators", "dynhop.multihop"),
         "sliding_abs_correlation", count=_count_pairs),
    Hook("multihop", ("dynhop.multihop", "dynhop.estimators"), "build_topology_slice"),
    Hook("multihop.spectral_normalize", ("dynhop.multihop",), "spectral_normalize"),
    Hook("multihop.hop_expand", ("dynhop.multihop",), "hop_expand", count=_count_candidates),
    Hook("multihop.prune", ("dynhop.multihop",), "prune", count=_count_survivors),
    Hook("multihop.merge", ("dynhop.multihop",), "merge"),
    Hook("graphs.laplacian", ("dynhop.graphs", "dynhop.estimators", "dynhop.multihop"),
         "build_laplacian"),
    Hook("graphs.eigh", ("dynhop.graphs", "dynhop.filters", "dynhop.estimators"), "eigendecompose"),
    Hook("graphs.static_graph", ("dynhop.graphs",), "StaticGraph.__post_init__"),
    Hook("filters.bind", ("dynhop.filters", "dynhop.estimators"), "bind_filter", count=_count_bind),
    Hook("filters.diffusion", ("dynhop.estimators",), "diffusion_operator", count=_count_diffusion),
    Hook("estimators", ("dynhop.estimators", _EXPERIMENT), "run_estimation",
         count=_count_steps, label=_algorithm_label),
    Hook("harness.setup", (_EXPERIMENT, "dynhop.harness.data"), "ingest_csv"),
    Hook("harness.setup", ("dynhop.harness.data",), "SplitSpec.resolve"),
    Hook("harness.setup", (_EXPERIMENT, "dynhop.harness.data"), "normalize_by_train_mean"),
    Hook("harness.setup", (_EXPERIMENT, "dynhop.harness.data"), "build_initial_graph"),
    Hook("harness.setup", (_EXPERIMENT, "dynhop.graphs"), "graph_from_csv"),
    Hook("harness.simulate", (_EXPERIMENT, "dynhop.harness.simulate"), "simulate_observations",
         count=_count_stream),
    Hook("harness.mse_curve", (_EXPERIMENT, "dynhop.harness.metrics"), "mse_curve"),
    Hook("harness.write_reports", (_EXPERIMENT, "dynhop.harness"), "write_reports"),
)


def warn_missing(missing: Sequence[str]) -> None:
    for entry in missing:
        print(f"warning: hook target not found, reads as 0: {entry}", file=sys.stderr)
