"""Online adaptive estimation of noisy, partially observed node signals.

All algorithms share one update skeleton: the masked residual of the newest
observation is (optionally) passed through an element-wise non-linearity,
shaped by a graph operator, scaled by a step size, and added to the running
estimate. ``ALGORITHMS`` names each algorithm's topology, operator and
non-linearity.

Every bind of a filter goes through ``bind_filter`` with the configured
``FilterSpec``, whatever the graph size: kind "ideal-band-limited"
eigendecomposes every Laplacian it binds to, and kind "chebyshev" is the
polynomial route (pass fixed ``coefficients`` to keep one response across
topologies). The diffusion members bind ``diffusion_operator`` instead.
Both binders, and the ``out=`` contract the loop relies on, live in
:mod:`dynhop.filters`; ``_bind`` looks them up here, where the benchmark
traces them.

Divergence (non-finite values, or magnitudes beyond an overflow guard) is
flagged in the trace; the run keeps going so the blow-up stays visible in
downstream metrics.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .edge_dynamics import (
    NodeSignalSeries,
    WindowSpec,
    sliding_abs_correlation,
    window_abs_correlation,
)
from .filters import FilterSpec, bind_filter, diffusion_operator, filter_response
from .graphs import StaticGraph, adjacency_laplacian, build_laplacian, eigendecompose
from .multihop import PruneSpec, expand_prune_merge

__all__ = [
    "ALGORITHMS",
    "DIVERGENCE_GUARD",
    "StepSizeRule",
    "ObservationStream",
    "EstimatorConfig",
    "EstimationTrace",
    "adaptive_mu",
    "run_estimation",
    "stability_bound",
]

Algorithm = namedtuple("Algorithm", "topology operator shaping")

# Each name is one point of three axes of the one masked update:
#   topology  "static" (the given graph); "multihop" (the static graph plus
#             the latent multi-hop edges inferred from the estimate history,
#             re-bound every step); "threshold" (the pairs whose windowed
#             |correlation| passes the prune threshold, every step; it reads
#             no prune metric, so "weight-magnitude" thresholds |correlation|
#             too).
#   operator  "filter" (the configured spectral filter) or "diffusion" (one
#             step of I - eps L, ``filters.diffusion_operator``).
#   shaping   of the residual e: None (identity), "signed-power"
#             (sign(e)|e|^(p-1), p the ``p_exponent``) or "sign".
# sgm-then-glms refreshes its topology before each update and glms-then-sgm
# after it, for the next step. Both read the history up to step t - 1, so
# here they are one estimator with bit-identical traces; the paper's
# distinction between them is not reproduced.
ALGORITHMS = {
    "dynamic-multihop": Algorithm("multihop", "filter", None),
    "glms": Algorithm("static", "filter", None),
    "gdlms": Algorithm("static", "diffusion", None),
    "glmp": Algorithm("static", "filter", "signed-power"),
    "gsign": Algorithm("static", "filter", "sign"),
    "gsd": Algorithm("static", "diffusion", "sign"),
    "sgm-then-glms": Algorithm("threshold", "filter", None),
    "glms-then-sgm": Algorithm("threshold", "filter", None),
}

# labels name report files, so they may not carry path separators or start a
# dot file
LABEL = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")

# estimates whose magnitude passes this can never recover and would soon
# overflow norm computations; flag divergence here instead of waiting for inf
DIVERGENCE_GUARD = 1e100


@dataclass(frozen=True)
class StepSizeRule:
    """Fixed step size, or one decaying exponentially with the residual norm;
    a field the kind never reads (``mu_min`` and ``mu_max`` of "fixed",
    ``mu`` of "residual-adaptive") is an error."""

    kind: str
    mu: float | None = None
    mu_min: float | None = None
    mu_max: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            if self.mu_min is not None or self.mu_max is not None:
                raise ValueError("fixed rule reads no mu_min or mu_max")
            if self.mu is None or not 0 < self.mu < math.inf:
                raise ValueError(f"fixed rule needs a finite mu > 0, got {self.mu}")
        elif self.kind == "residual-adaptive":
            if self.mu is not None:
                raise ValueError("adaptive rule reads no mu")
            if self.mu_min is None or self.mu_max is None:
                raise ValueError("adaptive rule needs mu_min and mu_max")
            if not 0 < self.mu_min <= self.mu_max < math.inf:
                raise ValueError(
                    f"need finite 0 < mu_min <= mu_max, got {self.mu_min} and {self.mu_max}"
                )
        else:
            raise ValueError(f"unknown step rule {self.kind!r}")

    @classmethod
    def fixed(cls, mu: float) -> "StepSizeRule":
        return cls("fixed", mu=mu)

    @classmethod
    def adaptive(cls, mu_min: float, mu_max: float) -> "StepSizeRule":
        return cls("residual-adaptive", mu_min=mu_min, mu_max=mu_max)


def adaptive_mu(residual_norm: float, rule: StepSizeRule) -> float:
    """Step size for the current residual.

    The adaptive rule interpolates (mu_max - mu_min) * exp(-r) + mu_min:
    large residuals give cautious steps near mu_min, small residuals give
    aggressive steps near mu_max.
    """
    if rule.kind == "fixed":
        return float(rule.mu)
    return (rule.mu_max - rule.mu_min) * math.exp(-float(residual_norm)) + rule.mu_min


@dataclass(frozen=True)
class ObservationStream:
    """Per-step noisy observations with a boolean sampling mask.

    One run is shaped (T, N); a stack of R Monte-Carlo runs over the same
    steps and nodes is shaped (R, T, N) (see :meth:`stack`). Unobserved
    entries are zeroed on construction, so downstream code can rely on
    masked coordinates carrying no information.
    """

    observations: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        obs = np.asarray(self.observations, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if obs.ndim not in (2, 3) or obs.shape != mask.shape:
            raise ValueError(
                f"observations {obs.shape} and mask {mask.shape} must be equal 2-D or 3-D shapes"
            )
        self._own(np.where(mask, obs, 0.0), mask.copy())

    def _own(self, observations: np.ndarray, mask: np.ndarray) -> None:
        """Hold fresh arrays, already zeroed where unobserved, read-only."""
        observations.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def stack(cls, streams: Sequence["ObservationStream"]) -> "ObservationStream":
        """R single-run streams of one (T, N) shape as one (R, T, N) stream.

        Streams are zeroed where unobserved already, so their stacked copies
        are taken as they are. The copies are stored step-major, as (R, T, N)
        views of (T, R, N) arrays: ``run_estimation`` reads one step of every
        run at a time, and contiguous (R, N) rows make its numpy calls cheaper.

        The stack is the one stream built without the constructor. What the
        constructor checks holds here by construction (one 2-D shape,
        copies already zeroed), and going through it would zero the copies
        a second time and copy the mask back into run-major order: 165 us
        against 60 us per call at 8 runs of 120 steps x 26 nodes (timeit,
        2-core VM, numpy 2.4).
        """
        shapes = sorted({s.observations.shape for s in streams})
        if len(shapes) != 1 or len(shapes[0]) != 2:
            raise ValueError(f"need one or more 2-D streams of one shape, got shapes {shapes}")
        stream = object.__new__(cls)
        stream._own(
            np.stack([s.observations for s in streams], axis=1).swapaxes(0, 1),
            np.stack([s.mask for s in streams], axis=1).swapaxes(0, 1),
        )
        return stream

    @property
    def steps(self) -> int:
        return self.observations.shape[-2]

    @property
    def node_count(self) -> int:
        return self.observations.shape[-1]


@dataclass(frozen=True)
class EstimatorConfig:
    """Full description of one estimation algorithm run.

    ``refresh_weights`` is read only by dynamic-multihop: False pins it to
    the static graph's weights, so its topology is built once per call
    (useful as a reduction check: hops=1 with static weights must reproduce
    glms exactly). The sgm orderings always refresh. A surviving latent edge
    of dynamic-multihop is weighted by its ``prune`` score: its power
    magnitude, or with the "correlation" metric its endpoints' windowed
    |correlation|. ``weights_source`` selects whether windowed correlations
    are computed on the running estimates (deployment setting) or on a
    supplied ground-truth history. ``label`` (default: the algorithm name)
    names the report files, so it must match ``LABEL``.
    """

    algorithm: str
    filter: FilterSpec = FilterSpec()
    step: StepSizeRule = StepSizeRule.fixed(0.9)
    hops: int = 6
    prune: PruneSpec = PruneSpec(0.2)
    window: WindowSpec = WindowSpec(10, 1)
    p_exponent: float = 1.5
    diffusion_eps: float | None = None
    refresh_weights: bool = True
    weights_source: str = "estimates"
    label: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {tuple(ALGORITHMS)}"
            )
        p = self.p_exponent
        signed_power = ALGORITHMS[self.algorithm].shaping == "signed-power"
        if signed_power and (p is None or not 1.0 < p <= 2.0):
            raise ValueError(f"glmp exponent must lie in (1, 2], got {p}")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.diffusion_eps is not None and not math.isfinite(self.diffusion_eps):
            raise ValueError(f"diffusion_eps must be finite, got {self.diffusion_eps}")
        if self.weights_source not in ("estimates", "ground-truth"):
            raise ValueError(f"unknown weights_source {self.weights_source!r}")
        if self.label is not None and not LABEL.fullmatch(self.label):
            raise ValueError(
                f"label {self.label!r} must match {LABEL.pattern} (it names the report files)"
            )

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.algorithm


@dataclass(frozen=True)
class EstimationTrace:
    """Per-step outputs of one estimation run, or of a stack of R runs: the
    estimates, the topology's edge counts and the latent counts.

    ``latent_candidates`` / ``latent_survivors`` count the latent pairs
    before and after pruning at each step of dynamic-multihop; they are 0
    for every other algorithm. The trace of a stacked (R, T, N) stream puts
    the run axis first on every array, and ``diverged`` / ``diverged_at``
    become tuples with one entry per run.
    """

    estimates: np.ndarray  # (T, N), estimate aligned with each observation
    edge_counts: np.ndarray  # edges of the topology used at each step
    latent_candidates: np.ndarray
    latent_survivors: np.ndarray
    diverged: bool | tuple[bool, ...] = False
    diverged_at: int | None | tuple[int | None, ...] = None

    @property
    def steps(self) -> int:
        return self.estimates.shape[-2]


def _shaping(cfg: EstimatorConfig) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
    """The algorithm's element-wise residual shaping ``(e, out) -> out``,
    or None for the identity of the least-squares members. "sign" keeps
    only the sign (sign(0) = 0); "signed-power" takes sign(e)|e|^(p-1) with
    the config's checked exponent p. ``out`` must not overlap ``e``."""
    shaping = ALGORITHMS[cfg.algorithm].shaping
    if shaping == "sign":
        return lambda e, out: np.sign(e, out=out)
    if shaping == "signed-power":
        power = float(cfg.p_exponent) - 1.0

        def signed_power(e: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.abs(e, out=out)
            out **= power  # the scalar-power fast path of ``np.abs(e) ** power``
            return np.multiply(np.sign(e), out, out=out)

        return signed_power
    return None


def stability_bound(
    subject: StaticGraph | np.ndarray,
    filter_spec: FilterSpec,
    mask_policy: str | float | np.ndarray = "full",
) -> float:
    """Largest step size with a convergent mean update: 2 / lambda_max of
    the filtered-and-masked quadratic form.

    mask_policy "full" evaluates at the identity mask (optimistic); a float
    in [0, 1] stands for a uniform per-node observation probability; an
    array gives per-node probabilities, each in [0, 1]. Any other
    probability, NaN included, raises ``ValueError``. An empty mask (or an
    all-zero response) has lambda_max = 0 and the bound is +inf.
    """
    lap = build_laplacian(subject) if isinstance(subject, StaticGraph) else np.asarray(subject, float)
    decomp = eigendecompose(lap)
    h = filter_response(decomp, filter_spec)
    n = lap.shape[0]
    if isinstance(mask_policy, str):
        if mask_policy != "full":
            raise ValueError(f"unknown mask policy {mask_policy!r}")
        m = np.ones(n)
    elif np.isscalar(mask_policy):
        m = np.full(n, float(mask_policy))
    else:
        m = np.asarray(mask_policy, dtype=float)
        if m.shape != (n,):
            raise ValueError(f"mask policy shape {m.shape} does not match {n} nodes")
    outside = ~((m >= 0.0) & (m <= 1.0))  # NaN fails too
    if outside.any():
        raise ValueError(f"mask policy probability {m[outside][0]} is outside [0, 1]")
    shaped = decomp.eigenvectors * h  # U Sigma
    quad = shaped.T @ (shaped * m[:, None])
    lam_max = float(np.linalg.eigvalsh(quad)[-1])
    if lam_max <= 1e-15:
        return math.inf
    return 2.0 / lam_max


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a (K, N) array.

    Each row's dot product is the one ``np.linalg.norm`` takes, so every
    norm has its bits whichever other rows share the call.
    """
    squares = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
    return np.sqrt(squares)


def _bind(cfg: EstimatorConfig, laplacian: np.ndarray) -> Callable[..., np.ndarray]:
    """The algorithm's operator bound to one Laplacian: diffusion or its
    filter. A diffusion step outside the stable range warns as ``<label>: ...``
    at the caller of ``run_estimation``, which calls this."""
    if ALGORITHMS[cfg.algorithm].operator == "filter":
        return bind_filter(laplacian, cfg.filter)
    if cfg.diffusion_eps is None:  # the default step 1 / lambda_max is stable
        return diffusion_operator(laplacian, cfg.diffusion_eps)
    # catching resets Python's once-per-location warning registry, so only an
    # explicit step, the one that can warn, is caught and re-issued
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        apply = diffusion_operator(laplacian, cfg.diffusion_eps)
    for w in caught:
        warnings.warn(f"{cfg.name}: {w.message}", w.category, stacklevel=3)
    return apply


# (Laplacian, edge count, latent candidates, latent survivors) of one step
Topology = tuple[np.ndarray, int, int, int]


def _topology_rule(
    g: StaticGraph, cfg: EstimatorConfig
) -> tuple[Topology, Callable[[np.ndarray], Topology] | None]:
    """``(fixed, rebuild)``: the topology of a step without usable history,
    and the map from a trailing history window to that step's topology.

    ``rebuild`` is None when history never changes the topology: for the
    static baselines, and for dynamic-multihop with ``refresh_weights=False``.
    One rule serves both sgm orderings (see ``ALGORITHMS``).

    Every rule scores its window once, through the one (N, N) window kernel
    of ``edge_dynamics``. sgm and dynamic-multihop with the "correlation"
    prune metric read every pair: they take the matrix from
    ``window_abs_correlation``, which gives dynamic-multihop both its
    base-edge weights and its latent scores. With "weight-magnitude",
    dynamic-multihop reads only its base-edge weights: it asks
    ``sliding_abs_correlation`` for the E base edges, which reads them from
    the same matrix, so the weights have the bits of the correlation rule's.
    """
    weights = g.adjacency()
    topology = ALGORITHMS[cfg.algorithm].topology
    if topology == "multihop":
        base = g.edge_mask()

        def multihop(adjacency: np.ndarray, scores: np.ndarray | None) -> Topology:
            topo = expand_prune_merge(base, adjacency, cfg.hops, cfg.prune, scores)
            return topo.laplacian, g.edge_count + topo.survivors, topo.candidates, topo.survivors

        # no usable history: static weights, candidates scored as unsupported
        fixed = multihop(weights, np.zeros_like(weights))
        if not cfg.refresh_weights:
            return fixed, None

        if cfg.prune.metric != "correlation":
            # the rule reads only the base-edge weights
            edges = np.array(g.edges, dtype=int).reshape(-1, 2)
            ei, ej = edges[:, 0], edges[:, 1]

            def reweighted(rows: np.ndarray) -> Topology:
                scores = sliding_abs_correlation(NodeSignalSeries(rows), cfg.window, edges)[-1]
                adjacency = np.zeros((g.node_count, g.node_count))
                adjacency[ei, ej] = adjacency[ej, ei] = scores
                return multihop(adjacency, None)

            return fixed, reweighted

        # the latent scores read any pair: score them all at once
        def refreshed(rows: np.ndarray) -> Topology:
            corr = window_abs_correlation(rows)
            adjacency = np.where(base, corr, 0.0)
            return multihop(adjacency, corr)

        return fixed, refreshed
    static = (adjacency_laplacian(weights), g.edge_count, 0, 0)
    if topology == "static":
        return static, None

    def correlation_thresholded(rows: np.ndarray) -> Topology:
        corr = window_abs_correlation(rows)
        keep = cfg.prune.survives(corr)
        # keep is symmetric with a false diagonal: two entries per edge
        laplacian = adjacency_laplacian(np.where(keep, corr, 0.0))
        return laplacian, int(np.count_nonzero(keep)) // 2, 0, 0

    return static, correlation_thresholded


def _no_survivor_message(cfg: EstimatorConfig) -> str:
    """Why a dynamic-multihop run kept no latent edge at any step."""
    if cfg.refresh_weights:
        return (
            f"{cfg.name}: prune threshold {cfg.prune.threshold} ({cfg.prune.metric}) kept none "
            "of the latent candidates at any step; the run reduces to re-weighted glms"
        )
    if cfg.prune.metric == "correlation":
        # without refreshed weights no window is scored: every latent score is
        # 0, which no threshold (all are >= 0) lets through
        return (
            f"{cfg.name}: refresh_weights=False scores every latent candidate 0 under the "
            "correlation metric, so none survives whatever the prune threshold; the run "
            "reduces to glms on the static graph"
        )
    return (
        f"{cfg.name}: prune threshold {cfg.prune.threshold} (weight-magnitude) kept none of "
        "the latent candidates of the static graph; with refresh_weights=False the run "
        "reduces to glms on the static graph"
    )


def run_estimation(
    stream: ObservationStream,
    g: StaticGraph,
    cfg: EstimatorConfig,
    ground_truth: NodeSignalSeries | None = None,
) -> EstimationTrace:
    """Run the online estimation pass over a (T, N) or (R, T, N) stream.

    The R runs of a stacked stream advance together: each step is one
    masked update of the (R, N) state, and run r's outputs are bit-identical
    to a separate call on run r's (T, N) stream. The topology of a step
    without usable history (before the window fills, or after the run's
    history has diverged) is built and bound once per call and shared by
    every run: the static graph, or for dynamic-multihop its multi-hop
    expansion with every latent candidate scored 0. At each step with usable
    history the dynamic family rebuilds that run's topology from its
    strictly causal history and re-binds the filter; the no-history
    operator is applied only to the runs without usable history.
    ``refresh_weights`` is read only by dynamic-multihop, whose topology
    never changes when it is False; the sgm orderings always refresh.
    ``ground_truth`` is only consulted when
    ``cfg.weights_source == "ground-truth"``.

    A step computes only what it reads. What no step changes is resolved
    once per call: the residual shaping (none for the least-squares
    members), and a fixed rule's step size, one float for every run. Only
    the residual-adaptive rule takes each step's residual norms, each with
    the bits of ``np.linalg.norm``, and sizes each run's step from them.

    The loop owns its buffers: each call allocates one (R, N) residual, one
    shaped residual (none for the least-squares members, which shape
    nothing), one filtered residual and the running estimate, and every
    step overwrites them in place. The bound operator writes into the
    filtered buffer through its ``out=`` argument; a dynamic algorithm
    makes one operator call per run, re-bound or no-history, into the
    run's own row. The scaled step is added to the running estimate,
    which is then copied into the step's row of the trace. So a static step
    allocates no array but glmp's ``np.sign`` of the residual. The
    unobserved mask is built once per call, step-major like the stream
    of :meth:`ObservationStream.stack`, so each step reads contiguous rows.
    """
    n = g.node_count
    t_total = stream.steps
    if stream.node_count != n:
        raise ValueError(f"stream has {stream.node_count} nodes, graph has {n}")
    if t_total < 1:
        raise ValueError("stream must contain at least one step")
    if cfg.weights_source == "ground-truth":
        if ground_truth is None:
            raise ValueError("weights_source='ground-truth' requires a ground_truth series")
        if ground_truth.values.shape != (t_total, n):
            raise ValueError("ground_truth shape must match the stream")

    stacked = stream.observations.ndim == 3
    observations = stream.observations if stacked else stream.observations[None]
    mask = stream.mask if stacked else stream.mask[None]
    runs = observations.shape[0]
    window = cfg.window.window

    fixed, rebuild = _topology_rule(g, cfg)
    # one binding serves every step without usable history, in every run
    fixed_apply = _bind(cfg, fixed[0])

    shape = _shaping(cfg)
    adaptive = cfg.step.kind == "residual-adaptive"
    # every step writes its row, so the trace starts uninitialised
    estimates = np.empty((runs, t_total, n))
    if not adaptive:
        mu = float(cfg.step.mu)
    edge_counts = np.full((runs, t_total), fixed[1], dtype=int)
    latent_candidates = np.full((runs, t_total), fixed[2], dtype=int)
    latent_survivors = np.full((runs, t_total), fixed[3], dtype=int)

    def history_rows(r: int, t: int) -> np.ndarray | None:
        """Trailing window of run r's strictly causal signal history, or None."""
        if t < window:
            return None
        if cfg.weights_source == "ground-truth":
            return ground_truth.values[t - window : t]
        rows = estimates[r, t - window : t]
        if not np.isfinite(rows).all():
            return None  # diverged history carries no usable statistics
        return rows

    # contiguous (R, N) buffers that every step overwrites: numpy calls cost
    # less on them than on a step's strided rows of the run-major trace
    residual = np.empty((runs, n))
    shaped = residual if shape is None else np.empty((runs, n))
    filtered = np.empty((runs, n))
    x_hat = np.zeros((runs, n))
    unseen = np.logical_not(mask.swapaxes(0, 1), order="C")  # step-major
    # step t's (R, N) observations, unobserved mask and trace rows, as views
    steps = zip(observations.swapaxes(0, 1), unseen, estimates.swapaxes(0, 1))
    for t, (observed, unobserved, estimate) in enumerate(steps):
        np.subtract(observed, x_hat, out=residual)
        np.copyto(residual, 0.0, where=unobserved)
        if adaptive:
            norms = _row_norms(residual).tolist()
            # math.exp per run: np.exp is not guaranteed to round the same way
            mu = np.array([adaptive_mu(v, cfg.step) for v in norms])[:, None]
        if shape is not None:
            shape(residual, shaped)
        if rebuild is None:
            fixed_apply(shaped, out=filtered)
        else:
            for r in range(runs):
                rows = history_rows(r, t)
                if rows is None:
                    apply = fixed_apply
                else:
                    (laplacian, edge_counts[r, t], latent_candidates[r, t],
                     latent_survivors[r, t]) = rebuild(rows)
                    apply = _bind(cfg, laplacian)
                apply(shaped[r], out=filtered[r])
        np.multiply(filtered, mu, out=filtered)
        x_hat += filtered
        estimate[...] = x_hat

    if ALGORITHMS[cfg.algorithm].topology == "multihop" and np.any(
        latent_candidates.any(axis=1) & ~latent_survivors.any(axis=1)
    ):
        warnings.warn(_no_survivor_message(cfg), stacklevel=2)

    # a run diverges at its first non-finite estimate or one beyond the
    # guard (NaN fails both comparisons, and each infinity one of them)
    inside = np.less_equal(estimates, DIVERGENCE_GUARD)
    np.greater_equal(estimates, -DIVERGENCE_GUARD, out=inside, where=inside)
    blown = ~inside.all(axis=2)
    diverged = tuple(bool(b) for b in blown.any(axis=1))
    first = tuple(int(np.argmax(b)) if d else None for b, d in zip(blown, diverged))
    estimates.setflags(write=False)
    arrays = (estimates, edge_counts, latent_candidates, latent_survivors)
    if not stacked:
        arrays = tuple(a[0] for a in arrays)
        diverged, first = diverged[0], first[0]
    return EstimationTrace(*arrays, diverged=diverged, diverged_at=first)

