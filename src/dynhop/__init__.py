"""dynhop: dynamic multi-hop graph topologies and online signal estimation.

The library infers time-varying graph topologies from multivariate time
series (sliding-window edge weights, latent multi-hop edges, pruning and
merging) and runs online adaptive estimators of noisy, partially observed
node signals on top of them, alongside the usual static-topology baselines.
"""

__version__ = "0.1.0"

from .edge_dynamics import NodeSignalSeries, WindowSpec, sliding_abs_correlation
from .estimators import (
    ALGORITHMS,
    EstimationTrace,
    EstimatorConfig,
    ObservationStream,
    StepSizeRule,
    adaptive_mu,
    run_estimation,
    stability_bound,
)
from .filters import (
    FilterSpec,
    apply_filter,
    bind_filter,
    diffusion_operator,
    fit_lowpass_coefficients,
)
from .graphs import (
    SpectralDecomposition,
    StaticGraph,
    build_laplacian,
    eigendecompose,
    graph_from_csv,
    graph_to_csv,
    incidence,
)
from .multihop import (
    HopCandidateSet,
    PruneSpec,
    TopologySlice,
    build_topology_slice,
    hop_expand,
    merge,
    prune,
    spectral_normalize,
)

__all__ = [
    "ALGORITHMS",
    "EstimationTrace",
    "EstimatorConfig",
    "FilterSpec",
    "HopCandidateSet",
    "NodeSignalSeries",
    "ObservationStream",
    "PruneSpec",
    "SpectralDecomposition",
    "StaticGraph",
    "StepSizeRule",
    "TopologySlice",
    "WindowSpec",
    "__version__",
    "adaptive_mu",
    "apply_filter",
    "bind_filter",
    "build_laplacian",
    "build_topology_slice",
    "diffusion_operator",
    "eigendecompose",
    "fit_lowpass_coefficients",
    "graph_from_csv",
    "graph_to_csv",
    "hop_expand",
    "incidence",
    "merge",
    "prune",
    "run_estimation",
    "sliding_abs_correlation",
    "spectral_normalize",
    "stability_bound",
]
