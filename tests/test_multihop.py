import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynhop import (
    HopCandidateSet,
    PruneSpec,
    StaticGraph,
    build_laplacian,
    build_topology_slice,
    hop_expand,
    merge,
    prune,
    spectral_normalize,
)
from dynhop.edge_dynamics import NodeSignalSeries, WindowSpec, sliding_abs_correlation
from dynhop.graphs import adjacency_laplacian
from dynhop.multihop import EPS_ZERO, _expand, expand_prune_merge
from conftest import random_graph


def walk_candidate_oracle(g: StaticGraph, hops: int):
    """Brute-force walk enumeration via integer adjacency powers.

    Hop-p candidates are pairs with a length-p walk (A^p > 0) that are not
    edges and did not qualify at a lower hop.
    """
    n = g.node_count
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1
    existing = set(g.edges)
    emitted: set[tuple[int, int]] = set()
    power = a.copy()
    out = []
    for _ in range(2, hops + 1):
        power = power @ a
        found = []
        for i in range(n):
            for j in range(i + 1, n):
                pair = (i, j)
                if power[i, j] > 0 and pair not in existing and pair not in emitted:
                    found.append(pair)
        emitted.update(found)
        out.append(found)
    return out


def normalized(g: StaticGraph) -> np.ndarray:
    return spectral_normalize(build_laplacian(g))


# -- hop expansion -------------------------------------------------------------

def test_path_two_hop_candidate():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    sets = hop_expand(normalized(g), g, 2)
    assert len(sets) == 1
    assert sets[0].pairs == ((0, 2),)
    assert sets[0].hop == 2


def test_complete_graph_has_no_candidates():
    pairs = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
    g = StaticGraph(5, pairs)
    for cand in hop_expand(normalized(g), g, 4):
        assert cand.pairs == ()


def test_candidates_match_walk_oracle_unweighted(rng):
    for _ in range(25):
        n = int(rng.integers(4, 11))
        g = random_graph(rng, n, unit_weights=True)
        got = hop_expand(normalized(g), g, 6)
        expected = walk_candidate_oracle(g, 6)
        assert [list(c.pairs) for c in got] == expected


def expand_loop_reference(normalized_laplacian, base, hops):
    """Hop order and power magnitude of every candidate, with fresh boolean
    masks and boolean-index writes at every hop order."""
    n = normalized_laplacian.shape[0]
    free = ~(base | np.tri(n, dtype=bool))
    order = np.zeros((n, n), dtype=int)
    magnitude = np.zeros((n, n))
    power = normalized_laplacian
    for p in range(2, hops + 1):
        power = power @ normalized_laplacian
        entry = np.abs(power)
        fresh = (entry > EPS_ZERO) & free
        order[fresh] = p
        magnitude[fresh] = entry[fresh]
        free &= ~fresh
    return order, magnitude


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), hops=st.integers(1, 7),
       connected=st.booleans(), zero_weights=st.booleans())
def test_hop_expand_matches_the_boolean_index_loop(seed, n, hops, connected, zero_weights):
    # N=1 and N=2 graphs, disconnected ones (connected=False draws few
    # edges) and zero-weight edges, which stay in the base edge set
    r = np.random.default_rng(seed)
    g = random_graph(r, n, connected=connected)
    if zero_weights:
        g = StaticGraph(n, g.edges, np.where(r.random(g.edge_count) < 0.3, 0.0, g.weights))
    lap = build_laplacian(g)
    operator = spectral_normalize(lap)
    if operator is None:  # no weighted edge: the zero operator
        operator = lap
    order, magnitude = expand_loop_reference(operator, g.edge_mask(), hops)
    sets = hop_expand(operator, g, hops)
    assert [c.hop for c in sets] == list(range(2, hops + 1))
    for cand in sets:
        rows, cols = np.nonzero(order == cand.hop)
        assert cand.pairs == tuple(zip(rows.tolist(), cols.tolist()))
        assert cand.scores == tuple(magnitude[rows, cols].tolist())


def weighted_diameter(g: StaticGraph) -> int:
    """Longest shortest path (in edges) over the edges of positive weight,
    taken within each connected component; 0 without such an edge."""
    n = g.node_count
    near = [set() for _ in range(n)]
    for (i, j), w in zip(g.edges, g.weights):
        if w > 0:
            near[i].add(j)
            near[j].add(i)
    longest = 0
    for source in range(n):
        seen, frontier, depth = {source}, {source}, 0
        while frontier:
            frontier = {k for v in frontier for k in near[v]} - seen
            seen |= frontier
            depth += bool(frontier)
        longest = max(longest, depth)
    return longest


def small_diameter_graphs():
    """(graph, whether its positive-weight edges connect every node)."""
    star = StaticGraph(7, tuple((0, k) for k in range(1, 7)), (0.3, 0.9, 1.0, 0.2, 0.6, 0.5))
    complete = StaticGraph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    dense = random_graph(np.random.default_rng(4), 12, 40)
    # a zero-weight edge splits the weighted graph in two: cross pairs
    # never qualify, so the hops never stop early
    split = StaticGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)), (0.5, 0.8, 0.0, 0.4, 0.7))
    every_zero = StaticGraph(4, ((0, 1), (1, 2), (2, 3)), (0.0, 0.0, 0.0))
    no_edges = StaticGraph(5, ())
    return [(star, True), (complete, True), (dense, True), (split, False),
            (every_zero, False), (no_edges, False)]


@pytest.mark.parametrize("g, connected", small_diameter_graphs(),
                         ids=["star", "complete", "dense", "split", "zero-weights", "no-edges"])
@pytest.mark.parametrize("spec", [PruneSpec(0.01), PruneSpec(0.3, "correlation")],
                         ids=["weight-magnitude", "correlation"])
def test_hops_beyond_the_diameter_change_nothing(g, connected, spec):
    # the hop loop stops once no free pair is left; a higher hop count can
    # then place no further candidate, so every count from the diameter up
    # gives the result of the full loop
    n = g.node_count
    scores = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
    diameter = weighted_diameter(g)
    base, adjacency = g.edge_mask(), g.adjacency()
    first = expand_prune_merge(base, adjacency, max(diameter, 1), spec, scores)
    operator = spectral_normalize(build_laplacian(g))
    for hops in range(max(diameter, 1), diameter + 4):
        topo = expand_prune_merge(base, adjacency, hops, spec, scores)
        assert (topo.candidates, topo.survivors) == (first.candidates, first.survivors)
        for field in ("adjacency", "hop", "laplacian"):
            assert np.array_equal(getattr(topo, field), getattr(first, field)), (hops, field)
        if operator is not None:
            got, want = _expand(operator, base, hops), expand_loop_reference(operator, base, hops)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), hops
    # connected, every free pair is placed by the diameter, and the hops stop
    # there; otherwise some pair stays free and every hop runs
    free_pairs = n * (n - 1) // 2 - g.edge_count
    if connected:
        assert first.candidates == free_pairs
    else:
        assert first.candidates < free_pairs


def test_hop_expand_requires_positive_hops():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        hop_expand(normalized(g), g, 0)


def test_candidate_scores_are_power_magnitudes():
    g = StaticGraph(3, ((0, 1), (1, 2)), (0.5, 2.0))
    norm = normalized(g)
    sets = hop_expand(norm, g, 2)
    expected = abs((norm @ norm)[0, 2])
    assert sets[0].scores[0] == pytest.approx(expected, rel=1e-12)


def test_spectral_normalize_zero_matrix_is_none():
    assert spectral_normalize(np.zeros((4, 4))) is None


def test_spectral_normalize_unit_top_eigenvalue(rng):
    g = random_graph(rng, 9)
    norm = normalized(g)
    assert np.linalg.eigvalsh(norm)[-1] == pytest.approx(1.0, abs=1e-12)


# -- pruning ---------------------------------------------------------------------

def _cands(scores, hop=2):
    pairs = tuple((0, k + 1) for k in range(len(scores)))
    return HopCandidateSet(hop=hop, pairs=pairs, scores=tuple(scores))


def test_prune_large_threshold_empties():
    out = prune(_cands([0.2, 0.5, 0.9]), PruneSpec(1e9))
    assert out.pairs == ()


def test_prune_zero_threshold_keeps_positive_scores():
    cand = _cands([0.2, 0.5, 0.9])
    out = prune(cand, PruneSpec(0.0))
    assert out.pairs == cand.pairs


def test_prune_boundary_is_strict():
    out = prune(_cands([0.2, 0.5, 0.9]), PruneSpec(0.5))
    assert out.scores == (0.9,)


def test_prune_preserves_order():
    out = prune(_cands([0.9, 0.1, 0.8, 0.7]), PruneSpec(0.5))
    assert out.scores == (0.9, 0.8, 0.7)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000),
       tau1=st.floats(0, 1, allow_nan=False), tau2=st.floats(0, 1, allow_nan=False))
def test_prune_monotone_in_threshold(seed, tau1, tau2):
    lo, hi = sorted((tau1, tau2))
    r = np.random.default_rng(seed)
    cand = _cands(r.uniform(0, 1, size=8).tolist())
    kept_hi = set(prune(cand, PruneSpec(hi)).pairs)
    kept_lo = set(prune(cand, PruneSpec(lo)).pairs)
    assert kept_hi <= kept_lo


# -- merging ---------------------------------------------------------------------

def test_merge_empty_candidates_returns_same_graph(rng):
    g = random_graph(rng, 6)
    out = merge(g, [])
    assert out.graph == g
    assert all(p == "original" for p in out.provenance)


def test_merge_path_plus_candidate_gives_triangle():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    cand = HopCandidateSet(2, ((0, 2),), (0.7,))
    out = merge(g, [cand])
    assert out.graph.edges == ((0, 1), (1, 2), (0, 2))
    assert out.provenance == ("original", "original", "hop2")
    assert out.graph.weights[2] == 0.7


def test_merge_rejects_duplicates():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    cand = HopCandidateSet(2, ((0, 1),), (0.7,))
    with pytest.raises(ValueError, match="duplicate"):
        merge(g, [cand])


@pytest.mark.parametrize("candidates, message", [
    ([HopCandidateSet(2, ((0, 2.7),), (0.5,))], "edge (0, 2.7) has a non-integer node index"),
    ([HopCandidateSet(2, ((0, "a"),), (0.5,))], "edge (0, 'a') has a non-integer node index"),
    ([HopCandidateSet(2, ((2, 2),), (0.5,))], "self-loop at node 2"),
    ([HopCandidateSet(2, ((0, 3),), (0.5,))], "edge (0, 3) references a node outside 0..2"),
    ([HopCandidateSet(2, ((0, 2),), (0.5,)), HopCandidateSet(3, ((2, 0),), (0.4,))],
     "duplicate edge (0, 2)"),
], ids=["non-integer", "string", "self-loop", "outside", "repeated"])
def test_merge_raises_the_static_graph_message(candidates, message):
    g = StaticGraph(3, ((0, 1), (1, 2)))
    pairs, scores = zip(*[(p, s) for c in candidates for p, s in zip(c.pairs, c.scores)])
    with pytest.raises(ValueError) as direct:
        StaticGraph(3, g.edges + pairs, g.weights + scores)
    with pytest.raises(ValueError) as merged:
        merge(g, candidates)
    assert str(merged.value) == str(direct.value) == message


def test_merge_orders_reversed_pairs_by_hop_then_pair():
    # as given, (1, 2) would sort before (3, 0) and (1, 3) before (4, 0)
    g = StaticGraph(5, ((1, 0),))
    out = merge(g, [
        HopCandidateSet(3, ((1, 3), (4, 0)), (0.1, 0.2)),
        HopCandidateSet(2, ((3, 0), (1, 2)), (0.3, 0.4)),
    ])
    assert out.graph.edges == ((0, 1), (0, 3), (1, 2), (0, 4), (1, 3))
    assert out.graph.weights == (1.0, 0.3, 0.4, 0.2, 0.1)
    assert out.provenance == ("original", "hop2", "hop2", "hop3", "hop3")


def test_merge_two_steps_recomputation_oracle(rng):
    # recompute expand+prune independently for two weight rows and check
    # the merged edge sets differ exactly as the recomputation says
    g = random_graph(rng, 24, 38)
    spec = PruneSpec(0.02)
    rows = rng.uniform(0.0, 1.0, size=(2, 38))
    merged_sets = []
    for t in range(2):
        g_t = StaticGraph(g.node_count, g.edges, rows[t])
        norm = spectral_normalize(build_laplacian(g_t))
        pruned = [prune(c, spec) for c in hop_expand(norm, g, 3)]
        direct = merge(g_t, pruned)
        via_slice = build_topology_slice(g, rows[t], 3, spec)
        assert via_slice.graph == direct.graph
        assert via_slice.provenance == direct.provenance
        merged_sets.append(set(direct.graph.edges))
    assert merged_sets[0] != merged_sets[1]


# -- the array core ----------------------------------------------------------------

def tuple_chain_reference(g, weights, hops, spec, score_matrix):
    """Expand, prune and merge with per-pair Python loops over a set of taken pairs."""
    n = g.node_count
    merged = StaticGraph(n, g.edges, weights).adjacency()
    lap = np.diag(merged.sum(axis=1)) - merged
    lam_max = float(np.linalg.eigvalsh(lap)[-1])
    edge_count = g.edge_count
    if hops < 2 or lam_max <= 0.0:
        return merged, edge_count
    norm = lap / lam_max
    taken = set(g.edges)
    power = norm
    for _ in range(2, hops + 1):
        power = power @ norm
        cands = [((i, j), abs(power[i, j])) for i in range(n) for j in range(i + 1, n)
                 if abs(power[i, j]) > EPS_ZERO and (i, j) not in taken]
        taken.update(pair for pair, _ in cands)
        if spec.metric == "correlation":
            cands = [(pair, score_matrix[pair]) for pair, _ in cands]
        kept = [(pair, score) for pair, score in cands if score > spec.threshold]
        for (i, j), score in kept:
            merged[i, j] = merged[j, i] = score
            edge_count += 1
    return merged, edge_count


@pytest.mark.parametrize("metric, threshold", [("weight-magnitude", 0.01), ("correlation", 0.5)])
@pytest.mark.parametrize("hops, zero_weights", [(1, False), (3, False), (6, False), (4, True)])
def test_array_core_matches_slice_view_and_loop_reference(
    rng, metric, threshold, hops, zero_weights
):
    spec = PruneSpec(threshold, metric)
    for _ in range(4):
        n = int(rng.integers(6, 15))
        g = random_graph(rng, n)
        weights = np.zeros(g.edge_count) if zero_weights else rng.uniform(0.0, 1.0, g.edge_count)
        score_matrix = rng.uniform(0.0, 1.0, (n, n))
        score_matrix = np.maximum(score_matrix, score_matrix.T)

        topo = expand_prune_merge(
            g.edge_mask(), StaticGraph(n, g.edges, weights).adjacency(), hops, spec, score_matrix
        )
        view = build_topology_slice(g, weights, hops, spec, scores=score_matrix)
        assert np.array_equal(topo.adjacency, view.graph.adjacency())
        assert g.edge_count + topo.survivors == view.graph.edge_count
        assert np.count_nonzero(np.triu(topo.hop)) == view.graph.edge_count
        tags = {pair: tag for pair, tag in zip(view.graph.edges, view.provenance)}
        for (i, j), tag in tags.items():
            assert topo.hop[i, j] == topo.hop[j, i] == (1 if tag == "original" else int(tag[3:]))

        merged, edge_count = tuple_chain_reference(g, weights, hops, spec, score_matrix)
        assert np.array_equal(topo.adjacency, merged)
        # the Laplacian of the merged step, with or without survivors
        assert np.array_equal(topo.laplacian, adjacency_laplacian(topo.adjacency))
        assert view.graph.edge_count == edge_count
        if hops == 1 or zero_weights:
            assert topo.candidates == topo.survivors == 0
            assert np.array_equal(topo.adjacency, StaticGraph(n, g.edges, weights).adjacency())
        else:
            assert topo.survivors > 0


def test_array_core_reads_only_the_candidates_scores(rng):
    # NaN and negative entries off the candidate set (base edges, the
    # diagonal, the lower triangle, pairs out of reach) are never read
    g = random_graph(rng, 10, 12)
    spec = PruneSpec(0.1, "correlation")
    reach = expand_prune_merge(g.edge_mask(), g.adjacency(), 3, PruneSpec(0.0)).hop > 1
    candidates = np.triu(reach)
    assert candidates.any() and not reach.all()
    scores = np.where(rng.random((10, 10)) < 0.5, np.nan, -1.0)
    scores[candidates] = 0.5
    topo = expand_prune_merge(g.edge_mask(), g.adjacency(), 3, spec, scores)
    assert topo.survivors == topo.candidates == np.count_nonzero(candidates)
    assert np.array_equal(topo.adjacency, np.where(reach, 0.5, g.adjacency()))


@pytest.mark.parametrize("scores, message", [
    (np.full((3, 4), 0.5), r"scores shape \(3, 4\) does not match \(3, 3\)"),
    (np.array([[0, 1, -0.5], [1, 0, 1], [-0.5, 1, 0]]), "scores must be >= 0"),
    (np.array([[0, 1, np.nan], [1, 0, 1], [np.nan, 1, 0]]), "scores must be >= 0"),
], ids=["mis-shaped", "negative-candidate", "nan-candidate"])
def test_correlation_metric_checks_the_score_matrix(scores, message):
    g = StaticGraph(3, ((0, 1), (1, 2)))  # one candidate: (0, 2) at hop 2
    with pytest.raises(ValueError, match=message):
        expand_prune_merge(g.edge_mask(), g.adjacency(), 2, PruneSpec(0.5, "correlation"), scores)
    # weight-magnitude reads no scores, so none of them is checked
    topo = expand_prune_merge(g.edge_mask(), g.adjacency(), 2, PruneSpec(0.0), scores)
    assert topo.survivors == 1


def test_array_core_counts_candidates_before_pruning(rng):
    g = random_graph(rng, 12, 14)
    adjacency = g.adjacency()
    everything = expand_prune_merge(g.edge_mask(), adjacency, 4, PruneSpec(0.0))
    nothing = expand_prune_merge(g.edge_mask(), adjacency, 4, PruneSpec(1e9))
    assert everything.candidates == nothing.candidates == everything.survivors > 0
    assert nothing.survivors == 0
    expected = sum(len(c.pairs) for c in hop_expand(normalized(g), g, 4))
    assert everything.candidates == expected


# -- per-step construction ---------------------------------------------------------

def test_static_weights_give_identical_slices(rng):
    g = random_graph(rng, 10)
    row = rng.uniform(0.1, 1.0, size=g.edge_count)
    slices = [build_topology_slice(g, row, 4, PruneSpec(0.01)) for t in range(6)]
    first = slices[0]
    for s in slices[1:]:
        assert s.graph.edges == first.graph.edges
        assert s.graph.weights == first.graph.weights
        assert s.provenance == first.provenance


def test_switching_weights_give_distinct_edge_sets(rng):
    g = random_graph(rng, 12, 18)
    strong_half = np.ones(18)
    strong_half[9:] = 0.05
    other_half = np.ones(18)
    other_half[:9] = 0.05
    first = build_topology_slice(g, strong_half, 3, PruneSpec(0.02))
    second = build_topology_slice(g, other_half, 3, PruneSpec(0.02))
    assert first.graph.edges != second.graph.edges


def test_single_hop_returns_base_topology(rng):
    g = random_graph(rng, 8)
    for weights in rng.uniform(0.0, 1.0, size=(3, g.edge_count)):
        s = build_topology_slice(g, weights, 1, PruneSpec(0.0))
        assert s.graph.edges == g.edges
        assert s.graph.weights == tuple(weights.tolist())


def test_zero_weight_step_emits_no_candidates():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    out = build_topology_slice(g, (0.0, 0.0), 4, PruneSpec(0.0))
    assert out.graph.edges == g.edges


def test_correlation_metric_uses_scorer(rng):
    # the score matrix's entry of a candidate scores and weights it
    g = StaticGraph(3, ((0, 1), (1, 2)))
    scores = np.full((3, 3), 0.9)
    out = build_topology_slice(g, (1.0, 1.0), 2, PruneSpec(0.5, metric="correlation"), scores)
    assert out.graph.edges == ((0, 1), (1, 2), (0, 2))
    assert out.graph.weights[2] == 0.9
    scores[0, 2] = 0.5  # equality is pruned
    out = build_topology_slice(g, (1.0, 1.0), 2, PruneSpec(0.5, metric="correlation"), scores)
    assert out.graph.edges == g.edges


def test_correlation_metric_requires_scorer():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="requires a scores matrix"):
        build_topology_slice(g, (1.0, 1.0), 2, PruneSpec(0.5, metric="correlation"))


# -- invariants -------------------------------------------------------------------

def test_sparsity_bound(rng):
    g = random_graph(rng, 15)
    series = NodeSignalSeries(rng.standard_normal((25, 15)))
    weights = sliding_abs_correlation(series, WindowSpec(8), g.edges)
    cap = 15 * 14 // 2
    for t in range(weights.shape[0]):
        s = build_topology_slice(g, weights[t], 4, PruneSpec(0.01))
        assert g.edge_count <= s.graph.edge_count <= cap
        assert set(g.edges) <= set(s.graph.edges)


def test_original_edges_never_pruned(rng):
    g = random_graph(rng, 10)
    out = build_topology_slice(g, np.zeros(g.edge_count), 3, PruneSpec(100.0))
    assert out.graph.edges == g.edges  # zero-weight originals survive any threshold

