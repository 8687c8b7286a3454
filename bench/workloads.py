"""Benchmark workloads: seeded synthetic inputs and the configs a user would write.

Every workload is generated by ``make_synthetic_dataset`` from the
benchmark's ``--seed`` and handed to the program only as CSV files plus a
preset-based config, exactly as ``dynhop synth`` + ``dynhop run`` would.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from pathlib import Path

from dynhop.graphs import graph_to_csv
from dynhop.harness import SyntheticSpec, make_synthetic_dataset, series_to_csv
from dynhop.harness.experiment import brain_preset, stock_preset

PRESETS = {"brain": brain_preset, "stock": stock_preset}

STATIC = ("glms", "gdlms", "glmp", "gsign", "gsd")
SGM = ("sgm-then-glms", "glms-then-sgm")
ALL = ("dynamic-multihop",) + STATIC + SGM + ("dmh-latent",)

# dynamic-multihop with a prune threshold low enough that latent candidates
# survive: the preset's 0.2 keeps none on stock-sized data, so merge and
# candidate scoring would otherwise never do real work
DMH_LATENT_PRUNE = {"threshold": 0.015, "metric": "correlation"}


def family(label: str) -> str:
    """Algorithm family a label is timed under (``algo_s.<family>``)."""
    if label in SGM:
        return "sgm"
    if label in STATIC:
        return "static"
    return label


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    ``runs`` Monte-Carlo runs make one repetition; the benchmark repeats
    until its time budget is spent. The generator's graph is passed as
    ``graph.csv``: it is connected by construction, so the latent-candidate
    work per step barely depends on the seed. (The presets' top-k rule
    builds one component per signal cluster instead, and the candidate
    count then swings tenfold from seed to seed.)
    """

    name: str
    why: str
    preset: str
    nodes: int
    edges: int
    steps: int
    switch_times: tuple[int, ...]
    algorithms: tuple[str, ...]
    runs: int

    def tiny(self) -> "Workload":
        """Same protocol at toy size, for smoke tests."""
        first_test = 61 if self.preset == "brain" else 401
        steps = first_test + 15
        return replace(
            self, nodes=10, edges=14, steps=steps,
            switch_times=(first_test - 20, first_test + 8), runs=min(self.runs, 2),
        )


# Sizes keep one repetition to a few seconds on 2 cores, so one run holds
# about ten repetitions or more. Each test split spans a regime
# switch, so the dynamic topologies really change inside the timed window.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="topo-111",
            why="brain-sized N=111: dense per-step operators (all-pairs window "
            "correlation, hop powers, 111x111 eigh) dominate",
            preset="brain", nodes=111, edges=300, steps=76, switch_times=(35, 68),
            algorithms=ALL, runs=1,
        ),
        Workload(
            name="stock-26",
            why="stock-sized N=26 over a long horizon: per-step Python overhead "
            "(graph re-validation, pair tuples, small binds) dominates",
            preset="stock", nodes=26, edges=40, steps=520, switch_times=(300, 460),
            algorithms=ALL, runs=1,
        ),
        Workload(
            name="static-mc",
            why="stock-26 data, static baselines only, many MC runs: estimator "
            "update and per-run harness work; never touches topology layers",
            preset="stock", nodes=26, edges=40, steps=520, switch_times=(300, 460),
            algorithms=STATIC, runs=8,
        ),
    )
}


def write_inputs(w: Workload, seed: int, work: Path) -> dict:
    """Write series.csv and graph.csv under ``work``; return the raw config."""
    spec = SyntheticSpec(
        nodes=w.nodes, edges=w.edges, steps=w.steps, regimes=len(w.switch_times) + 1,
        switch_times=w.switch_times, seed=seed,
    )
    graph, series = make_synthetic_dataset(spec)
    series_to_csv(series, work / "series.csv")
    graph_to_csv(graph, work / "graph.csv")
    raw = PRESETS[w.preset]()
    raw["dataset"]["series_csv"] = str(work / "series.csv")
    raw["dataset"]["graph"] = str(work / "graph.csv")
    raw["noise"]["seed"] = seed
    raw["noise"]["runs"] = w.runs
    latent = copy.deepcopy(raw["algorithms"][0])
    latent.update(label="dmh-latent", prune=dict(DMH_LATENT_PRUNE))
    entries = raw["algorithms"] + [latent]
    raw["algorithms"] = [a for a in entries if a.get("label", a["algorithm"]) in w.algorithms]
    return raw
