"""Band edges: quantiles of a query-work measure over the program's own sampler.

    python3 perfbench/calibrate.py [--maps 40] [--pairs 10]

The workloads keep start-goal pairs one per band of a measure of their work,
so every seed gives the same mix of light and heavy queries. The bands are
equal-probability strata of the pairs `grid.sample_instance` draws, so the
mix is the sampler's own. For the search effort (checks.search_effort over
free cells) that distribution is measured here, on `maps` generated maps
with `pairs` pairs each, and printed as the inner band edges that
`workloads.EFFORT_EDGES` holds. The distance rank needs no table: the
sampler draws the goal uniformly from the start's component, so the rank is
uniform and its quantiles are k/n. Its quartiles are printed as a check.
Calibration seeds are apart from the benchmark's: `derive(CALIBRATION_SEED, ...)`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
from gridplan import grid  # noqa: E402

CALIBRATION_SEED = 7919
# (kind, size, bands): the effort strata the workloads use.
EFFORT_STRATA = (("maze", 64, 10), ("rooms", 64, 10), ("maze", 128, 10), ("rooms", 128, 10),
                 ("maze", 64, 6))
RANK_CHECKS = (("random-blocks", 128), ("maze", 128), ("rooms", 128))


def derive(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence((seed,) + keys).generate_state(1)[0])


def sample(kind: str, size: int, maps: int, pairs: int, measure) -> np.ndarray:
    kind_key = grid.GENERATOR_KINDS.index(kind)
    values = []
    for m in range(maps):
        gmap = grid.generate_map(kind, size, size, seed=derive(CALIBRATION_SEED, kind_key, size, m))
        graph = checks.grid_graph(gmap.occupancy)
        for t in range(pairs):
            inst = grid.sample_instance(gmap, seed=derive(CALIBRATION_SEED, kind_key, size, m, t))
            values.append(measure(gmap, graph, inst))
    return np.asarray(values)


def effort(gmap, graph, inst) -> float:
    return checks.search_effort(gmap.occupancy, inst.start, inst.goal, graph) / gmap.free_count()


def rank(gmap, graph, inst) -> float:
    return checks.distance_rank(gmap.occupancy, inst.start, inst.goal, graph)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--maps", type=int, default=40)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    for kind, size in RANK_CHECKS:
        q = np.quantile(sample(kind, size, args.maps // 4, args.pairs, rank), (0.25, 0.5, 0.75))
        print(f"# distance rank, {kind} {size}: quartiles {np.round(q, 3).tolist()}")
    cache = {}
    print("EFFORT_EDGES = {")
    for kind, size, bands in EFFORT_STRATA:
        if (kind, size) not in cache:
            cache[kind, size] = sample(kind, size, args.maps, args.pairs, effort)
        values = cache[kind, size]
        edges = np.quantile(values, np.arange(1, bands) / bands)
        print(f"    ({kind!r}, {size}, {bands}): ({', '.join(f'{e:.3f}' for e in edges)}),"
              f"  # {len(values)} pairs, max {values.max():.3f}")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
