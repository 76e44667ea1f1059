"""Output checks made apart from the program under test.

Nothing here imports gridplan. Each function takes plain arrays, tuples and
numbers, recomputes what the program claims by another route, and returns
a list of problems (empty when the output is right), so a caller can count
failed checks without stopping at the first one.

Grid model, as the program documents it: 8-connected, straight steps cost
1, diagonal steps cost sqrt(2), diagonal moves past an obstacle corner are
allowed, obstacles are nonzero cells.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

SQRT2 = math.sqrt(2.0)
# Relative tolerance for comparing costs summed in different orders.
COST_RTOL = 1e-9


def step_cost(a, b) -> float:
    """Cost of one king move; raises on anything that is not one."""
    dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
    if max(dr, dc) != 1:
        raise ValueError(f"{tuple(a)} -> {tuple(b)} is not a king move")
    return SQRT2 if dr and dc else 1.0


def path_step_sum(path) -> float:
    return math.fsum(step_cost(a, b) for a, b in zip(path[:-1], path[1:]))


def costs_match(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(1.0, abs(b))


def check_path(occupancy: np.ndarray, path, start, goal, cost: float) -> list[str]:
    """Start to goal, free cells only, king moves, cost equal to the step sum."""
    problems = []
    if not path:
        return ["empty path"]
    if tuple(path[0]) != tuple(start):
        problems.append(f"path starts at {tuple(path[0])}, not {tuple(start)}")
    if tuple(path[-1]) != tuple(goal):
        problems.append(f"path ends at {tuple(path[-1])}, not {tuple(goal)}")
    height, width = occupancy.shape
    for r, c in path:
        if not (0 <= r < height and 0 <= c < width) or occupancy[r, c]:
            problems.append(f"path cell {(r, c)} is off the map or blocked")
            break
    for a, b in zip(path[:-1], path[1:]):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            problems.append(f"step {tuple(a)} -> {tuple(b)} is not a king move")
            return problems
    steps = path_step_sum(path)
    if not costs_match(cost, steps):
        problems.append(f"cost {cost!r} != octile step sum {steps!r}")
    return problems


def grid_graph(occupancy: np.ndarray):
    """Sparse 8-connected graph over the cells of a grid, row-major indices.

    Blocked cells keep their index but get no edges.
    """
    height, width = occupancy.shape
    free = occupancy == 0
    index = np.arange(height * width).reshape(height, width)
    rows, cols, weights = [], [], []
    for dr, dc, w in ((0, 1, 1.0), (1, 0, 1.0), (1, 1, SQRT2), (1, -1, SQRT2)):
        r0, r1 = 0, height - dr
        c0, c1 = max(0, -dc), width - max(0, dc)
        a = index[r0:r1, c0:c1]
        b = index[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
        ok = free[r0:r1, c0:c1] & free[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
        rows.append(a[ok])
        cols.append(b[ok])
        weights.append(np.full(int(ok.sum()), w))
    rows, cols, weights = map(np.concatenate, (rows, cols, weights))
    n = height * width
    return coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()


def shortest_costs(occupancy: np.ndarray, start, graph=None) -> np.ndarray:
    """Shortest octile cost from start to every cell (inf where unreachable)."""
    width = occupancy.shape[1]
    graph = grid_graph(occupancy) if graph is None else graph
    dist = csgraph_dijkstra(graph, directed=False,
                            indices=start[0] * width + start[1])
    return dist.reshape(occupancy.shape)


def search_effort(occupancy: np.ndarray, start, goal, graph=None) -> int:
    """Cells whose shortest cost plus octile distance to the goal is at most
    the goal's shortest cost: about the cells A* with that heuristic
    expands, so a measure of a query's work that needs no planner."""
    dist = shortest_costs(occupancy, start, graph)
    total = dist + octile_field(occupancy.shape, goal)
    return int((total <= dist[tuple(goal)] * (1.0 + COST_RTOL)).sum())


def distance_rank(occupancy: np.ndarray, start, goal, graph=None) -> float:
    """Share of the cells reachable from start that are no farther than goal:
    the share of the component Dijkstra expands before it reaches the goal."""
    dist = shortest_costs(occupancy, start, graph)
    reach = np.isfinite(dist)
    return float((dist[reach] <= dist[tuple(goal)] * (1.0 + COST_RTOL)).sum() / reach.sum())


def check_optimal(cost: float, optimum: float) -> list[str]:
    if not costs_match(cost, optimum):
        return [f"cost {cost!r} != shortest cost {optimum!r}"]
    return []


def check_bounded(cost: float, optimum: float, factor: float) -> list[str]:
    if cost > factor * optimum * (1.0 + COST_RTOL):
        return [f"cost {cost!r} exceeds {factor} x shortest cost {optimum!r}"]
    return []


def octile_field(shape, goal) -> np.ndarray:
    rows = np.abs(np.arange(shape[0], dtype=np.float64) - goal[0])[:, None]
    cols = np.abs(np.arange(shape[1], dtype=np.float64) - goal[1])[None, :]
    return np.maximum(rows, cols) + (SQRT2 - 1.0) * np.minimum(rows, cols)


def best_first_trace(occupancy: np.ndarray, start, goal, bias: np.ndarray):
    """Expansion order of best-first search over (g + h) + (bias - min bias).

    h is the octile distance to the goal; ties go to the smaller h, then the
    smaller row-major index. Neighbors are offered in row-major order and a
    cell's cost changes only on a strict improvement; closed cells are never
    reopened. Returns (order, path, cost), order and path as (row, col)
    tuples.
    """
    height, width = occupancy.shape
    blocked = (np.asarray(occupancy) != 0).tolist()
    h = octile_field(occupancy.shape, goal).tolist()
    shifted = (np.asarray(bias, dtype=np.float64) - np.min(bias)).tolist()
    g = {tuple(start): 0.0}
    parent = {}
    closed = set()
    order = []
    sr, sc = start
    heap = [((0.0 + h[sr][sc]) + shifted[sr][sc], h[sr][sc], sr * width + sc, 0.0)]
    while heap:
        _, _, idx, g_in = heapq.heappop(heap)
        cell = divmod(idx, width)
        if cell in closed or g_in != g[cell]:
            continue
        closed.add(cell)
        order.append(cell)
        if cell == tuple(goal):
            path = [cell]
            while path[-1] != tuple(start):
                path.append(parent[path[-1]])
            return order, path[::-1], g[cell]
        r, c = cell
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nr, nc = r + dr, c + dc
                if (dr == dc == 0 or not (0 <= nr < height and 0 <= nc < width)
                        or blocked[nr][nc] or (nr, nc) in closed):
                    continue
                cand = g_in + (SQRT2 if dr and dc else 1.0)
                if cand < g.get((nr, nc), math.inf):
                    g[(nr, nc)] = cand
                    parent[(nr, nc)] = cell
                    f = (cand + h[nr][nc]) + shifted[nr][nc]
                    heapq.heappush(heap, (f, h[nr][nc], nr * width + nc, cand))
    raise ValueError(f"goal {tuple(goal)} unreachable from {tuple(start)}")


def check_trace(order, expected_order) -> list[str]:
    order = [tuple(c) for c in order]
    expected = [tuple(c) for c in expected_order]
    if order == expected:
        return []
    for i, (a, b) in enumerate(zip(order, expected)):
        if a != b:
            return [f"trace departs at expansion {i}: {a} instead of {b}"]
    return [f"trace has {len(order)} expansions, expected {len(expected)}"]


def check_loss(loss: float, expansions: int, path, w_a: float, w_l: float) -> list[str]:
    """A training loss against w_a * (expansions - path cells) + w_l * cost."""
    if not math.isfinite(loss):
        return [f"loss {loss!r} is not finite"]
    expected = w_a * (expansions - len(path)) + w_l * path_step_sum(path)
    if not costs_match(loss, expected):
        return [f"loss {loss!r} != recomputed {expected!r}"]
    return []


def check_coverage(total_s: float, covered_s: float, max_share: float) -> list[str]:
    """A span's traced children must cover all of it but `max_share`."""
    if not 0.0 <= covered_s <= total_s:
        return [f"children cover {covered_s!r} s of a {total_s!r} s span"]
    if total_s - covered_s > max_share * total_s:
        return [f"{total_s - covered_s:.4f} s of a {total_s:.4f} s span is outside its "
                f"traced children, over {max_share:.0%}"]
    return []
