"""Heap-based reference planners on 8-connected grids with octile costs.

Dijkstra (optimality oracle), A* / weighted A*, and Jump Point Search.
Straight moves cost 1, diagonal moves cost sqrt(2), and diagonal motion past
an obstacle corner is permitted; the octile heuristic is admissible and
consistent under this model.

A* keeps its per-node score as (g + h) + bias with h read from a precomputed
heuristic matrix and bias = (weight - 1) * h, and breaks score ties by
(score, h, row-major index). The one best-first engine, _biased_search, also
runs the differentiable search: given a SelectionTape it records, at every
expansion, the selected cell and the cells open at that step with their
scores, which is all the selection backward needs. Without a tape that work
is skipped.

Per expansion the planners touch only Python ints, floats, bytes and
bytearrays, never numpy scalars. The map is read from one table of free
flags built per call with a one-cell obstacle ring around it, so a step off
the map reads as blocked and needs no bounds test, and the flat index of a
cell never wraps from the end of one row to the start of the next. The
closed set is a bytearray. h and bias are read through memoryviews of
their float64 arrays, which yield Python floats of the same float64 values:
(g + h) + bias is then the same two float64 additions in the same order as
in numpy, so every score, tie and trace is bit for bit what a numpy-scalar
engine computes.

Planners return what they found, not how long it took: a caller that needs
wall time (cli plan, bench) times the call, so that the clock covers the
same work, encoder forward included, whatever the method.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnreachableGoalError
from .grid import Coord, PlanInstance

SQRT2 = math.sqrt(2.0)

# Row-major scan of the 3x3 neighborhood, center excluded. Relaxation order
# is part of the planner contract: with strict-improvement updates the first
# equal-cost offer wins, so every search in the package must use this order.
NEIGHBOR_OFFSETS = (
    (-1, -1, SQRT2), (-1, 0, 1.0), (-1, 1, SQRT2),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, SQRT2), (1, 0, 1.0), (1, 1, SQRT2),
)

@dataclass(frozen=True)
class SearchResult:
    """Output of one planner run.

    path_matrix marks path cells, closed_matrix marks every visited cell,
    and expansions equals the popcount of closed_matrix. expansion_order
    lists visited cells in visit order; jump_pops (jump point search only)
    counts heap pops, which is the smaller number that shows the algorithm's
    pruning even though its scans touch many cells.
    """

    path: tuple[Coord, ...]
    path_matrix: np.ndarray
    closed_matrix: np.ndarray
    expansions: int
    cost: float
    expansion_order: tuple[Coord, ...] = field(repr=False, default=())
    jump_pops: int | None = None


def octile(a: tuple[int, int], b: tuple[int, int]) -> float:
    dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(dr, dc) + (SQRT2 - 1.0) * min(dr, dc)


def octile_matrix(shape: tuple[int, int], goal: Coord) -> np.ndarray:
    """Octile distance from every cell to goal, as a float64 matrix."""
    rows = np.abs(np.arange(shape[0], dtype=np.float64) - goal[0])[:, None]
    cols = np.abs(np.arange(shape[1], dtype=np.float64) - goal[1])[None, :]
    return np.maximum(rows, cols) + (SQRT2 - 1.0) * np.minimum(rows, cols)


def weighted_bias(h_matrix: np.ndarray, weight: float) -> np.ndarray:
    """Per-cell selection bias that turns plain A* into weighted A*."""
    return (weight - 1.0) * h_matrix


def _reconstruct(parent: dict[int, int], start_idx: int, goal_idx: int,
                 width: int) -> list[Coord]:
    chain = [goal_idx]
    while chain[-1] != start_idx:
        chain.append(parent[chain[-1]])
    return [Coord(*divmod(i, width)) for i in reversed(chain)]


def _free_table(occupancy: np.ndarray) -> bytes:
    """Free flags (1 = free) of the map inside a one-cell obstacle ring.

    Row-major over the padded (H + 2) x (W + 2) grid, so cell (r, c) sits
    at (r + 1) * (W + 2) + c + 1, and a step off the map lands on the ring
    and reads as blocked: no bounds test is needed.
    """
    return (np.pad(occupancy, 1, constant_values=1) == 0).tobytes()


def _finish(shape, path, closed: bytearray, order, cost, jump_pops=None) -> SearchResult:
    path_matrix = np.zeros(shape, dtype=np.uint8)
    for cell in path:
        path_matrix[cell] = 1
    closed_matrix = np.frombuffer(closed, dtype=np.uint8).reshape(shape)
    return SearchResult(
        path=tuple(path),
        path_matrix=path_matrix,
        closed_matrix=closed_matrix,
        expansions=int(closed_matrix.sum()),
        cost=cost,
        expansion_order=tuple(order),
        jump_pops=jump_pops,
    )


def astar(instance: PlanInstance, weight: float = 1.0) -> SearchResult:
    """A* with octile heuristic; weight > 1 gives the greedy weighted variant."""
    if weight < 1.0:
        raise ValueError(f"weight must be >= 1, got {weight}")
    grid = instance.grid
    h_mat = octile_matrix(grid.shape, instance.goal)
    bias = weighted_bias(h_mat, weight)
    return _biased_search(instance, h_mat, bias)


def dijkstra(instance: PlanInstance) -> SearchResult:
    """Uniform-cost search; the package's path-cost oracle."""
    zeros = np.zeros(instance.grid.shape, dtype=np.float64)
    return _biased_search(instance, zeros, zeros)


class SelectionTape:
    """The open set at every expansion of one search, as flat lists.

    Step t expanded flat index selected[t]; the cells open just before it,
    the selected one included, are cells[starts[t]:starts[t + 1]] with their
    scores (g + h) + bias at the same positions of scores.
    """

    def __init__(self):
        self.selected: list[int] = []
        self.starts: list[int] = [0]
        self.cells: list[int] = []
        self.scores: list[float] = []

    def record(self, idx: int, open_scores: dict[int, float]) -> None:
        self.selected.append(idx)
        self.cells.extend(open_scores)
        self.scores.extend(open_scores.values())
        self.starts.append(len(self.cells))


def _biased_search(instance: PlanInstance, h_mat: np.ndarray, bias: np.ndarray,
                   tape: SelectionTape | None = None) -> SearchResult:
    """Best-first search ordered by (g + h) + bias, ties by (h, index).

    Shared engine for dijkstra (h = bias = 0), A* (bias = 0), weighted A*
    (bias = (w-1)h), and arbitrary-bias runs driven by a trained model.
    Closed nodes are never reopened; lazy heap deletion with a stored-g
    staleness check. With a tape, every expansion is recorded on it.
    """
    grid = instance.grid
    height, width = grid.shape
    free = _free_table(grid.occupancy)
    # Per offset: the flat-index step, the padded-index step, the step cost.
    # Cell idx in row r sits at idx + 2r + pad0 of the padded table.
    pad0 = width + 3
    steps = [(dr * width + dc, dr * (width + 2) + dc, cost)
             for dr, dc, cost in NEIGHBOR_OFFSETS]
    start_idx = instance.start.row * width + instance.start.col
    goal_idx = instance.goal.row * width + instance.goal.col

    # Indexing a memoryview gives Python floats with the same float64
    # values, so every score rounds as it would in numpy.
    h_flat = memoryview(np.ascontiguousarray(h_mat, dtype=np.float64).ravel())
    bias_flat = memoryview(np.ascontiguousarray(bias, dtype=np.float64).ravel())
    g: dict[int, float] = {start_idx: 0.0}
    parent: dict[int, int] = {}
    closed = bytearray(height * width)
    order: list[Coord] = []
    heappush, heappop, inf = heapq.heappush, heapq.heappop, math.inf
    f0 = (0.0 + h_flat[start_idx]) + bias_flat[start_idx]
    heap: list[tuple[float, float, int, float]] = [(f0, h_flat[start_idx], start_idx, 0.0)]
    # Current score of every open cell, kept only when recording a tape.
    open_scores = {start_idx: f0} if tape is not None else None

    while heap:
        _, _, idx, g_pushed = heappop(heap)
        if closed[idx] or g_pushed != g[idx]:
            continue
        if open_scores is not None:
            tape.record(idx, open_scores)
            del open_scores[idx]
        closed[idx] = 1
        r, c = divmod(idx, width)
        order.append(Coord(r, c))
        if idx == goal_idx:
            path = _reconstruct(parent, start_idx, goal_idx, width)
            return _finish(grid.shape, path, closed, order, g[goal_idx])
        g_here = g[idx]
        pidx = idx + 2 * r + pad0
        for doff, poff, step in steps:
            if not free[pidx + poff]:
                continue
            nidx = idx + doff
            if closed[nidx]:
                continue
            cand = g_here + step
            if cand < g.get(nidx, inf):
                g[nidx] = cand
                parent[nidx] = idx
                h = h_flat[nidx]
                f = (cand + h) + bias_flat[nidx]
                heappush(heap, (f, h, nidx, cand))
                if open_scores is not None:
                    open_scores[nidx] = f

    raise UnreachableGoalError(
        f"goal {tuple(instance.goal)} unreachable from start {tuple(instance.start)}"
    )


def _forced_dirs(free: bytes, pw: int, r: int, c: int, dr: int, dc: int):
    """Forced-neighbor directions at (r, c) when travelling along (dr, dc).

    free is the padded table of _free_table and pw its row width, W + 2.
    """
    p = (r + 1) * pw + c + 1
    forced = []
    if dr == 0:
        # Horizontal travel: a blocked cell beside the path with a free
        # diagonal ahead of it forces a turn.
        for side in (-1, 1):
            q = p + side * pw
            if not free[q] and free[q + dc]:
                forced.append((side, dc))
    elif dc == 0:
        for side in (-1, 1):
            if not free[p + side] and free[p + dr * pw + side]:
                forced.append((dr, side))
    else:
        # Diagonal travel: a blocked cell behind either natural straight
        # neighbor forces the corresponding counter-diagonal.
        q = p - dr * pw
        if not free[q] and free[q + dc]:
            forced.append((-dr, dc))
        if not free[p - dc] and free[p + dr * pw - dc]:
            forced.append((dr, -dc))
    return forced


def jps(instance: PlanInstance) -> SearchResult:
    """Jump point search: A* over jump points with straight-line scans.

    closed_matrix marks expanded jump points plus every cell stepped through
    by a scan, so its popcount is the honest \"search area\"; jump_pops counts
    only the heap pops.
    """
    grid = instance.grid
    height, width = grid.shape
    free = _free_table(grid.occupancy)
    pw = width + 2
    start, goal = instance.start, instance.goal
    start_t, goal_t = (start.row, start.col), (goal.row, goal.col)

    visited = bytearray(height * width)
    order: list[Coord] = []

    def touch(r, c):
        idx = r * width + c
        if not visited[idx]:
            visited[idx] = 1
            order.append(Coord(r, c))

    def jump_straight(r, c, dr, dc):
        while True:
            r, c = r + dr, c + dc
            if not free[(r + 1) * pw + c + 1]:
                return None
            touch(r, c)
            if (r, c) == goal_t or _forced_dirs(free, pw, r, c, dr, dc):
                return (r, c)

    def jump_diag(r, c, dr, dc):
        while True:
            r, c = r + dr, c + dc
            if not free[(r + 1) * pw + c + 1]:
                return None
            touch(r, c)
            if (r, c) == goal_t or _forced_dirs(free, pw, r, c, dr, dc):
                return (r, c)
            if jump_straight(r, c, dr, 0) is not None or jump_straight(r, c, 0, dc) is not None:
                return (r, c)

    def successors(r, c, parent_cell):
        if parent_cell is None:
            dirs = [(dr, dc) for dr, dc, _ in NEIGHBOR_OFFSETS]
        else:
            pr, pc = parent_cell
            dr = int(r > pr) - int(r < pr)
            dc = int(c > pc) - int(c < pc)
            if dr != 0 and dc != 0:
                dirs = [(dr, dc), (dr, 0), (0, dc)]
            else:
                dirs = [(dr, dc)]
            dirs += _forced_dirs(free, pw, r, c, dr, dc)
        out = []
        for dr, dc in dirs:
            jp = jump_diag(r, c, dr, dc) if dr and dc else jump_straight(r, c, dr, dc)
            if jp is not None:
                out.append(jp)
        return out

    g = {start_t: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    expanded: set[tuple[int, int]] = set()
    h0 = octile(start_t, goal_t)
    heap = [(h0, h0, start.row * width + start.col, start_t, 0.0)]
    pops = 0

    while heap:
        _, _, _, cell, g_pushed = heapq.heappop(heap)
        if cell in expanded or g_pushed != g[cell]:
            continue
        expanded.add(cell)
        pops += 1
        touch(*cell)
        if cell == goal_t:
            chain = [cell]
            while chain[-1] != start_t:
                chain.append(parent[chain[-1]])
            chain.reverse()
            path = _interpolate(chain)
            return _finish(grid.shape, path, visited, order, g[cell], jump_pops=pops)
        g_cell = g[cell]
        for jp in successors(cell[0], cell[1], parent.get(cell)):
            if jp in expanded:
                continue
            cand = g_cell + octile(cell, jp)
            if cand < g.get(jp, math.inf):
                g[jp] = cand
                parent[jp] = cell
                h = octile(jp, goal_t)
                heapq.heappush(heap, (cand + h, h, jp[0] * width + jp[1], jp, cand))

    raise UnreachableGoalError(
        f"goal {tuple(goal)} unreachable from start {tuple(start)}"
    )


def _interpolate(chain: list[tuple[int, int]]) -> list[Coord]:
    """Expand a jump-point chain into a full cell path with unit king moves."""
    path = [Coord(*chain[0])]
    for (r0, c0), (r1, c1) in zip(chain[:-1], chain[1:]):
        dr = int(r1 > r0) - int(r1 < r0)
        dc = int(c1 > c0) - int(c1 < c0)
        r, c = r0, c0
        while (r, c) != (r1, c1):
            r, c = r + dr, c + dc
            path.append(Coord(r, c))
    return path
