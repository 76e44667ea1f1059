"""Heap-based reference planners on 8-connected grids with octile costs.

Dijkstra (optimality oracle), A* / weighted A*, and Jump Point Search.
Straight moves cost 1, diagonal moves cost sqrt(2), and diagonal motion past
an obstacle corner is permitted; the octile heuristic is admissible and
consistent under this model.

A* keeps its per-node score as (g + h) + bias with h read from a precomputed
heuristic matrix and bias = (weight - 1) * h, and breaks score ties by
(score, h, row-major index). The one best-first engine, _biased_search, also
runs the differentiable search. Given a SelectionTape, it records events,
not open sets: each push appends its padded cell and its score, and each
expansion appends one mark, the number of pushes so far. An open entry's
score is fixed from its push until a later push of its cell supersedes it
or its cell is selected, so at the goal numpy derives from those lists each
entry's flat cell, birth step and death step, which is all the selection
backward needs. The tape then costs O(pushes + expansions), not the sum of
the open-set sizes over all expansions. Without a tape that work is skipped.

The planners search in padded-index space. The map sits inside a one-cell
obstacle ring, and cell (r, c) has index p = (r + 1) * (W + 2) + c + 1 of
the (H + 2) x (W + 2) padded grid. A neighbour is p plus a fixed step; a
step off the map lands on the ring, and no step wraps from one row's end to
the next row's start, so no bounds test is needed. p rises with row-major
order, so (score, h, p) breaks ties exactly as (score, h, flat index) does.

Per expansion the engine touches only Python ints, floats and lists,
never numpy scalars:
- one `blocked` list of 0/1 ints holds the obstacles, the ring and, as the
  search goes, the closed cells, so each neighbour needs a single test.
  CPython subscripts a list faster than a bytearray;
- g is a list pre-filled with inf, indexed by p;
- h and bias are read through memoryviews of padded float64 copies, which
  yield Python floats of the same float64 values. (g + h) + bias is then the
  same two float64 additions in the same order as in numpy, so every score,
  tie and trace is bit for bit what a numpy-scalar engine computes.
h stays a precomputed matrix: octile per push, even written inline, costs
several times a memoryview read, and more over a query than one
octile_matrix call.

The eight neighbours are relaxed in eight straight-line blocks, one per
NEIGHBOR_OFFSETS entry and in its order, not in a loop over the offsets;
each tests `not blocked[q] and cand < g[q]`. g + sqrt(2) and g + 1 are
added once per expansion, the same float64 additions a per-step g + cost
makes. Heap entries are (score, h, p), deletion is lazy: a superseded
entry stays in the heap and is skipped when it pops, its cell closed by
then, and g is read as g[p] when p pops open. _biased_search's docstring
gives why this pops cells in the same order as entries that carry g.

The expansion order and the path are kept as padded ints. The path is
converted at the end, vectorised, into Coords and the path matrix; the
closed matrix is the scatter of the visit order, whose cost grows with the
expansions, not with the map as a conversion of the list table would; the
visit order becomes Coords only when a caller first reads expansion_order.
A tape's derived arrays hold unpadded flat indices r * W + c.

Jump point search scans in the same padded space. A scan asks only whether
a cell has a forced neighbour, a yes/no written inline in the scan loop;
the list of forced directions (_forced_dirs) is built only where
successors need it. Each successor's step cost and h are octile distances
written inline on the ints from divmod, and its heap entries are
(f, h, p) with g read at pop, as in the engine.

Planners return what they found, not how long it took: a caller that needs
wall time (cli plan, bench) times the call, so that the clock covers the
same work, encoder forward included, whatever the method.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import UnreachableGoalError
from .grid import Coord, PlanInstance

SQRT2 = math.sqrt(2.0)

# Row-major scan of the 3x3 neighborhood, center excluded. Relaxation order
# is part of the planner contract: with strict-improvement updates the first
# equal-cost offer wins, so every search in the package must use this order.
# _biased_search's eight unrolled neighbour blocks follow it, and so fix the
# order of a SelectionTape's pushes.
NEIGHBOR_OFFSETS = (
    (-1, -1, SQRT2), (-1, 0, 1.0), (-1, 1, SQRT2),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, SQRT2), (1, 0, 1.0), (1, 1, SQRT2),
)

@dataclass(frozen=True, eq=False)
class SearchResult:
    """Output of one planner run.

    path_matrix marks path cells, closed_matrix marks every visited cell,
    and expansions equals the popcount of closed_matrix. padded_order holds
    the visited cells in visit order as padded indices, and expansion_order
    the same cells as Coords, built on first read and kept; jump_pops (jump
    point search only) counts heap pops, which is the smaller number that
    shows the algorithm's pruning even though its scans touch many cells.
    Results compare by identity: a numpy field has no single truth value.
    """

    path: tuple[Coord, ...]
    path_matrix: np.ndarray
    closed_matrix: np.ndarray
    expansions: int
    cost: float
    padded_order: list[int] = field(repr=False)
    jump_pops: int | None = None

    @cached_property
    def expansion_order(self) -> tuple[Coord, ...]:
        return _coords(*_rows_cols(self.padded_order, self.closed_matrix.shape[1]))


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


def _padded(array: np.ndarray, fill, dtype) -> np.ndarray:
    """array inside a one-cell ring of fill, flat in padded-index order."""
    height, width = array.shape
    out = np.full((height + 2, width + 2), fill, dtype=dtype)
    out[1:-1, 1:-1] = array
    return out.ravel()


def _blocked_table(occupancy: np.ndarray) -> list[int]:
    """Per padded index, 1 for an obstacle or ring cell and 0 for a free one.

    A list, not a bytearray: CPython subscripts a list on a faster path.
    list() over the bytes builds it faster than ndarray.tolist().
    """
    return list(_padded(occupancy, 1, np.uint8).tobytes())


def _rows_cols(padded: list[int], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Map rows and columns of padded indices, as int arrays."""
    rows, cols = np.divmod(np.array(padded, dtype=np.intp), width + 2)
    return rows - 1, cols - 1


def _coords(rows: np.ndarray, cols: np.ndarray) -> tuple[Coord, ...]:
    # tuple.__new__(Coord, pair) is what Coord(row, col) runs, without a
    # Python-level call per cell.
    return tuple(map(tuple.__new__, repeat(Coord), zip(rows.tolist(), cols.tolist())))


def _backtrack(parent, start: int, goal: int) -> list[int]:
    """The chain of parents from start to goal, start first."""
    chain = [goal]
    while chain[-1] != start:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return chain


def _scatter(order: list[int], shape: tuple[int, int]) -> np.ndarray:
    """The 0/1 uint8 matrix of the map cells whose padded indices order lists."""
    height, width = shape
    table = np.zeros((height + 2) * (width + 2), dtype=np.uint8)
    table[order] = 1
    return table.reshape(height + 2, width + 2)[1:-1, 1:-1].copy()


def _crop(table: bytearray, shape: tuple[int, int]) -> np.ndarray:
    """The map's cells of a padded per-index table, as a uint8 view."""
    height, width = shape
    return np.frombuffer(table, dtype=np.uint8).reshape(height + 2, width + 2)[1:-1, 1:-1]


def _result(path: list[int], order: list[int], closed: np.ndarray, cost: float,
            jump_pops: int | None = None) -> SearchResult:
    """The SearchResult of a padded path, visit order and closed matrix."""
    path_rows, path_cols = _rows_cols(path, closed.shape[1])
    path_matrix = np.zeros(closed.shape, dtype=np.uint8)
    path_matrix[path_rows, path_cols] = 1
    return SearchResult(
        path=_coords(path_rows, path_cols),
        path_matrix=path_matrix,
        closed_matrix=closed,
        expansions=len(order),
        cost=cost,
        padded_order=order,
        jump_pops=jump_pops,
    )


def check_weight(weight: float) -> float:
    """weight itself if it is a weighted-A* weight, finite and >= 1.

    NaN would make scores that do not compare, and an infinite weight
    prices the goal's cell at inf * 0.
    """
    if not (math.isfinite(weight) and weight >= 1.0):
        raise ValueError(f"weight must be finite and >= 1, got {weight}")
    return weight


def astar(instance: PlanInstance, weight: float = 1.0) -> SearchResult:
    """A* with octile heuristic; weight > 1 gives the greedy weighted variant."""
    check_weight(weight)
    grid = instance.grid
    h_mat = octile_matrix(grid.shape, instance.goal)
    bias = weighted_bias(h_mat, weight)
    return _biased_search(instance, h_mat, bias)


def dijkstra(instance: PlanInstance) -> SearchResult:
    """Uniform-cost search; the package's path-cost oracle."""
    zeros = np.zeros(instance.grid.shape, dtype=np.float64)
    return _biased_search(instance, zeros, zeros)


class SelectionTape:
    """The push and expansion events of one search, and the entries they imply.

    While the engine searches, each push appends its padded index to pushed
    and its score (g + h) + bias to pushed_scores, and each expansion
    appends to marks the number of pushes made before it. Each push opens
    one entry. At the goal, finish derives, over steps t < T:
    - expanded[t], the unpadded flat index r * W + c selected at step t;
    - per entry, its flat cell (entry_cells), its score (entry_scores), its
      birth, the first step at which it is open, and its death, the first
      step at which it is not: the birth of the next push of its cell, the
      step after its cell is selected, or T.
    The cells open at step t, the selected one included, are those of the
    entries with birth <= t < death.
    """

    def __init__(self):
        self.pushed: list[int] = []
        self.pushed_scores: list[float] = []
        self.marks: list[int] = []

    def finish(self, order: list[int], shape: tuple[int, int]) -> None:
        """Derive the entries' cells, births and deaths; order is the visit order."""
        height, width = shape
        rows, cols = _rows_cols(self.pushed, width)
        cells = rows * width + cols
        rows, cols = _rows_cols(order, width)
        self.expanded = rows * width + cols
        steps = len(order)
        birth = np.searchsorted(np.array(self.marks, dtype=np.intp), np.arange(cells.size),
                                "right")
        after_selection = np.full(height * width, steps)
        after_selection[self.expanded] = np.arange(1, steps + 1)
        death = after_selection[cells]
        # A cell's entries in push order: each dies when the next is born.
        by_cell = np.argsort(cells, kind="stable")
        same = cells[by_cell[1:]] == cells[by_cell[:-1]]
        death[by_cell[:-1][same]] = birth[by_cell[1:][same]]
        self.entry_cells = cells
        self.entry_scores = np.array(self.pushed_scores, dtype=np.float64)
        self.birth, self.death = birth, death


def _biased_search(instance: PlanInstance, h_mat: np.ndarray, bias: np.ndarray,
                   tape: SelectionTape | None = None) -> SearchResult:
    """Best-first search ordered by (g + h) + bias, ties by (h, index).

    Shared engine for dijkstra (h = bias = 0), A* (bias = 0), weighted A*
    (bias = (w-1)h), and arbitrary-bias runs driven by a trained model.
    Closed nodes are never reopened. A heap entry is (score, h, p); an entry
    that a later push of its cell supersedes stays in the heap and is
    skipped when it pops, its cell closed by then, and g is read as g[p]
    when p pops open. This pops cells in the order that entries carrying
    their g, (score, h, p, g), with a staleness test would: a later push of
    p has a strictly lower g, so, float addition being monotone, a score no
    higher, with the same h and p. Under the 4-tuples that push popped
    first; under the 3-tuples the two tie as equal entries, and either
    gives the same g[p]. Every later pop of p finds p closed. The argument
    needs scores that compare, which is why callers reject NaN.
    With a tape, every push and expansion is recorded on it.
    """
    grid = instance.grid
    pw = grid.shape[1] + 2
    blocked = _blocked_table(grid.occupancy)
    start = (instance.start.row + 1) * pw + instance.start.col + 1
    goal = (instance.goal.row + 1) * pw + instance.goal.col + 1

    h_pad = memoryview(_padded(h_mat, 0.0, np.float64))
    bias_pad = memoryview(_padded(bias, 0.0, np.float64))
    g = [math.inf] * len(blocked)
    g[start] = 0.0
    parent = [0] * len(blocked)
    order: list[int] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    h = h_pad[start]
    f = (0.0 + h) + bias_pad[start]
    heap: list[tuple[float, float, int]] = [(f, h, start)]
    recording = tape is not None
    if recording:
        pushed = tape.pushed
        push_cell, push_score, mark = pushed.append, tape.pushed_scores.append, tape.marks.append
        push_cell(start)
        push_score(f)

    while heap:
        _, _, p = heappop(heap)
        if blocked[p]:
            continue
        if recording:
            mark(len(pushed))
        blocked[p] = 1
        order.append(p)
        g_here = g[p]
        if p == goal:
            if recording:
                tape.finish(order, grid.shape)
            return _result(_backtrack(parent, start, goal), order,
                           _scatter(order, grid.shape), g_here)
        # One block per neighbour, in NEIGHBOR_OFFSETS order; cd and cs are
        # the g that a diagonal and a straight step offer.
        cd = g_here + SQRT2
        cs = g_here + 1.0
        above = p - pw
        q = above - 1
        if not blocked[q] and cd < g[q]:
            g[q] = cd
            parent[q] = p
            h = h_pad[q]
            f = (cd + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)
        q = above
        if not blocked[q] and cs < g[q]:
            g[q] = cs
            parent[q] = p
            h = h_pad[q]
            f = (cs + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)
        q = above + 1
        if not blocked[q] and cd < g[q]:
            g[q] = cd
            parent[q] = p
            h = h_pad[q]
            f = (cd + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)
        q = p - 1
        if not blocked[q] and cs < g[q]:
            g[q] = cs
            parent[q] = p
            h = h_pad[q]
            f = (cs + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)
        q = p + 1
        if not blocked[q] and cs < g[q]:
            g[q] = cs
            parent[q] = p
            h = h_pad[q]
            f = (cs + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)
        below = p + pw
        q = below - 1
        if not blocked[q] and cd < g[q]:
            g[q] = cd
            parent[q] = p
            h = h_pad[q]
            f = (cd + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)
        q = below
        if not blocked[q] and cs < g[q]:
            g[q] = cs
            parent[q] = p
            h = h_pad[q]
            f = (cs + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)
        q = below + 1
        if not blocked[q] and cd < g[q]:
            g[q] = cd
            parent[q] = p
            h = h_pad[q]
            f = (cd + h) + bias_pad[q]
            heappush(heap, (f, h, q))
            if recording:
                push_cell(q)
                push_score(f)

    raise UnreachableGoalError(
        f"goal {tuple(instance.goal)} unreachable from start {tuple(instance.start)}"
    )


def _guards(pw: int, dr: int, dc: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two (wall, turn) step pairs of travel along (dr, dc).

    pw is the padded row width, W + 2. Travelling through padded index p,
    turn is a forced direction when p + wall is blocked and p + turn is
    free: a straight move has a wall on either side with the diagonal ahead
    of it, a diagonal move a wall behind either of its straight components.
    """
    if dr == 0:
        return (-pw, dc - pw), (pw, dc + pw)
    if dc == 0:
        step = dr * pw
        return (-1, step - 1), (1, step + 1)
    vr = dr * pw
    return (-vr, dc - vr), (-dc, vr - dc)


def _forced_dirs(blocked: list[int], p: int, guards) -> list[int]:
    """Forced directions, as padded steps, at p for one travel's guards."""
    return [turn for wall, turn in guards if blocked[p + wall] and not blocked[p + turn]]


def jps(instance: PlanInstance) -> SearchResult:
    """Jump point search: A* over jump points with straight-line scans.

    closed_matrix marks expanded jump points plus every cell stepped through
    by a scan, so its popcount is the honest \"search area\"; jump_pops counts
    only the heap pops.
    """
    grid = instance.grid
    width = grid.shape[1]
    pw = width + 2
    blocked = _blocked_table(grid.occupancy)
    start = (instance.start.row + 1) * pw + instance.start.col + 1
    goal = (instance.goal.row + 1) * pw + instance.goal.col + 1

    visited = bytearray(len(blocked))
    order: list[int] = []
    # Per travel step, in NEIGHBOR_OFFSETS order: its guards and, for a
    # diagonal, the straight scans (vertical first) that run from each cell.
    scans = {dr * pw + dc: (*_guards(pw, dr, dc), (dr * pw, dc) if dr and dc else ())
             for dr, dc, _ in NEIGHBOR_OFFSETS}

    def jump(p, step):
        (wall_a, turn_a), (wall_b, turn_b), branches = scans[step]
        while True:
            p += step
            if blocked[p]:
                return None
            if not visited[p]:
                visited[p] = 1
                order.append(p)
            if (p == goal or (blocked[p + wall_a] and not blocked[p + turn_a])
                    or (blocked[p + wall_b] and not blocked[p + turn_b])):
                return p
            for branch in branches:
                if jump(p, branch) is not None:
                    return p

    def successors(p, parent_p):
        if parent_p is None:
            dirs = list(scans)
        else:
            (pr, pc), (r, c) = divmod(parent_p, pw), divmod(p, pw)
            dr = (r > pr) - (r < pr)
            dc = (c > pc) - (c < pc)
            step = dr * pw + dc
            dirs = [step, dr * pw, dc] if dr and dc else [step]
            dirs += _forced_dirs(blocked, p, scans[step][:2])
        out = []
        for step in dirs:
            jp = jump(p, step)
            if jp is not None:
                out.append(jp)
        return out

    g = {start: 0.0}
    parent: dict[int, int] = {}
    expanded = bytearray(len(blocked))
    # Octile distances are priced inline, as octile() does, on the ints
    # from divmod: the larger offset plus k times the smaller one.
    k = SQRT2 - 1.0
    goal_r, goal_c = divmod(goal, pw)
    h = octile(divmod(start, pw), (goal_r, goal_c))
    heap = [(h, h, start)]
    heappush, heappop = heapq.heappush, heapq.heappop
    pops = 0

    while heap:
        _, _, p = heappop(heap)
        if expanded[p]:
            continue
        expanded[p] = 1
        pops += 1
        if not visited[p]:
            visited[p] = 1
            order.append(p)
        g_here = g[p]
        if p == goal:
            chain = _backtrack(parent, start, goal)
            return _result(_interpolate(chain, pw), order, _crop(visited, grid.shape).copy(),
                           g_here, jump_pops=pops)
        r, c = divmod(p, pw)
        for jp in successors(p, parent.get(p)):
            if expanded[jp]:
                continue
            jr, jc = divmod(jp, pw)
            dr, dc = abs(jr - r), abs(jc - c)
            cand = g_here + (dr + k * dc if dr > dc else dc + k * dr)
            if cand < g.get(jp, math.inf):
                g[jp] = cand
                parent[jp] = p
                dr, dc = abs(jr - goal_r), abs(jc - goal_c)
                h = dr + k * dc if dr > dc else dc + k * dr
                heappush(heap, (cand + h, h, jp))

    raise UnreachableGoalError(
        f"goal {tuple(instance.goal)} unreachable from start {tuple(instance.start)}"
    )


def _interpolate(chain: list[int], pw: int) -> list[int]:
    """Expand a padded jump-point chain into every cell, with unit king moves.

    Consecutive jump points lie on one straight or diagonal line.
    """
    path = [chain[0]]
    for a, b in zip(chain, chain[1:]):
        (ra, ca), (rb, cb) = divmod(a, pw), divmod(b, pw)
        step = ((rb > ra) - (rb < ra)) * pw + (cb > ca) - (cb < ca)
        path.extend(range(a + step, b + step, step))
    return path
