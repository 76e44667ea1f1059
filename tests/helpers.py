"""Independent oracles shared by the test suite.

Everything here is written against plain numpy, structured differently from
the package implementations, so agreement between the two is meaningful.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

SQRT2 = math.sqrt(2.0)

# King moves with octile step costs: 4 straight at 1, 4 diagonal at sqrt(2).
KING_MOVES = [
    (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
    (-1, -1, SQRT2), (-1, 1, SQRT2), (1, -1, SQRT2), (1, 1, SQRT2),
]


def flood_fill(occupancy: np.ndarray, start) -> np.ndarray:
    """BFS reachability mask over 8-connected free cells."""
    h, w = occupancy.shape
    seen = np.zeros((h, w), dtype=bool)
    if occupancy[start] != 0:
        return seen
    seen[start] = True
    queue = deque([tuple(start)])
    while queue:
        r, c = queue.popleft()
        for dr, dc, _ in KING_MOVES:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and not seen[nr, nc] and occupancy[nr, nc] == 0:
                seen[nr, nc] = True
                queue.append((nr, nc))
    return seen


def octile_heuristic(a, b) -> float:
    dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(dr, dc) + (SQRT2 - 1.0) * min(dr, dc)


def path_step_sum(path) -> float:
    """Sum of per-step octile costs; asserts every step is a legal king move."""
    total = 0.0
    for (r0, c0), (r1, c1) in zip(path[:-1], path[1:]):
        dr, dc = abs(r1 - r0), abs(c1 - c0)
        assert max(dr, dc) == 1, f"illegal step ({r0},{c0})->({r1},{c1})"
        total += SQRT2 if dr + dc == 2 else 1.0
    return total


def assert_valid_path(occupancy: np.ndarray, path, start, goal) -> float:
    """Check a path is start->goal over free in-bounds cells with king moves."""
    assert len(path) >= 1
    assert tuple(path[0]) == tuple(start)
    assert tuple(path[-1]) == tuple(goal)
    h, w = occupancy.shape
    for r, c in path:
        assert 0 <= r < h and 0 <= c < w, f"({r},{c}) out of bounds"
        assert occupancy[r, c] == 0, f"({r},{c}) is an obstacle"
    return path_step_sum(path)


def distance_field(occupancy: np.ndarray, start) -> np.ndarray:
    """All-cells shortest octile distance from start by Bellman-Ford sweeps.

    Deliberately heap-free: repeated whole-grid relaxations until fixpoint.
    """
    h, w = occupancy.shape
    dist = np.full((h, w), np.inf)
    if occupancy[start] != 0:
        return dist
    dist[start] = 0.0
    blocked = occupancy != 0
    for _ in range(h * w):
        best = dist.copy()
        for dr, dc, cost in KING_MOVES:
            rd0, rd1 = max(0, dr), h + min(0, dr)
            cd0, cd1 = max(0, dc), w + min(0, dc)
            rs0, rs1 = max(0, -dr), h + min(0, -dr)
            cs0, cs1 = max(0, -dc), w + min(0, -dc)
            cand = np.full((h, w), np.inf)
            cand[rd0:rd1, cd0:cd1] = dist[rs0:rs1, cs0:cs1] + cost
            np.minimum(best, cand, out=best)
        best[blocked] = np.inf
        if np.array_equal(best, dist, equal_nan=True):
            return best
        dist = best
    raise AssertionError("relaxation did not converge")


def finite_difference(f, arrays, step: float = 1e-5):
    """Central-difference gradients of scalar f w.r.t. a list of arrays."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=float)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = f()
            flat[i] = keep - step
            lo = f()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def conv2d_oracle(x: np.ndarray, k: np.ndarray, padding: str = "same") -> np.ndarray:
    """Direct six-loop cross-correlation; the conv2d reference."""
    cout, cin, kh, kw = k.shape
    ph, pw = (kh // 2, kw // 2) if padding == "same" else (0, 0)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    oh, ow = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    out = np.zeros((cout, oh, ow))
    for co in range(cout):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            acc += k[co, ci, u, v] * xp[ci, i + u, j + v]
                out[co, i, j] = acc
    return out


def conv2d_grad_oracle(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    """Gradients of <conv2d(x, k, b), g> by direct loops over every product.

    Each term k[co, ci, u, v] * x[ci, i + u - ph, j + v - pw] of output
    (co, i, j) sends g[co, i, j] times one factor to the other; terms that
    read the zero padding send nothing to x. Returns (dx, dk, db).
    """
    cout, cin, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    _, h, w = x.shape
    dx, dk = np.zeros_like(x), np.zeros_like(k)
    for co in range(cout):
        for i in range(h):
            for j in range(w):
                for ci in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            r, c = i + u - ph, j + v - pw
                            if 0 <= r < h and 0 <= c < w:
                                dk[co, ci, u, v] += g[co, i, j] * x[ci, r, c]
                                dx[ci, r, c] += g[co, i, j] * k[co, ci, u, v]
    return dx, dk, g.sum(axis=(1, 2))


def check_gradients(f, arrays, step: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare reverse-mode gradients of scalar f(*tensors) to central FD.

    ``arrays`` must be float64 so the Tensor leaves share their buffers and
    the finite-difference perturbations are visible to the forward pass.
    Returns the worst relative error; asserts it stays under ``tol``.
    """
    from gridplan.autodiff import Tensor, no_grad

    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = f(*leaves)
    out.backward()
    analytic = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data)
        for leaf in leaves
    ]

    def scalar():
        with no_grad():
            return float(f(*leaves).data)

    numeric = finite_difference(scalar, arrays, step)
    worst = max(relative_error(a, n) for a, n in zip(analytic, numeric))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3e} > {tol}"
    return worst


def make_instances(count: int, size: int = 32, seed: int = 0, kinds=None,
                   density: float = 0.25):
    """Seeded solvable instances cycling through the map generators."""
    from gridplan.grid import generate_map, sample_instance

    if kinds is None:
        kinds = ("random-blocks", "maze", "rooms")
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        grid = generate_map(kind, size, size, density=density, seed=seed + i)
        out.append(sample_instance(grid, seed=seed + 1000 + i))
    return out


# Row-major scan of the 3x3 neighborhood: the order in which an expansion
# offers costs. With strict improvement the first equal-cost offer wins, so
# the trace depends on it.
ROW_MAJOR_MOVES = [(dr, dc, SQRT2 if dr and dc else 1.0)
                   for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


def dense_search(occupancy: np.ndarray, start, goal, bias: np.ndarray) -> dict:
    """Whole-grid best-first search, the matrix form of the selection rule.

    Every step scores all cells as (cost + octile) + (bias - min bias),
    picks the open cell with the least (score, octile, row-major index),
    closes it and relaxes its free neighbors with strict improvement.
    Returns the expansion order, path, cost, and per step the open mask and
    score matrix that the selection backward needs.
    """
    h, w = occupancy.shape
    dr = np.abs(np.arange(h, dtype=np.float64) - goal[0])[:, None]
    dc = np.abs(np.arange(w, dtype=np.float64) - goal[1])[None, :]
    heur = np.maximum(dr, dc) + (SQRT2 - 1.0) * np.minimum(dr, dc)
    shifted = bias - bias.min()
    cost = np.full((h, w), np.inf)
    cost[tuple(start)] = 0.0
    open_mask = np.zeros((h, w), dtype=bool)
    open_mask[tuple(start)] = True
    closed = np.zeros((h, w), dtype=bool)
    parent = {}
    order, steps = [], []
    while True:
        assert open_mask.any(), "goal unreachable"
        score = (cost + heur) + shifted
        cand = np.flatnonzero(open_mask)
        pick = cand[np.lexsort((cand, heur.flat[cand], score.flat[cand]))[0]]
        steps.append((open_mask.copy(), score, pick))
        r, c = divmod(int(pick), w)
        order.append((r, c))
        open_mask[r, c] = False
        closed[r, c] = True
        if (r, c) == tuple(goal):
            break
        for mr, mc, step in ROW_MAJOR_MOVES:
            nr, nc = r + mr, c + mc
            if not (0 <= nr < h and 0 <= nc < w) or occupancy[nr, nc] or closed[nr, nc]:
                continue
            if cost[r, c] + step < cost[nr, nc]:
                cost[nr, nc] = cost[r, c] + step
                parent[(nr, nc)] = (r, c)
                open_mask[nr, nc] = True
    path = [tuple(goal)]
    while path[-1] != tuple(start):
        path.append(parent[path[-1]])
    return {"order": order, "path": path[::-1], "cost": float(cost[tuple(goal)]),
            "steps": steps}


def dense_selection_grad(steps, upstream: np.ndarray, tau: float) -> np.ndarray:
    """Gradient of sum_t <sel_t, upstream> with respect to the bias.

    Each one-hot selection sel_t stands for the soft weighting
    exp(-score / tau) over the cells open at step t, normalized there; a
    score moves one for one with its cell's bias.
    """
    grad = np.zeros_like(upstream, dtype=np.float64)
    for open_mask, score, _ in steps:
        raw = np.where(open_mask, np.exp(-(score - score[open_mask].min()) / tau), 0.0)
        q = raw / raw.sum()
        grad -= q * (upstream - (q * upstream).sum()) / tau
    return grad


def per_step_selection_grad(selected, starts, cells, scores, tau: float,
                            g: np.ndarray) -> np.ndarray:
    """The selection backward over a per-step tape, the event backward's reference.

    Step t selected flat index selected[t] among the cells
    cells[starts[t]:starts[t + 1]] open there, whose scores sit at the same
    positions of scores. This is selection_sum's backward as it ran when
    the tape held every step's open set: q_t = exp(-s_t / tau) / Z_t per
    step, shifted by each step's minimum, and -q_t * (g - <q_t, g>) / tau
    on that step's cells. Returns the gradient shaped like g.
    """
    selected = np.asarray(selected, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    sizes = np.diff(starts)
    assert selected.shape == sizes.shape and (sizes > 0).all()
    step = np.repeat(np.arange(sizes.size), sizes)
    lo = starts[:-1]
    # shift by each step's minimum so every partition sum stays >= 1
    e = np.exp(-(scores - np.minimum.reduceat(scores, lo)[step]) / tau)
    q = e / np.add.reduceat(e, lo)[step]
    gq = g.reshape(-1)[cells]
    centered = gq - np.add.reduceat(q * gq, lo)[step]
    contrib = -(q * centered) / tau
    return np.bincount(cells, weights=contrib, minlength=g.size).reshape(g.shape)


def running_sum_selection_grad(tape, tau: float, g: np.ndarray) -> np.ndarray:
    """The event backward with Z_t and A_t as global running sums.

    Each entry adds its weight at birth and subtracts it at death, with no
    re-basing: the form whose cancellation selection_sum avoids.
    """
    e = np.exp(-(tape.entry_scores - tape.entry_scores.min()) / tau)
    gc = g.reshape(-1)[tape.entry_cells]
    steps = tape.expanded.size

    def open_sums(w):
        delta = np.bincount(tape.birth, w, steps + 1) - np.bincount(tape.death, w, steps + 1)
        return np.cumsum(delta)[:steps]

    z, a = open_sums(e), open_sums(e * gc)
    per_z = np.concatenate(([0.0], np.cumsum(1.0 / z)))
    per_mean = np.concatenate(([0.0], np.cumsum(a / z / z)))
    contrib = -(e / tau) * (gc * (per_z[tape.death] - per_z[tape.birth])
                            - (per_mean[tape.death] - per_mean[tape.birth]))
    return np.bincount(tape.entry_cells, contrib, g.size).reshape(g.shape)


def forced_dirs_reference(occupancy: np.ndarray, r: int, c: int, dr: int, dc: int) -> list:
    """Jump point search's forced-neighbour directions at (r, c) under (dr, dc) travel.

    Harabor and Grastien's rule for king moves that may cut obstacle
    corners: travelling straight, a blocked side cell with a free diagonal
    ahead of it forces that diagonal; travelling diagonally, a blocked cell
    behind either straight component forces the counter-diagonal. Cells off
    the map count as blocked. Directions come as (dr, dc) pairs, the side
    toward -1 (or the row component) first.
    """
    h, w = occupancy.shape

    def blocked(i, j):
        return not (0 <= i < h and 0 <= j < w) or occupancy[i, j] != 0

    if dr == 0:
        pairs = [((side, 0), (side, dc)) for side in (-1, 1)]
    elif dc == 0:
        pairs = [((0, side), (dr, side)) for side in (-1, 1)]
    else:
        pairs = [((-dr, 0), (-dr, dc)), ((0, -dc), (dr, -dc))]
    return [turn for (wr, wc), turn in pairs
            if blocked(r + wr, c + wc) and not blocked(r + turn[0], c + turn[1])]


# The encoder's pooling, upsampling, output chain and first gradient
# accumulation as they were written before they became strided-view,
# one-step and one-pass forms, kept as references: the package's versions
# must match them byte for byte.


def reference_maxpool2(a):
    """2x2 max pooling with stride 2 on (C,H,W); ties go to the first index."""
    from gridplan.autodiff import _record, as_tensor
    from gridplan.errors import OddDimensionError, ShapeMismatchError

    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeMismatchError(f"maxpool2 wants (C,H,W), got {a.shape}")
    c, h, w = a.shape
    if h % 2 or w % 2:
        raise OddDimensionError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    blocks = a.data.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
    flat = blocks.reshape(c, h // 2, w // 2, 4)
    idx = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        ga = gflat.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)
        a._accumulate(ga)

    return _record(out_data, (a,), backward)


def reference_upsample2(a):
    """Nearest-neighbor x2 upsampling on (C,H,W)."""
    from gridplan.autodiff import _record, as_tensor
    from gridplan.errors import ShapeMismatchError

    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeMismatchError(f"upsample2 wants (C,H,W), got {a.shape}")
    out_data = np.repeat(np.repeat(a.data, 2, axis=1), 2, axis=2)

    def backward(g):
        c, h2, w2 = g.shape
        a._accumulate(g.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4)))

    return _record(out_data, (a,), backward)


def reference_reshape(a, shape):
    from gridplan.autodiff import _record, as_tensor

    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _record(out_data, (a,), backward)


def reference_crop2d(a, height: int, width: int):
    """Keep the top-left height x width window of (C,H,W)."""
    from gridplan.autodiff import _record, as_tensor
    from gridplan.errors import ShapeMismatchError

    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeMismatchError(f"crop2d wants (C,H,W), got {a.shape}")
    if height > a.shape[1] or width > a.shape[2]:
        raise ShapeMismatchError(f"cannot crop {a.shape} to {height}x{width}")
    out_data = a.data[:, :height, :width]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, :height, :width] = g
        a._accumulate(ga)

    return _record(out_data.copy(), (a,), backward)


def reference_to_map(x, s, height, width):
    """The encoder's output chain as it was before autodiff.to_map: log2(s)
    upsample2 calls, a crop when the window is cut, and a reshape.

    The upsampling is reference_upsample2, whose backward is numpy's own
    block sum, so this chain shares no code with to_map.
    """
    while s > 1:
        x = reference_upsample2(x)
        s //= 2
    if x.shape[1:] != (height, width):
        x = reference_crop2d(x, height, width)
    return reference_reshape(x, (height, width))


def reference_accumulate(self, g):
    """Tensor._accumulate with its first gradient added onto zeros."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def reference_coarse_input(instance, unit):
    """The encoder's (4, rows, cols) input as it was built from a one-hot image.

    The instance becomes a full-size image of obstacles, one-hot start and
    one-hot goal; the goal-distance channel is found again from the goal
    plane's peak, the four channels are zero-padded to a multiple of
    s * unit, and blocks of s reduce by mean (obstacles, goal distance) or
    by max of the nonzero cells (start, goal).
    """
    from gridplan.classical import octile_matrix
    from gridplan.encoder import pool_factor
    from gridplan.grid import Coord

    grid = instance.grid
    x = np.zeros((3,) + grid.shape)
    x[0] = grid.occupancy
    x[1][instance.start] = 1.0
    x[2][instance.goal] = 1.0
    height, width = x.shape[1], x.shape[2]
    goal = Coord(*divmod(int(np.argmax(x[2])), width))
    distance = (octile_matrix((height, width), goal) / (height + width))[None]
    s = pool_factor(height, width)
    pad_r = (-height) % (s * unit)
    pad_c = (-width) % (s * unit)
    x = np.concatenate([x, distance])
    x = np.pad(x, ((0, 0), (0, pad_r), (0, pad_c)))
    if s > 1:
        rows, cols = x.shape[1] // s, x.shape[2] // s
        coarse = np.zeros((4, rows, cols))
        coarse[[0, 3]] = x[[0, 3]].reshape(2, rows, s, cols, s).mean(axis=(2, 4))
        plane, r, c = np.nonzero(x[1:3])
        np.maximum.at(coarse, (plane + 1, r // s, c // s), x[1:3][plane, r, c])
        x = coarse
    return x


def per_step_view(tape):
    """selected, starts, cells and scores: a finished SelectionTape per step.

    selected[t] is expanded[t], and the cells open at step t are
    cells[starts[t]:starts[t + 1]], in the order of their cells' first
    pushes, with their scores at the same positions of scores. They are
    Python lists built from the entries in O(sum of the open-set sizes).
    """
    life = tape.death - tape.birth
    entry = np.repeat(np.arange(life.size), life)
    step = tape.birth[entry] + np.arange(entry.size) - np.repeat(np.cumsum(life) - life, life)
    _, first, which = np.unique(tape.entry_cells, return_index=True, return_inverse=True)
    entry = entry[np.lexsort((first[which][entry], step))]
    starts = np.cumsum(np.bincount(step, minlength=tape.expanded.size))
    return (tape.expanded.tolist(), [0, *starts.tolist()],
            tape.entry_cells[entry].tolist(), tape.entry_scores[entry].tolist())


def same_bytes(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike np.array_equal, -0.0 != +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
