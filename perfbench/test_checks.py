"""Self-tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_checks.py -q

The oracle must give known costs on hand-made maps, and each check must
reject a deliberately broken result, so that none of them passes vacuously.
"""

from __future__ import annotations

import math
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

SQRT2 = math.sqrt(2.0)


def grid_of(rows: list[str]) -> np.ndarray:
    return np.array([[ch == "#" for ch in row] for row in rows], dtype=np.uint8)


@pytest.mark.parametrize("rows, start, goal, expected", [
    ([".", "."], (0, 0), (1, 0), 1.0),
    (["...", "...", "..."], (0, 0), (2, 2), 2 * SQRT2),
    (["...", "...", "..."], (0, 0), (2, 1), 1 + SQRT2),
    # Diagonal past two blocked corners is allowed.
    ([".#", "#."], (0, 0), (1, 1), SQRT2),
    # A wall with one gap at the bottom: down to the gap and back up.
    (["..#..", "..#..", "..#..", "..#..", "....."], (0, 0), (0, 4), 4 + 4 * SQRT2),
    (["..#..", "..#..", "..#.."], (0, 0), (0, 4), math.inf),
])
def test_oracle_gives_known_costs(rows, start, goal, expected):
    got = checks.shortest_costs(grid_of(rows), start)[goal]
    assert got == pytest.approx(expected) if math.isfinite(expected) else got == expected


OPEN = grid_of(["....", "....", "...."])
GOOD = [(0, 0), (1, 1), (2, 2), (2, 3)]
GOOD_COST = 2 * SQRT2 + 1


def test_check_path_accepts_a_good_path():
    assert checks.check_path(OPEN, GOOD, (0, 0), (2, 3), GOOD_COST) == []


@pytest.mark.parametrize("path, cost", [
    ([(0, 0), (2, 2), (2, 3)], GOOD_COST),            # gap of two cells
    ([(0, 0), (1, 1), (2, 2)], 2 * SQRT2),            # stops short of the goal
    ([(0, 1), (1, 1), (2, 2), (2, 3)], GOOD_COST),    # wrong start
    (GOOD, GOOD_COST + 1.0),                           # cost off by one step
    (GOOD, GOOD_COST - SQRT2 + 1.0),                   # diagonal priced straight
    ([], 0.0),
])
def test_check_path_rejects_broken_paths(path, cost):
    assert checks.check_path(OPEN, path, (0, 0), (2, 3), cost)


def test_check_path_rejects_a_blocked_cell():
    walled = grid_of(["....", ".#..", "...."])
    assert checks.check_path(walled, GOOD, (0, 0), (2, 3), GOOD_COST)


def test_search_effort_counts_the_cells_astar_must_expand():
    # Open 5x5, straight run along row 0: only the five row cells qualify.
    assert checks.search_effort(np.zeros((5, 5), dtype=np.uint8), (0, 0), (0, 4)) == 5
    walled = grid_of(["..#..", "..#..", "..#..", "..#..", "....."])
    assert checks.search_effort(walled, (0, 0), (0, 4)) > 5


def test_distance_rank_is_the_share_no_farther_than_the_goal():
    corridor = grid_of([".....", "#####"])
    assert checks.distance_rank(corridor, (0, 0), (0, 2)) == pytest.approx(3 / 5)
    assert checks.distance_rank(corridor, (0, 0), (0, 4)) == 1.0


def test_optimality_and_bound_checks_reject_longer_costs():
    assert checks.check_optimal(5.0, 5.0) == []
    assert checks.check_optimal(5.0 + 1e-12, 5.0) == []
    assert checks.check_optimal(6.0, 5.0)
    assert checks.check_bounded(10.0, 5.0, 2.0) == []
    assert checks.check_bounded(10.5, 5.0, 2.0)


def test_check_trace_rejects_permuted_and_cut_traces():
    order = [(0, 0), (0, 1), (1, 1), (2, 2)]
    assert checks.check_trace(order, list(order)) == []
    swapped = [order[0], order[2], order[1], order[3]]
    assert checks.check_trace(swapped, order)
    assert checks.check_trace(order[:-1], order)


def test_check_loss_rejects_a_miscounted_loss():
    path = [(0, 0), (1, 1), (1, 2)]
    cost = SQRT2 + 1.0
    assert checks.check_loss(7.0 + cost, 10, path, 1.0, 1.0) == []
    assert checks.check_loss(8.0 + cost, 10, path, 1.0, 1.0)
    assert checks.check_loss(math.nan, 10, path, 1.0, 1.0)


def test_check_coverage_rejects_a_span_its_children_do_not_account_for():
    assert checks.check_coverage(1.0, 0.97, 0.2) == []
    assert checks.check_coverage(1.0, 0.7, 0.2)
    assert checks.check_coverage(1.0, 1.1, 0.2)


def _instances(count, size, kinds=("random-blocks", "maze", "rooms")):
    from gridplan import grid
    return [grid.sample_instance(grid.generate_map(kinds[i % len(kinds)], size, size,
                                                   seed=i), seed=100 + i)
            for i in range(count)]


def test_best_first_oracle_matches_classical_astar_and_weighted_astar():
    from gridplan import classical
    for inst in _instances(6, 24):
        occ = inst.grid.occupancy
        h = checks.octile_field(occ.shape, inst.goal)
        for weight in (1.0, 2.0):
            ref = classical.astar(inst, weight=weight)
            order, path, cost = checks.best_first_trace(occ, inst.start, inst.goal,
                                                        (weight - 1.0) * h)
            assert checks.check_trace(order, ref.expansion_order) == []
            assert path == [tuple(c) for c in ref.path] and cost == ref.cost


def test_best_first_oracle_ignores_a_constant_shift_and_follows_a_bias():
    for inst in _instances(3, 24):
        occ = inst.grid.occupancy
        zero = np.zeros(occ.shape)
        base = checks.best_first_trace(occ, inst.start, inst.goal, zero)
        assert checks.best_first_trace(occ, inst.start, inst.goal, zero + 3.7) == base
    # A wall of bias in front of an open start sends the search around it.
    occ = np.zeros((5, 5), dtype=np.uint8)
    bias = np.zeros((5, 5))
    bias[1:4, 1] = 50.0
    plain = checks.best_first_trace(occ, (2, 0), (2, 4), np.zeros((5, 5)))
    steered = checks.best_first_trace(occ, (2, 0), (2, 4), bias)
    assert plain[1] == [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4)]
    assert all(cell[1] != 1 or not 1 <= cell[0] <= 3 for cell in steered[1])
    assert checks.check_trace(steered[0], plain[0])


def test_tracer_wraps_every_binding_and_restores_them():
    def work(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        return caller.work(x) * 2

    home = types.ModuleType("home")
    caller = types.ModuleType("caller")
    home.work = caller.work = work
    home.outer = outer
    tracer = Tracer([home, caller])
    tracer.wrap_function(home, "work")
    tracer.wrap_function(home, "outer")
    assert caller.work is not work
    assert home.outer(1) == 4
    names = [s.name for s in tracer.spans]
    assert names == ["home.outer", "home.work"]
    assert tracer.spans[1].parent == 0
    assert tracer.self_seconds("home.outer")[0] < tracer.spans[0].seconds
    assert tracer.covered_seconds(0) == pytest.approx(tracer.spans[1].seconds)
    tracer.uninstall()
    assert caller.work is work and home.work is work and home.outer is outer


def test_tracer_keep_sees_each_call_and_its_result():
    home = types.ModuleType("home")
    home.double = lambda x: 2 * x
    seen = []
    tracer = Tracer([home])
    tracer.wrap_function(home, "double", keep=lambda args, kwargs, result: seen.append(
        (args, result)))
    assert home.double(3) == 6 and home.double(4) == 8
    assert seen == [((3,), 6), ((4,), 8)]
    tracer.uninstall()
