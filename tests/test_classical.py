import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan import classical, diffsearch
from gridplan.classical import (
    NEIGHBOR_OFFSETS,
    SQRT2,
    SelectionTape,
    _biased_search,
    _blocked_table,
    _forced_dirs,
    _guards,
    astar,
    dijkstra,
    jps,
    octile,
    octile_matrix,
    weighted_bias,
)
from gridplan.errors import UnreachableGoalError
from gridplan.grid import (GENERATOR_KINDS, Coord, GridMap, PlanInstance, generate_map,
                           sample_instance)

from .helpers import (
    assert_valid_path,
    dense_search,
    distance_field,
    flood_fill,
    forced_dirs_reference,
    make_instances,
    per_step_view,
)
from .test_golden import CASES as GOLDEN_CASES
from .test_golden import _case_seed

PLANNERS = [dijkstra, astar, jps]


def empty_instance(size, start, goal):
    g = GridMap.from_occupancy(np.zeros((size, size), dtype=np.uint8))
    return PlanInstance(g, Coord(*start), Coord(*goal))


class TestOctile:
    def test_octile_examples(self):
        assert octile(Coord(0, 0), Coord(0, 5)) == 5
        assert octile(Coord(0, 0), Coord(3, 3)) == pytest.approx(3 * SQRT2)
        assert octile(Coord(0, 0), Coord(2, 5)) == pytest.approx(3 + 2 * SQRT2)

    def test_matrix_matches_scalar(self):
        goal = Coord(3, 7)
        mat = octile_matrix((6, 9), goal)
        for r in range(6):
            for c in range(9):
                assert mat[r, c] == octile(Coord(r, c), goal)

    def test_weighted_bias(self):
        h = octile_matrix((5, 5), Coord(2, 2))
        assert np.array_equal(weighted_bias(h, 1.0), np.zeros((5, 5)))
        assert np.array_equal(weighted_bias(h, 3.0), 2.0 * h)

    def test_admissible_and_consistent(self):
        # h never exceeds the true remaining cost, on an obstacle map.
        g = generate_map("random-blocks", 24, 24, density=0.3, seed=4)
        free = np.argwhere(g.occupancy == 0)
        goal = Coord(*free[-1])
        true_dist = distance_field(g.occupancy, goal)
        h = octile_matrix(g.shape, goal)
        reachable = np.isfinite(true_dist)
        assert (h[reachable] <= true_dist[reachable] + 1e-9).all()


class TestTrivialInstances:
    @pytest.mark.parametrize("planner", PLANNERS)
    def test_pure_diagonal(self, planner):
        res = planner(empty_instance(8, (0, 0), (7, 7)))
        assert res.cost == pytest.approx(7 * SQRT2, abs=1e-12)

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_adjacent_goal(self, planner):
        assert planner(empty_instance(8, (3, 3), (3, 4))).cost == pytest.approx(1.0)
        assert planner(empty_instance(8, (3, 3), (4, 4))).cost == pytest.approx(SQRT2)

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_straight_line(self, planner):
        res = planner(empty_instance(8, (2, 0), (2, 7)))
        assert res.cost == pytest.approx(7.0)

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_unreachable(self, planner):
        occ = np.zeros((8, 8), dtype=np.uint8)
        occ[:, 4] = 1
        inst = PlanInstance(GridMap.from_occupancy(occ), Coord(0, 0), Coord(0, 7))
        with pytest.raises(UnreachableGoalError):
            planner(inst)

    def test_weight_below_one_rejected(self):
        with pytest.raises(ValueError):
            astar(empty_instance(8, (0, 0), (7, 7)), weight=0.5)


@pytest.fixture(scope="module")
def oracle_instances():
    return make_instances(24, size=32, seed=50)


@pytest.fixture(scope="module")
def weighted_instances():
    return make_instances(30, size=32, seed=300)


class TestMapEdges:
    """Flat indices must never connect the last column to the next row's first."""

    def test_no_step_across_a_row_edge(self):
        # Only (0, 2) and (1, 0) are free: adjacent as flat indices 2 and 3,
        # but not on the grid.
        occ = np.ones((3, 3), dtype=np.uint8)
        occ[0, 2] = occ[1, 0] = 0
        inst = PlanInstance(GridMap.from_occupancy(occ), Coord(0, 2), Coord(1, 0))
        for planner in (*PLANNERS, diffsearch.search):
            with pytest.raises(UnreachableGoalError):
                planner(inst)
        back = PlanInstance(inst.grid, inst.goal, inst.start)
        for planner in (*PLANNERS, diffsearch.search):
            with pytest.raises(UnreachableGoalError):
                planner(back)

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_two_by_two_map(self, planner):
        occ = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        res = planner(PlanInstance(GridMap.from_occupancy(occ), Coord(0, 0), Coord(1, 1)))
        assert res.path == (Coord(0, 0), Coord(1, 1))
        assert res.cost == SQRT2

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_border_cells_of_non_square_map(self, planner):
        # 5 x 11 with a wall that forces the route along the bottom row.
        occ = np.zeros((5, 11), dtype=np.uint8)
        occ[:4, 5] = 1
        corners = [Coord(0, 0), Coord(0, 10), Coord(4, 0), Coord(4, 10)]
        for start in corners:
            for goal in corners:
                if start == goal:
                    continue
                inst = PlanInstance(GridMap.from_occupancy(occ), start, goal)
                truth = distance_field(occ, start)[goal]
                res = planner(inst)
                assert abs(res.cost - truth) < 1e-9
                assert_valid_path(occ, res.path, start, goal)


class TestAgainstOracle:
    @pytest.fixture
    def instances(self, oracle_instances):
        return oracle_instances

    def test_costs_match_relaxation_oracle(self, instances):
        for inst in instances:
            truth = distance_field(inst.grid.occupancy, inst.start)[inst.goal]
            for planner in PLANNERS:
                res = planner(inst)
                assert abs(res.cost - truth) < 1e-9, planner.__name__

    def test_paths_are_valid_and_priced_correctly(self, instances):
        for inst in instances:
            for planner in PLANNERS:
                res = planner(inst)
                length = assert_valid_path(
                    inst.grid.occupancy, res.path, inst.start, inst.goal
                )
                assert abs(length - res.cost) < 1e-9
                assert len(set(res.path)) == len(res.path)

    def test_result_bookkeeping(self, instances):
        for inst in instances[:8]:
            for planner in PLANNERS:
                res = planner(inst)
                assert res.expansions == int(res.closed_matrix.sum())
                assert len(res.expansion_order) == res.expansions
                # every path cell was visited
                assert (res.closed_matrix >= res.path_matrix).all()


class TestWeightedAstar:
    @pytest.fixture
    def instances(self, weighted_instances):
        return weighted_instances

    def test_cost_never_below_optimal(self, instances):
        for inst in instances:
            base = astar(inst).cost
            for w in (1.5, 2.0, 3.0):
                assert astar(inst, weight=w).cost >= base - 1e-9

    def test_weight_usually_cuts_expansions(self, instances):
        wins = sum(
            astar(inst, weight=2.0).expansions <= astar(inst).expansions
            for inst in instances
        )
        assert wins >= 0.9 * len(instances)

    def test_plain_astar_beats_dijkstra_expansions(self):
        inst = empty_instance(32, (3, 3), (28, 20))
        assert astar(inst).expansions <= dijkstra(inst).expansions


class TestJumpPointSearch:
    def test_empty_map_pops_far_below_astar(self):
        inst = empty_instance(64, (1, 1), (62, 55))
        a = astar(inst)
        j = jps(inst)
        assert abs(j.cost - a.cost) < 1e-9
        assert j.jump_pops < a.expansions / 4

    def test_optimal_on_mazes(self):
        for seed in range(8):
            g = generate_map("maze", 33, 33, seed=seed)
            free = np.argwhere(g.occupancy == 0)
            inst = PlanInstance(g, Coord(*free[0]), Coord(*free[-1]))
            assert abs(jps(inst).cost - dijkstra(inst).cost) < 1e-9

    def test_scan_area_recorded(self):
        inst = empty_instance(32, (0, 0), (31, 31))
        res = jps(inst)
        assert res.jump_pops is not None
        assert res.jump_pops <= res.expansions
        assert res.expansions == int(res.closed_matrix.sum())


def tape_search(inst):
    """A tape-recording biased search under a seeded random bias."""
    bias = np.random.default_rng(7).uniform(0.0, 3.0, size=inst.grid.shape)
    return _biased_search(inst, octile_matrix(inst.grid.shape, inst.goal), bias,
                          SelectionTape())


class TestResultTables:
    def test_order_converted_only_when_read(self, monkeypatch):
        calls = []
        coords = classical._coords

        def counting(rows, cols):
            calls.append(len(rows))
            return coords(rows, cols)

        monkeypatch.setattr(classical, "_coords", counting)
        inst = make_instances(1, size=32, seed=1400)[0]
        for planner in PLANNERS:
            calls.clear()
            res = planner(inst)
            assert calls == [len(res.path)], planner.__name__
            order = res.expansion_order
            assert calls == [len(res.path), res.expansions], planner.__name__
            assert res.expansion_order is order
            assert len(calls) == 2

    def test_results_compare_without_raising(self):
        # The numpy fields have no single truth value, so a generated
        # field-by-field __eq__ would raise here.
        inst = make_instances(1, size=16, seed=1430)[0]
        for planner in (*PLANNERS, diffsearch.search):
            a, b = planner(inst), planner(inst)
            assert a == a, planner.__name__
            assert isinstance(a == b, bool), planner.__name__

    def test_closed_matrix_is_the_scatter_of_the_order(self):
        planners = {"astar": astar, "wastar:2": lambda i: astar(i, weight=2.0),
                    "dijkstra": dijkstra, "jps": jps, "tape": tape_search}
        for k, kind in enumerate(GENERATOR_KINDS):
            for width, height, density in ((40, 23, 0.25), (21, 38, 0.55), (30, 30, 0.45)):
                grid = generate_map(kind, width, height, density=density, seed=1410 + k)
                inst = sample_instance(grid, seed=1420 + k)
                for name, planner in planners.items():
                    res = planner(inst)
                    want = np.zeros(grid.shape, dtype=np.uint8)
                    for cell in res.expansion_order:
                        want[cell] = 1
                    assert res.closed_matrix.dtype == np.uint8, name
                    assert np.array_equal(res.closed_matrix, want), (kind, width, name)
                    assert res.expansions == len(res.expansion_order) \
                        == int(res.closed_matrix.sum()), (kind, width, name)


class TestPathGeometry:
    def test_no_nonconsecutive_adjacency(self):
        # Backtracked paths from offer-based searches never place two
        # non-consecutive cells next to each other; the path-length loss
        # identity used by the trainer depends on this.
        for inst in make_instances(20, size=32, seed=900):
            for planner in (astar, dijkstra, lambda i: astar(i, weight=2.0)):
                path = planner(inst).path
                for i in range(len(path)):
                    for j in range(i + 2, len(path)):
                        dr = abs(path[i].row - path[j].row)
                        dc = abs(path[i].col - path[j].col)
                        assert max(dr, dc) > 1


@st.composite
def small_instances(draw):
    h = draw(st.integers(4, 9))
    w = draw(st.integers(4, 9))
    occ = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=w, max_size=w),
                min_size=h,
                max_size=h,
            )
        ),
        dtype=np.uint8,
    )
    free = np.argwhere(occ == 0)
    if len(free) < 2:
        occ[0, 0] = occ[h - 1, w - 1] = 0
        free = np.argwhere(occ == 0)
    i = draw(st.integers(0, len(free) - 1))
    j = draw(st.integers(0, len(free) - 2))
    if j >= i:
        j += 1
    grid = GridMap.from_occupancy(occ)
    return PlanInstance(grid, Coord(*free[i]), Coord(*free[j]))


class TestRandomizedProperties:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_planners_agree_with_reachability(self, inst):
        reachable = flood_fill(inst.grid.occupancy, inst.start)[inst.goal]
        if not reachable:
            for planner in PLANNERS:
                with pytest.raises(UnreachableGoalError):
                    planner(inst)
            return
        truth = distance_field(inst.grid.occupancy, inst.start)[inst.goal]
        for planner in PLANNERS:
            res = planner(inst)
            assert abs(res.cost - truth) < 1e-9
            assert_valid_path(inst.grid.occupancy, res.path, inst.start, inst.goal)


class TestForcedNeighbours:
    """The scans' yes/no forced-neighbour test and _forced_dirs, on every
    free cell (border cells included) of the golden maps, in all 8 travel
    directions, against the independent reference."""

    @pytest.mark.parametrize("kind,h,w", GOLDEN_CASES,
                             ids=[f"{k}-{h}x{w}" for k, h, w in GOLDEN_CASES])
    def test_every_free_cell_and_direction(self, kind, h, w):
        occ = generate_map(kind, w, h, seed=_case_seed(kind, h, w)).occupancy
        blocked = _blocked_table(occ)
        pw = w + 2
        free = np.argwhere(occ == 0).tolist()
        for dr, dc, _ in NEIGHBOR_OFFSETS:
            guards = _guards(pw, dr, dc)
            (wall_a, turn_a), (wall_b, turn_b) = guards
            for r, c in free:
                p = (r + 1) * pw + c + 1
                want = forced_dirs_reference(occ, r, c, dr, dc)
                # The test jps's scans write inline.
                scan_says = bool((blocked[p + wall_a] and not blocked[p + turn_a])
                                 or (blocked[p + wall_b] and not blocked[p + turn_b]))
                listed = _forced_dirs(blocked, p, guards)
                assert scan_says == bool(listed) == bool(want), (r, c, dr, dc)
                assert listed == [tr * pw + tc for tr, tc in want], (r, c, dr, dc)


@st.composite
def edge_shape_cases(draw):
    """A 2xN, Nx2, 2x2 or odd non-square map, obstacles often on its border,
    with a start and goal and a random bias field (sometimes with ties).

    2xN and Nx2 are the thinnest maps GridMap accepts; it refuses 1xN.
    """
    h, w = draw(st.one_of(
        st.tuples(st.just(2), st.integers(3, 12)),
        st.tuples(st.integers(3, 12), st.just(2)),
        st.just((2, 2)),
        st.tuples(st.sampled_from((3, 5, 7, 9)), st.sampled_from((3, 5, 7, 9)))
        .filter(lambda shape: shape[0] != shape[1]),
    ))
    occ = np.array(draw(st.lists(st.integers(0, 1), min_size=h * w, max_size=h * w)),
                   dtype=np.uint8).reshape(h, w)
    wall = draw(st.sampled_from(("none", "top", "bottom", "left", "right")))
    if wall != "none":
        occ[{"top": (0, slice(None)), "bottom": (-1, slice(None)),
             "left": (slice(None), 0), "right": (slice(None), -1)}[wall]] = 1
    free = np.argwhere(occ == 0)
    if len(free) < 2:
        occ[0, 0] = occ[h - 1, w - 1] = 0
        free = np.argwhere(occ == 0)
    i = draw(st.integers(0, len(free) - 1))
    j = draw(st.integers(0, len(free) - 2))
    j += j >= i
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bias = rng.uniform(-1.0, 3.0, size=(h, w))
    if draw(st.booleans()):
        bias = np.round(bias * 2.0) / 2.0
    inst = PlanInstance(GridMap.from_occupancy(occ), Coord(*free[i]), Coord(*free[j]))
    return inst, bias


class TestEngineOnEdgeShapes:
    @given(edge_shape_cases())
    @settings(max_examples=150, deadline=None)
    def test_engine_matches_dense_oracle(self, case):
        inst, bias = case
        occ = inst.grid.occupancy
        h_mat = octile_matrix(occ.shape, inst.goal)
        shifted = bias - bias.min()
        planners = (astar, lambda i: astar(i, weight=2.0), dijkstra, jps)
        if not flood_fill(occ, inst.start)[inst.goal]:
            for planner in (*planners, lambda i: _biased_search(i, h_mat, shifted)):
                with pytest.raises(UnreachableGoalError):
                    planner(inst)
            return

        tape = SelectionTape()
        res = _biased_search(inst, h_mat, shifted, tape)
        ref = dense_search(occ, inst.start, inst.goal, bias)
        assert [tuple(c) for c in res.expansion_order] == ref["order"]
        assert [tuple(c) for c in res.path] == ref["path"]
        assert repr(res.cost) == repr(ref["cost"])
        want_closed = np.zeros(occ.shape, dtype=np.uint8)
        for cell in ref["order"]:
            want_closed[cell] = 1
        assert res.closed_matrix.dtype == np.uint8
        assert np.array_equal(res.closed_matrix, want_closed)

        width = occ.shape[1]
        selected, starts, tape_cells, scores = per_step_view(tape)
        assert selected == [r * width + c for r, c in ref["order"]]
        assert starts[0] == 0 and len(starts) == len(ref["steps"]) + 1
        assert all(type(i) is int for i in selected + tape_cells)
        for t, (open_mask, score, _) in enumerate(ref["steps"]):
            lo, hi = starts[t], starts[t + 1]
            cells = tape_cells[lo:hi]
            assert sorted(cells) == np.flatnonzero(open_mask).tolist()
            assert (np.asarray(scores[lo:hi], dtype=np.float64).tobytes()
                    == score.ravel()[cells].tobytes())

        for planner in planners:
            found = planner(inst)
            assert found.expansions == len(found.expansion_order) \
                == int(found.closed_matrix.sum())
        assert abs(jps(inst).cost - dijkstra(inst).cost) < 1e-9


def assert_engine_matches_dense(inst, bias):
    """The engine against dense_search: order, path, repr(cost), each step's
    open cells and scores, and each expansion's pushes in row-major order.

    The last is what fixes a tape's push order: the engine offers the
    neighbours in NEIGHBOR_OFFSETS order, which is row-major. An expansion
    pushes every cell whose score it changed, and only open neighbours; a
    g lowered by one ulp may leave a score unchanged, so those two sets
    bound the pushes rather than fix them. Returns the tape.
    """
    occ = inst.grid.occupancy
    width = occ.shape[1]
    tape = SelectionTape()
    res = _biased_search(inst, octile_matrix(occ.shape, inst.goal), bias - bias.min(), tape)
    ref = dense_search(occ, inst.start, inst.goal, bias)
    assert [tuple(c) for c in res.expansion_order] == ref["order"]
    assert [tuple(c) for c in res.path] == ref["path"]
    assert repr(res.cost) == repr(ref["cost"])
    selected, starts, tape_cells, scores = per_step_view(tape)
    assert selected == [r * width + c for r, c in ref["order"]]
    for t, (open_mask, score, _) in enumerate(ref["steps"]):
        cells = tape_cells[starts[t]:starts[t + 1]]
        assert sorted(cells) == np.flatnonzero(open_mask).tolist()
        assert (np.asarray(scores[starts[t]:starts[t + 1]]).tobytes()
                == score.ravel()[cells].tobytes())
    for t, ((_, before, _), (after_open, after, _)) in enumerate(
            zip(ref["steps"], ref["steps"][1:])):
        # step t's pushes open their entries at step t + 1
        here = tape.entry_cells[tape.birth == t + 1].tolist()
        assert here == sorted(set(here)), t
        r, c = divmod(selected[t], width)
        assert all(after_open.flat[q] and max(abs(q // width - r), abs(q % width - c)) == 1
                   for q in here), t
        assert set(np.flatnonzero(after_open & (after != before)).tolist()) <= set(here), t
    return tape


INTEGER_FIELD_CASES = [(kind, h, w) for h, w in ((17, 23), (32, 32))
                       for kind in GENERATOR_KINDS]


class TestEngineTiesAndSupersededEntries:
    """Heap entries are (score, h, p) and g is read at pop; ties and
    superseded entries must still pop as the dense selection rule does."""

    @pytest.mark.parametrize("kind,h,w", INTEGER_FIELD_CASES,
                             ids=[f"{k}-{h}x{w}" for k, h, w in INTEGER_FIELD_CASES])
    def test_integer_valued_fields(self, kind, h, w):
        # Fields in {0, 1, 2} make many scores tie exactly, so the (h, index)
        # tie-break decides many selections.
        grid = generate_map(kind, w, h, seed=911 + h + w)
        rng = np.random.default_rng(h * w)
        for j in range(3):
            inst = sample_instance(grid, seed=920 + j)
            assert_engine_matches_dense(inst, rng.integers(0, 3, grid.shape).astype(np.float64))

    def test_cell_pushed_twice_before_expansion(self):
        grid = generate_map("rooms", 32, 32, seed=302)
        inst = sample_instance(grid, seed=402)
        tape = assert_engine_matches_dense(inst, np.zeros(grid.shape))
        superseded = [cell for cell in set(tape.expanded.tolist())
                      if np.count_nonzero(tape.entry_cells == cell) > 1]
        assert superseded


class TestWeightCheck:
    @pytest.mark.parametrize("weight", [0.5, math.nan, math.inf, -math.inf])
    def test_non_finite_or_below_one_rejected(self, weight):
        with pytest.raises(ValueError, match="finite and >= 1"):
            astar(empty_instance(8, (0, 0), (7, 7)), weight=weight)
        with pytest.raises(ValueError):
            classical.check_weight(weight)

    def test_valid_weight_returned(self):
        assert classical.check_weight(1.0) == 1.0
        assert classical.check_weight(2.5) == 2.5
