import dataclasses
import heapq
import math
import tracemalloc

import numpy as np
import pytest

from gridplan import autodiff as ad
from gridplan.autodiff import Tensor
from gridplan.classical import (SQRT2, SearchResult, SelectionTape, _biased_search,
                                astar, dijkstra, octile_matrix, weighted_bias)
from gridplan.diffsearch import DiffSearchResult, _with_closed, search
from gridplan.errors import NonFiniteBiasError, ShapeMismatchError, UnreachableGoalError
from gridplan.grid import GENERATOR_KINDS, Coord, GridMap, PlanInstance
from gridplan.training import imperative_loss, supervised_loss

from .helpers import (assert_valid_path, dense_search, dense_selection_grad,
                      distance_field, make_instances, per_step_selection_grad,
                      per_step_view, relative_error, running_sum_selection_grad)


def empty_instance(size, start, goal):
    g = GridMap.from_occupancy(np.zeros((size, size), dtype=np.uint8))
    return PlanInstance(g, Coord(*start), Coord(*goal))


def trace(result):
    return (result.expansion_order, result.path,
            result.closed_matrix.tobytes(), result.cost)


def record_tape(inst, bias=None):
    """The engine's tape of one search, as search() records it."""
    shape = inst.grid.shape
    tape = SelectionTape()
    field = np.zeros(shape) if bias is None else bias - bias.min()
    _biased_search(inst, octile_matrix(shape, inst.goal), field, tape)
    return tape


def open_at(tape, t):
    """Open cells at step t mapped to their scores: the entries alive at t."""
    live = (tape.birth <= t) & (t < tape.death)
    return dict(zip(tape.entry_cells[live].tolist(), tape.entry_scores[live].tolist()))


def oracle_grad(inst, bias, upstream):
    """Dense-oracle gradient of sum_t <sel_t, upstream> and its trace."""
    ref = dense_search(inst.grid.occupancy, inst.start, inst.goal, bias)
    return ref, dense_selection_grad(ref["steps"], upstream, math.sqrt(bias.size))


class TestConfig:
    def test_default_tau_scales_with_map(self):
        # tau = sqrt(H * W): 32 on a 16x64 map, as on a 32x32 one
        occ = np.zeros((16, 64), dtype=np.uint8)
        occ[2:14, 30] = 1
        inst = PlanInstance(GridMap.from_occupancy(occ), Coord(8, 2), Coord(8, 60))
        rng = np.random.default_rng(12)
        values = rng.uniform(0.0, 3.0, size=occ.shape)
        probe = rng.normal(size=occ.shape)
        leaf = Tensor(values.copy(), requires_grad=True)
        ad.inner(search(inst, bias=leaf).closed, Tensor(probe)).backward()
        _, want = oracle_grad(inst, values, probe)
        assert relative_error(leaf.grad, want) < 1e-12

    def test_bias_shape_checked(self):
        inst = empty_instance(8, (0, 0), (7, 7))
        with pytest.raises(ShapeMismatchError):
            search(inst, bias=np.zeros((4, 4)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["one", "all"])
    def test_non_finite_bias_rejected(self, value, where):
        inst = empty_instance(8, (0, 0), (7, 7))
        bias = np.zeros((8, 8))
        if where == "one":
            bias[3, 4] = value
        else:
            bias[:] = value
        for field in (bias, Tensor(bias.copy(), requires_grad=True)):
            with pytest.raises(NonFiniteBiasError):
                search(inst, bias=field)


class TestStateMechanics:
    """The engine's open set, step by step, as its tape records it."""

    def test_expand_start_on_empty_map(self):
        inst = empty_instance(8, (3, 3), (7, 7))
        tape = record_tape(inst)
        assert tape.expanded[0] == 3 * 8 + 3
        h = octile_matrix((8, 8), Coord(7, 7))
        want = {}
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == dc == 0:
                    continue
                step = SQRT2 if dr and dc else 1.0
                want[(3 + dr) * 8 + 3 + dc] = step + h[3 + dr, 3 + dc]
        assert open_at(tape, 1) == want

    def test_closed_neighbor_untouched(self):
        # Between two steps the open set changes only by the selected cell
        # leaving and its not-yet-closed neighbors entering or improving.
        inst = make_instances(1, size=16, seed=5)[0]
        bias = np.random.default_rng(6).uniform(0.0, 8.0, size=(16, 16))
        tape = record_tape(inst, bias)
        closed = set()
        for t in range(tape.expanded.size - 1):
            sel = tape.expanded[t]
            closed.add(sel)
            before, after = open_at(tape, t), open_at(tape, t + 1)
            changed = {i for i in after if before.get(i) != after[i]}
            r, c = divmod(sel, 16)
            assert all(max(abs(i // 16 - r), abs(i % 16 - c)) == 1 for i in changed)
            assert not changed & closed
            assert set(before) - set(after) == {sel}

    def test_single_open_cell_forced(self):
        inst = empty_instance(8, (2, 5), (6, 6))
        tape = record_tape(inst)
        assert open_at(tape, 0) == {2 * 8 + 5: octile_matrix((8, 8), Coord(6, 6))[2, 5]}
        assert tape.expanded[0] == 2 * 8 + 5

    def test_expand_rejects_unopened_cell(self):
        leaf = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ad.selection_sum(leaf, [3], [0, 1], [0.0, 1.0], [0, 0], [1, 1], tau=1.0)

    def test_open_closed_disjoint_throughout(self):
        inst = make_instances(1, size=16, seed=5)[0]
        tape = record_tape(inst)
        selected = tape.expanded.tolist()
        for t, sel in enumerate(selected):
            here = open_at(tape, t)
            assert sel in here
            assert not set(here) & set(selected[:t])
        assert len(set(selected)) == len(selected)


class TestDegeneracyToClassical:
    def test_zero_bias_reproduces_astar_traces(self):
        for inst in make_instances(12, size=32, seed=21):
            assert trace(search(inst)) == trace(astar(inst))

    def test_zero_bias_small_and_large(self):
        for size in (16, 64):
            for inst in make_instances(4, size=size, seed=31):
                assert trace(search(inst)) == trace(astar(inst))

    def test_weighted_bias_reproduces_weighted_astar(self):
        for inst in make_instances(8, size=32, seed=41):
            h = octile_matrix(inst.grid.shape, inst.goal)
            for w in (1.5, 2.0, 3.0):
                assert trace(search(inst, bias=weighted_bias(h, w))) == trace(
                    astar(inst, weight=w)
                )

    def test_costs_match_dijkstra_field(self):
        # With zero bias every closed cell carries its optimal distance: its
        # score when selected is that distance plus the heuristic.
        for inst in make_instances(6, size=24, seed=61):
            field = distance_field(inst.grid.occupancy, inst.start)
            h = octile_matrix(inst.grid.shape, inst.goal)
            tape = record_tape(inst)
            for t, sel in enumerate(tape.expanded.tolist()):
                cell = divmod(sel, 24)
                assert abs(open_at(tape, t)[sel] - (field[cell] + h[cell])) < 1e-9

    def test_zero_bias_result_is_astars_search_result(self):
        # search() returns a SearchResult whose every field equals astar's:
        # the differentiable result adds tensors, never different facts.
        for inst in make_instances(3, size=24, seed=23):
            got, want = search(inst), astar(inst)
            assert isinstance(got, SearchResult)
            for f in dataclasses.fields(SearchResult):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, np.ndarray):
                    assert np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name
            assert got.expansion_order == want.expansion_order

    def test_result_built_after_expansion_order_was_read(self):
        # Reading expansion_order caches it on the instance; building the
        # differentiable result from that instance must still work.
        found = astar(make_instances(1, size=24, seed=24)[0])
        order = found.expansion_order
        closed = Tensor(found.closed_matrix.astype(np.float64))
        res = _with_closed(found, closed)
        assert res.closed is closed
        assert res.expansion_order == order
        for f in dataclasses.fields(SearchResult):
            assert getattr(res, f.name) is getattr(found, f.name), f.name

    def test_empty_corner_to_corner(self):
        res = search(empty_instance(8, (0, 0), (7, 7)))
        assert res.cost == pytest.approx(7 * SQRT2, abs=1e-12)


class TestSoundnessUnderBias:
    def test_random_nonnegative_bias_keeps_paths_sound(self):
        rng = np.random.default_rng(8)
        for inst in make_instances(10, size=24, seed=71):
            bias = rng.uniform(0.0, 10.0, size=inst.grid.shape)
            res = search(inst, bias=bias)
            length = assert_valid_path(
                inst.grid.occupancy, res.path, inst.start, inst.goal
            )
            assert res.cost == length  # discrete accumulation, bit-exact
            assert res.cost >= dijkstra(inst).cost - 1e-9
            assert (res.closed_matrix >= res.path_matrix).all()
            assert res.expansions == int(res.closed_matrix.sum())

    def test_constant_shift_changes_nothing(self):
        inst = make_instances(1, size=24, seed=81)[0]
        rng = np.random.default_rng(9)
        bias = rng.uniform(0.0, 5.0, size=inst.grid.shape)
        base = trace(search(inst, bias=bias))
        for c in (0.1, 1.0, 10.0):
            assert trace(search(inst, bias=bias + c)) == base

    def test_unreachable_goal(self):
        occ = np.zeros((8, 8), dtype=np.uint8)
        occ[:, 4] = 1
        inst = PlanInstance(GridMap.from_occupancy(occ), Coord(0, 0), Coord(0, 7))
        with pytest.raises(UnreachableGoalError):
            search(inst)


class TestGradients:
    @pytest.mark.parametrize("kind,size", [(kind, size) for kind in GENERATOR_KINDS
                                           for size in (20, 64, 128)])
    def test_graph_and_plain_runs_match(self, kind, size):
        # The tape changes only the engine's push function, never its trace.
        # A field in {0, 1, 2} makes many scores tie, so the (h, index)
        # tie-break decides many selections.
        inst = make_instances(1, size=size, seed=101, kinds=(kind,))[0]
        rng = np.random.default_rng(3)
        for values in (rng.uniform(0.0, 4.0, size=inst.grid.shape),
                       rng.integers(0, 3, size=inst.grid.shape).astype(np.float64)):
            plain = search(inst, bias=values)
            leaf = Tensor(values.copy(), requires_grad=True)
            graph = search(inst, bias=leaf)
            assert trace(plain) == trace(graph)
            assert np.array_equal(graph.closed.data, graph.closed_matrix.astype(float))

    def test_only_closed_carries_gradient(self):
        inst = make_instances(1, size=16, seed=111)[0]
        leaf = Tensor(np.random.default_rng(4).uniform(0.0, 4.0, size=inst.grid.shape),
                      requires_grad=True)
        res = search(inst, bias=leaf)
        assert res.closed.requires_grad
        assert [f.name for f in dataclasses.fields(DiffSearchResult)
                if isinstance(getattr(res, f.name), Tensor)] == ["closed"]

    def test_plain_difference_sum_cancels_to_zero_gradient(self):
        # sum(C - mu) sends one flat upstream value to every cell of each
        # selection; the normalized selection backward centers that away.
        # training.area_loss masks closed with the path instead, so its
        # upstream is not flat.
        inst = make_instances(1, size=16, seed=111)[0]
        rng = np.random.default_rng(4)
        leaf = Tensor(rng.uniform(0.0, 4.0, size=inst.grid.shape),
                      requires_grad=True)
        res = search(inst, bias=leaf)
        # with mu a constant, sum(C - mu) differs from <C, 1> by a constant
        ad.inner(res.closed, Tensor(np.ones(inst.grid.shape))).backward()
        assert leaf.grad is not None
        # cancellation is exact in reals; floats leave sub-1e-12 residue
        assert np.abs(leaf.grad).max() < 1e-12

    def test_area_loss_carries_gradient_to_bias(self):
        from gridplan.training import area_loss

        inst = make_instances(1, size=16, seed=111)[0]
        rng = np.random.default_rng(4)
        leaf = Tensor(rng.uniform(0.0, 4.0, size=inst.grid.shape),
                      requires_grad=True)
        res = search(inst, bias=leaf)
        area_loss(res.closed, res.path_matrix).backward()
        assert leaf.grad is not None
        assert np.any(leaf.grad != 0.0)

    def test_combined_loss_carries_gradient_to_bias(self):
        inst = make_instances(1, size=16, seed=111)[0]
        rng = np.random.default_rng(4)
        leaf = Tensor(rng.uniform(0.0, 4.0, size=inst.grid.shape),
                      requires_grad=True)
        res = search(inst, bias=leaf)
        imperative_loss(res, 1.0, 1.0).backward()
        assert leaf.grad is not None
        assert np.any(leaf.grad != 0.0)

    def test_gradient_invariant_to_constant_bias_shift(self):
        inst = make_instances(1, size=16, seed=131)[0]
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 4.0, size=inst.grid.shape)
        grads = []
        for shift in (0.0, 7.0):
            leaf = Tensor(values + shift, requires_grad=True)
            imperative_loss(search(inst, bias=leaf), 1.0, 1.0).backward()
            grads.append(leaf.grad.copy())
        assert np.allclose(grads[0], grads[1], atol=1e-9)

    def test_no_grad_context_suppresses_graph(self):
        inst = make_instances(1, size=16, seed=121)[0]
        leaf = Tensor(np.zeros(inst.grid.shape), requires_grad=True)
        with ad.no_grad():
            res = search(inst, bias=leaf)
        assert not res.closed.requires_grad


def oracle_cases():
    """Random fields on 32x32 maps of every kind and on 64x64 mazes and rooms."""
    rng = np.random.default_rng(17)
    cases = [(inst, rng.uniform(0.0, 5.0, size=inst.grid.shape))
             for inst in make_instances(3, size=32, seed=141)]
    cases += [(inst, rng.uniform(0.0, 5.0, size=inst.grid.shape))
              for inst in make_instances(2, size=64, seed=151, kinds=("maze", "rooms"))]
    return cases


class TestDenseOracle:
    """Gradients of the fused selection op against the dense matrix form."""

    @pytest.mark.parametrize("mode", ["imperative", "supervised"])
    def test_loss_gradients_match(self, mode):
        for inst, values in oracle_cases():
            leaf = Tensor(values.copy(), requires_grad=True)
            res = search(inst, bias=leaf)
            if mode == "imperative":
                imperative_loss(res, 1.0, 1.0).backward()
                upstream = 1.0 - res.path_matrix
            else:
                label = dijkstra(inst).path_matrix
                supervised_loss(res, label).backward()
                upstream = np.sign(res.closed_matrix - label.astype(float)) / label.size
            ref, want = oracle_grad(inst, values, upstream)
            assert list(res.expansion_order) == ref["order"]
            assert [tuple(c) for c in res.path] == ref["path"]
            assert res.cost == ref["cost"]
            assert relative_error(leaf.grad, want) < 1e-12


def test_gradient_search_memory_stays_far_below_a_grid_per_expansion():
    inst = next(i for i in make_instances(12, size=64, seed=161, kinds=("maze",))
                if astar(i).expansions > 400)
    leaf = Tensor(np.random.default_rng(2).uniform(0.0, 5.0, size=(64, 64)),
                  requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = search(inst, bias=leaf)
        imperative_loss(res, 1.0, 1.0).backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_expansion_grids = res.expansions * 64 * 64 * 8
    assert peak < per_expansion_grids / 10, (peak, res.expansions)


def backward_against_per_step(inst, values, mode):
    """The search's bias gradient, the per-step backward's, and the tape."""
    leaf = Tensor(values.copy(), requires_grad=True)
    res = search(inst, bias=leaf)
    if mode == "imperative":
        imperative_loss(res, 1.0, 1.0).backward()
        upstream = 1.0 - res.path_matrix
    else:
        label = dijkstra(inst).path_matrix
        supervised_loss(res, label).backward()
        upstream = np.sign(res.closed_matrix - label.astype(float)) / label.size
    tape = record_tape(inst, values)
    tau = math.sqrt(values.size)
    want = per_step_selection_grad(*per_step_view(tape), tau, upstream)
    return leaf.grad, want, running_sum_selection_grad(tape, tau, upstream)


class TestEventBackward:
    """The backward over entry lifetimes against the per-step backward."""

    @pytest.mark.parametrize("mode", ["imperative", "supervised"])
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("size", [64, 128])
    def test_matches_per_step_backward(self, size, kind, mode):
        rng = np.random.default_rng(size)
        for inst in make_instances(2, size=size, seed=171, kinds=(kind,)):
            values = rng.uniform(0.0, 5.0, size=inst.grid.shape)
            got, want, _ = backward_against_per_step(inst, values, mode)
            assert relative_error(got, want) <= 1e-12

    @pytest.mark.parametrize("mode", ["imperative", "supervised"])
    def test_rebased_sums_hold_where_running_sums_drift(self, mode):
        # On this maze (7,628 expansions) open-set sums kept as one running
        # sum of births and deaths drift past 1e-11; re-basing them every
        # few steps keeps the backward within 1e-12.
        inst = make_instances(1, size=128, seed=4, kinds=("maze",))[0]
        values = np.random.default_rng(4).uniform(0.0, 5.0, size=(128, 128))
        got, want, running = backward_against_per_step(inst, values, mode)
        assert relative_error(running, want) > 1e-11
        assert relative_error(got, want) <= 1e-12


def test_tape_holds_one_entry_per_push(monkeypatch):
    # The tape grows with the pushes, not with the open set summed over
    # the expansions, which on rooms at 128 is tens of times larger.
    inst = make_instances(1, size=128, seed=161, kinds=("rooms",))[0]
    pushes = []
    push = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", lambda heap, item: (pushes.append(item), push(heap, item)))
    tape = record_tape(inst, np.random.default_rng(161).uniform(0.0, 5.0, size=(128, 128)))
    # the start enters the heap through the same push as every other entry
    assert tape.entry_cells.size == tape.entry_scores.size == len(pushes)
    assert tape.entry_cells.size < per_step_view(tape)[1][-1] / 10
