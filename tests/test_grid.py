import numpy as np
import pytest

from gridplan.errors import (
    DensityRangeError,
    IllegalCharacterError,
    InvalidDimensionsError,
    MalformedHeaderError,
    NoValidPairError,
    RowLengthError,
)
from gridplan.grid import (
    Coord,
    GridMap,
    PlanInstance,
    free_components,
    generate_map,
    load_map,
    sample_instance,
    save_map,
)

from .helpers import flood_fill

SAMPLE_TEXT = "gridmap v1\n3 4\n....\n.##.\n....\n"


def sample_grid():
    occ = np.zeros((3, 4), dtype=np.uint8)
    occ[1, 1] = occ[1, 2] = 1
    return GridMap.from_occupancy(occ)


class TestGridMap:
    def test_occupancy_is_read_only(self):
        g = sample_grid()
        with pytest.raises(ValueError):
            g.occupancy[0, 0] = 1

    def test_rejects_tiny_maps(self):
        with pytest.raises(InvalidDimensionsError):
            GridMap.from_occupancy(np.zeros((1, 5), dtype=np.uint8))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidDimensionsError):
            GridMap(width=3, height=4, occupancy=np.zeros((3, 4), dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidDimensionsError):
            GridMap.from_occupancy(np.full((4, 4), 2, dtype=np.uint8))

    def test_free_count(self):
        assert sample_grid().free_count() == 10

    def test_equality_and_hash(self):
        a, b = sample_grid(), sample_grid()
        assert a == b
        assert hash(a) == hash(b)


class TestPlanInstance:
    def test_rejects_obstacle_start(self):
        with pytest.raises(ValueError, match="obstacle"):
            PlanInstance(sample_grid(), Coord(1, 1), Coord(0, 0))

    def test_rejects_out_of_bounds_goal(self):
        with pytest.raises(ValueError, match="out of bounds"):
            PlanInstance(sample_grid(), Coord(0, 0), Coord(5, 5))

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError, match="differ"):
            PlanInstance(sample_grid(), Coord(0, 0), Coord(0, 0))

    def test_coerces_tuples(self):
        inst = PlanInstance(sample_grid(), (0, 0), (2, 3))
        assert isinstance(inst.start, Coord) and isinstance(inst.goal, Coord)

    @pytest.mark.parametrize("start", [
        (np.int64(0), np.int64(0)),
        (np.int32(0), 0),
        np.array([0, 0]),
        np.argwhere(sample_grid().occupancy == 0)[0],
    ], ids=["int64", "int32", "array", "argwhere"])
    def test_numpy_integers_become_python_ints(self, start):
        inst = PlanInstance(sample_grid(), start, (2, 3))
        assert inst.start == Coord(0, 0)
        assert all(type(v) is int for v in (*inst.start, *inst.goal))

    @pytest.mark.parametrize("start", [
        (1.5, 2),
        (0.0, 0),
        (True, 0),
        (np.bool_(False), 0),
        (np.float64(0), 0),
        ("0", "0"),
        (0, 0, 0),
        5,
        None,
    ], ids=["float", "integral-float", "bool", "numpy-bool", "numpy-float", "str",
            "triple", "scalar", "none"])
    def test_non_integer_coordinates_rejected(self, start):
        with pytest.raises(ValueError, match="start"):
            PlanInstance(sample_grid(), start, (2, 3))


class TestMapIO:
    def test_save_matches_format_example(self, tmp_path):
        p = tmp_path / "m.txt"
        save_map(sample_grid(), p)
        assert p.read_text() == SAMPLE_TEXT

    def test_load_parses_format_example(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text(SAMPLE_TEXT)
        g = load_map(p)
        assert g == sample_grid()

    @pytest.mark.parametrize("kind", ["random-blocks", "maze", "rooms"])
    def test_round_trip(self, tmp_path, kind):
        g = generate_map(kind, 23, 17, density=0.3, seed=11)
        p = tmp_path / "m.txt"
        save_map(g, p)
        assert load_map(p) == g

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("gridmap v2\n3 4\n....\n.##.\n....\n")
        with pytest.raises(MalformedHeaderError):
            load_map(p)

    def test_bad_dimension_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("gridmap v1\n3 four\n....\n.##.\n....\n")
        with pytest.raises(MalformedHeaderError):
            load_map(p)

    def test_short_row(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("gridmap v1\n3 4\n....\n.##\n....\n")
        with pytest.raises(RowLengthError):
            load_map(p)

    def test_missing_row(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("gridmap v1\n3 4\n....\n.##.\n")
        with pytest.raises(RowLengthError):
            load_map(p)

    def test_illegal_character(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("gridmap v1\n3 4\n....\n.#x.\n....\n")
        with pytest.raises(IllegalCharacterError):
            load_map(p)

    def test_non_ascii_byte(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"gridmap v1\n3 4\n....\n.#\xff.\n....\n")
        with pytest.raises(IllegalCharacterError, match="0xff at line 4, column 3"):
            load_map(p)

    def test_dimensions_below_two_rejected_before_rows(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("gridmap v1\n0 99999999999999999999\n")
        with pytest.raises(InvalidDimensionsError):
            load_map(p)


class TestGenerators:
    @pytest.mark.parametrize("kind", ["random-blocks", "maze", "rooms"])
    def test_deterministic(self, kind):
        a = generate_map(kind, 32, 32, density=0.25, seed=7)
        b = generate_map(kind, 32, 32, density=0.25, seed=7)
        assert a == b

    @pytest.mark.parametrize("kind", ["random-blocks", "maze", "rooms"])
    def test_seed_changes_map(self, kind):
        a = generate_map(kind, 32, 32, density=0.25, seed=7)
        b = generate_map(kind, 32, 32, density=0.25, seed=8)
        assert a != b

    def test_random_blocks_density(self):
        g = generate_map("random-blocks", 32, 32, density=0.25, seed=7)
        target = round(0.25 * 32 * 32)
        assert abs(int(g.occupancy.sum()) - target) <= 32

    def test_random_blocks_zero_density(self):
        g = generate_map("random-blocks", 16, 16, density=0.0, seed=3)
        assert g.occupancy.sum() == 0

    def test_maze_fully_connected(self):
        g = generate_map("maze", 33, 33, seed=5)
        free = np.argwhere(g.occupancy == 0)
        mask = flood_fill(g.occupancy, tuple(free[0]))
        assert mask.sum() == len(free)

    def test_rooms_fully_connected(self):
        g = generate_map("rooms", 41, 31, density=0.3, seed=9)
        free = np.argwhere(g.occupancy == 0)
        mask = flood_fill(g.occupancy, tuple(free[0]))
        assert mask.sum() == len(free)

    def test_rooms_respects_budget(self):
        g = generate_map("rooms", 32, 32, density=0.1, seed=2)
        assert int(g.occupancy.sum()) <= round(0.1 * 32 * 32)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate_map("caves", 16, 16)

    def test_rejects_small_dims(self):
        with pytest.raises(InvalidDimensionsError):
            generate_map("maze", 7, 16)

    def test_rejects_density_out_of_range(self):
        for d in (-0.1, 0.6, 1.0):
            with pytest.raises(DensityRangeError):
                generate_map("random-blocks", 16, 16, density=d)


class TestSampling:
    @pytest.mark.parametrize("kind", ["random-blocks", "maze", "rooms"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pair_is_mutually_reachable(self, kind, seed):
        g = generate_map(kind, 24, 24, density=0.3, seed=seed)
        inst = sample_instance(g, seed=100 + seed)
        mask = flood_fill(g.occupancy, inst.start)
        assert mask[inst.goal]

    def test_deterministic(self):
        g = generate_map("random-blocks", 24, 24, density=0.3, seed=1)
        a = sample_instance(g, seed=5)
        b = sample_instance(g, seed=5)
        assert (a.start, a.goal) == (b.start, b.goal)

    def test_no_free_cells(self):
        g = GridMap.from_occupancy(np.ones((4, 4), dtype=np.uint8))
        with pytest.raises(NoValidPairError):
            sample_instance(g)

    def test_single_free_cell(self):
        occ = np.ones((4, 4), dtype=np.uint8)
        occ[2, 2] = 0
        with pytest.raises(NoValidPairError):
            sample_instance(GridMap.from_occupancy(occ))

    def test_two_cell_component_forced(self):
        occ = np.ones((4, 4), dtype=np.uint8)
        occ[1, 1] = occ[2, 2] = 0
        inst = sample_instance(GridMap.from_occupancy(occ), seed=0)
        assert {tuple(inst.start), tuple(inst.goal)} == {(1, 1), (2, 2)}

    def test_picks_largest_component(self):
        # Left 2-column region (8 cells) vs lone free cell pair on the right.
        occ = np.ones((4, 8), dtype=np.uint8)
        occ[:, 0:2] = 0
        occ[0, 6] = occ[1, 7] = 0
        g = GridMap.from_occupancy(occ)
        labels, count = free_components(g)
        assert count == 2
        for seed in range(10):
            inst = sample_instance(g, seed=seed)
            assert inst.start.col < 2 and inst.goal.col < 2

    def test_component_labelling_matches_flood_fill(self):
        g = generate_map("random-blocks", 20, 20, density=0.45, seed=13)
        labels, count = free_components(g)
        for label in range(1, count + 1):
            cells = np.argwhere(labels == label)
            mask = flood_fill(g.occupancy, tuple(cells[0]))
            assert np.array_equal(mask, labels == label)
