import hashlib
import random

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
    GENERATOR_KINDS,
    Coord,
    GridMap,
    PlanInstance,
    _Sampler,
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

    def test_owns_a_copy_of_the_callers_array(self):
        a = np.zeros((3, 3), dtype=np.uint8)
        g = GridMap.from_occupancy(a)
        assert a.flags.writeable and not np.shares_memory(a, g.occupancy)
        a[1, 1] = 1
        assert g.occupancy[1, 1] == 0 and g.free_count() == 9

    def test_rejects_tiny_maps(self):
        with pytest.raises(InvalidDimensionsError):
            GridMap.from_occupancy(np.zeros((1, 5), dtype=np.uint8))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidDimensionsError):
            GridMap(width=3, height=4, occupancy=np.zeros((3, 4), dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidDimensionsError):
            GridMap.from_occupancy(np.full((4, 4), 2, dtype=np.uint8))

    @pytest.mark.parametrize("value", [257, -255, 0.5, 1.9])
    def test_rejects_values_a_cast_would_wrap_or_truncate(self, value):
        occ = np.zeros((3, 3), dtype=type(value))
        occ[1, 1] = value
        with pytest.raises(InvalidDimensionsError):
            GridMap.from_occupancy(occ)

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.int64])
    def test_accepts_zero_one_of_any_dtype(self, dtype):
        occ = np.zeros((3, 3), dtype=dtype)
        occ[1, 1] = 1
        g = GridMap.from_occupancy(occ)
        assert g.occupancy.dtype == np.uint8
        assert g.occupancy.sum() == 1

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


class TestSampler:
    # Map-sized bounds, the trivial ones, and two bounds where about half
    # (2**31 + 1) and a quarter (3 * 2**30) of the 32-bit words are rejected.
    BOUNDS = (1, 2, 3, 7, 62, 127, 253, 4096, 65521, 2**31 + 1, 3 * 2**30)

    def test_matches_numpy_draw_for_draw(self):
        for seed in list(range(60)) + [2**40 + 3, 2**63 + 11]:
            ops = random.Random(seed)
            sampler, rng = _Sampler(seed), np.random.default_rng(seed)
            for _ in range(300):
                if ops.random() < 0.2:
                    assert sampler.random() == rng.random()
                else:
                    n = ops.choice(self.BOUNDS)
                    assert sampler.below(n) == rng.integers(n)

    def test_random_between_the_halves_of_one_output(self):
        for seed in range(20):
            sampler, rng = _Sampler(seed), np.random.default_rng(seed)
            # The first below() takes a low half; random() takes the next
            # whole output; the second below() takes the pending high half.
            assert sampler.below(1000) == rng.integers(1000)
            assert sampler.random() == rng.random()
            assert sampler.below(1000) == rng.integers(1000)
            assert sampler.below(1000) == rng.integers(1000)

    def test_below_one_draws_nothing(self):
        sampler, rng = _Sampler(5), np.random.default_rng(5)
        assert [sampler.below(1) for _ in range(10)] == [0] * 10
        assert sampler.below(99) == rng.integers(99)


class TestGeneratorDigests:
    """One sha256 per kind over a spread of shapes, densities and seeds.

    The digests were computed while the generators still drew through
    np.random.default_rng(seed), before they moved to _Sampler. A digest that
    differs is a change of every map built from a seed: fix the program.
    """

    SHAPES = ((8, 8), (9, 13), (17, 23), (33, 40), (100, 60), (200, 17), (256, 256))
    DENSITIES = (0.0, 0.1, 0.25, 0.5, 0.59)
    SEEDS = (0, 1, 42, 2**40 + 3)
    GOLDEN = {
        "random-blocks": "8638b79d4d8c2f7645a981a077693ea5fbb33e98bd358db18fe6ac078acbfb62",
        "maze": "d83f77eacb4efd51863df516375dcec540269c22eec8788c03e05283d3ae5cac",
        "rooms": "c5a7c6abbec9d5db015e8e53fb9011fb304f4a99d9b079f40660bbdd709c918b",
    }

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_maps_and_pairs_match_reference(self, kind):
        digest = hashlib.sha256()
        for h, w in self.SHAPES:
            for density in self.DENSITIES:
                for seed in self.SEEDS:
                    grid = generate_map(kind, w, h, density=density, seed=seed)
                    digest.update(f"{h}x{w} {density} {seed}\n".encode())
                    digest.update(grid.occupancy.tobytes())
                    if density == 0.25:
                        inst = sample_instance(grid, seed=seed)
                        digest.update(repr((tuple(inst.start), tuple(inst.goal))).encode())
        assert digest.hexdigest() == self.GOLDEN[kind]

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(ValueError):
            generate_map(kind, 16, 16, seed=-1)


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
