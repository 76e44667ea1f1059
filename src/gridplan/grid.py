"""Occupancy-grid data model, synthetic map generators, instance sampling, map file I/O.

Maps are binary row-major matrices: 1 = obstacle, 0 = free. All types are
immutable after construction; generators are pure functions of their seed.

The generators draw through _Sampler, a function of the raw 64-bit stream of
np.random.PCG64(seed) alone, not through np.random.Generator. numpy keeps a
bit generator's raw stream fixed for a seed (NEP 19), while it may change
the algorithms of Generator methods, and a Generator call costs more in
argument handling than the draw itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import (
    DensityRangeError,
    IllegalCharacterError,
    InvalidDimensionsError,
    MalformedHeaderError,
    NoValidPairError,
    RowLengthError,
)

MAP_FORMAT_VERSION = "gridmap v1"

GENERATOR_KINDS = ("random-blocks", "maze", "rooms")

# 8-connectivity structuring element for component labelling.
_CONN8 = np.ones((3, 3), dtype=bool)

# Raw 64-bit outputs fetched per refill. A sampler lives for one map, so the
# surplus of the last block is simply dropped.
_RAW_BLOCK = 512


def _raw_words(bits: np.random.PCG64):
    while True:
        yield from bits.random_raw(_RAW_BLOCK).tolist()


class _Sampler:
    """Draws of np.random.default_rng(seed), read straight off PCG64's raw stream.

    below(n) is Generator.integers(n) for 1 <= n < 2**32 and random() is
    Generator.random(), by numpy 2.4's own algorithms (Lemire's
    multiply-and-reject, ACM TOMACS 2019, on 32-bit words; 53 high bits
    scaled for doubles). As in
    PCG64's next_uint32, a 32-bit word is the low half of a raw output and
    the next one its pending high half; random() takes a whole raw output and
    leaves a pending half for the next word.
    """

    __slots__ = ("_next64", "_high")

    def __init__(self, seed):
        self._next64 = _raw_words(np.random.PCG64(seed)).__next__
        self._high = None

    def _next32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        x = self._next64()
        self._high = x >> 32
        return x & 0xFFFFFFFF

    def below(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53


class Coord(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class GridMap:
    """Binary occupancy grid. occupancy[r, c] == 1 marks an obstacle."""

    width: int
    height: int
    occupancy: np.ndarray

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise InvalidDimensionsError(
                f"map must be at least 2x2, got {self.height}x{self.width}"
            )
        occ = np.asarray(self.occupancy)
        if occ.shape != (self.height, self.width):
            raise InvalidDimensionsError(
                f"occupancy shape {occ.shape} does not match "
                f"(height, width)=({self.height}, {self.width})"
            )
        # Test the values as given: a cast first would read 257 as 1, 0.5 as 0.
        if not np.isin(occ, (0, 1)).all():
            raise InvalidDimensionsError("occupancy entries must be 0 or 1")
        # A copy even of a uint8 array, so freezing it leaves the caller's alone.
        occ = np.array(occ, dtype=np.uint8, order="C")
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)

    @classmethod
    def from_occupancy(cls, occupancy: np.ndarray) -> "GridMap":
        occupancy = np.asarray(occupancy)
        h, w = occupancy.shape
        return cls(width=w, height=h, occupancy=occupancy)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def in_bounds(self, cell: Coord) -> bool:
        return 0 <= cell.row < self.height and 0 <= cell.col < self.width

    def is_free(self, cell: Coord) -> bool:
        return self.in_bounds(cell) and self.occupancy[cell.row, cell.col] == 0

    def free_count(self) -> int:
        return int((self.occupancy == 0).sum())

    def __eq__(self, other):
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.occupancy, other.occupancy)
        )

    def __hash__(self):
        return hash((self.width, self.height, self.occupancy.tobytes()))


@dataclass(frozen=True)
class PlanInstance:
    """A map plus start and goal cells; the unit of planning and training.

    The constructor checks bounds, freeness, and start != goal. Reachability
    is a generation-time guarantee (sample_instance only emits pairs inside
    one free component); planners still report unreachable goals defensively.
    """

    grid: GridMap
    start: Coord
    goal: Coord

    def __post_init__(self):
        start, goal = _as_coord("start", self.start), _as_coord("goal", self.goal)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "goal", goal)
        for name, cell in (("start", start), ("goal", goal)):
            if not self.grid.in_bounds(cell):
                raise ValueError(f"{name} {tuple(cell)} out of bounds")
            if not self.grid.is_free(cell):
                raise ValueError(f"{name} cell {tuple(cell)} is an obstacle")
        if start == goal:
            raise ValueError("start and goal must differ")


def _as_coord(name: str, cell) -> Coord:
    """Coord of Python ints from a (row, col) pair of Python or numpy integers.

    Floats and bools are rejected, not truncated or read as 0 and 1.
    """
    try:
        row, col = cell
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a (row, col) pair, got {cell!r}") from None
    for v in (row, col):
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} {cell!r} must have integer coordinates")
    return Coord(int(row), int(col))


def free_components(grid: GridMap) -> tuple[np.ndarray, int]:
    """Label 8-connected free components: (label matrix, component count)."""
    labels, count = ndimage.label(grid.occupancy == 0, structure=_CONN8)
    return labels, count


def generate_map(kind: str, width: int, height: int, density: float = 0.25,
                 seed: int = 0) -> GridMap:
    """Generate a synthetic map. Identical arguments reproduce identical maps.

    A map is a function of the raw stream of np.random.PCG64(seed), which
    numpy keeps fixed for a seed; it does not depend on Generator's
    algorithms, which numpy may change. A negative seed raises ValueError.

    Kinds:
      random-blocks: small rectangles scattered until ~density of cells are
        obstacles.
      maze: recursive-backtracker corridors with wall thickness 1; density is
        ignored (the maze structure fixes it).
      rooms: recursive division into rooms joined by 1-cell doorways; wall
        placement stops once the painted fraction would exceed density.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    if width < 8 or height < 8:
        raise InvalidDimensionsError(f"generators need dims >= 8, got {height}x{width}")
    if not (0.0 <= density < 0.6):
        raise DensityRangeError(f"density must be in [0, 0.6), got {density}")
    rng = _Sampler(seed)
    if kind == "random-blocks":
        occ = _random_blocks(rng, width, height, density)
    elif kind == "maze":
        occ = _maze(rng, width, height)
    else:
        occ = _rooms(rng, width, height, density)
    return GridMap(width=width, height=height, occupancy=occ)


def _random_blocks(rng: _Sampler, width: int, height: int,
                   density: float) -> np.ndarray:
    occ = bytearray(width * height)
    target = int(round(density * width * height))
    occupied = 0
    while occupied < target:
        bh = 1 + rng.below(3)
        bw = 1 + rng.below(3)
        r = rng.below(height - bh + 1)
        c = rng.below(width - bw + 1)
        for lo in range(r * width + c, (r + bh) * width, width):
            occupied += occ.count(0, lo, lo + bw)
            occ[lo:lo + bw] = b"\x01" * bw
    return np.frombuffer(occ, dtype=np.uint8).reshape(height, width)


def _maze(rng: _Sampler, width: int, height: int) -> np.ndarray:
    # Corridor cells live at odd coordinates; walls everywhere else. Node
    # (r, c) is corridor cell (2r + 1, 2c + 1); both grids are flat, row-major.
    occ = bytearray(b"\x01") * (height * width)
    node_rows = (height - 1) // 2
    node_cols = (width - 1) // 2
    start = (rng.below(node_rows), rng.below(node_cols))
    visited = bytearray(node_rows * node_cols)
    visited[start[0] * node_cols + start[1]] = 1
    occ[(2 * start[0] + 1) * width + 2 * start[1] + 1] = 0
    stack = [start]
    while stack:
        r, c = stack[-1]
        i = r * node_cols + c
        # Up, down, left, right: the order the candidates are drawn from.
        candidates = []
        if r > 0 and not visited[i - node_cols]:
            candidates.append((r - 1, c))
        if r + 1 < node_rows and not visited[i + node_cols]:
            candidates.append((r + 1, c))
        if c > 0 and not visited[i - 1]:
            candidates.append((r, c - 1))
        if c + 1 < node_cols and not visited[i + 1]:
            candidates.append((r, c + 1))
        if not candidates:
            stack.pop()
            continue
        nr, nc = candidates[rng.below(len(candidates))]
        visited[nr * node_cols + nc] = 1
        occ[(2 * nr + 1) * width + 2 * nc + 1] = 0
        occ[(r + nr + 1) * width + c + nc + 1] = 0  # knock out the wall between the nodes
        stack.append((nr, nc))
    return np.frombuffer(occ, dtype=np.uint8).reshape(height, width)


def _rooms(rng: _Sampler, width: int, height: int,
           density: float) -> np.ndarray:
    # Recursive division: walls on even coordinates, doorways on odd ones,
    # so a later perpendicular wall can never seal an existing doorway.
    occ = np.zeros((height, width), dtype=np.uint8)
    budget = int(round(density * width * height))

    def wall_candidates(lo: int, hi: int) -> range:
        # Even x with lo < x < hi.
        return range(lo + 2 - lo % 2, hi, 2)

    def door_candidates(lo: int, hi: int) -> range:
        # Odd x with lo <= x <= hi.
        return range(lo + 1 - lo % 2, hi + 1, 2)

    def divide(r0: int, r1: int, c0: int, c1: int):
        nonlocal budget
        h, w = r1 - r0 + 1, c1 - c0 + 1
        if h < 5 and w < 5:
            return
        horizontal = h > w or (h == w and rng.random() < 0.5)
        if horizontal:
            rows = wall_candidates(r0, r1)
            doors = door_candidates(c0, c1)
            if not rows or not doors or budget < w - 1:
                return
            wr = rows[rng.below(len(rows))]
            door = doors[rng.below(len(doors))]
            occ[wr, c0:c1 + 1] = 1
            occ[wr, door] = 0
            budget -= w - 1
            divide(r0, wr - 1, c0, c1)
            divide(wr + 1, r1, c0, c1)
        else:
            cols = wall_candidates(c0, c1)
            doors = door_candidates(r0, r1)
            if not cols or not doors or budget < h - 1:
                return
            wc = cols[rng.below(len(cols))]
            door = doors[rng.below(len(doors))]
            occ[r0:r1 + 1, wc] = 1
            occ[door, wc] = 0
            budget -= h - 1
            divide(r0, r1, c0, wc - 1)
            divide(r0, r1, wc + 1, c1)

    divide(0, height - 1, 0, width - 1)
    return occ


def sample_instance(grid: GridMap, seed: int = 0) -> PlanInstance:
    """Sample a start/goal pair uniformly from the largest free component."""
    labels, count = free_components(grid)
    if count == 0:
        raise NoValidPairError("map has no free cells")
    sizes = np.bincount(labels.ravel())[1:]
    best = int(np.argmax(sizes)) + 1
    cells = np.flatnonzero(labels == best)
    if cells.size < 2:
        raise NoValidPairError("largest free component has fewer than 2 cells")
    rng = np.random.default_rng(seed)
    pick = rng.choice(cells.size, size=2, replace=False)
    start = Coord(*divmod(int(cells[pick[0]]), grid.width))
    goal = Coord(*divmod(int(cells[pick[1]]), grid.width))
    return PlanInstance(grid=grid, start=start, goal=goal)


def save_map(grid: GridMap, path) -> None:
    lines = [MAP_FORMAT_VERSION, f"{grid.height} {grid.width}"]
    for row in grid.occupancy:
        lines.append("".join("#" if v else "." for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_map(path) -> GridMap:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start)
        col = exc.start - raw.rfind(b"\n", 0, exc.start) - 1
        raise IllegalCharacterError(
            f"non-ASCII byte {raw[exc.start]:#04x} at line {line + 1}, column {col + 1}"
        ) from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAP_FORMAT_VERSION:
        raise MalformedHeaderError(
            f"expected first line {MAP_FORMAT_VERSION!r}"
        )
    if len(lines) < 2:
        raise MalformedHeaderError("missing dimension line")
    parts = lines[1].split()
    if len(parts) != 2:
        raise MalformedHeaderError(f"dimension line must be '<height> <width>', got {lines[1]!r}")
    try:
        height, width = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MalformedHeaderError(f"non-integer dimensions in {lines[1]!r}") from exc
    if height < 2 or width < 2:
        raise InvalidDimensionsError(f"map must be at least 2x2, got {height}x{width}")
    rows = lines[2:]
    if len(rows) != height:
        raise RowLengthError(f"expected {height} rows, found {len(rows)}")
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RowLengthError(
                f"row {r} has {len(row)} characters, expected {width}"
            )
    chars = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    chars = chars.reshape(height, width)
    blocked = chars == ord("#")
    illegal = ~blocked & (chars != ord("."))
    if illegal.any():
        r, c = divmod(int(np.argmax(illegal)), width)
        raise IllegalCharacterError(
            f"illegal character {rows[r][c]!r} at row {r}, column {c}"
        )
    return GridMap(width=width, height=height, occupancy=blocked.astype(np.uint8))
