"""Occupancy-grid data model, synthetic map generators, instance sampling, map file I/O.

Maps are binary row-major matrices: 1 = obstacle, 0 = free. All types are
immutable after construction; generators are pure functions of their seed.
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
        occ = np.ascontiguousarray(self.occupancy, dtype=np.uint8)
        if occ.shape != (self.height, self.width):
            raise InvalidDimensionsError(
                f"occupancy shape {occ.shape} does not match "
                f"(height, width)=({self.height}, {self.width})"
            )
        if not np.isin(occ, (0, 1)).all():
            raise InvalidDimensionsError("occupancy entries must be 0 or 1")
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
        start, goal = Coord(*self.start), Coord(*self.goal)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "goal", goal)
        for name, cell in (("start", start), ("goal", goal)):
            if not self.grid.in_bounds(cell):
                raise ValueError(f"{name} {tuple(cell)} out of bounds")
            if not self.grid.is_free(cell):
                raise ValueError(f"{name} cell {tuple(cell)} is an obstacle")
        if start == goal:
            raise ValueError("start and goal must differ")


def free_components(grid: GridMap) -> tuple[np.ndarray, int]:
    """Label 8-connected free components: (label matrix, component count)."""
    labels, count = ndimage.label(grid.occupancy == 0, structure=_CONN8)
    return labels, count


def generate_map(kind: str, width: int, height: int, density: float = 0.25,
                 seed: int = 0) -> GridMap:
    """Generate a synthetic map. Identical arguments reproduce identical maps.

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
    rng = np.random.default_rng(seed)
    if kind == "random-blocks":
        occ = _random_blocks(rng, width, height, density)
    elif kind == "maze":
        occ = _maze(rng, width, height)
    else:
        occ = _rooms(rng, width, height, density)
    return GridMap(width=width, height=height, occupancy=occ)


def _random_blocks(rng: np.random.Generator, width: int, height: int,
                   density: float) -> np.ndarray:
    occ = np.zeros((height, width), dtype=np.uint8)
    target = int(round(density * width * height))
    occupied = 0
    while occupied < target:
        bh = int(rng.integers(1, 4))
        bw = int(rng.integers(1, 4))
        r = int(rng.integers(0, height - bh + 1))
        c = int(rng.integers(0, width - bw + 1))
        block = occ[r:r + bh, c:c + bw]
        occupied += int((block == 0).sum())
        block[:] = 1
    return occ


def _maze(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    # Corridor cells live at odd coordinates; walls everywhere else.
    occ = np.ones((height, width), dtype=np.uint8)
    node_rows = (height - 1) // 2
    node_cols = (width - 1) // 2
    start = (int(rng.integers(node_rows)), int(rng.integers(node_cols)))
    visited = np.zeros((node_rows, node_cols), dtype=bool)
    visited[start] = True
    occ[2 * start[0] + 1, 2 * start[1] + 1] = 0
    stack = [start]
    while stack:
        r, c = stack[-1]
        candidates = [
            (r + dr, c + dc)
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
            if 0 <= r + dr < node_rows and 0 <= c + dc < node_cols
            and not visited[r + dr, c + dc]
        ]
        if not candidates:
            stack.pop()
            continue
        nr, nc = candidates[int(rng.integers(len(candidates)))]
        visited[nr, nc] = True
        occ[2 * nr + 1, 2 * nc + 1] = 0
        occ[r + nr + 1, c + nc + 1] = 0  # knock out the wall between the nodes
        stack.append((nr, nc))
    return occ


def _rooms(rng: np.random.Generator, width: int, height: int,
           density: float) -> np.ndarray:
    # Recursive division: walls on even coordinates, doorways on odd ones,
    # so a later perpendicular wall can never seal an existing doorway.
    occ = np.zeros((height, width), dtype=np.uint8)
    budget = int(round(density * width * height))

    def wall_candidates(lo: int, hi: int) -> list[int]:
        return [x for x in range(lo + 1, hi) if x % 2 == 0]

    def door_candidates(lo: int, hi: int) -> list[int]:
        return [x for x in range(lo, hi + 1) if x % 2 == 1]

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
            wr = rows[int(rng.integers(len(rows)))]
            door = doors[int(rng.integers(len(doors)))]
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
            wc = cols[int(rng.integers(len(cols)))]
            door = doors[int(rng.integers(len(doors)))]
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
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, range(1, count + 1))
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
