"""Property tests of the file parsers on arbitrary and near-valid input.

load_map, load_tensors and load_model either parse or raise a GridplanError
subclass. load_plan raises ValueError by design, as parse_plan does (the
CLI prints it as an error), but never a bare decoding error. load_map's
vectorised character check is held to a per-character loop.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan import autodiff as ad
from gridplan.bench import load_plan
from gridplan.encoder import Arch, init_model, load_model, save_model
from gridplan.errors import GridplanError, IllegalCharacterError
from gridplan.grid import load_map, save_map

FUZZ = settings(max_examples=200, deadline=None)

MAP_CHARS = st.sampled_from([".", "#", "x", " ", "\t", "\r", "\x0b", "\xe9", "\u2028", "\xa0"])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint(scratch):
    """Bytes of a valid depth-1 model checkpoint and its sidecar line."""
    model = init_model(Arch(depth=1, base=4), seed=0)
    save_model(model, scratch / "valid.ckpt")
    return (scratch / "valid.ckpt").read_bytes(), model.arch.sidecar_line()


@st.composite
def map_texts(draw):
    """A map file whose header, dimensions and rows are each nearly right."""
    header = draw(st.sampled_from(["gridmap v1", "gridmap v1 ", "gridmap v2", ""]))
    height, width = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
    dims = draw(st.sampled_from([f"{height} {width}", f"{height}", f"{height} x"]))
    rows = draw(st.lists(st.text(MAP_CHARS, max_size=6), max_size=6))
    end = draw(st.sampled_from(["", "\n", "\r\n"]))
    return ("\n".join([header, dims] + rows) + end).encode("utf-8")


@st.composite
def mutated(draw, blob: bytes):
    """blob with a few bytes overwritten, cut short and given a random tail."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(0, 4))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out[:draw(st.integers(0, len(out)))]) + draw(st.binary(max_size=16))


SIDECAR_ITEMS = st.sampled_from(["depth=1", "depth=2", "depth", "depth=x", "base=4",
                                 "base=3", "base=4=4", "out_scale=10.0", "out_scale=-1",
                                 "out_scale=nan", "=", "\xe9"])


def sidecars(valid_line: str):
    items = st.lists(SIDECAR_ITEMS, max_size=4).map(" ".join)
    return st.one_of(
        st.binary(max_size=60),
        st.just(valid_line.encode("ascii")),
        items.map(lambda rest: f"arch v1: {rest}\n".encode("utf-8")),
    )


@FUZZ
@given(blob=st.one_of(st.binary(max_size=120), map_texts()))
def test_load_map_parses_or_raises_typed(scratch, blob):
    path = scratch / "fuzz.map"
    path.write_bytes(blob)
    try:
        grid = load_map(path)
    except GridplanError:
        return
    save_map(grid, scratch / "again.map")
    assert load_map(scratch / "again.map") == grid


@FUZZ
@given(rows=st.integers(2, 6).flatmap(lambda w: st.lists(
    st.text(st.sampled_from("..##x?"), min_size=w, max_size=w), min_size=2, max_size=6)))
def test_load_map_matches_per_character_reference(scratch, rows):
    path = scratch / "rows.map"
    path.write_text(f"gridmap v1\n{len(rows)} {len(rows[0])}\n" + "\n".join(rows) + "\n")
    illegal = [(r, c) for r, row in enumerate(rows) for c, ch in enumerate(row)
               if ch not in ".#"]
    if illegal:
        r, c = illegal[0]
        tail = re.escape(f"{rows[r][c]!r} at row {r}, column {c}")
        with pytest.raises(IllegalCharacterError, match=tail + "$"):
            load_map(path)
    else:
        want = [[1 if ch == "#" else 0 for ch in row] for row in rows]
        assert np.array_equal(load_map(path).occupancy, want)


@FUZZ
@given(data=st.data())
def test_load_tensors_parses_or_raises_typed(scratch, checkpoint, data):
    weights, _ = checkpoint
    blob = data.draw(st.one_of(st.binary(max_size=120),
                               st.binary(max_size=120).map(lambda b: ad.CHECKPOINT_MAGIC + b),
                               mutated(weights)))
    path = scratch / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        ad.load_tensors(path)
    except GridplanError:
        pass


@FUZZ
@given(data=st.data())
def test_load_model_parses_or_raises_typed(scratch, checkpoint, data):
    weights, line = checkpoint
    path = scratch / "model.ckpt"
    path.write_bytes(data.draw(st.one_of(st.just(weights), mutated(weights))))
    (scratch / "model.ckpt.arch").write_bytes(data.draw(sidecars(line)))
    try:
        load_model(path)
    except GridplanError:
        pass


PLAN_LINES = st.one_of(
    st.text(max_size=30),
    st.tuples(st.sampled_from(["kinds", "sizes", "trials", "seed", "speed", ""]),
              st.text(st.sampled_from("0123456789,-. #=x\xe9"), max_size=12),
              ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
)


@FUZZ
@given(lines=st.lists(PLAN_LINES, max_size=6), encoding=st.sampled_from(["utf-8", "latin-1"]))
def test_load_plan_parses_or_raises_value_error(scratch, lines, encoding):
    path = scratch / "fuzz.plan"
    path.write_bytes("\n".join(lines).encode(encoding, errors="replace"))
    try:
        load_plan(path)
    except UnicodeError:
        raise
    except (GridplanError, ValueError):
        pass
