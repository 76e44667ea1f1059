"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

Exactly the operations a gradient crosses, nothing more: conv2d, relu,
maxpool2, upsample2, concat_channels, sigmoid, scale and to_map in the
instance encoder; add, scale and inner in the losses; and selection_sum,
the one fused op through which the search enters the graph. It turns the
tape of a heap search, one entry per push with its birth and death step,
into the sum of its one-hot selections; its backward sums each entry's
soft-selection gradient over the entry's lifetime from prefix sums over
steps, with the open-set sums re-based every few steps so that they do not
cancel. Constants are built in numpy and enter as leaf Tensors. Shapes
must match exactly for binary ops; nothing broadcasts. Backward walks an
explicit topological order, so graph depth never hits the interpreter
recursion limit. conv2d runs as matrix products over im2col columns; a
recorded conv2d keeps its input's columns, kh*kw times the input's size,
until the graph is freed. maxpool2 and upsample2 work on the four strided
quadrants a[:, i::2, j::2] of each 2x2 block, so they cost whole-array
passes and no index gathers: pooling keeps the first quadrant that holds
the maximum and routes the gradient back to it, and the upsampling's
backward sums a block as (g00 + g01) + (g10 + g11). to_map copies the
encoder's coarse output up by s in one step, and its backward halves the
gradient log2(s) times with that block sum. A tensor's first gradient is
written in one pass as g + 0.0, later ones are added in place.

Checkpoint I/O lives here too: a binary format with header ``iatensor v1``
followed by (name, rank, shape, float64 payload) records. Round trips are
bit-exact.
"""

from __future__ import annotations

import math
import struct
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpointError, OddDimensionError, ShapeMismatchError

CHECKPOINT_MAGIC = b"iatensor v1\n"


class _GradMode(threading.local):
    enabled = True  # whether ops record graph nodes; per thread, each starts on


_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording in this thread inside the block (inference)."""
    saved = _mode.enabled
    _mode.enabled = False
    try:
        yield
    finally:
        _mode.enabled = saved


def grad_enabled() -> bool:
    return _mode.enabled


class Tensor:
    """Dense float64 array plus an optional backpointer into the graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        """Add g into self.grad.

        The first call writes g + 0.0 into a new array: one pass, never an
        alias of g, of a view of it or of a caller's seed, and -0.0 turns
        into +0.0 exactly as zeros + g would. Later calls add in place.
        """
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None):
        """Accumulate gradients of this (scalar) tensor into the graph leaves."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar tensor")
            seed = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.asarray(seed, dtype=np.float64).reshape(self.data.shape))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data, parents, backward) -> Tensor:
    tracked = _mode.enabled and any(p.requires_grad for p in parents)
    if not tracked:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes {a.shape} and {b.shape} do not match")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _record(out_data, (a, b), backward)


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar constant."""
    a = as_tensor(a)
    s = float(s)

    def backward(g):
        a._accumulate(g * s)

    return _record(a.data * s, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _record(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _record(out_data, (a,), backward)


def inner(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"inner product needs equal shapes, got {a.shape} and {b.shape}")
    out_data = np.asarray(np.vdot(a.data, b.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(float(g) * b.data)
        if b.requires_grad:
            b._accumulate(float(g) * a.data)

    return _record(out_data, (a, b), backward)


def _columns(a: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col of (C,H,W) zero-padded to keep H and W: (C*kh*kw, H*W).

    Row (c, u, v) holds channel c shifted by tap (u, v), so a kernel
    reshaped to (Cout, C*kh*kw) times these columns is the correlation.
    A 1x1 kernel needs no shift, and its columns are a plain reshape.
    """
    c, h, w = a.shape
    if kh == kw == 1:
        return a.reshape(c, h * w)
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((c, h + 2 * ph, w + 2 * pw))
    padded[:, ph:ph + h, pw:pw + w] = a
    sc, sh, sw = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (c, kh, kw, h, w), (sc, sh, sw, sh, sw), writeable=False)
    return windows.reshape(c * kh * kw, h * w)


def conv2d(x, kernel, bias) -> Tensor:
    """Channelwise cross-correlation: x (Cin,H,W) with kernel (Cout,Cin,kh,kw),
    plus a per-output-channel bias (Cout,).

    Odd kernel sides only, zero-padded so the output keeps H and W. The
    forward is one matrix product against the im2col columns of x, which a
    recorded op keeps for its backward. Gradients reach x, kernel and bias
    by two more products: the kernel's against those columns, the input's as
    the correlation of the output gradient with the kernel flipped in both
    axes and transposed in its channel axes.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d wants x (Cin,H,W) and kernel (Cout,Cin,kh,kw), got {x.shape} and {kernel.shape}"
        )
    cout, cin, kh, kw = kernel.shape
    if x.shape[0] != cin:
        raise ShapeMismatchError(f"x has {x.shape[0]} channels, kernel expects {cin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(f"kernel sides must be odd, got {kh}x{kw}")
    if bias.shape != (cout,):
        raise ShapeMismatchError(f"bias shape {bias.shape} != ({cout},)")
    height, width = x.shape[1], x.shape[2]
    cols = _columns(x.data, kh, kw)
    out_data = (kernel.data.reshape(cout, -1) @ cols).reshape(cout, height, width)
    out_data += bias.data[:, None, None]

    def backward(g):
        if x.requires_grad:
            flipped = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
            x._accumulate((flipped @ _columns(g, kh, kw)).reshape(x.shape))
        if kernel.requires_grad:
            gk = g.reshape(cout, height * width) @ cols.T
            kernel._accumulate(gk.reshape(kernel.shape))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 2)))

    return _record(out_data, (x, kernel, bias), backward)


def maxpool2(a) -> Tensor:
    """2x2 max pooling with stride 2 on (C,H,W); ties go to the first quadrant.

    The quadrants are the strided views a[:, i::2, j::2], in the order
    (0,0), (0,1), (1,0), (1,1), and each output is the value of the first
    quadrant that holds its block's maximum, -0.0 against +0.0 included.
    np.maximum returns its second argument when the two compare equal
    (numpy 2.4 on x86-64: maximum(-0.0, +0.0) is +0.0; the signed-zero
    pooling tests pin it), so the maximum of each pair, and then of the two
    pairs, takes the earlier operand second. The backward routes g
    to that quadrant, the first whose value equals the output, and writes
    +0.0 everywhere else.
    """
    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeMismatchError(f"maxpool2 wants (C,H,W), got {a.shape}")
    c, h, w = a.shape
    if h % 2 or w % 2:
        raise OddDimensionError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    blocks = a.data.reshape(c, h // 2, 2, w // 2, 2)
    rows = np.maximum(blocks[..., 1], blocks[..., 0])
    out_data = np.maximum(rows[:, :, 1], rows[:, :, 0])

    def backward(g):
        ga = np.empty_like(blocks)
        taken = np.zeros(out_data.shape, dtype=bool)
        for i in (0, 1):
            for j in (0, 1):
                hit = (blocks[:, :, i, :, j] == out_data) & ~taken
                taken |= hit
                ga[:, :, i, :, j] = np.where(hit, g, 0.0)
        a._accumulate(ga.reshape(c, h, w))

    return _record(out_data, (a,), backward)


def upsample2(a) -> Tensor:
    """Nearest-neighbor x2 upsampling on (C,H,W); the backward is _block_sum2."""
    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeMismatchError(f"upsample2 wants (C,H,W), got {a.shape}")
    out_data = np.repeat(np.repeat(a.data, 2, axis=1), 2, axis=2)

    def backward(g):
        a._accumulate(_block_sum2(g))

    return _record(out_data, (a,), backward)


def _block_sum2(g: np.ndarray) -> np.ndarray:
    """Each 2x2 block of (C,2h,2w) g summed as (g00 + g01) + (g10 + g11).

    It is the order in which numpy sums reshape(c, h, 2, w, 2) over its two
    length-2 axes. numpy's sum starts from +0.0, so where it reads +0.0 a
    block of four -0.0 reads -0.0 here; an input's first accumulation adds
    +0.0, so its gradient holds the same bytes either way.
    """
    c, h, w = g.shape
    blocks = g.reshape(c, h // 2, 2, w // 2, 2)
    rows = blocks[..., 0] + blocks[..., 1]
    return rows[:, :, 0] + rows[:, :, 1]


def to_map(a, s: int, height: int, width: int) -> Tensor:
    """Copy each cell of (1,h,w) to an s x s block, s a power of two, and
    keep the top-left (height,width) window.

    The bytes are those of log2(s) upsample2 calls and a crop: the backward
    zero-fills g to (1, h*s, w*s) and halves it log2(s) times by _block_sum2.
    """
    a = as_tensor(a)
    if s < 1 or s & (s - 1):
        raise ValueError(f"to_map needs a power of two, got s = {s}")
    if a.data.ndim != 3 or a.shape[0] != 1 or height > a.shape[1] * s or width > a.shape[2] * s:
        raise ShapeMismatchError(f"cannot cut {height}x{width} from {a.shape} copied by {s}")
    _, h, w = a.shape
    # columns on the coarse rows first, so the large copy repeats whole rows
    out_data = np.repeat(np.repeat(a.data[0], s, axis=1)[:, :width], s, axis=0)[:height]

    def backward(g):
        ga = np.zeros((1, h * s, w * s))
        ga[0, :height, :width] = g
        while ga.shape[1] > h:
            ga = _block_sum2(ga)
        a._accumulate(ga)

    return _record(out_data, (a,), backward)


def concat_channels(tensors) -> Tensor:
    """Concatenate (C_i,H,W) tensors along the channel axis."""
    tensors = [as_tensor(t) for t in tensors]
    hw = tensors[0].shape[1:]
    for t in tensors:
        if t.data.ndim != 3 or t.shape[1:] != hw:
            raise ShapeMismatchError("concat_channels needs matching (H,W)")
    out_data = np.concatenate([t.data for t in tensors], axis=0)
    sizes = [t.shape[0] for t in tensors]

    def backward(g):
        off = 0
        for t, c in zip(tensors, sizes):
            if t.requires_grad:
                t._accumulate(g[off:off + c])
            off += c

    return _record(out_data, tuple(tensors), backward)


def selection_sum(bias, selected, cells, scores, birth, death, tau: float) -> Tensor:
    """Sum of a search's hard one-hot selections, soft gradient behind each.

    Step t < T of a best-first search selected flat index selected[t]. The
    tape lists open entries: entry c held cell cells[c] with score
    scores[c] (cost + heuristic + bias, so it moves one for one with its
    cell's bias) at the steps t with birth[c] <= t < death[c]. Each step's
    selected cell must have an entry open at that step. Forward returns
    sum_t onehot(selected[t]), shaped like bias: the search's closed set.

    Backward treats step t's one-hot as the soft weighting q_t = e / Z_t
    over its open entries, e_c = exp(-(s_c - min s) / tau),
    Z_t = sum_open e. An upstream gradient G then lands on the bias as
    -q_t * (G - <q_t, G>) / tau on those entries only; the centering makes
    uniform upstream components vanish and leaves the gradient invariant to
    constant score shifts. Summed over entry c's lifetime [b, d), with
    A_t = sum_open e * G, that is

        -(e_c / tau) * (G_c * sum_{b<=t<d} 1 / Z_t - sum_{b<=t<d} A_t / Z_t^2),

    two prefix sums over steps read at b and d, so the backward costs
    O(entries + steps), not O(sum of the open-set sizes). Z_t and A_t are
    not running sums that add e at birth and subtract it at death: on a
    maze at 128 the open set turns over many times while Z_t shrinks by up
    to eight orders of magnitude, and the gradient from such sums drifts
    up to 1e-8 relative from the per-step one. _open_sums re-bases them
    every OPEN_SUM_BLOCK steps.
    """
    bias = as_tensor(bias)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    selected = np.asarray(selected, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    birth = np.asarray(birth, dtype=np.int64)
    death = np.asarray(death, dtype=np.int64)
    steps = selected.size
    if not (selected.ndim == cells.ndim == 1
            and cells.shape == scores.shape == birth.shape == death.shape
            and (birth >= 0).all() and (birth < death).all() and (death <= steps).all()):
        raise ShapeMismatchError("selection tape: need equal-length entries,"
                                 " each with 0 <= birth < death <= steps")
    # (cell, step) pairs as keys cell * steps + step: an entry spans the
    # keys [cell * steps + birth, cell * steps + death), and a selection is
    # open where more spans have started than ended at its key.
    key = selected * steps + np.arange(steps)
    live = (np.searchsorted(np.sort(cells * steps + birth), key, "right")
            - np.searchsorted(np.sort(cells * steps + death), key, "right"))
    if not (live > 0).all():
        raise ShapeMismatchError("selection tape: a selected cell is not open at its step")
    out_data = np.bincount(selected, minlength=bias.data.size).reshape(bias.shape)

    def backward(g):
        e = np.exp(-(scores - scores.min()) / tau)
        gc = g.reshape(-1)[cells]
        z, a = _open_sums(birth, death, steps, e, e * gc)
        mean = a / z
        per_z = np.concatenate(([0.0], np.cumsum(1.0 / z)))
        per_mean = np.concatenate(([0.0], np.cumsum(mean / z)))
        contrib = -(e / tau) * (gc * (per_z[death] - per_z[birth])
                                - (per_mean[death] - per_mean[birth]))
        bias._accumulate(np.bincount(cells, weights=contrib,
                                     minlength=bias.data.size).reshape(bias.shape))

    return _record(out_data, (bias,), backward)


# Steps between direct sums in _open_sums.
OPEN_SUM_BLOCK = 16


def _open_sums(birth, death, steps, *weights) -> list[np.ndarray]:
    """Per weight w and step t < steps, the sum of w over entries open at t.

    A running sum that adds w at an entry's birth and subtracts it at its
    death cancels badly once the open set has turned over many times: the
    sums shrink by orders of magnitude on a maze while the rounding error
    of everything added before stays. So every OPEN_SUM_BLOCK-th step sums
    its open entries directly, and only the steps in between add up births
    and deaths from there.
    """
    blocks = -(-steps // OPEN_SUM_BLOCK)
    # block k starts at step k * OPEN_SUM_BLOCK; an entry is open at the
    # starts of blocks first <= k < last
    first, last = -(-birth // OPEN_SUM_BLOCK), -(-death // OPEN_SUM_BLOCK)
    count = last - first
    entry = np.repeat(np.arange(count.size), count)
    block = first[entry] + np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count)
    size = blocks * OPEN_SUM_BLOCK
    out = []
    for w in weights:
        delta = np.bincount(birth, w, size) - np.bincount(death, w, size + 1)[:size]
        delta = delta.reshape(blocks, OPEN_SUM_BLOCK)
        delta[:, 0] = np.bincount(block, w[entry], blocks)
        out.append(delta.cumsum(axis=1).ravel()[:steps])
    return out


def save_tensors(path, named: dict[str, "Tensor | np.ndarray"]) -> None:
    """Write named float64 arrays to ``path`` in the iatensor v1 format."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, value in named.items():
            arr = np.asarray(value.data if isinstance(value, Tensor) else value,
                             dtype=np.float64)
            if not arr.flags.c_contiguous:
                # ascontiguousarray would promote rank-0 arrays to rank 1
                arr = arr.copy(order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read an iatensor v1 file back into name -> float64 array."""
    blob = Path(path).read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CorruptCheckpointError(f"{path}: missing {CHECKPOINT_MAGIC!r} header")
    out: dict[str, np.ndarray] = {}
    pos = len(CHECKPOINT_MAGIC)
    total = len(blob)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > total:
            raise CorruptCheckpointError(f"{path}: truncated record at byte {pos}")
        piece = blob[pos:pos + n]
        pos += n
        return piece

    while pos < total:
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpointError(f"{path}: tensor name at byte {pos - name_len}"
                                         " is not UTF-8") from exc
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        count = math.prod(shape)
        payload = take(8 * count)
        try:
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:
            # a zero extent leaves no payload, but numpy still refuses
            # shapes whose other extents overflow its index type
            raise CorruptCheckpointError(f"{path}: tensor {name!r} has shape {shape},"
                                         " too large to index") from exc
    return out
