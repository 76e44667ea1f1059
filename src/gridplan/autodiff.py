"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

Exactly the operations the instance encoder, the losses and the
differentiable search need, nothing more. The search enters the graph
through one fused op, selection_sum, which turns the tape of a heap search
into the sum of its one-hot selections. Shapes must match exactly for
binary ops; the only broadcasting allowed is a genuine scalar (0-d)
operand. Backward walks an explicit topological order, so graph depth never
hits the interpreter recursion limit.

Checkpoint I/O lives here too: a binary format with header ``iatensor v1``
followed by (name, rank, shape, float64 payload) records. Round trips are
bit-exact.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpointError, OddDimensionError, ShapeMismatchError

CHECKPOINT_MAGIC = b"iatensor v1\n"

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only inference)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def grad_enabled() -> bool:
    return _grad_enabled


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

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
    tracked = _grad_enabled and any(p.requires_grad for p in parents)
    if not tracked:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)


def _binary_shapes(a: Tensor, b: Tensor):
    if a.shape != b.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeMismatchError(f"shapes {a.shape} and {b.shape} do not match")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Collapse an upstream grad onto a scalar operand's shape."""
    if g.shape == tuple(shape):
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.shape))

    return _record(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(-g, b.shape))

    return _record(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.data, b.shape))

    return _record(out_data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a._accumulate(-g)

    return _record(-a.data, (a,), backward)


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
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _record(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _record(out_data, (a,), backward)


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.asarray(a.data.sum())

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g)))

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


def conv2d(x, kernel, bias=None) -> Tensor:
    """Channelwise cross-correlation: x (Cin,H,W) with kernel (Cout,Cin,kh,kw).

    Odd kernel sides only, zero-padded so the output keeps H and W.
    Gradients reach x, kernel, and bias; the backward scatters per kernel
    tap, so its cost is kh*kw sliced additions.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d wants x (Cin,H,W) and kernel (Cout,Cin,kh,kw), got {x.shape} and {kernel.shape}"
        )
    cout, cin, kh, kw = kernel.shape
    if x.shape[0] != cin:
        raise ShapeMismatchError(f"x has {x.shape[0]} channels, kernel expects {cin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(f"kernel sides must be odd, got {kh}x{kw}")
    ph, pw = kh // 2, kw // 2
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeMismatchError(f"bias shape {bias.shape} != ({cout},)")

    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw))) if ph or pw else x.data
    oh, ow = x.shape[1], x.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    out_data = np.tensordot(kernel.data, windows, axes=([1, 2, 3], [0, 3, 4]))
    if bias is not None:
        out_data = out_data + bias.data[:, None, None]

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(xp)
            for u in range(kh):
                for v in range(kw):
                    gx[:, u:u + oh, v:v + ow] += np.tensordot(
                        kernel.data[:, :, u, v], g, axes=([0], [0])
                    )
            if ph or pw:
                gx = gx[:, ph:ph + x.shape[1], pw:pw + x.shape[2]]
            x._accumulate(gx)
        if kernel.requires_grad:
            gk = np.empty_like(kernel.data)
            for u in range(kh):
                for v in range(kw):
                    gk[:, :, u, v] = np.tensordot(
                        g, xp[:, u:u + oh, v:v + ow], axes=([1, 2], [1, 2])
                    )
            kernel._accumulate(gk)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 2)))

    return _record(out_data, parents, backward)


def maxpool2(a) -> Tensor:
    """2x2 max pooling with stride 2 on (C,H,W); ties go to the first index."""
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


def upsample2(a) -> Tensor:
    """Nearest-neighbor x2 upsampling on (C,H,W)."""
    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeMismatchError(f"upsample2 wants (C,H,W), got {a.shape}")
    out_data = np.repeat(np.repeat(a.data, 2, axis=1), 2, axis=2)

    def backward(g):
        c, h2, w2 = g.shape
        a._accumulate(g.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4)))

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


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _record(out_data, (a,), backward)


def pad2d(a, extra_rows: int, extra_cols: int) -> Tensor:
    """Zero-pad (C,H,W) at the bottom/right edges."""
    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeMismatchError(f"pad2d wants (C,H,W), got {a.shape}")
    out_data = np.pad(a.data, ((0, 0), (0, extra_rows), (0, extra_cols)))

    def backward(g):
        a._accumulate(g[:, :a.shape[1], :a.shape[2]])

    return _record(out_data, (a,), backward)


def crop2d(a, height: int, width: int) -> Tensor:
    """Keep the top-left height x width window of (C,H,W)."""
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


def selection_sum(bias, weights, selected, starts, cells, scores, tau: float) -> Tensor:
    """Weighted sum of a search's hard one-hot selections, soft gradient behind each.

    Step t of a best-first search selected flat index selected[t] among the
    cells open at that step, cells[starts[t]:starts[t + 1]], whose scores
    were scores[starts[t]:starts[t + 1]]: cost + heuristic + bias, so each
    score moves one for one with its cell's bias. Forward returns
    sum_t weights[t] * onehot(selected[t]), shaped like bias. Backward treats
    step t's one-hot as the soft weighting q_t = exp(-s_t / tau) / Z_t over
    its open cells, so an upstream gradient g lands on the bias as
    -weights[t] * q_t * (g - <q_t, g>) / tau on those cells only. The
    centering makes uniform upstream components vanish and leaves the
    gradient invariant to constant score shifts.
    """
    bias = as_tensor(bias)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    weights = np.asarray(weights, dtype=np.float64)
    selected = np.asarray(selected, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    sizes = np.diff(starts)
    if not (weights.shape == selected.shape == sizes.shape
            and cells.shape == scores.shape == (starts[-1],)
            and starts[0] == 0 and (sizes > 0).all()):
        raise ShapeMismatchError("selection tape: need one weight and one nonempty open set per step")
    step = np.repeat(np.arange(sizes.size), sizes)
    lo = starts[:-1]
    if not np.logical_or.reduceat(cells == selected[step], lo).all():
        raise ValueError("selection tape: a selected cell is not open at its step")
    out_data = np.bincount(selected, weights=weights,
                           minlength=bias.data.size).reshape(bias.shape)

    def backward(g):
        # shift by each step's minimum so every partition sum stays >= 1
        e = np.exp(-(scores - np.minimum.reduceat(scores, lo)[step]) / tau)
        q = e / np.add.reduceat(e, lo)[step]
        gq = g.reshape(-1)[cells]
        centered = gq - np.add.reduceat(q * gq, lo)[step]
        contrib = -(weights[step] * q * centered) / tau
        bias._accumulate(np.bincount(cells, weights=contrib,
                                     minlength=bias.data.size).reshape(bias.shape))

    return _record(out_data, (bias,), backward)


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
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return out
