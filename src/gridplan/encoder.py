"""Convolutional encoder mapping a planning instance to a selection bias map.

A small U-Net-style network: a contracting stack of 3x3 conv + relu +
2x2 maxpool levels, a bottleneck conv, then an expanding stack of nearest
upsample + skip concatenation + conv levels, finished by a 1x1 head whose
sigmoid output is scaled to [0, out_scale]. Fully convolutional, so any map
size works.

The network runs on a coarse grid about COARSE_SIDE cells a side. The pool
factor s is the largest power of two with min(H, W) // s >= COARSE_SIDE:
1 below 64, 2 at 64, 4 at 128, 8 at 256. predict_bias builds the coarse
input straight from the PlanInstance, in four channels: the obstacle mask
and the octile distance to the goal divided by H + W, both zero-padded to a
multiple of s * 2^depth and block-meaned by s, and the start and the goal,
each 1.0 in the coarse cell (r // s, c // s) that holds it. The output
reaches the map in one graph op, autodiff.to_map: each coarse cell is
copied to an s x s block and the map's window is kept. So the forward
costs about the same on every map of 64 cells a side or more, and maps
under 64 run at full resolution, s = 1.

The goal-distance channel makes a field that grows with distance to the
goal (the shape of weighted A*'s bias) one linear step away, instead of
something the convolutions must first spread out of a single goal cell.
The output is a per-cell nonnegative bias added to cost + heuristic during
node selection in the differentiable search.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, load_tensors, save_tensors
from .classical import octile_matrix
from .errors import (
    ArchMismatchError,
    CorruptCheckpointError,
    DimensionUnderflowError,
    InvalidArchError,
)
from .grid import PlanInstance

ARCH_FORMAT_VERSION = "arch v2"
# v1 ran the network at full resolution on every map; on maps of 64 cells a
# side and more its weights meant something else, so v1 sidecars are refused.
RETIRED_ARCH_FORMAT = "arch v1"
COARSE_SIDE = 32


@dataclass(frozen=True)
class Arch:
    """Network hyperparameters; fixed per checkpoint via the .arch sidecar."""

    depth: int = 3
    base: int = 16
    out_scale: float = 10.0

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidArchError(f"depth must be >= 1, got {self.depth}")
        if self.base < 4:
            raise InvalidArchError(f"base channels must be >= 4, got {self.base}")
        if not 0 < self.out_scale < np.inf:
            raise InvalidArchError(f"out_scale must be positive and finite, got {self.out_scale}")

    def sidecar_line(self) -> str:
        return (f"{ARCH_FORMAT_VERSION}: depth={self.depth} "
                f"base={self.base} out_scale={self.out_scale!r}")

    @classmethod
    def from_sidecar_line(cls, line: str) -> "Arch":
        head, _, rest = line.strip().partition(":")
        if head.strip() == RETIRED_ARCH_FORMAT:
            raise ArchMismatchError(
                f"arch sidecar is {RETIRED_ARCH_FORMAT!r}, which ran the network at full "
                f"resolution; this build reads {ARCH_FORMAT_VERSION!r} only")
        if head.strip() != ARCH_FORMAT_VERSION:
            raise CorruptCheckpointError(f"bad arch sidecar header {line!r}")
        try:
            fields = dict(item.split("=", 1) for item in rest.split())
            return cls(depth=int(fields["depth"]), base=int(fields["base"]),
                       out_scale=float(fields["out_scale"]))
        except (KeyError, ValueError) as exc:
            raise CorruptCheckpointError(f"bad arch sidecar line {line!r}") from exc


def _layer_plan(arch: Arch) -> list[tuple[str, int, int, int]]:
    """(name, out_channels, in_channels, kernel_side) in parameter order."""
    plan = []
    cin = 4  # obstacles, start, goal and goal distance
    enc_channels = []
    for level in range(arch.depth):
        cout = arch.base * 2 ** level
        plan.append((f"enc{level}", cout, cin, 3))
        enc_channels.append(cout)
        cin = cout
    bottleneck = arch.base * 2 ** arch.depth
    plan.append(("bottleneck", bottleneck, cin, 3))
    cin = bottleneck
    for level in reversed(range(arch.depth)):
        cout = enc_channels[level]
        plan.append((f"dec{level}", cout, cin + enc_channels[level], 3))
        cin = cout
    plan.append(("head", 1, cin, 1))
    return plan


@dataclass
class EncoderModel:
    arch: Arch
    params: dict[str, Tensor]

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()


def init_model(arch: Arch = Arch(), seed: int = 0) -> EncoderModel:
    """He-style init: kernels ~ N(0, 2/fan_in), biases zero; seeded.

    The final head kernel starts at zero, so an untrained model predicts a
    constant bias field everywhere. The search scores a field relative to
    its minimum, so a constant is exactly zero bias, which makes the
    untrained searches coincide with classical A* instead of starting from
    random-field noise that training must undo.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, cout, cin, k in _layer_plan(arch):
        fan_in = cin * k * k
        std = np.sqrt(2.0 / fan_in)
        params[f"{name}.w"] = Tensor(
            rng.normal(0.0, std, size=(cout, cin, k, k)), requires_grad=True
        )
        params[f"{name}.b"] = Tensor(np.zeros(cout), requires_grad=True)
    params["head.w"].data[:] = 0.0
    return EncoderModel(arch=arch, params=params)


def predict_bias(model: EncoderModel, instance: PlanInstance,
                 record_graph: bool = False) -> Tensor:
    """Run the encoder on an instance; returns the (H,W) bias map.

    record_graph=False runs outside the autodiff graph (inference); the
    trainer passes True so gradients reach the parameters.
    """
    if record_graph:
        return _forward(model, instance)
    with ad.no_grad():
        return _forward(model, instance)


def pool_factor(height: int, width: int) -> int:
    """Largest power of two s with min(height, width) // s >= COARSE_SIDE, or 1."""
    s = 1
    while min(height, width) // (2 * s) >= COARSE_SIDE:
        s *= 2
    return s


def _coarse_input(instance: PlanInstance, s: int, unit: int) -> np.ndarray:
    """(4, rows, cols) network input: obstacles, start, goal, goal distance.

    The obstacle and goal-distance planes are zero-padded to a multiple of
    s * unit and block-meaned by the pool factor s; at s = 1 the mean over
    length-1 axes is exact. Start and goal are 1.0 at (r // s, c // s).
    """
    height, width = instance.grid.shape
    rows = -(-height // (s * unit)) * unit
    cols = -(-width // (s * unit)) * unit
    fine = np.zeros((2, rows * s, cols * s))
    fine[0, :height, :width] = instance.grid.occupancy
    fine[1, :height, :width] = octile_matrix((height, width), instance.goal) / (height + width)
    x = np.zeros((4, rows, cols))
    x[[0, 3]] = fine.reshape(2, rows, s, cols, s).mean(axis=(2, 4))
    x[1, instance.start.row // s, instance.start.col // s] = 1.0
    x[2, instance.goal.row // s, instance.goal.col // s] = 1.0
    return x


def _forward(model: EncoderModel, instance: PlanInstance) -> Tensor:
    """Encoder graph on an instance.

    The input carries no gradient, so it is built in numpy and enters the
    graph as one constant Tensor. The output leaves the coarse grid through
    to_map, a graph op because the gradient crosses it.
    """
    arch = model.arch
    p = model.params
    height, width = instance.grid.shape
    unit = 2 ** arch.depth
    if height < unit or width < unit:
        raise DimensionUnderflowError(
            f"map {height}x{width} smaller than the receptive contract {unit}x{unit}"
        )
    s = pool_factor(height, width)
    x = Tensor(_coarse_input(instance, s, unit))

    skips = []
    for level in range(arch.depth):
        x = ad.relu(ad.conv2d(x, p[f"enc{level}.w"], bias=p[f"enc{level}.b"]))
        skips.append(x)
        x = ad.maxpool2(x)
    x = ad.relu(ad.conv2d(x, p["bottleneck.w"], bias=p["bottleneck.b"]))
    for level in reversed(range(arch.depth)):
        x = ad.concat_channels([ad.upsample2(x), skips[level]])
        x = ad.relu(ad.conv2d(x, p[f"dec{level}.w"], bias=p[f"dec{level}.b"]))
    x = ad.conv2d(x, p["head.w"], bias=p["head.b"])
    x = ad.scale(ad.sigmoid(x), arch.out_scale)
    return ad.to_map(x, s, height, width)


def save_model(model: EncoderModel, path) -> None:
    """Checkpoint weights plus a textual .arch sidecar next to them."""
    save_tensors(path, model.params)
    Path(f"{path}.arch").write_text(model.arch.sidecar_line() + "\n",
                                    encoding="ascii")


def load_model(path, expect_arch: Arch | None = None) -> EncoderModel:
    sidecar = Path(f"{path}.arch")
    if not sidecar.exists():
        raise CorruptCheckpointError(f"missing arch sidecar {sidecar}")
    try:
        line = sidecar.read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptCheckpointError(f"arch sidecar {sidecar} is not ASCII") from exc
    arch = Arch.from_sidecar_line(line)
    if expect_arch is not None and arch != expect_arch:
        raise ArchMismatchError(f"checkpoint is {arch}, expected {expect_arch}")
    raw = load_tensors(path)
    # A .w and a .b per encoder, decoder, bottleneck and head layer; checked
    # before the layer plan is built, so a corrupt depth cannot blow it up.
    if len(raw) != 4 * arch.depth + 4:
        raise ArchMismatchError(
            f"checkpoint has {len(raw)} tensors {sorted(raw)}, {arch} needs {4 * arch.depth + 4}")
    params: dict[str, Tensor] = {}
    for name, cout, cin, k in _layer_plan(arch):
        for suffix, shape in ((".w", (cout, cin, k, k)), (".b", (cout,))):
            key = name + suffix
            if key not in raw:
                raise ArchMismatchError(f"checkpoint lacks tensor {key!r} for {arch}")
            if raw[key].shape != shape:
                raise ArchMismatchError(
                    f"tensor {key!r} has shape {raw[key].shape}, {arch} needs {shape}"
                )
            if not np.isfinite(raw[key]).all():
                raise CorruptCheckpointError(f"tensor {key!r} has non-finite entries")
            params[key] = Tensor(raw[key], requires_grad=True)
    return EncoderModel(arch=arch, params=params)
