"""Convolutional encoder mapping a planning instance to a selection bias map.

A small U-Net-style network: a contracting stack of 3x3 conv + relu +
2x2 maxpool levels, a bottleneck conv, then an expanding stack of nearest
upsample + skip concatenation + conv levels, finished by a 1x1 head whose
sigmoid output is scaled to [0, out_scale]. Fully convolutional, so any map
size works: inputs are zero-padded to the next multiple of 2^depth and the
output cropped back.

The input is a 3-channel tensor: obstacle mask, one-hot start, one-hot goal.
The network appends a fourth channel itself, the octile distance to the goal
divided by H + W, so a field that grows with distance to the goal (the shape
of weighted A*'s bias) is one linear step away instead of something the
convolutions must first spread out of a single goal pixel. The output is a
per-cell nonnegative bias added to cost + heuristic during node selection in
the differentiable search.
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
from .grid import Coord, PlanInstance

ARCH_FORMAT_VERSION = "arch v1"


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
    cin = 4  # the three instance channels plus the goal-distance channel
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


def instance_tensor(instance: PlanInstance) -> np.ndarray:
    """3-channel network input: obstacles, one-hot start, one-hot goal."""
    grid = instance.grid
    x = np.zeros((3,) + grid.shape)
    x[0] = grid.occupancy
    x[1][instance.start] = 1.0
    x[2][instance.goal] = 1.0
    return x


def forward(model: EncoderModel, x, record_graph: bool = False) -> Tensor:
    """Run the encoder on a (3,H,W) input; returns the (H,W) bias map.

    record_graph=False runs outside the autodiff graph (inference); the
    trainer passes True so gradients reach the parameters.
    """
    if record_graph:
        return _forward(model, x)
    with ad.no_grad():
        return _forward(model, x)


def _forward(model: EncoderModel, x) -> Tensor:
    arch = model.arch
    p = model.params
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if x.data.ndim != 3 or x.shape[0] != 3:
        raise DimensionUnderflowError(f"input must be (3,H,W), got {x.shape}")
    height, width = x.shape[1], x.shape[2]
    unit = 2 ** arch.depth
    if height < unit or width < unit:
        raise DimensionUnderflowError(
            f"map {height}x{width} smaller than the receptive contract {unit}x{unit}"
        )
    x = ad.concat_channels([x, Tensor(goal_distance_channel(x.data[2]))])
    pad_r = (-height) % unit
    pad_c = (-width) % unit
    if pad_r or pad_c:
        x = ad.pad2d(x, pad_r, pad_c)

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
    if pad_r or pad_c:
        x = ad.crop2d(x, height, width)
    return ad.reshape(x, (height, width))


def goal_distance_channel(goal_plane: np.ndarray) -> np.ndarray:
    """(1,H,W) octile distance to the goal plane's peak, over H + W."""
    height, width = goal_plane.shape
    goal = Coord(*divmod(int(np.argmax(goal_plane)), width))
    return (octile_matrix((height, width), goal) / (height + width))[None]


def predict_bias(model: EncoderModel, instance: PlanInstance,
                 record_graph: bool = False) -> Tensor:
    return forward(model, instance_tensor(instance), record_graph=record_graph)


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
            params[key] = Tensor(raw[key], requires_grad=True)
    return EncoderModel(arch=arch, params=params)
