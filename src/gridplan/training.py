"""Self-supervised training of the encoder through the differentiable search.

The loop is bilevel: the encoder predicts a per-cell selection bias, the
search runs with that bias, and the loss is computed from the search's own
results, a weighted sum of the extra-visited-node count and the octile path
length. No labels are involved. Gradients flow from the extra-visited term
through the soft selection backward of the search into the encoder; the
path length enters as a constant. Each step averages the batch's gradients,
clips them to a global norm of GRAD_CLIP and applies Adam or SGD with
momentum. A supervised mode is kept for the ablation baseline: it matches
the visited-cell matrix against the optimal path from dijkstra, mirroring
label-supervised planners. The metrics come from gridplan.metrics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .classical import SQRT2, astar, dijkstra
from .diffsearch import DiffSearchResult, search
from .encoder import Arch, EncoderModel, init_model, predict_bias
from .errors import DivergenceError, ShapeMismatchError, UnreachableGoalError
from .metrics import al_metric, exp_metric

# Octile step costs to the 8 neighbors; convolving a path matrix with this
# kernel and taking half the inner product with the path recovers the exact
# per-step path length.
OCTILE_KERNEL = np.array(
    [[SQRT2, 1.0, SQRT2],
     [1.0, 0.0, 1.0],
     [SQRT2, 1.0, SQRT2]]
)

# Global gradient norm that each optimizer step's gradients are clipped to.
GRAD_CLIP = 10.0


def area_loss(closed, mu) -> Tensor:
    """Count of visited cells off the final path: sum(closed * (1 - mu)).

    mu enters as a constant mask, read off its forward values. Forward that
    changes nothing: mu is the 0/1 path matrix and closed contains it, so the
    sum is the count of closed cells off the path, sum(closed - mu). Backward
    it matters: every selection, path steps included, receives upstream 1 on
    each off-path cell and 0 on each path cell, so the centered selection
    backward pulls path cells forward and pushes off-path frontier cells back.
    Letting mu carry gradient too would cancel the closed term at path steps
    and leave path and never-visited frontier cells with no signal at all.
    """
    closed, mu = ad.as_tensor(closed), ad.as_tensor(mu)
    if closed.shape != mu.shape:
        raise ShapeMismatchError(f"shapes {closed.shape} and {mu.shape} differ")
    return ad.sum_all(ad.mul(closed, Tensor(1.0 - mu.data)))


def path_length_loss(mu) -> Tensor:
    """Octile path length via neighbor convolution: <conv(mu, K), mu> / 2."""
    mu = ad.as_tensor(mu)
    if mu.data.ndim != 2:
        raise ShapeMismatchError(f"path matrix must be 2-d, got {mu.shape}")
    lifted = ad.reshape(mu, (1,) + tuple(mu.shape))
    kernel = Tensor(OCTILE_KERNEL.reshape(1, 1, 3, 3))
    neighbor_costs = ad.conv2d(lifted, kernel)
    return ad.scale(ad.inner(neighbor_costs, lifted), 0.5)


@dataclass(frozen=True)
class LossBreakdown:
    area: float
    length: float
    total: float

    @classmethod
    def from_result(cls, result: DiffSearchResult, w_a: float, w_l: float) -> "LossBreakdown":
        area = float(result.expansions - len(result.path))
        length = float(result.cost)
        return cls(area=area, length=length, total=w_a * area + w_l * length)


@dataclass(frozen=True)
class TrainConfig:
    w_a: float = 1.0
    w_l: float = 1.0
    lr: float = 3e-4
    optimizer: str = "adam"
    epochs: int = 20
    batch_size: int = 8
    seed: int = 42
    mode: str = "imperative"

    def __post_init__(self):
        if self.w_a < 0 or self.w_l < 0 or (self.w_a == 0 and self.w_l == 0):
            raise ValueError("loss weights must be nonnegative and not both zero")
        if self.lr < 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.mode not in ("imperative", "supervised"):
            raise ValueError(f"mode must be 'imperative' or 'supervised', got {self.mode!r}")
        if self.mode == "imperative" and self.w_a == 0:
            raise ValueError("imperative training needs w_a > 0: the length term "
                             "carries no gradient")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_area: float
    mean_length: float
    mean_total: float
    val_al: float
    val_exp: float
    wall_s: float


@dataclass(frozen=True)
class ValidationStats:
    mean_al: float
    std_al: float
    mean_exp: float
    std_exp: float
    mean_pl: float
    std_pl: float
    count: int
    failures: int


class AdamOptimizer:
    """Adaptive-moment updates; reads averaged gradients off the tensors."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        for key, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            m_hat = self.m[key] / (1 - self.beta1 ** self.t)
            v_hat = self.v[key] / (1 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SgdMomentumOptimizer:
    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        for key, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.v[key] = self.momentum * self.v[key] + g
            p.data -= self.lr * self.v[key]


def make_optimizer(name: str, params: dict[str, Tensor], lr: float):
    if name == "adam":
        return AdamOptimizer(params, lr)
    return SgdMomentumOptimizer(params, lr)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients down to a global norm of max_norm; returns the norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def imperative_loss(result: DiffSearchResult, w_a: float, w_l: float) -> Tensor:
    """Search-effort objective: w_a * extra visited + w_l * path length.

    Both terms hold the backtracked path constant, so the length term adds
    its exact value, result.cost, but no gradient; only the area term
    trains. The length of a path is not lowered by dropping one of its cells
    from a selection, which is what a gradient through mu would claim: along
    the weighted-A* direction it outweighs the area gradient and points the
    other way.
    """
    return ad.add(ad.scale(area_loss(result.closed, result.mu), w_a),
                  w_l * result.cost)


def supervised_loss(result: DiffSearchResult, optimal_path_matrix: np.ndarray) -> Tensor:
    """Label-matching baseline: mean absolute difference between the visited
    matrix and the optimal path matrix."""
    label = Tensor(np.asarray(optimal_path_matrix, dtype=np.float64))
    diff = ad.sub(result.closed, label)
    total = ad.sum_all(ad.add(ad.relu(diff), ad.relu(ad.neg(diff))))
    return ad.scale(total, 1.0 / label.data.size)


def validate(instances, model: EncoderModel | None = None,
             reference_areas: list[int] | None = None) -> ValidationStats:
    """Run the differentiable search per instance; model weights unchanged.

    The selection bias comes from the model, or is zero without one. Returns mean/std of AL (sqrt extra visited + path
    length), Exp (percent search-area reduction against classical A*), and PL
    (path length). Unreachable instances are excluded and counted in failures.
    """
    als, exps, pls = [], [], []
    failures = 0
    for i, inst in enumerate(instances):
        ref = reference_areas[i] if reference_areas is not None else astar(inst).expansions
        try:
            bias = None if model is None else predict_bias(model, inst)
            res = search(inst, bias=bias)
        except UnreachableGoalError:
            failures += 1
            continue
        extra = res.expansions - len(res.path)
        als.append(al_metric(extra, res.cost))
        exps.append(exp_metric(ref, res.expansions))
        pls.append(res.cost)
    if not als:
        raise ValueError("no instance validated successfully")
    arr_al, arr_exp, arr_pl = map(np.asarray, (als, exps, pls))
    return ValidationStats(
        mean_al=float(arr_al.mean()), std_al=float(arr_al.std()),
        mean_exp=float(arr_exp.mean()), std_exp=float(arr_exp.std()),
        mean_pl=float(arr_pl.mean()), std_pl=float(arr_pl.std()),
        count=len(als), failures=failures,
    )


def _snapshot(model: EncoderModel) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in model.params.items()}


def _model_from_snapshot(arch: Arch, weights: dict[str, np.ndarray]) -> EncoderModel:
    return EncoderModel(
        arch=arch,
        params={k: Tensor(v.copy(), requires_grad=True) for k, v in weights.items()},
    )


# Per-step decay of the weight average that train() returns and validates;
# bias-corrected like Adam's moments, so the average starts at the first
# iterate instead of leaning on the initial weights.
# The search reacts to small weight changes in leaps, so single iterates
# scatter: in two desk runs the val AL reduction of the iterates ranged over
# 2.5-4.9% in the last eight epochs, that of the average over 3.5-4.4%.
WEIGHT_AVERAGE_DECAY = 0.99


def train(train_instances, val_instances, config: TrainConfig,
          model: EncoderModel | None = None, arch: Arch | None = None,
          progress=None) -> tuple[EncoderModel, list[EpochStats]]:
    """Train the encoder; returns the averaged model and per-epoch statistics.

    The returned model, and the one each epoch validates, holds the running
    average of the weights over the optimizer steps (WEIGHT_AVERAGE_DECAY);
    after a single step it is that step's weights. A supplied model is
    updated in place with the raw iterates. Deterministic given config.seed
    (and the initial model, when supplied). On a non-finite loss the loop
    aborts with DivergenceError carrying the last completed epoch's averaged
    weights and the statistics so far.
    """
    if not train_instances:
        raise ValueError("empty training set")
    if model is None:
        model = init_model(arch or Arch(), seed=config.seed)
    optimizer = make_optimizer(config.optimizer, model.params, config.lr)

    labels = None
    if config.mode == "supervised":
        labels = [dijkstra(inst).path_matrix for inst in train_instances]
    val_refs = [astar(inst).expansions for inst in val_instances] if val_instances else None

    rng = np.random.default_rng(config.seed)
    stats: list[EpochStats] = []
    averaged = _snapshot(model)
    steps = 0
    last_good = _snapshot(model)

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_instances))
        areas, lengths = [], []
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            model.zero_grads()
            for i in batch:
                inst = train_instances[i]
                bias = predict_bias(model, inst, record_graph=True)
                result = search(inst, bias=bias)
                if config.mode == "imperative":
                    loss = imperative_loss(result, config.w_a, config.w_l)
                else:
                    loss = supervised_loss(result, labels[i])
                if not np.isfinite(loss.data):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}",
                        model=_model_from_snapshot(model.arch, last_good),
                        log=stats,
                    )
                loss.backward()
                breakdown = LossBreakdown.from_result(result, config.w_a, config.w_l)
                areas.append(breakdown.area)
                lengths.append(breakdown.length)
                # Free this instance's graph before the next search builds one.
                del bias, result, loss
            for p in model.params.values():
                if p.grad is not None:
                    p.grad /= len(batch)
            clip_gradients(model.params, GRAD_CLIP)
            optimizer.step()
            steps += 1
            if steps == 1:
                averaged = _snapshot(model)
            rate = (1.0 - WEIGHT_AVERAGE_DECAY) / (1.0 - WEIGHT_AVERAGE_DECAY ** steps)
            for key, p in model.params.items():
                averaged[key] += rate * (p.data - averaged[key])
        model.zero_grads()
        averaged_model = _model_from_snapshot(model.arch, averaged)

        mean_area = float(np.mean(areas))
        mean_length = float(np.mean(lengths))
        if val_instances:
            vstats = validate(val_instances, model=averaged_model,
                              reference_areas=val_refs)
            val_al, val_exp = vstats.mean_al, vstats.mean_exp
        else:
            val_al = val_exp = float("nan")
        entry = EpochStats(
            epoch=epoch,
            mean_area=mean_area,
            mean_length=mean_length,
            mean_total=config.w_a * mean_area + config.w_l * mean_length,
            val_al=val_al,
            val_exp=val_exp,
            wall_s=time.perf_counter() - t0,
        )
        stats.append(entry)
        last_good = _snapshot(averaged_model)
        if progress is not None:
            progress(entry)
    return _model_from_snapshot(model.arch, averaged), stats


LOG_COLUMNS = ("epoch", "mean_area", "mean_length", "mean_total",
               "val_AL", "val_Exp", "wall_s")


def write_training_log(stats: list[EpochStats], path) -> None:
    """CSV log, one row per epoch; floats at full precision."""
    lines = [",".join(LOG_COLUMNS)]
    for s in stats:
        lines.append(",".join([
            str(s.epoch), repr(s.mean_area), repr(s.mean_length),
            repr(s.mean_total), repr(s.val_al), repr(s.val_exp), repr(s.wall_s),
        ]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_al_curve(stats: list[EpochStats], path) -> None:
    """Gnuplot-ready two-column file: epoch and validation AL."""
    lines = ["# epoch val_AL"]
    for s in stats:
        lines.append(f"{s.epoch} {s.val_al!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
