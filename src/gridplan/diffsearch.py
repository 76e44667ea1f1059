"""Best-first search with differentiable node selection.

The search is classical._biased_search, the package's one best-first
engine, ordered by cost + heuristic + a per-cell selection bias supplied by
a caller (zero, a weighted-A* schedule, or a trained encoder). Each
expansion is a hard choice of the open cell with the least score, so
reported paths and costs are exact. When the bias carries a gradient the
engine records a tape of the open set at every expansion, and
autodiff.selection_sum turns it into the sums of the one-hot selections
whose backward is the soft temperature weighting over each step's open
cells.

The score is (S + H) + (bias - min bias) in float64 with ties broken by
(score, heuristic, row-major index), and neighbor offers use the shared
relaxation order with strict improvement. With zero or any constant bias the
expansion trace equals classical A*'s exactly; with bias (w-1)H it equals
weighted A*'s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .classical import SelectionTape, _biased_search, octile_matrix
from .errors import ShapeMismatchError
from .grid import Coord, PlanInstance


@dataclass
class DiffSearchResult:
    """Discrete search outputs plus the differentiable selection sums.

    mu sums the one-hot selections of path cells; closed sums all
    selections. Both carry gradients back to the bias when it is a graph
    leaf. path/cost/closed_matrix are plain discrete values.
    """

    path: tuple[Coord, ...]
    path_matrix: np.ndarray
    closed_matrix: np.ndarray
    expansions: int
    elapsed: float
    cost: float
    mu: Tensor
    closed: Tensor
    expansion_order: tuple[Coord, ...] = field(repr=False, default=())

    @property
    def search_area(self) -> int:
        return self.expansions


def search(instance: PlanInstance, bias=None) -> DiffSearchResult:
    """Run the search to the goal and backtrack the path.

    When bias is a gradient-carrying tensor, the returned mu and closed
    tensors are sums of the per-expansion one-hot selections (mu over path
    cells only), giving the trainer its route into the selection softmax at
    temperature sqrt(H*W), so the logit spread tracks map size. The
    backtrace itself is discrete and outside the graph.
    """
    t0 = time.perf_counter()
    shape = instance.grid.shape
    if bias is None:
        bias = Tensor(np.zeros(shape))
    elif not isinstance(bias, Tensor):
        bias = Tensor(np.asarray(bias, dtype=np.float64))
    if bias.shape != shape:
        raise ShapeMismatchError(f"bias shape {bias.shape} != map shape {shape}")
    # Selection sees the bias relative to its minimum, held constant in the
    # backward. A constant field is then exactly zero bias and plans like
    # classical A*, instead of re-rounding (S + H) + c so that the h
    # tie-break settles scores that tie only in exact arithmetic. Fields
    # with minimum 0, such as weighted_bias, pass through unchanged.
    shifted = bias.data - bias.data.min()
    tape = SelectionTape() if ad.grad_enabled() and bias.requires_grad else None
    found = _biased_search(instance, octile_matrix(shape, instance.goal), shifted, t0, tape)

    if tape is not None:
        selected = np.array(tape.selected)
        steps = (selected, np.array(tape.starts), np.array(tape.cells),
                 np.array(tape.scores), math.sqrt(shape[0] * shape[1]))
        closed = ad.selection_sum(bias, np.ones(selected.size), *steps)
        on_path = found.path_matrix.reshape(-1)[selected].astype(np.float64)
        mu = ad.selection_sum(bias, on_path, *steps)
    else:
        mu = Tensor(found.path_matrix.astype(np.float64))
        closed = Tensor(found.closed_matrix.astype(np.float64))

    return DiffSearchResult(
        path=found.path,
        path_matrix=found.path_matrix,
        closed_matrix=found.closed_matrix,
        expansions=found.expansions,
        elapsed=time.perf_counter() - t0,
        cost=found.cost,
        mu=mu,
        closed=closed,
        expansion_order=found.expansion_order,
    )
