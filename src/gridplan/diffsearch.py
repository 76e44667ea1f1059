"""Best-first search with differentiable node selection.

The search is classical._biased_search, the package's one best-first
engine, ordered by cost + heuristic + a per-cell selection bias supplied by
a caller (zero, a weighted-A* schedule, or a trained encoder). Each
expansion is a hard choice of the open cell with the least score, so
reported paths and costs are exact. When the bias carries a gradient the
engine records a tape of events: each push opens an entry, a cell and a
score that hold from that push until a later push of the cell supersedes
it or the cell is selected. autodiff.selection_sum turns the tape into the
sum of the one-hot selections, the closed set, whose backward is the soft
temperature weighting over each step's open entries, summed over each
entry's lifetime. The tape's arrays hold unpadded flat indices r * W + c,
which index the bias's flattened data directly; the engine's padded
indices never leave classical. The closed set is the only output that
carries a gradient: the backtracked path is a constant, as in the losses
that read it.

The score is (S + H) + (bias - min bias) in float64 with ties broken by
(score, heuristic, row-major index), and neighbor offers use the shared
relaxation order with strict improvement. With zero or any constant bias the
expansion trace equals classical A*'s exactly; with bias (w-1)H it equals
weighted A*'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .classical import SearchResult, SelectionTape, _biased_search, octile_matrix
from .errors import NonFiniteBiasError, ShapeMismatchError
from .grid import PlanInstance


@dataclass(frozen=True, eq=False, kw_only=True)
class DiffSearchResult(SearchResult):
    """A SearchResult plus the closed set as a tensor.

    closed sums all selections and, when the bias is a graph leaf, carries
    the gradient back to it. The path stays the constant path_matrix.
    """

    closed: Tensor


def _with_closed(found: SearchResult, closed: Tensor) -> DiffSearchResult:
    """found's declared fields plus the closed tensor.

    Only the fields are copied: a cached expansion_order sits in the
    instance dict too, but is not a constructor argument.
    """
    return DiffSearchResult(**{f.name: getattr(found, f.name) for f in fields(found)},
                            closed=closed)


def search(instance: PlanInstance, bias=None) -> DiffSearchResult:
    """Run the search to the goal and backtrack the path.

    When bias is a gradient-carrying tensor, the returned closed tensor is
    the sum of the per-expansion one-hot selections, giving the trainer its
    route into the selection softmax at temperature sqrt(H*W), so the logit
    spread tracks map size. The backtrace itself is discrete and outside the
    graph, so the path never carries a gradient. A bias holding NaN or an
    infinity raises NonFiniteBiasError.
    """
    shape = instance.grid.shape
    if bias is None:
        bias = Tensor(np.zeros(shape))
    elif not isinstance(bias, Tensor):
        bias = Tensor(np.asarray(bias, dtype=np.float64))
    if bias.shape != shape:
        raise ShapeMismatchError(f"bias shape {bias.shape} != map shape {shape}")
    # NaN spreads through min() and max(), so the two are finite exactly
    # when the bias is. Scores must compare for the engine's pop order.
    low, high = bias.data.min(), bias.data.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NonFiniteBiasError(f"bias holds a non-finite value (min {low}, max {high})")
    # Selection sees the bias relative to its minimum, held constant in the
    # backward. A constant field is then exactly zero bias and plans like
    # classical A*, instead of re-rounding (S + H) + c so that the h
    # tie-break settles scores that tie only in exact arithmetic. Fields
    # with minimum 0, such as weighted_bias, pass through unchanged.
    shifted = bias.data - low
    tape = SelectionTape() if ad.grad_enabled() and bias.requires_grad else None
    found = _biased_search(instance, octile_matrix(shape, instance.goal), shifted, tape)

    if tape is not None:
        closed = ad.selection_sum(bias, tape.expanded, tape.entry_cells, tape.entry_scores,
                                  tape.birth, tape.death, math.sqrt(shape[0] * shape[1]))
    else:
        closed = Tensor(found.closed_matrix.astype(np.float64))
    return _with_closed(found, closed)
