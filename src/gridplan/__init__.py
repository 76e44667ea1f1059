"""Grid path planning toolkit.

Classical heap-based planners, a differentiable best-first search
with a learned per-cell selection bias, a self-supervised training loop that
tunes the bias from the planner's own search effort, and a benchmark harness.
"""

__version__ = "0.1.0"

from .grid import Coord, GridMap, PlanInstance, generate_map, load_map, sample_instance, save_map

__all__ = [
    "Coord",
    "GridMap",
    "PlanInstance",
    "generate_map",
    "load_map",
    "sample_instance",
    "save_map",
    "__version__",
]
