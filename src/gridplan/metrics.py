"""Planner metrics against a classical A* reference run on the same instance.

  Exp = 100 * (ref_area - area) / ref_area      search-area reduction
  Rt  = 100 * (ref_time - time) / ref_time      runtime reduction
  AL  = sqrt(extra visited) + path length       effort/optimality trade-off
"""

from __future__ import annotations

import math

from .errors import ZeroReferenceError


def exp_metric(area_ref, area) -> float:
    """Percent search-area reduction against the reference area."""
    if area_ref <= 0:
        raise ZeroReferenceError(f"reference area must be positive, got {area_ref}")
    return 100.0 * (area_ref - area) / area_ref


def rt_metric(t_ref, t) -> float:
    """Percent runtime reduction against the reference time."""
    if t_ref <= 0:
        raise ZeroReferenceError(f"reference time must be positive, got {t_ref}")
    return 100.0 * (t_ref - t) / t_ref


def al_metric(area, length) -> float:
    """sqrt(extra visited cells) + path length."""
    if area < 0:
        raise ValueError(f"area must be nonnegative, got {area}")
    return math.sqrt(area) + length
