"""Distances on fuzzy numbers and fuzzy vectors.

Fuzzy vectors add their componentwise distances, as the coordinate-wise
sum of absolute differences does on R^N.  Two distinct fuzzy metrics are
provided: the membership-sup distance (bounded by 1) and the level-wise
sup of Hausdorff cut distances (unbounded).  They are not the same
functional and are never substituted for one another.
"""

from __future__ import annotations

import numpy as np

from .fuzzy_num import FuzzyVector, as_fuzzy, interp_levels, membership_limits

__all__ = ["d_fuzzy_vec", "d_membership"]


def _membership_gaps(x, y) -> np.ndarray:
    # Per component of two fuzzy vectors (a fuzzy number is one component):
    # the largest gap of grades and one-sided limits over every cut endpoint.
    p = np.concatenate([x.lo, x.hi, y.lo, y.hi])
    gaps = membership_limits(x.alphas, x.lo, x.hi, p) - membership_limits(y.alphas, y.lo, y.hi, p)
    return np.abs(gaps).max(axis=(0, 1))


def _levelwise_gaps(x, y) -> np.ndarray:
    # Per component: the sup over alpha of the Hausdorff distance between
    # cuts.  Cut endpoints are piecewise linear in alpha, so it is the largest
    # endpoint gap over the union of both grids.
    grid = np.union1d(x.alphas, y.alphas)
    (x_lo, x_hi), (y_lo, y_hi) = (interp_levels(grid, v.alphas, v.lo, v.hi) for v in (x, y))
    return np.maximum(np.abs(x_lo - y_lo), np.abs(x_hi - y_hi)).reshape(grid.size, -1).max(axis=0)


def d_membership(x1, x2) -> float:
    """Largest pointwise gap between two membership functions, in [0, 1].

    Both memberships are piecewise linear with breakpoints at cut
    endpoints, so the sup of |x1(p) - x2(p)| is attained at a breakpoint
    or approached one-sidedly at a jump; evaluating values and one-sided
    limits at every breakpoint of either number is exact.
    """
    return float(_membership_gaps(as_fuzzy(x1), as_fuzzy(x2))[0])


def d_fuzzy_vec(x: FuzzyVector, y: FuzzyVector, which: str = "membership") -> float:
    """Distance between fuzzy vectors: componentwise scalar metric, summed.

    ``which`` selects the scalar metric: "membership" or "levelwise", the
    sup over alpha of the Hausdorff distance between cuts.  Components are
    added left to right.
    """
    gaps = {"membership": _membership_gaps, "levelwise": _levelwise_gaps}.get(which)
    if gaps is None:
        raise ValueError(f'metric must be "membership" or "levelwise", got {which!r}')
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    return float(sum(gaps(x, y).tolist()))
