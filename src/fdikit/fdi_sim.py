"""Level-wise simulation of linear stationary fuzzy dynamics.

A fuzzy system x(k+1) = H x(k) is evaluated per alpha level as an
interval difference inclusion.  The system keeps every entry of H and x0
on its own breakpoint grid, grouped by grid, and cuts the entries at the
levels a caller asks for.  For non-negative families the
exact solution-set envelope separates: the lower endpoints evolve under
the lower matrix and the upper endpoints under the upper matrix.  Monte
Carlo member trajectories serve as an independent containment oracle and
work for sign-indefinite systems too.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fuzzy_num import (FuzzyVector, _floats, _freeze, _level_stack, check_grid, level_cuts,
                        level_groups)
from .interval_linalg import IntervalMatrix, log_fallback, member_chunks, sample_matrix

__all__ = ["FuzzySystem", "SignPreconditionError", "assemble_fuzzy_attainable",
           "envelope_endpoints", "level_matrix", "level_state", "mc_trajectories"]

DEFAULT_ALPHAS = np.round(np.linspace(0.0, 1.0, 11), 12)


class SignPreconditionError(ValueError):
    """A sign assumption required by the exact envelope is violated."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _entries(v, n: int, path: str) -> list:
    # the n entries of a row of H or of x0 (a JSON list as it is), named ``path`` in a file
    if type(v) is not list:
        v = None if isinstance(v, (str, bytes, Mapping)) or not np.iterable(v) else list(v)
    if v is None or len(v) != n:
        raise ValueError(f"{path}: expected {n} entries")
    return v


class FuzzySystem:
    """Linear stationary system with fuzzy matrix and fuzzy initial state.

    ``h`` is an n x n grid and ``x0`` a sequence of n entries, each a
    FuzzyNumber, Tfn, real number or JSON object (``{"tfn": ...}`` or
    ``{"levels": ...}``); any other row or ``x0``, a string or mapping
    included, raises ValueError naming its path in a system file.  The
    system keeps the entries as given, in the read-only ``groups`` of
    :func:`level_groups` (H row-major, then x0), and cuts them on demand:
    memory is linear in the input, and a level on an entry's own grid is a
    row lookup of that entry.
    """

    def __init__(self, h, x0, alphas=DEFAULT_ALPHAS):
        rows = list(h)
        n = len(rows)
        if n == 0:
            raise ValueError('"H": expected at least one row')
        rows = [_entries(row, n, f'"H"[{i}]') for i, row in enumerate(rows)]
        cells = list(itertools.chain(*rows, _entries(x0, n, '"x0"')))

        def label(p):
            return f'"H"[{p // n}][{p % n}]' if p < n * n else f'"x0"[{p - n * n}]'

        self.n = n
        self.alphas = _floats(alphas, '"alphas": ').copy()
        check_grid(self.alphas)
        self.alphas.setflags(write=False)
        self.groups = level_groups(cells, label)


def _cuts(sys: FuzzySystem, levels):
    """Cut endpoints of H, shape (*np.shape(levels), n, n), and of x0,
    shape (*np.shape(levels), n), at ``levels``: (h_lo, h_hi, x0_lo, x0_hi)."""
    n = sys.n
    lo, hi = level_cuts(sys.groups, n * n + n, levels)
    h = np.shape(levels) + (n, n)
    return lo[..., :n * n].reshape(h), hi[..., :n * n].reshape(h), lo[..., n * n:], hi[..., n * n:]


def level_matrix(sys: FuzzySystem, alpha: float) -> IntervalMatrix:
    """Entrywise alpha-cuts of the dynamic matrix as an interval matrix,
    each entry interpolated on its own breakpoint grid."""
    h_lo, h_hi, _, _ = _cuts(sys, alpha)
    return IntervalMatrix(h_lo, h_hi)


def level_state(sys: FuzzySystem, alpha: float) -> IntervalMatrix:
    """Alpha-cut box of the initial state, a vector box."""
    _, _, x0_lo, x0_hi = _cuts(sys, alpha)
    return IntervalMatrix(x0_lo, x0_hi)


def _steps(m, start, horizon: int) -> np.ndarray:
    """The stack x of shape (horizon + 1, *start.shape) with x[0] = start and
    x[k + 1] = m @ x[k], each step written in place: the vectors of ``start``
    step as columns of the matrices ``m``."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    x = np.empty((horizon + 1, *start.shape))
    x[0] = start
    steps = x[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is an unbounded support
        for k in range(horizon):
            np.matmul(m, steps[k], out=steps[k + 1])
    return x


def envelope_endpoints(sys: FuzzySystem, alphas, horizon: int):
    """Exact envelope endpoints (lo, hi) at each level of ``alphas``.

    ``alphas`` is one level or an array of levels; lo and hi have shape
    (horizon + 1, *np.shape(alphas), n).  The endpoint systems
    lo' = M_lo lo and hi' = M_hi hi bound the solution set exactly when
    the lower matrix and the lower state are non-negative; at the first
    level where either is not, SignPreconditionError is raised.  Steps are
    written in place, all lower ones first: one matrix stack at a time.

    An endpoint that overflowed is an unbounded support: it stays inf, or
    NaN where a zero bound met an infinite one, with no warning.  Only
    :func:`assemble_fuzzy_attainable`, which builds fuzzy numbers, refuses it.
    """
    levels = _floats(alphas)
    m_lo, m_hi, x_lo, x_hi = _cuts(sys, levels)
    bad_m = (m_lo < 0).any(axis=(-2, -1)).ravel()
    bad = bad_m | (x_lo < 0).any(axis=-1).ravel()
    if bad.any():
        i = int(np.argmax(bad))
        condition, what = (("matrix_nonneg", "dynamic-matrix") if bad_m[i]
                           else ("state_nonneg", "initial-state"))
        alpha = float(levels.ravel()[i])
        log_fallback(__name__, "exact envelope refused (%s) at alpha=%g", condition, alpha)
        raise SignPreconditionError(
            condition, f"{what} lower bound has a negative entry at alpha="
            f"{alpha:g}; use mc_trajectories")
    return _steps(m_lo, x_lo, horizon), _steps(m_hi, x_hi, horizon)


@dataclass(eq=False)
class FuzzyAttainable:
    """Fuzzy attainable sets as one level stack: the set at step k has
    component i with the cut endpoints lo[k, :, i] and hi[k, :, i] at the
    levels ``alphas``; ``lo`` and ``hi`` have shape (horizon + 1, L, n) and
    are read-only."""

    alphas: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        _freeze(self, self.alphas, self.lo, self.hi)

    @property
    def horizon(self) -> int:
        return self.lo.shape[0] - 1

    @cached_property
    def steps(self) -> tuple[FuzzyVector, ...]:
        """The set at each step, a read-only FuzzyVector view of its row."""
        return tuple(_freeze(FuzzyVector.__new__(FuzzyVector), self.alphas, lo, hi)
                     for lo, hi in zip(self.lo, self.hi))


def assemble_fuzzy_attainable(sys: FuzzySystem, horizon: int) -> FuzzyAttainable:
    """Exact envelopes of steps 0..horizon at every level of ``sys.alphas``,
    stacked into fuzzy vectors.

    Every component of every step is checked at once; the first malformed
    one raises ValueError naming its step and component.  An endpoint that
    overflowed is an unbounded support; cuts that are not nested across
    alpha raise StackingViolation, which would indicate an implementation
    bug, not bad input.
    """
    lo, hi = envelope_endpoints(sys, sys.alphas, horizon)
    # levels first: views of the (L, horizon + 1, n) stack, not copies
    _level_stack(sys.alphas, lo.transpose(1, 0, 2), hi.transpose(1, 0, 2), 3,
                 "envelope endpoints must be (L, horizon + 1, n) arrays", "step {}, component {}")
    return FuzzyAttainable(sys.alphas, lo, hi)


def mc_trajectories(sys: FuzzySystem, alpha: float, horizon: int, n: int,
                    seed: int = 0, mode: str = "constant") -> np.ndarray:
    """Monte Carlo member trajectories, shape (n, horizon+1, dim).

    Each run draws its start uniformly from the initial box; ``constant``
    reuses one uniformly drawn member matrix every step, ``timevarying``
    redraws the matrix each step (the full inclusion semantics), each time
    ``n`` draws in the chunks of ``member_chunks``.  Fixed seeds reproduce
    exactly.  No sign restrictions.
    """
    if mode not in ("constant", "timevarying"):
        raise ValueError(f'mode must be "constant" or "timevarying", got {mode!r}')
    if n <= 0 or horizon < 0:
        raise ValueError("need n > 0 trajectories and a non-negative horizon")
    h_lo, h_hi, x0_lo, x0_hi = _cuts(sys, alpha)
    m = IntervalMatrix(h_lo, h_hi)
    rng = np.random.default_rng(seed)
    out = np.empty((n, horizon + 1, sys.n))
    out[:, 0] = sample_matrix(IntervalMatrix(x0_lo, x0_hi), rng, n)
    if mode == "constant":
        for rows, u in member_chunks(m, 0, n, rng):
            for k in range(1, horizon + 1):
                out[rows, k] = np.einsum("nij,nj->ni", u, out[rows, k - 1])
    else:
        for k in range(1, horizon + 1):
            for rows, u in member_chunks(m, 0, n, rng):
                out[rows, k] = np.einsum("nij,nj->ni", u, out[rows, k - 1])
    return out
