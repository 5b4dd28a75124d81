"""Fuzzy numbers stored as nested stacks of alpha-cut intervals.

A fuzzy number here is a finite grid of alpha levels in [0, 1] (always
containing 0 and 1) with one closed interval per level; between grid
levels the endpoints are linear interpolations, so every alpha-cut is
exact.  Triangular numbers are the two-level special case.  Membership
functions are the piecewise-linear curves traced by the cut endpoints.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["FuzzyNumber", "FuzzyVector", "StackingViolation", "Tfn", "as_fuzzy"]

#: Slack allowed when checking nestedness of levels; lo <= hi is exact.
ORDER_TOL = 1e-12

#: Breakpoint grid of a triangular number.
_TFN_LEVELS = np.array((0.0, 1.0))


class StackingViolation(ValueError):
    """A family of alpha-level sets is not properly nested."""


@dataclass(frozen=True)
class Tfn:
    """Triangular fuzzy number as an ordered (left, center, right) triple."""

    l: float
    c: float
    r: float

    def __post_init__(self):
        if not (self.l <= self.c <= self.r):
            raise ValueError(
                f"triple must satisfy l <= c <= r, got ({self.l}, {self.c}, {self.r})"
            )


def _floats(x, prefix: str = "") -> np.ndarray:
    """``x`` read as a float array, not copied when it is one; a value that
    ``float`` cannot read, such as an integer no double can hold, raises
    ValueError with ``float``'s message after ``prefix``."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{prefix}{exc}") from None


def membership_limits(alphas, lo, hi, p) -> np.ndarray:
    """Membership grades of the fuzzy numbers whose cut endpoints are the
    columns of ``lo`` and ``hi`` (L, n), at the points ``p`` (m, n) of each
    column: an (3, m, n) array of the grade sup{alpha : p in cut(alpha)},
    its limit from the left and its limit from the right.  The limits
    differ from the grade where repeated endpoints make the grade jump.
    A NaN point has NaN in all three, and the points inf and -inf grade 0.
    One-dimensional ``lo``, ``hi`` and ``p`` are one fuzzy number.
    """
    lo, hi = lo.reshape(alphas.size, -1), hi.reshape(alphas.size, -1)
    p = np.reshape(p, (-1, lo.shape[1])).T
    # sup{alpha : vals(alpha) <= p} ("right") and sup{alpha : vals(alpha) < p}
    # ("left") for the nondecreasing columns vals of lo and of -hi, each held
    # as one contiguous row and searched on its own.
    rows, points = np.concatenate([lo.T, -hi.T]), np.concatenate([p, -p])
    cols, size = rows.shape
    row = np.arange(cols)[:, None]
    sups = []
    for side in ("right", "left"):
        j = np.array([r.searchsorted(q, side) for r, q in zip(rows, points)])
        k = np.minimum(np.maximum(j, 1), size - 1)
        below, above = rows[row, k - 1], rows[row, k]
        # Where 0 < j < size, vals[k-1] and vals[k] straddle p strictly on
        # one side, so no 0/0; elsewhere the quotient, which may be 0/0 or
        # overflow beside a subnormal step, is discarded.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = (points - below) / (above - below)
        a = alphas[k - 1] + t * (alphas[k] - alphas[k - 1])
        sup = np.where(j == 0, 0.0, np.where(j == size, 1.0, a))  # empty set: 0, all: 1
        sups.append((sup[:cols // 2], sup[cols // 2:]))
    (left, right), (left_strict, right_strict) = sups
    grades = np.array([np.minimum(left, right), np.minimum(left_strict, right),
                       np.minimum(left, right_strict)])
    np.copyto(grades, p, where=np.isnan(p))  # the search puts NaN above every level
    return grades.transpose(0, 2, 1)


def check_grid(alphas: np.ndarray) -> None:
    """The one alpha-grid rule: ``alphas`` is a float vector that runs from
    exactly 0 to exactly 1 and strictly increases, or ValueError is raised."""
    if alphas.ndim != 1 or alphas.size < 2 or alphas[0] != 0.0 or alphas[-1] != 1.0:
        raise ValueError("alpha grid must run from 0 to 1")
    if not (alphas[1:] > alphas[:-1]).all():
        raise ValueError("alpha grid must be strictly increasing")


def stack_fault(alphas: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """First failed check of fuzzy numbers sharing the grid ``alphas``, whose
    cut endpoints run along the last axis of ``lo`` and ``hi``: (row, exception)
    for the first malformed row in row-major order, or None.  A row failing
    several checks reports the first, in the order grid (:func:`check_grid`,
    blamed on row 0), finiteness, width overflow, ordering, nestedness.
    """
    try:
        check_grid(alphas)
    except ValueError as exc:
        return 0, exc
    # Non-finite or huge endpoints make these differences inf or NaN, which
    # the checks name, so numpy need not warn.  A check failing anywhere names
    # the row of its first bad element; finite widths mean finite endpoints.
    # The level steps are np.diff's, without its per-call overhead.
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
        checks = [(width < 0, ValueError, "every level must satisfy lo <= hi"),
                  ((lo[..., 1:] - lo[..., :-1] < -ORDER_TOL)
                   | (hi[..., 1:] - hi[..., :-1] > ORDER_TOL), StackingViolation,
                   "alpha-cuts must be nested (nonincreasing in alpha)")]
    if not np.isfinite(width).all():
        checks[:0] = [(~(np.isfinite(lo) & np.isfinite(hi)), ValueError,
                       "support must be bounded (finite endpoints)"),
                      (~np.isfinite(width), ValueError, "cut width hi - lo overflows")]
    faults = [(int(np.argmax(bad)) // bad.shape[-1], kind(message))
              for bad, kind, message in checks if bad.any()]
    return min(faults, key=lambda fault: fault[0], default=None)


def _level_stack(alphas, lo, hi, ndim: int, shape: str, label: str = ""):
    """The one rule of a level stack built from arrays, returned read as float
    arrays (not copied when they already are): ``lo`` and ``hi`` have ``ndim``
    axes, the levels ``alphas`` first, then one fuzzy number per index of the
    others.  A value :func:`_floats` cannot read raises its ValueError, another
    shape or no number ValueError(shape); then :func:`check_grid` runs, naming
    no number, and the first :func:`stack_fault` fault is raised,
    prefixed with ``label.format(*index)`` of its number when there is a label."""
    alphas, lo, hi = _floats(alphas), _floats(lo), _floats(hi)
    if lo.ndim != ndim or lo.shape != hi.shape or lo.shape[0] != alphas.size or 0 in lo.shape[1:]:
        raise ValueError(shape)
    check_grid(alphas)
    fault = stack_fault(alphas, np.moveaxis(lo, 0, -1), np.moveaxis(hi, 0, -1))
    if fault is not None:
        index, exc = np.unravel_index(fault[0], lo.shape[1:]), fault[1]
        raise type(exc)(f"{label.format(*index)}: {exc}") if label else exc
    return alphas, lo, hi


def _freeze(x, alphas, lo, hi):
    # a level stack's arrays, read-only, as the attributes of x
    for a in (alphas, lo, hi):
        a.setflags(write=False)
    x.alphas, x.lo, x.hi = alphas, lo, hi
    return x


def _same_stack(a, b):
    # __eq__ of level stacks
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in a.__slots__)


class FuzzyNumber:
    """Piecewise-linear fuzzy number over a finite grid of alpha levels.

    Invariants: alphas strictly increasing from exactly 0 to exactly 1,
    lo <= hi at every level, cuts nested (raising alpha never widens an
    endpoint), bounded support.  Instances are immutable; operations
    return new numbers.
    """

    __slots__ = ("alphas", "lo", "hi")

    def __init__(self, alphas, lo, hi):
        stack = _level_stack(alphas, lo, hi, 1,
                             "alphas, lo, hi must be one-dimensional and equally long")
        _freeze(self, *(a.copy() for a in stack))  # copies: the caller's arrays stay writable

    # -- cuts ---------------------------------------------------------------

    def cut(self, alpha: float) -> tuple[float, float]:
        """Exact alpha-cut, interpolating endpoints between grid levels."""
        lo, hi = self.cuts(alpha)
        return float(lo), float(hi)

    def cuts(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cut` over an array of levels."""
        return interp_levels(alphas, self.alphas, self.lo, self.hi)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lo[0]), float(self.hi[0])

    # -- membership ---------------------------------------------------------

    def membership(self, p):
        """Grade of membership sup{alpha : p in cut(alpha)} of the point
        ``p``, or an array of the grades of an array of points."""
        p = _floats(p)
        grades = membership_limits(self.alphas, self.lo, self.hi, p)[0, :, 0]
        return float(grades[0]) if p.ndim == 0 else grades.reshape(p.shape)

    # -- conveniences ---------------------------------------------------------

    def levels(self) -> list[tuple[float, float, float]]:
        return [(float(a), float(l), float(h))
                for a, l, h in zip(self.alphas, self.lo, self.hi)]

    __eq__ = _same_stack

    def __repr__(self):
        if self.alphas.size == 2 and self.lo[1] == self.hi[1]:
            return f"FuzzyNumber(tfn=({self.lo[0]:g}, {self.lo[1]:g}, {self.hi[0]:g}))"
        return f"FuzzyNumber({self.alphas.size} levels, support=[{self.lo[0]:g}, {self.hi[0]:g}])"


def as_fuzzy(x) -> FuzzyNumber:
    """Coerce a Tfn, real number, JSON object or FuzzyNumber to a FuzzyNumber."""
    return x if isinstance(x, FuzzyNumber) else FuzzyNumber(*breakpoints(x))


class FuzzyVector:
    """Vector of fuzzy numbers stored as one level stack.

    ``alphas`` (L,) is the union of the components' grids and ``lo`` and
    ``hi`` (L, n) are the cut endpoints of component i in column i, read-only.
    Components on a coarser grid are stored exactly, since linear
    interpolation along ``alphas`` reproduces them.  The alpha-cut of the
    vector is the box of component cuts.
    """

    __slots__ = ("alphas", "lo", "hi")

    def __init__(self, components: Sequence):
        cells = list(components)
        if not cells:
            raise ValueError("fuzzy vector needs at least one component")
        groups = level_groups(cells, lambda p: f"component {p}")
        alphas = np.unique(np.concatenate([grid for grid, *_ in groups]))
        _freeze(self, alphas, *level_cuts(groups, len(cells), alphas))

    @classmethod
    def from_stack(cls, alphas, lo, hi) -> "FuzzyVector":
        """Vector whose component i has the cut endpoints lo[:, i] and hi[:, i]
        at the levels ``alphas``; every component is checked at once."""
        stack = _level_stack(alphas, lo, hi, 2,
                             "lo and hi must be (L, n) arrays for L alpha levels, n >= 1",
                             "component {}")
        return _freeze(cls.__new__(cls), *(a.copy() for a in stack))

    @property
    def n(self) -> int:
        return self.lo.shape[1]

    @property
    def components(self) -> tuple:
        return tuple(self)

    def cut(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Box cut: per-coordinate lower and upper endpoint vectors."""
        return interp_levels(alpha, self.alphas, self.lo, self.hi)

    def __len__(self):
        return self.n

    def __getitem__(self, i) -> FuzzyNumber:
        """Component i, one integer, from column i of the stack (already checked)."""
        i = operator.index(i)
        return _freeze(FuzzyNumber.__new__(FuzzyNumber), self.alphas, self.lo[:, i], self.hi[:, i])

    def __iter__(self):
        return (self[i] for i in range(self.n))

    __eq__ = _same_stack

    def __repr__(self):
        return f"FuzzyVector(n={self.n})"


def level_groups(cells, label) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Cells, each a FuzzyNumber, Tfn, real number or JSON object, grouped by
    breakpoint grid: one read-only (grid, index, lo, hi) per distinct grid,
    in order of first appearance, where ``index`` lists the positions of
    the group's cells and column j of lo and hi (len(grid), len(index)) holds
    the cut endpoints of cell index[j] at the levels of ``grid``.  Every
    value is read as ``float``.

    The cells are gathered into one stack per grid: in one flat pass
    (:func:`_unit_stack`) when they plainly are all triangular on [0, 1],
    otherwise cell by cell through :func:`breakpoints`.  The checks of
    :class:`FuzzyNumber` then run once per stack, and the first malformed
    cell raises ValueError (StackingViolation for cuts that are not nested)
    prefixed with ``label(index)``.
    """
    stacks, faults = _unit_stack(cells), []
    if stacks is None:
        grids = {}
        for p, cell in enumerate(cells):
            try:
                alphas, lo, hi = breakpoints(cell)
            except (TypeError, ValueError) as exc:
                faults.append((p, ValueError(exc)))
                break
            grids.setdefault(alphas, []).append((p, lo, hi))
        stacks = [tuple(np.array(v) for v in (alphas, *zip(*members)))
                  for alphas, members in grids.items()]
    for a, index, lo, hi in stacks:
        fault = stack_fault(a, lo, hi)
        if fault is not None:
            faults.append((index[fault[0]], fault[1]))
    if faults:
        p, exc = min(faults, key=lambda fault: fault[0])
        raise type(exc)(f"{label(p)}: {exc}")
    groups = [(a, index, lo.T, hi.T) for a, index, lo, hi in stacks]
    for a in itertools.chain.from_iterable(groups):
        a.setflags(write=False)
    return groups


_UNIT = _TFN_LEVELS.tobytes()

#: (l, c, r) of each kind of cell of :func:`_unit_stack`; a FuzzyNumber gives
#: () unless it lies on exactly [0, 1] and its lo(1) and hi(1) have the same bits.
_TRIPLE = {dict: operator.itemgetter("tfn"), Tfn: operator.attrgetter("l", "c", "r"),
           float: lambda x: (x, x, x), int: lambda x: (x, x, x),
           FuzzyNumber: lambda x: (*x.lo.tolist(), x.hi[0]) if x.alphas.tobytes() == _UNIT
           and x.lo[1:].tobytes() == x.hi[1:].tobytes() else ()}


def _unit_stack(cells) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None:
    """The one stack (grid, index, lo, hi) on the grid [0, 1] that
    :func:`level_groups` would gather cell by cell, with lo and hi of shape
    (len(cells), 2), or None when in doubt.  The cells, in any mix, are
    ``{"tfn": [l, c, r]}`` dicts, Tfns, floats and ints, whose values convert
    as ``float`` does, and FuzzyNumbers that are triangular on exactly [0, 1];
    and every cell reads l <= c <= r, so that NaN and unordered triples are
    left to :class:`Tfn`.
    """
    try:
        triples = [_TRIPLE[type(cell)](cell) for cell in cells]
    except KeyError:  # another kind of cell, or a dict without "tfn"
        return None
    if not set(map(type, triples)) <= {list, tuple} or set(map(len, triples)) != {3}:
        return None
    try:
        x = np.fromiter(itertools.chain.from_iterable(triples), float, 3 * len(cells))
    except (TypeError, ValueError, OverflowError):  # no number, a sequence, a huge integer
        return None
    # Rows l, c, r of all cells, each contiguous, so that every check runs
    # along whole rows.
    x = np.ascontiguousarray(x.reshape(-1, 3).T)
    if not (x[:-1] <= x[1:]).all():
        return None
    return [(_TFN_LEVELS, np.arange(len(cells)), x[:2].T, x[:-3:-1].T)]


def level_cuts(groups, size: int, levels) -> tuple[np.ndarray, np.ndarray]:
    """Cut endpoints (lo, hi), each of shape ``np.shape(levels) + (size,)``,
    of the ``size`` cells grouped by :func:`level_groups`, at ``levels``:
    each group is interpolated once, as ``np.interp`` would, bit for bit."""
    levels = _floats(levels)
    if len(groups) == 1:  # every cell in order; interp_levels returns new arrays
        grid, _, glo, ghi = groups[0]
        return interp_levels(levels, grid, glo, ghi)
    lo = np.empty(levels.shape + (size,))
    hi = np.empty_like(lo)
    for grid, index, glo, ghi in groups:
        lo[..., index], hi[..., index] = interp_levels(levels, grid, glo, ghi)
    return lo, hi


# -- JSON encoding -----------------------------------------------------------
#
# A fuzzy number serialises either as {"tfn": [l, c, r]} or as
# {"levels": [[alpha, lo, hi], ...]}; numbers are plain doubles.

def breakpoints(x) -> tuple[tuple, tuple, tuple]:
    """(alphas, lo, hi) tuples of a FuzzyNumber, Tfn, real number or JSON object.

    The numeric checks of :class:`FuzzyNumber` are left to the caller, so
    that many numbers can be checked at once.  A value that ``float`` cannot
    hold raises ValueError.
    """
    if isinstance(x, FuzzyNumber):
        return tuple(x.alphas.tolist()), tuple(x.lo.tolist()), tuple(x.hi.tolist())
    try:
        if isinstance(x, dict) and "tfn" in x:
            if not (isinstance(x["tfn"], (list, tuple)) and len(x["tfn"]) == 3):
                raise ValueError('"tfn" must be a list [l, c, r]')
            x = Tfn(*(float(v) for v in x["tfn"]))
        if isinstance(x, (int, float)):
            x = Tfn(float(x), float(x), float(x))
        if isinstance(x, Tfn):
            return (0.0, 1.0), (float(x.l), float(x.c)), (float(x.r), float(x.c))
        if not isinstance(x, dict):
            raise ValueError(f"fuzzy number must be a JSON object, got {type(x).__name__}")
        if "levels" not in x:
            raise ValueError('fuzzy number object needs a "tfn" or "levels" field')
        rows = x["levels"]
        if not isinstance(rows, list) or not all(isinstance(r, (list, tuple)) and len(r) == 3
                                                 for r in rows):
            raise ValueError('"levels" must be a list of [alpha, lo, hi] rows')
        return tuple(zip(*((float(a), float(l), float(h)) for a, l, h in rows))) or ((),) * 3
    except OverflowError as exc:  # an integer no double can hold
        raise ValueError(exc) from None


def interp_levels(x, xp, *fps) -> tuple[np.ndarray, ...]:
    """``np.interp(x, xp, f)`` for every column ``f`` of each stack in
    ``fps``, bit for bit: one array per stack, the levels searched once.

    Each stack holds levels on its first axis and ``xp`` is a strictly
    increasing grid of alpha levels; the result for ``fp`` has shape
    ``x.shape + fp.shape[1:]``.  Like ``np.interp``, this is the stored
    value at a breakpoint and ``slope * (x - xp[j]) + fp[j]`` between
    breakpoints.
    """
    x = _floats(x)
    if not ((xp[0] <= x) & (x <= xp[-1])).all():
        raise ValueError(f"alpha must lie in [{xp[0]:g}, {xp[-1]:g}], got {x}")
    flat = x.ravel()
    j = np.searchsorted(xp, flat, side="right") - 1
    on = xp[j] == flat
    if on.all():  # every level on the grid: a row lookup
        return tuple(fp[j].reshape(x.shape + fp.shape[1:]) for fp in fps)
    k = np.minimum(j, xp.size - 2)
    # one slope per interval from the first to the last in use, gathered per level
    first, last = k.min(), k.max()
    step, offset, j_on = xp[first + 1:last + 2] - xp[first:last + 1], flat - xp[k], j[on]
    outs = []
    for fp in fps:
        col = (-1,) + (1,) * (fp.ndim - 1)
        out = ((fp[first + 1:last + 2] - fp[first:last + 1]) / step.reshape(col))[k - first]
        out *= offset.reshape(col)
        out += fp[k]
        out[on] = fp[j_on]
        outs.append(out.reshape(x.shape + fp.shape[1:]))
    return tuple(outs)
