"""Fuzzy numbers stored as nested stacks of alpha-cut intervals.

A fuzzy number here is a finite grid of alpha levels in [0, 1] (always
containing 0 and 1) with one closed interval per level; between grid
levels the endpoints are linear interpolations.  Every alpha-cut is
therefore exact and arithmetic acts directly on the cuts.  Triangular
numbers are the two-level special case.  Membership functions are the
piecewise-linear curves traced by the cut endpoints.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def tfn_alpha_cut(t: Tfn, alpha: float) -> tuple[float, float]:
    """Alpha-cut of a triangular number: linear shrink from support to peak.

    Returns [c - (1-alpha)(c-l), c + (1-alpha)(r-c)].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return (
        t.c - (1.0 - alpha) * (t.c - t.l),
        t.c + (1.0 - alpha) * (t.r - t.c),
    )


def membership_limits(alphas, lo, hi, p) -> np.ndarray:
    """Membership grades of the fuzzy numbers whose cut endpoints are the
    columns of ``lo`` and ``hi`` (L, n), at the points ``p`` (m, n) of each
    column: an (3, m, n) array of the grade sup{alpha : p in cut(alpha)},
    its limit from the left and its limit from the right.  The limits
    differ from the grade where repeated endpoints make the grade jump.
    One-dimensional ``lo``, ``hi`` and ``p`` are one fuzzy number.
    """
    lo, hi = lo.reshape(alphas.size, -1), hi.reshape(alphas.size, -1)
    p = np.reshape(p, (-1, lo.shape[1]))
    # sup{alpha : vals(alpha) <= p} ("right") and sup{alpha : vals(alpha) < p}
    # ("left") for the nondecreasing columns vals of lo and of -hi.
    vals, p = np.concatenate([lo, -hi], axis=1), np.concatenate([p, -p], axis=1)
    size, cols = vals.shape
    base = np.arange(cols) * size  # flat index of each column's first level
    flat = vals.T.ravel()
    # np.searchsorted in every column at once: numpy orders complex numbers
    # by real part first, so (column + 1j * value) keys run column by column.
    keys = np.repeat(np.arange(cols), size) + 1j * flat
    sups = []
    for side in ("right", "left"):
        j = np.searchsorted(keys, np.arange(cols) + 1j * p, side=side) - base
        k = np.minimum(np.maximum(j, 1), size - 1)
        below, above = flat[base + k - 1], flat[base + k]
        # Where 0 < j < size, vals[k-1] and vals[k] straddle p strictly on
        # one side, so no 0/0; elsewhere the quotient is discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (p - below) / (above - below)
        a = alphas[k - 1] + t * (alphas[k] - alphas[k - 1])
        sup = np.where(j == 0, 0.0, np.where(j == size, 1.0, a))  # empty set: 0, all: 1
        sups.append((sup[:, :cols // 2], sup[:, cols // 2:]))
    (left, right), (left_strict, right_strict) = sups
    return np.array([np.minimum(left, right), np.minimum(left_strict, right),
                     np.minimum(left, right_strict)])


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
        alphas, lo, hi = (np.array(v, dtype=float) for v in (alphas, lo, hi))
        if alphas.ndim != 1 or alphas.shape != lo.shape or alphas.shape != hi.shape:
            raise ValueError("alphas, lo, hi must be one-dimensional and equally long")
        fault = stack_fault(alphas, lo[np.newaxis], hi[np.newaxis])
        if fault is not None:
            raise fault[1]
        _freeze(self, alphas, lo, hi)

    # -- cuts ---------------------------------------------------------------

    def cut(self, alpha: float) -> tuple[float, float]:
        """Exact alpha-cut, interpolating endpoints between grid levels."""
        lo, hi = self.cuts(alpha)
        return float(lo), float(hi)

    def cuts(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cut` over an array of levels."""
        return tuple(interp_levels(alphas, self.alphas, v) for v in (self.lo, self.hi))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lo[0]), float(self.hi[0])

    # -- membership ---------------------------------------------------------

    def membership(self, p):
        """Grade of membership sup{alpha : p in cut(alpha)} of the point
        ``p``, or an array of the grades of an array of points."""
        p = np.asarray(p, dtype=float)
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


def fn_add(a, b) -> FuzzyNumber:
    """Level-wise sum: cut endpoints add.  Grids are merged by interpolation."""
    v = FuzzyVector([a, b])
    return FuzzyNumber(v.alphas, v.lo[:, 0] + v.lo[:, 1], v.hi[:, 0] + v.hi[:, 1])


def fn_scale(beta: float, a) -> FuzzyNumber:
    """Level-wise scalar multiple; endpoints swap when ``beta`` is negative."""
    a = as_fuzzy(a)
    p, q = beta * a.lo, beta * a.hi
    return FuzzyNumber(a.alphas, np.minimum(p, q), np.maximum(p, q))


def fn_mul_approx(a: Tfn, b: Tfn) -> Tfn:
    """Triangular product approximation {a_l*b_l, a_c*b_c, a_r*b_r}.

    Only defined for non-negative triples (a_l >= 0 and b_l >= 0): the
    exact level-wise product of two triangular numbers is not triangular,
    and this endpoint shortcut is only ordered correctly on that domain.
    The result matches the exact product at alpha 0 and 1 but flattens its
    curvature in between.
    """
    if a.l < 0 or b.l < 0:
        raise ValueError(
            "triangular product approximation requires non-negative supports "
            f"(got left endpoints {a.l} and {b.l})"
        )
    return Tfn(a.l * b.l, a.c * b.c, a.r * b.r)


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
        alphas, lo, hi = (np.array(v, dtype=float) for v in (alphas, lo, hi))
        if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[0] != alphas.size or not lo.size:
            raise ValueError("lo and hi must be (L, n) arrays for L alpha levels, n >= 1")
        check_grid(alphas)  # shared by every component, so no component is named
        fault = stack_fault(alphas, lo.T, hi.T)
        if fault is not None:
            raise type(fault[1])(f"component {fault[0]}: {fault[1]}")
        return _freeze(cls.__new__(cls), alphas, lo, hi)

    @property
    def n(self) -> int:
        return self.lo.shape[1]

    @property
    def components(self) -> tuple:
        return tuple(self)

    def cut(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Box cut: per-coordinate lower and upper endpoint vectors."""
        return tuple(interp_levels(alpha, self.alphas, v) for v in (self.lo, self.hi))

    def __len__(self):
        return self.n

    def __getitem__(self, i) -> FuzzyNumber:
        """Component i, built from column i of the stack (already checked)."""
        return _freeze(FuzzyNumber.__new__(FuzzyNumber), self.alphas, self.lo[:, i], self.hi[:, i])

    def __iter__(self):
        return (self[i] for i in range(self.n))

    __eq__ = _same_stack

    def __repr__(self):
        return f"FuzzyVector(n={self.n})"


def validate_nested(levels) -> FuzzyVector:
    """Stack per-alpha boxes into a FuzzyVector, enforcing containment.

    ``levels`` is an iterable of (alpha, lo, hi) with lo/hi scalars or
    length-N arrays.  Accepts iff the alphas pass :func:`check_grid` and the
    boxes are nonincreasing; a box that is not raises StackingViolation
    naming the offending alpha pair.
    """
    rows = list(levels)
    if not rows:
        raise ValueError("empty level list")
    alphas, lo, hi = (np.array(v, dtype=float) for v in zip(*rows))
    lo, hi = lo.reshape(alphas.size, -1), hi.reshape(alphas.size, -1)
    check_grid(alphas)
    wider = ((np.diff(lo, axis=0) < -ORDER_TOL) | (np.diff(hi, axis=0) > ORDER_TOL)).any(axis=1)
    if wider.any():
        i = int(np.argmax(wider))
        raise StackingViolation(
            f"box at alpha={alphas[i + 1]:g} is not contained in box at alpha={alphas[i]:g}")
    return FuzzyVector.from_stack(alphas, lo, hi)


def level_groups(cells, label) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Cells, each a FuzzyNumber, Tfn, real number or JSON object, grouped by
    breakpoint grid: one read-only (grid, index, lo, hi) per distinct grid,
    in order of first appearance, where ``index`` lists the positions of
    the group's cells and column j of lo and hi (len(grid), len(index)) holds
    the cut endpoints of cell index[j] at the levels of ``grid``.  Every
    value is read as ``float``.

    The cells are gathered into one stack per grid: in one flat pass
    (:func:`_unit_stack`) when they plainly all lie on [0, 1], otherwise
    cell by cell through :func:`breakpoints`.  The checks of
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
            except (TypeError, ValueError, OverflowError) as exc:
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


def _unit_stack(cells) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None:
    """The one stack (grid, index, lo, hi) on the grid [0, 1] that
    :func:`level_groups` would gather cell by cell, with lo and hi of shape
    (len(cells), 2), or None when in doubt.  The cells are all
    ``{"tfn": [l, c, r]}`` dicts, whose values convert as ``float`` does, or
    each a Tfn with float fields, a float or a FuzzyNumber on exactly [0, 1];
    and every cell reads lo(0) <= lo(1) <= hi(1) <= hi(0), so that NaN and
    unordered triples are left to :class:`Tfn`.
    """
    types = set(map(type, cells))
    if types == {dict}:
        try:
            triples = list(map(operator.itemgetter("tfn"), cells))
        except KeyError:
            return None
        if not set(map(type, triples)) <= {list, tuple} or set(map(len, triples)) != {3}:
            return None
        v, width = itertools.chain.from_iterable(triples), 3
    else:
        rows = {Tfn: operator.attrgetter("l", "c", "c", "r"), float: lambda x: (x,) * 4,
                FuzzyNumber: lambda x: (*x.lo.tolist(), *x.hi[::-1].tolist())
                if x.alphas.tobytes() == _TFN_LEVELS.tobytes() else ()}
        if not types <= rows.keys():
            return None
        v, width = list(itertools.chain.from_iterable(itertools.chain.from_iterable(
            map(rows[kind], run) for kind, run in itertools.groupby(cells, type)))), 4
        if len(v) != 4 * len(cells) or set(map(type, v)) != {float}:  # () for other grids
            return None
    try:
        x = np.fromiter(v, float, width * len(cells))
    except (TypeError, ValueError, OverflowError):  # no number, a sequence, a huge integer
        return None
    # Rows lo(0), lo(1), hi(1), hi(0) of all cells (lo(1) = hi(1) = c once in a
    # triple), each contiguous, so that every check runs along whole rows.
    x = np.ascontiguousarray(x.reshape(-1, width).T)
    if not (x[:-1] <= x[1:]).all():
        return None
    return [(_TFN_LEVELS, np.arange(len(cells)), x[:2].T, x[:-3:-1].T)]


def level_cuts(groups, size: int, levels) -> tuple[np.ndarray, np.ndarray]:
    """Cut endpoints (lo, hi), each of shape ``np.shape(levels) + (size,)``,
    of the ``size`` cells grouped by :func:`level_groups`, at ``levels``:
    each group is interpolated once, as ``np.interp`` would, bit for bit."""
    levels = np.asarray(levels, dtype=float)
    if len(groups) == 1:  # every cell in order; interp_levels returns new arrays
        grid, _, glo, ghi = groups[0]
        return interp_levels(levels, grid, glo), interp_levels(levels, grid, ghi)
    lo = np.empty(levels.shape + (size,))
    hi = np.empty_like(lo)
    for grid, index, glo, ghi in groups:
        lo[..., index] = interp_levels(levels, grid, glo)
        hi[..., index] = interp_levels(levels, grid, ghi)
    return lo, hi


# -- JSON encoding -----------------------------------------------------------
#
# A fuzzy number serialises either as {"tfn": [l, c, r]} or as
# {"levels": [[alpha, lo, hi], ...]}; numbers are plain doubles.

def breakpoints(x) -> tuple[tuple, tuple, tuple]:
    """(alphas, lo, hi) tuples of a FuzzyNumber, Tfn, real number or JSON object.

    The numeric checks of :class:`FuzzyNumber` are left to the caller, so
    that many numbers can be checked at once.
    """
    if isinstance(x, FuzzyNumber):
        return tuple(x.alphas.tolist()), tuple(x.lo.tolist()), tuple(x.hi.tolist())
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
    if not rows:
        raise ValueError("empty level list")
    return tuple(zip(*((float(a), float(l), float(h)) for a, l, h in rows)))


def interp_levels(x, xp, fp) -> np.ndarray:
    """``np.interp(x, xp, f)`` for every column ``f`` of ``fp``, bit for bit.

    ``fp`` holds levels on its first axis and ``xp`` is a strictly
    increasing grid of alpha levels; the result has shape ``x.shape +
    fp.shape[1:]``.  Like ``np.interp``, this is the stored value at a
    breakpoint and ``slope * (x - xp[j]) + fp[j]`` between breakpoints.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((xp[0] <= x) & (x <= xp[-1])):
        raise ValueError(f"alpha must lie in [{xp[0]:g}, {xp[-1]:g}], got {x}")
    flat = x.ravel()
    j = np.searchsorted(xp, flat, side="right") - 1
    on = xp[j] == flat
    if on.all():  # every level on the grid: a row lookup
        return fp[j].reshape(x.shape + fp.shape[1:])
    k = np.minimum(j, xp.size - 2)
    col = (-1,) + (1,) * (fp.ndim - 1)
    # one slope per interval from the first to the last in use, gathered per level
    first, last = k.min(), k.max()
    out = ((fp[first + 1:last + 2] - fp[first:last + 1])
           / (xp[first + 1:last + 2] - xp[first:last + 1]).reshape(col))[k - first]
    out *= (flat - xp[k]).reshape(col)
    out += fp[k]
    out[on] = fp[j[on]]
    return out.reshape(x.shape + fp.shape[1:])
