"""Interval boxes of vectors and matrices: midpoint/radius splits, vertex
and random member selection."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fuzzy_num import _floats

__all__ = ["IntervalMatrix", "VertexBudgetError", "mid_rad", "sample_matrix", "vertex_count",
           "vertex_matrices", "vertex_stack"]

#: Default cap on how many vertex matrices may be enumerated.
DEFAULT_VERTEX_BUDGET = 2 ** 16

#: Matrix entries materialised at once by chunked member scans (2 MiB of
#: float64), so memory stays flat however many members are scanned.
CHUNK_ENTRIES = 2 ** 18


class VertexBudgetError(ValueError):
    """Vertex enumeration would exceed the configured budget."""


@dataclass(frozen=True, eq=False)
class IntervalMatrix:
    """Elementwise box [lo, hi] of vectors (1-D) or matrices (2-D).

    Every entry has lo <= hi, so a NaN endpoint is refused."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for name in ("lo", "hi"):  # read-only float copies
            a = _floats(getattr(self, name)).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.lo.ndim not in (1, 2) or self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must be vectors or matrices of equal shape")
        if not (self.lo <= self.hi).all():
            raise ValueError("interval box needs lo <= hi elementwise")

    @property
    def n(self) -> int:
        """Side of a square matrix box."""
        if self.lo.ndim != 2 or self.lo.shape[0] != self.lo.shape[1]:
            raise ValueError("box is not a square matrix")
        return self.lo.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.lo.shape

    def __repr__(self):
        return f"IntervalMatrix(shape={self.lo.shape}, max_width={np.max(self.hi - self.lo):g})"


def halfsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) / 2 of finite arrays.  Where a + b overflows, a / 2 + b / 2,
    the same rounded value there; elsewhere halving first could round
    subnormal results to 0."""
    with np.errstate(over="ignore"):
        out = (a + b) / 2.0
    over = np.isinf(out)
    if over.any():
        out[over] = a[over] / 2.0 + b[over] / 2.0
    return out


def mid_rad(m: IntervalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Center (lo+hi)/2 and radius (hi-lo)/2 of an interval matrix, both
    by :func:`halfsum`."""
    return halfsum(m.lo, m.hi), halfsum(m.hi, -m.lo)


def vertex_count(m: IntervalMatrix) -> int:
    """Number of distinct endpoint-choice matrices (an exact Python int)."""
    return 2 ** int(np.count_nonzero(m.hi > m.lo))


def chunk_rows(m: IntervalMatrix) -> int:
    """Matrices of m's shape per chunk: CHUNK_ENTRIES entries, at least one."""
    return max(1, CHUNK_ENTRIES // m.lo.size)


def vertex_stack(m: IntervalMatrix, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Vertices ``start..stop-1`` of m as one (stop - start, rows, cols) array.

    Vertex k takes hi at the wide entries (hi > lo, row-major) where the
    binary digits of k are 1, the first wide entry being the most
    significant digit: the order of ``itertools.product((0, 1), ...)``.
    Degenerate entries contribute one choice, so a crisp matrix has the
    single vertex lo.
    """
    count = vertex_count(m)
    stop = count if stop is None else stop
    if not 0 <= start <= stop <= count:
        raise ValueError(f"vertex range [{start}, {stop}) outside [0, {count})")
    wide = np.flatnonzero(m.hi > m.lo)
    shifts = np.arange(wide.size - 1, -1, -1)
    bits = (np.arange(start, stop, dtype=np.int64)[:, None] >> shifts) & 1
    lo, hi = m.lo.ravel(), m.hi.ravel()
    stack = np.tile(lo, (stop - start, 1))
    stack[:, wide] = np.where(bits == 1, hi[wide], lo[wide])
    return stack.reshape(stop - start, *m.shape)


def vertex_matrices(m: IntervalMatrix) -> Iterator[np.ndarray]:
    """Enumerate all matrices whose entries are each lo or hi, in the order
    of :func:`vertex_stack`.

    Raises VertexBudgetError beyond ``DEFAULT_VERTEX_BUDGET`` (read at call time).
    """
    count = vertex_count(m)
    if count > DEFAULT_VERTEX_BUDGET:
        raise VertexBudgetError(
            f"{count} vertex matrices exceed the budget of {DEFAULT_VERTEX_BUDGET}; "
            "use sample_matrix instead"
        )
    for _, stack in member_chunks(m, count, 0, None):
        yield from stack


def sample_matrix(m: IntervalMatrix, rng, size: int | None = None) -> np.ndarray:
    """Entrywise uniform member(s) of the box m; shape (size, *m.shape)
    when batched.

    ``rng`` is a seed or a numpy Generator; fixed seeds reproduce exactly,
    and a batch of ``size`` draws the same stream as ``size`` single calls.
    The draw is ``Generator.uniform(m.lo, m.hi, shape)`` bit for bit (the
    same stream and the same ``lo + (hi - lo) * u``) without numpy's
    per-element broadcast loop.  Raises OverflowError, as ``uniform`` does,
    when ``hi - lo`` is not finite.  A width of -0.0 (lo = 0.0, hi = -0.0),
    which ``uniform`` rejects with ValueError, draws lo.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        width = np.subtract(m.hi, m.lo)
    if not np.isfinite(width).all():
        raise OverflowError("Range exceeds valid bounds")
    u = np.random.default_rng(rng).random(m.shape if size is None else (size, *m.shape))
    u *= width
    u += m.lo
    return u


def member_chunks(m: IntervalMatrix, n_vertices: int, n_samples: int,
                  rng) -> Iterator[tuple[slice, np.ndarray]]:
    """The one member order of m, in ``(rows, stack)`` chunks of at most
    ``chunk_rows(m)`` members: vertices ``0..n_vertices-1`` of :func:`vertex_stack`,
    then ``n_samples`` draws of :func:`sample_matrix` from ``rng``; ``rows``
    is the chunk's slice of that order."""
    step = chunk_rows(m)
    for start in range(0, n_vertices, step):
        stop = min(start + step, n_vertices)
        yield slice(start, stop), vertex_stack(m, start, stop)
    for start in range(0, n_samples, step):
        stop = min(start + step, n_samples)
        yield slice(n_vertices + start, n_vertices + stop), sample_matrix(m, rng, stop - start)


def log_fallback(name: str, msg: str, *args) -> None:
    """Record a fallback at DEBUG level on logger ``name``, a child of the
    ``fdikit`` logger, when ``logging`` is loaded.  It is never imported
    here: until a program imports it, no handler exists to show a record."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).debug(msg, *args)
