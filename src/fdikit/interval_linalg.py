"""Interval matrices and vectors: powers of non-negative families,
midpoint/radius splits, vertex and random member selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

#: Default cap on how many vertex matrices may be enumerated.
DEFAULT_VERTEX_BUDGET = 2 ** 16

#: Matrix entries materialised at once by chunked member scans (2 MiB of
#: float64), so memory stays flat however many members are scanned.
CHUNK_ENTRIES = 2 ** 18


class VertexBudgetError(ValueError):
    """Vertex enumeration would exceed the configured budget."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class IntervalMatrix:
    """Elementwise box of matrices [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _freeze(self.lo))
        object.__setattr__(self, "hi", _freeze(self.hi))
        if self.lo.ndim != 2 or self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must be matrices of equal shape")
        if np.any(self.lo > self.hi):
            raise ValueError("interval matrix needs lo <= hi elementwise")

    @property
    def n(self) -> int:
        if self.lo.shape[0] != self.lo.shape[1]:
            raise ValueError("matrix is not square")
        return self.lo.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    def __repr__(self):
        return f"IntervalMatrix(shape={self.lo.shape}, max_width={np.max(self.hi - self.lo):g})"


@dataclass(frozen=True, eq=False)
class IntervalVector:
    """Elementwise box of vectors [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _freeze(np.atleast_1d(self.lo)))
        object.__setattr__(self, "hi", _freeze(np.atleast_1d(self.hi)))
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must be vectors of equal length")
        if np.any(self.lo > self.hi):
            raise ValueError("interval vector needs lo <= hi elementwise")

    @property
    def n(self) -> int:
        return self.lo.size

    def __repr__(self):
        return f"IntervalVector(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class MidRad(NamedTuple):
    """Midpoint/radius split of an interval matrix: center +- radius."""

    center: np.ndarray
    radius: np.ndarray


def mid_rad(m: IntervalMatrix) -> MidRad:
    """Center (lo+hi)/2 and radius (hi-lo)/2 of an interval matrix.  Where
    lo + hi overflows, the center is lo/2 + hi/2, the same rounded midpoint
    there; elsewhere halving first could round subnormal centers to 0."""
    with np.errstate(over="ignore"):
        center = (m.lo + m.hi) / 2.0
    over = np.isinf(center)
    center[over] = m.lo[over] / 2.0 + m.hi[over] / 2.0
    return MidRad(center, (m.hi - m.lo) / 2.0)


def matpow_envelope_nonneg(m: IntervalMatrix, k: int) -> IntervalMatrix:
    """[lo^k, hi^k], bracketing every member power of a non-negative family.

    Requires lo >= 0 elementwise: matrix powers are then monotone in the
    entries, so the endpoint powers bound {U^k : U in [lo, hi]}.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"power must be a non-negative integer, got {k}")
    if np.any(m.lo < 0):
        raise ValueError(
            "power envelope requires a non-negative lower bound matrix "
            "(monotonicity fails otherwise)"
        )
    m.n  # rejects non-square input
    return IntervalMatrix(
        np.linalg.matrix_power(m.lo, int(k)),
        np.linalg.matrix_power(m.hi, int(k)),
    )


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


def vertex_matrices(m: IntervalMatrix,
                    max_vertices: int = DEFAULT_VERTEX_BUDGET) -> Iterator[np.ndarray]:
    """Enumerate all matrices whose entries are each lo or hi, in the order
    of :func:`vertex_stack`.

    Raises VertexBudgetError beyond ``max_vertices``.
    """
    count = vertex_count(m)
    if count > max_vertices:
        raise VertexBudgetError(
            f"{count} vertex matrices exceed the budget of {max_vertices}; "
            "use sample_matrix instead"
        )
    step = chunk_rows(m)
    for start in range(0, count, step):
        yield from vertex_stack(m, start, min(start + step, count))


def sample_matrix(m: IntervalMatrix, rng, size: int | None = None) -> np.ndarray:
    """Entrywise uniform member(s) of the interval matrix; shape
    (size, rows, cols) when batched.

    ``rng`` is a seed or a numpy Generator; fixed seeds reproduce exactly,
    and a batch of ``size`` draws the same stream as ``size`` single calls.
    """
    shape = m.shape if size is None else (size, *m.shape)
    return uniform_draw(np.random.default_rng(rng), m.lo, m.hi, shape)


def uniform_draw(gen: np.random.Generator, lo, hi, shape) -> np.ndarray:
    """``gen.uniform(lo, hi, shape)``, bit for bit: the same stream and the
    same ``lo + (hi - lo) * u``, without numpy's per-element broadcast loop.

    Raises OverflowError, as ``uniform`` does, when ``hi - lo`` is not
    finite.  A width of -0.0 (lo = 0.0, hi = -0.0), which ``uniform``
    rejects with ValueError, draws lo.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        width = np.subtract(hi, lo)
    if not np.all(np.isfinite(width)):
        raise OverflowError("Range exceeds valid bounds")
    u = gen.random(shape)
    u *= width
    u += lo
    return u

