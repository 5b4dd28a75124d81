"""Unit tests for interval boxes of vectors and matrices and member selection."""

from types import SimpleNamespace

import numpy as np
import pytest

from fdikit import (
    IntervalMatrix,
    VertexBudgetError,
    mid_rad,
    sample_matrix,
    vertex_count,
    vertex_matrices,
)


def imat(lo, hi) -> IntervalMatrix:
    return IntervalMatrix(np.asarray(lo, float), np.asarray(hi, float))


def ivec(lo, hi) -> IntervalMatrix:
    return IntervalMatrix(np.asarray(lo, float), np.asarray(hi, float))


# -- construction -----------------------------------------------------------------

def test_interval_matrix_rejects_unordered():
    with pytest.raises(ValueError):
        imat([[0.0, 1.0]], [[0.0, 0.5]])


def test_interval_vector_rejects_unordered():
    with pytest.raises(ValueError):
        ivec([1.0], [0.0])


def test_interval_box_repr_gives_shape_and_widest_entry():
    assert repr(imat([[0.0, 1.0]], [[0.5, 3.0]])) == "IntervalMatrix(shape=(1, 2), max_width=2)"
    assert repr(ivec([1.0], [1.0])) == "IntervalMatrix(shape=(1,), max_width=0)"


def test_interval_box_rejects_endpoints_of_another_shape():
    with pytest.raises(ValueError, match="^lo and hi must be vectors or matrices of equal shape$"):
        IntervalMatrix(np.zeros(2), np.zeros((2, 2)))


def test_side_of_a_vector_box_is_refused():
    assert imat([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [2.0, 4.0]]).n == 2
    for box in (ivec([0.0, 1.0], [1.0, 2.0]), imat([[0.0, 1.0]], [[1.0, 2.0]])):
        with pytest.raises(ValueError, match="not a square matrix"):
            box.n


# analyze certified each box AsymptoticallyStable while NaN endpoints passed.
NAN_BOXES = {
    "nan-lo": ([[np.nan]], [[-0.5]]),
    "nan-hi": ([[0.5]], [[np.nan]]),
    "nan-off-diagonal": ([[0.1, np.nan], [0.1, 0.2]], [[0.3, 0.2], [0.1, 0.2]]),
}


@pytest.mark.parametrize("case", sorted(NAN_BOXES))
def test_interval_box_rejects_nan_endpoints(case):
    lo, hi = NAN_BOXES[case]
    with pytest.raises(ValueError, match="lo <= hi"):
        imat(lo, hi)
    with pytest.raises(ValueError, match="lo <= hi"):
        ivec(np.ravel(lo), np.ravel(hi))


# -- midpoint / radius --------------------------------------------------------------

def test_mid_rad_zero():
    mr = mid_rad(imat([[0.0]], [[0.0]]))
    assert mr.center[0, 0] == 0.0 and mr.radius[0, 0] == 0.0


def test_mid_rad_crisp():
    m = np.array([[1.0, -2.0], [0.5, 3.0]])
    mr = mid_rad(IntervalMatrix(m, m))
    assert np.array_equal(mr.center, m)
    assert np.all(mr.radius == 0.0)


def test_mid_rad_scalar():
    mr = mid_rad(imat([[0.4]], [[0.6]]))
    assert mr.center[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert mr.radius[0, 0] == pytest.approx(0.1, abs=1e-15)


def test_mid_rad_bits_match_the_plain_split():
    rng = np.random.default_rng(3)
    # finite endpoints from subnormal to 2^1000, so that lo + hi cannot overflow
    a, b = (np.ldexp(rng.uniform(-1.0, 1.0, (40, 40)), rng.integers(-1074, 1000, (40, 40)))
            for _ in range(2))
    a[0, :2] = b[0, :2] = 5e-324
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mr = mid_rad(IntervalMatrix(lo, hi))
    assert mr.center.tobytes() == ((lo + hi) / 2.0).tobytes()
    assert mr.radius.tobytes() == ((hi - lo) / 2.0).tobytes()
    assert mr.center[0, 0] == 5e-324


def test_mid_rad_center_does_not_overflow():
    top = np.finfo(float).max
    mr = mid_rad(imat([[1e308, -top, 1.0]], [[1e308, -1e308, 2.0]]))
    assert mr.center.tolist() == [[1e308, -top / 2 - 5e307, 1.5]]


def test_mid_rad_radius_does_not_overflow():
    top = np.finfo(float).max
    mr = mid_rad(imat([[-1e308, -top, 1.0]], [[1e308, top, 2.0]]))
    assert mr.radius.tolist() == [[1e308, top, 0.5]]


# -- vertices -----------------------------------------------------------------------------

def test_vertices_scalar():
    verts = sorted(v[0, 0] for v in vertex_matrices(imat([[0.0]], [[1.0]])))
    assert verts == [0.0, 1.0]


def test_vertices_crisp_single():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = IntervalMatrix(a, a)
    verts = list(vertex_matrices(m))
    assert len(verts) == 1
    assert np.array_equal(verts[0], m.lo)


def test_vertices_full_2x2():
    m = imat(np.zeros((2, 2)), np.ones((2, 2)))
    verts = list(vertex_matrices(m))
    assert len(verts) == 16
    assert vertex_count(m) == 16
    uniq = {v.tobytes() for v in verts}
    assert len(uniq) == 16
    for v in verts:
        assert np.all((m.lo <= v) & (v <= m.hi))


def test_vertex_budget_error_mentions_sampling():
    m = imat(np.zeros((5, 5)), np.ones((5, 5)))
    with pytest.raises(VertexBudgetError) as err:
        list(vertex_matrices(m))
    assert "sample_matrix" in str(err.value)


# -- sampling -----------------------------------------------------------------------------

def test_sample_crisp_returns_matrix():
    a = np.array([[1.5, -2.0], [0.0, 3.0]])
    m = IntervalMatrix(a, a)
    assert np.array_equal(sample_matrix(m, 0), m.lo)


def test_sample_deterministic_under_seed():
    m = imat(np.zeros((3, 3)), np.ones((3, 3)))
    a = sample_matrix(m, 42)
    b = sample_matrix(m, 42)
    assert np.array_equal(a, b)
    assert np.all((m.lo <= a) & (a <= m.hi))


def test_sample_uniform_mean():
    m = imat([[0.0]], [[1.0]])
    rng = np.random.default_rng(6)
    mean = np.mean([sample_matrix(m, rng)[0, 0] for _ in range(10_000)])
    assert abs(mean - 0.5) < 0.02


# Bounds whose draws must match Generator.uniform bit for bit: signed zeros,
# lo == hi, subnormal bounds and widths near the top of the double range.
DRAW_BOUNDS = {
    "random": (np.random.default_rng(0).uniform(-1.0, 0.0, (4, 4)),
               np.random.default_rng(1).uniform(0.0, 1.0, (4, 4))),
    "signed-zeros": ([[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [0.0, 0.0]]),
    "lo-equals-hi": ([[1.5, -2.0], [0.0, 3.0]], [[1.5, -2.0], [0.0, 3.0]]),
    "subnormal": ([[5e-324, -1e-310], [-5e-324, 0.0]], [[1e-310, 5e-324], [5e-324, 2e-323]]),
    "huge": ([[-8e307, -1e300], [1e300, -1e308]], [[8e307, 1e300], [1.7e308, 0.0]]),
}


@pytest.mark.parametrize("size", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(DRAW_BOUNDS))
def test_sample_matches_generator_uniform_bit_for_bit(case, size):
    lo, hi = (np.array(b, dtype=float) for b in DRAW_BOUNDS[case])
    shape = lo.shape if size is None else (size, *lo.shape)
    expected = np.random.default_rng(9).uniform(lo, hi, shape)
    got = sample_matrix(imat(lo, hi), np.random.default_rng(9), size)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # a vector box (the initial state of mc_trajectories) draws the same way
    size = 1 if size is None else size
    expected = np.random.default_rng(9).uniform(lo[0], hi[0], (size, lo.shape[1]))
    got = sample_matrix(IntervalMatrix(lo[0], hi[0]), np.random.default_rng(9), size)
    assert got.tobytes() == expected.tobytes()


def test_uniform_draw_continues_the_stream_like_uniform():
    # sample_matrix on one Generator continues its stream as uniform does
    box = IntervalMatrix(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    gen_a, gen_b = np.random.default_rng(4), np.random.default_rng(4)
    for size in (2, 5, None):
        shape = box.shape if size is None else (size, 3)
        assert (sample_matrix(box, gen_a, size).tobytes()
                == gen_b.uniform(box.lo, box.hi, shape).tobytes())


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, np.inf), (np.nan, 1.0)])
def test_uniform_draw_rejects_a_width_that_is_not_finite(lo, hi):
    # IntervalMatrix refuses a NaN endpoint, so a plain stand-in carries the
    # bounds to sample_matrix's own check, which matches uniform's
    box = SimpleNamespace(lo=np.array([lo, 0.0]), hi=np.array([hi, 1.0]), shape=(2,))
    for draw in (lambda: np.random.default_rng(0).uniform(box.lo, box.hi, (3, 2)),
                 lambda: sample_matrix(box, 0, 3)):
        with np.errstate(over="ignore"), pytest.raises(OverflowError,
                                                       match="Range exceeds valid bounds"):
            draw()


def test_uniform_draw_takes_a_negative_zero_width():
    # uniform rejects hi - lo = -0.0 (its sign bit); the interval [0, -0] holds 0 only
    with pytest.raises(ValueError):
        np.random.default_rng(0).uniform(np.zeros(2), np.full(2, -0.0))
    m = imat([[0.0, 0.0]], [[-0.0, 1.0]])
    draw = sample_matrix(m, 0, size=3)
    assert np.array_equal(draw[:, 0, 0], np.zeros(3))
    assert np.all((m.lo <= draw[0]) & (draw[0] <= m.hi))
