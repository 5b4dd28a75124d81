"""Unit tests for interval matrix/vector operations and member selection."""

import numpy as np
import pytest

from fdikit import (
    IntervalMatrix,
    IntervalVector,
    VertexBudgetError,
    matpow_envelope_nonneg,
    mid_rad,
    sample_matrix,
    vertex_count,
    vertex_matrices,
)
from fdikit.interval_linalg import uniform_draw


def imat(lo, hi) -> IntervalMatrix:
    return IntervalMatrix(np.asarray(lo, float), np.asarray(hi, float))


def ivec(lo, hi) -> IntervalVector:
    return IntervalVector(np.asarray(lo, float), np.asarray(hi, float))


# -- construction -----------------------------------------------------------------

def test_interval_matrix_rejects_unordered():
    with pytest.raises(ValueError):
        imat([[0.0, 1.0]], [[0.0, 0.5]])


def test_interval_vector_rejects_unordered():
    with pytest.raises(ValueError):
        ivec([1.0], [0.0])


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


# -- powers -------------------------------------------------------------------------------

def test_matpow_zero_is_identity():
    m = imat([[0.1, 0.0], [0.2, 0.3]], [[0.5, 0.1], [0.4, 0.6]])
    p = matpow_envelope_nonneg(m, 0)
    assert np.array_equal(p.lo, np.eye(2))
    assert np.array_equal(p.hi, np.eye(2))


def test_matpow_scalar():
    p = matpow_envelope_nonneg(imat([[0.4]], [[0.6]]), 2)
    assert p.lo[0, 0] == pytest.approx(0.16, abs=1e-15)
    assert p.hi[0, 0] == pytest.approx(0.36, abs=1e-15)


def test_matpow_monte_carlo_containment():
    rng = np.random.default_rng(4)
    lo = rng.uniform(0, 0.5, (2, 2))
    m = imat(lo, lo + rng.uniform(0, 0.5, (2, 2)))
    p = matpow_envelope_nonneg(m, 3)
    for _ in range(1000):
        u = sample_matrix(m, rng)
        u3 = np.linalg.matrix_power(u, 3)
        assert np.all(u3 >= p.lo - 1e-12) and np.all(u3 <= p.hi + 1e-12)


def test_matpow_rejects_negative_lower_bound():
    with pytest.raises(ValueError):
        matpow_envelope_nonneg(imat([[-0.1]], [[0.5]]), 2)


def test_matpow_matches_repeated_one_step():
    rng = np.random.default_rng(5)
    lo = rng.uniform(0, 0.6, (3, 3))
    m = imat(lo, lo + rng.uniform(0, 0.4, (3, 3)))
    k = 5
    p = matpow_envelope_nonneg(m, k)
    step_lo, step_hi = np.eye(3), np.eye(3)
    for _ in range(k):
        step_lo = m.lo @ step_lo
        step_hi = m.hi @ step_hi
    assert np.allclose(p.lo, step_lo, rtol=1e-12, atol=1e-14)
    assert np.allclose(p.hi, step_hi, rtol=1e-12, atol=1e-14)


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
        list(vertex_matrices(m, max_vertices=16))
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
    # a scalar interval draws through uniform's scalar path
    expected = np.random.default_rng(9).uniform(float(lo.flat[0]), float(hi.flat[0]), shape)
    got = uniform_draw(np.random.default_rng(9), float(lo.flat[0]), float(hi.flat[0]), shape)
    assert got.tobytes() == expected.tobytes()


def test_uniform_draw_continues_the_stream_like_uniform():
    lo, hi = np.zeros(3), np.array([1.0, 2.0, 3.0])
    gen_a, gen_b = np.random.default_rng(4), np.random.default_rng(4)
    for shape in [(2, 3), (5, 3), (3,)]:
        assert (uniform_draw(gen_a, lo, hi, shape).tobytes()
                == gen_b.uniform(lo, hi, shape).tobytes())


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, np.inf), (np.nan, 1.0)])
def test_uniform_draw_rejects_a_width_that_is_not_finite(lo, hi):
    for draw in (np.random.default_rng(0).uniform, lambda *a: uniform_draw(
            np.random.default_rng(0), *a)):
        with np.errstate(over="ignore"), pytest.raises(OverflowError,
                                                       match="Range exceeds valid bounds"):
            draw(np.array([lo, 0.0]), np.array([hi, 1.0]), (3, 2))


def test_uniform_draw_takes_a_negative_zero_width():
    # uniform rejects hi - lo = -0.0 (its sign bit); the interval [0, -0] holds 0 only
    with pytest.raises(ValueError):
        np.random.default_rng(0).uniform(np.zeros(2), np.full(2, -0.0))
    m = imat([[0.0, 0.0]], [[-0.0, 1.0]])
    draw = sample_matrix(m, 0, size=3)
    assert np.array_equal(draw[:, 0, 0], np.zeros(3))
    assert np.all((m.lo <= draw[0]) & (draw[0] <= m.hi))
