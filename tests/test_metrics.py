"""Unit tests for the distance functions, checked against sampling oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdikit import (
    FuzzyNumber,
    FuzzyVector,
    Tfn,
    as_fuzzy,
    assemble_fuzzy_attainable,
    d_fuzzy_vec,
    d_membership,
)

from conftest import make_nonneg_system, rand_fuzzy_levels, ref_membership_limits


@st.composite
def fuzzy_numbers(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return FuzzyNumber(*zip(*rand_fuzzy_levels(np.random.default_rng(seed))))


def levelwise(x, y) -> float:
    """The level-wise distance of two fuzzy numbers, as one-component vectors."""
    return d_fuzzy_vec(FuzzyVector([x]), FuzzyVector([y]), "levelwise")


def interval_hausdorff(a, b) -> float:
    """Hausdorff distance between closed intervals: the larger endpoint gap."""
    (alo, ahi), (blo, bhi) = a, b
    return max(abs(alo - blo), abs(ahi - bhi))


# -- membership-sup metric ---------------------------------------------------------------

def test_d_membership_disjoint_core_value():
    assert d_membership(Tfn(2, 3, 4), Tfn(3.5, 4.5, 6.5)) == pytest.approx(1.0, abs=1e-12)


def test_d_membership_overlapping_value():
    assert d_membership(Tfn(2, 3, 4), Tfn(0, 3, 8)) == pytest.approx(0.8, abs=1e-12)


def test_d_membership_identity():
    x = Tfn(2, 3, 4)
    assert d_membership(x, x) == 0.0


def test_d_membership_crisp_points():
    assert d_membership(Tfn(0, 0, 0), Tfn(2, 2, 2)) == 1.0


def test_d_membership_grid_search_oracle():
    # dense pointwise scan can only undershoot the breakpoint-exact sup
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = FuzzyNumber(*zip(*rand_fuzzy_levels(rng)))
        y = FuzzyNumber(*zip(*rand_fuzzy_levels(rng)))
        got = d_membership(x, y)
        ps = np.linspace(min(x.lo[0], y.lo[0]) - 0.5,
                         max(x.hi[0], y.hi[0]) + 0.5, 4001)
        oracle = float(np.max(np.abs(x.membership(ps) - y.membership(ps))))
        assert got >= oracle - 1e-9
        assert got <= oracle + 0.05


@given(fuzzy_numbers(), fuzzy_numbers())
def test_d_membership_bounded(x, y):
    d = d_membership(x, y)
    assert 0.0 <= d <= 1.0


def test_d_membership_one_when_core_outside_support():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = FuzzyNumber(*zip(*rand_fuzzy_levels(rng)))
        shift = x.hi[0] - x.lo[-1] + rng.uniform(0.1, 2.0)
        y = FuzzyNumber(x.alphas, x.lo + shift, x.hi + shift)
        assert d_membership(x, y) == pytest.approx(1.0, abs=1e-12)


# -- level-wise metric ----------------------------------------------------------------------

def test_levelwise_identity():
    x = Tfn(2, 3, 4)
    assert levelwise(x, x) == 0.0


def test_levelwise_value_and_fine_grid_oracle():
    got = levelwise(Tfn(2, 3, 4), Tfn(3.5, 4.5, 6.5))
    assert got == pytest.approx(2.5, abs=1e-12)
    x, y = as_fuzzy(Tfn(2, 3, 4)), as_fuzzy(Tfn(3.5, 4.5, 6.5))
    oracle = 0.0
    for a in np.linspace(0, 1, 2001):
        oracle = max(oracle, interval_hausdorff(x.cut(a), y.cut(a)))
    assert got == pytest.approx(oracle, abs=1e-9)


def test_levelwise_crisp_distance():
    assert levelwise(Tfn(0, 0, 0), Tfn(3, 3, 3)) == 3.0


@given(fuzzy_numbers(), fuzzy_numbers())
def test_levelwise_dominates_support_gap(x, y):
    assert levelwise(x, y) >= interval_hausdorff(x.support, y.support) - 1e-12


# -- metric axioms ------------------------------------------------------------------------------

@pytest.mark.parametrize("metric", [d_membership, levelwise], ids=["d_membership", "levelwise"])
def test_metric_axioms(metric):
    rng = np.random.default_rng(5)
    for _ in range(30):
        x = FuzzyNumber(*zip(*rand_fuzzy_levels(rng)))
        y = FuzzyNumber(*zip(*rand_fuzzy_levels(rng)))
        z = FuzzyNumber(*zip(*rand_fuzzy_levels(rng)))
        assert metric(x, y) >= 0.0
        assert metric(x, x) == 0.0
        assert metric(x, y) == pytest.approx(metric(y, x), abs=1e-12)
        assert metric(x, z) <= metric(x, y) + metric(y, z) + 1e-9


# -- vector metric ------------------------------------------------------------------------------

def ref_membership_distance(x, y) -> float:
    """d_fuzzy_vec(x, y, "membership") from the grades of ref_membership_limits."""
    p = np.concatenate([x.lo, x.hi, y.lo, y.hi])
    gaps = (ref_membership_limits(x.alphas, x.lo, x.hi, p)
            - ref_membership_limits(y.alphas, y.lo, y.hi, p))
    return float(sum(np.abs(gaps).max(axis=(0, 1)).tolist()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_membership_distance_of_assembled_steps_equals_the_referee_bit_for_bit(seed, k):
    rng = np.random.default_rng(seed)
    system = make_nonneg_system(rng, n_levels=int(rng.integers(2, 12)))
    steps = assemble_fuzzy_attainable(system, k).steps
    for a, b in [(0, k), (k // 2, k), (k, k)]:
        got = d_fuzzy_vec(steps[a], steps[b], "membership")
        assert got.hex() == ref_membership_distance(steps[a], steps[b]).hex()


def test_d_fuzzy_vec_identity():
    v = FuzzyVector([as_fuzzy(Tfn(1, 2, 3)), as_fuzzy(Tfn(0, 1, 2))])
    assert d_fuzzy_vec(v, v, "membership") == 0.0
    assert d_fuzzy_vec(v, v, "levelwise") == 0.0


def test_d_fuzzy_vec_sums_components():
    x = FuzzyVector([as_fuzzy(Tfn(2, 3, 4)), as_fuzzy(Tfn(2, 3, 4))])
    y = FuzzyVector([as_fuzzy(Tfn(3.5, 4.5, 6.5)), as_fuzzy(Tfn(0, 3, 8))])
    assert d_fuzzy_vec(x, y, "membership") == pytest.approx(1.8, abs=1e-12)


def test_d_fuzzy_vec_scalar_reduction():
    x = FuzzyVector([as_fuzzy(Tfn(2, 3, 4))])
    y = FuzzyVector([as_fuzzy(Tfn(0, 3, 8))])
    assert d_fuzzy_vec(x, y, "membership") == d_membership(Tfn(2, 3, 4), Tfn(0, 3, 8))


def test_d_fuzzy_vec_dimension_mismatch():
    x = FuzzyVector([as_fuzzy(Tfn(2, 3, 4))])
    y = FuzzyVector([as_fuzzy(Tfn(2, 3, 4)), as_fuzzy(Tfn(2, 3, 4))])
    with pytest.raises(ValueError):
        d_fuzzy_vec(x, y)


def test_d_fuzzy_vec_unknown_metric():
    x = FuzzyVector([as_fuzzy(Tfn(2, 3, 4))])
    with pytest.raises(ValueError):
        d_fuzzy_vec(x, x, "hausdorff")
