"""Fuzzy vectors as level stacks: equivalence with per-component evaluation.

The reference functions below are copies of the per-component code that
the level-stack routines replaced: a scalar sup-alpha search, a Python
loop over breakpoints for the membership distance and a per-component sum
for vector distances.  Same-grid results must match them bit for bit.
"""

import numpy as np
import pytest

from fdikit import (
    FuzzyNumber,
    FuzzyVector,
    StackingViolation,
    Tfn,
    as_fuzzy,
    assemble_fuzzy_attainable,
    d_fuzzy_vec,
    d_membership,
)
from fdikit.fdi_sim import envelope_endpoints
from fdikit.fuzzy_num import membership_limits

from conftest import make_nonneg_system


# -- reference copies of the per-component code ---------------------------------------

def ref_sup_alpha_at_most(vals, alphas, p, strict):
    if strict:
        if p <= vals[0]:
            return None
        if p > vals[-1]:
            return 1.0
        j = int(np.searchsorted(vals, p, side="left"))
    else:
        if p < vals[0]:
            return None
        if p >= vals[-1]:
            return 1.0
        j = int(np.searchsorted(vals, p, side="right"))
    t = (p - vals[j - 1]) / (vals[j] - vals[j - 1])
    return float(alphas[j - 1] + t * (alphas[j] - alphas[j - 1]))


def ref_membership(x, p, side=0):
    """Grade (side 0) or one-sided limit (side < 0 left, > 0 right)."""
    a_left = ref_sup_alpha_at_most(x.lo, x.alphas, p, strict=side < 0)
    a_right = ref_sup_alpha_at_most(-x.hi, x.alphas, -p, strict=side > 0)
    if a_left is None or a_right is None:
        return 0.0
    return min(a_left, a_right)


def ref_d_membership(x1, x2):
    points = np.unique(np.concatenate([x1.lo, x1.hi, x2.lo, x2.hi]))
    best = 0.0
    for p in points:
        best = max(best, *(abs(ref_membership(x1, p, s) - ref_membership(x2, p, s))
                           for s in (0, -1, 1)))
    return best


def ref_levelwise_distance(x1, x2):
    grid = np.union1d(x1.alphas, x2.alphas)
    lo1, hi1 = x1.cuts(grid)
    lo2, hi2 = x2.cuts(grid)
    return float(np.max(np.maximum(np.abs(lo1 - lo2), np.abs(hi1 - hi2))))


def ref_d_fuzzy_vec(xs, ys, which):
    scalar = ref_d_membership if which == "membership" else ref_levelwise_distance
    return float(sum(scalar(a, b) for a, b in zip(xs, ys)))


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# -- random stacks with flat runs, crisp points and shared endpoints ----------------------

def rand_grid(rng, levels=None):
    levels = int(rng.integers(2, 8)) if levels is None else levels
    inner = np.round(rng.uniform(0.0, 1.0, size=levels - 2), int(rng.integers(1, 4)))
    return np.union1d([0.0, 1.0], inner)


def rand_stack(rng, alphas, n):
    """(lo, hi) of shape (L, n): nested cuts, some columns crisp, some with
    flat runs, some rounded so that endpoints repeat across columns."""
    size = alphas.size
    steps = rng.exponential(1.0, size=(2, size - 1, n))
    steps[:, rng.uniform(size=(size - 1, n)) < 0.3] = 0.0  # flat runs
    steps[:, :, rng.uniform(size=n) < 0.15] = 0.0  # crisp columns
    core = rng.normal(size=n)
    half = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.exponential(0.5, size=n))
    tail = np.concatenate([np.cumsum(steps[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((2, 1, n))], axis=1)
    lo, hi = core - half - tail[0], core + half + tail[1]
    if rng.uniform() < 0.4:
        lo, hi = np.floor(lo * 2) / 2, np.ceil(hi * 2) / 2
    return lo, hi


def rand_number(rng):
    alphas = rand_grid(rng)
    lo, hi = rand_stack(rng, alphas, 1)
    return FuzzyNumber(alphas, lo[:, 0], hi[:, 0])


# -- scalar distances and membership -------------------------------------------------------

def test_d_membership_matches_breakpoint_loop():
    rng = np.random.default_rng(20)
    for _ in range(300):
        x, y = rand_number(rng), rand_number(rng)
        if rng.uniform() < 0.3:  # same grid, shifted and widened endpoints
            shift, widen = 0.5 * rng.integers(-2, 3), 0.5 * rng.integers(0, 2)
            y = FuzzyNumber(x.alphas, x.lo + shift, x.hi + shift + widen)
        assert bits(d_membership(x, y)) == bits(ref_d_membership(x, y))
        levelwise = d_fuzzy_vec(FuzzyVector([x]), FuzzyVector([y]), "levelwise")
        assert bits(levelwise) == bits(ref_levelwise_distance(x, y))


def test_membership_and_limits_match_scalar_search():
    rng = np.random.default_rng(21)
    for _ in range(200):
        x = rand_number(rng)
        ps = np.concatenate([x.lo, x.hi, rng.normal(size=4)])
        grades = membership_limits(x.alphas, x.lo[:, None], x.hi[:, None], ps[:, None])[:, :, 0]
        for row, side in zip(grades, (0, -1, 1)):
            assert bits(row) == bits([ref_membership(x, p, side) for p in ps])
        assert bits(x.membership(ps)) == bits(grades[0])
        assert x.membership(float(ps[0])) == ref_membership(x, ps[0])


# -- vector distances ------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["membership", "levelwise"])
def test_d_fuzzy_vec_matches_per_component_sum(which):
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(1, 33))
        ax = rand_grid(rng)
        ay = ax if rng.uniform() < 0.5 else rand_grid(rng)
        x = FuzzyVector.from_stack(ax, *rand_stack(rng, ax, n))
        y = FuzzyVector.from_stack(ay, *rand_stack(rng, ay, n))
        xs = [FuzzyNumber(ax, x.lo[:, i], x.hi[:, i]) for i in range(n)]
        ys = [FuzzyNumber(ay, y.lo[:, i], y.hi[:, i]) for i in range(n)]
        assert bits(d_fuzzy_vec(x, y, which=which)) == bits(ref_d_fuzzy_vec(xs, ys, which))


@pytest.mark.parametrize("which", ["membership", "levelwise"])
def test_d_fuzzy_vec_on_assembled_steps_matches_per_component_sum(which):
    s = make_nonneg_system(np.random.default_rng(23), n_max=6, n_levels=21)
    att = assemble_fuzzy_attainable(s, 12)
    for a, b in ((0, 12), (5, 6), (3, 3)):
        x, y = att.steps[a], att.steps[b]
        assert bits(d_fuzzy_vec(x, y, which=which)) == bits(ref_d_fuzzy_vec(x, y, which))


def test_mixed_grid_vector_is_stored_on_union_grid():
    rng = np.random.default_rng(24)
    for _ in range(50):
        comps = [rand_number(rng) for _ in range(int(rng.integers(1, 6)))]
        comps.append(Tfn(0.0, 1.0, 2.5))
        v = FuzzyVector(comps)
        grid = np.unique(np.concatenate([as_fuzzy(c).alphas for c in comps]))
        assert bits(v.alphas) == bits(grid)
        for i, c in enumerate(comps):
            lo, hi = as_fuzzy(c).cuts(grid)
            assert bits(v.lo[:, i]) == bits(lo) and bits(v.hi[:, i]) == bits(hi)
            assert bits(v[i].lo) == bits(lo) and bits(v[i].hi) == bits(hi)


def test_mixed_grid_distances_stay_close_to_per_component_sum():
    # Interpolating a component onto the union grid may round its values at
    # levels outside its own grid, so these are close, not bit-equal.
    rng = np.random.default_rng(25)
    for _ in range(40):
        xs = [rand_number(rng) for _ in range(4)]
        ys = [rand_number(rng) for _ in range(4)]
        for which in ("membership", "levelwise"):
            got = d_fuzzy_vec(FuzzyVector(xs), FuzzyVector(ys), which=which)
            assert got == pytest.approx(ref_d_fuzzy_vec(xs, ys, which), rel=1e-14, abs=1e-14)


# -- construction and views ----------------------------------------------------------------------

def test_vector_names_first_malformed_component():
    with pytest.raises(StackingViolation, match="^component 2: alpha-cuts must be nested"):
        FuzzyVector([Tfn(0, 1, 2), 3.0, {"levels": [[0, 0, 1], [1, -1, 2]]},
                     {"tfn": [1, 2]}])
    with pytest.raises(ValueError, match='^component 1: "tfn" must be a list'):
        FuzzyVector([Tfn(0, 1, 2), {"tfn": [1, 2]}])
    with pytest.raises(ValueError, match="^component 1: every level must satisfy lo <= hi"):
        FuzzyVector.from_stack([0.0, 1.0], [[0.0, 2.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]])


def test_from_stack_rejects_one_dimensional_endpoints():
    with pytest.raises(ValueError, match=r"^lo and hi must be \(L, n\) arrays for L alpha levels"):
        FuzzyVector.from_stack([0.0, 1.0], [0.0, 0.5], [1.0, 0.5])


def test_stack_is_read_only_and_views_follow_columns():
    v = FuzzyVector([Tfn(0, 1, 2), Tfn(1, 2, 4)])
    with pytest.raises(ValueError):
        v.lo[0, 0] = 5.0
    assert v.n == len(v) == 2
    assert list(v) == list(v.components) == [as_fuzzy(Tfn(0, 1, 2)), as_fuzzy(Tfn(1, 2, 4))]
    assert v[-1].cut(0.5) == (1.5, 3.0)
    assert v == FuzzyVector.from_stack([0, 1], [[0, 1], [1, 2]], [[2, 4], [1, 2]])


def test_repr_and_equality_with_another_type():
    v = FuzzyVector([Tfn(0, 1, 2), Tfn(1, 2, 4)])
    assert repr(v) == "FuzzyVector(n=2)"
    assert v.__eq__(v[0]) is NotImplemented  # a component is a FuzzyNumber, not a vector
    assert v != v[0] and v[0] != v and v != [0.0, 1.0]
    assert v[0].__eq__(Tfn(0, 1, 2)) is NotImplemented
    assert v[0] == as_fuzzy(Tfn(0, 1, 2)) != Tfn(0, 1, 2)


def test_a_component_is_read_by_one_integer():
    v = FuzzyVector([Tfn(0, 1, 2), Tfn(1, 2, 3)])
    assert v[-1] == v[np.int64(1)] == as_fuzzy(Tfn(1, 2, 3))
    for index in (slice(0, 1), np.array([0]), 0.0):
        with pytest.raises(TypeError):
            v[index]
    with pytest.raises(IndexError):
        v[2]


# -- assembly ----------------------------------------------------------------------------

def test_assembly_matches_per_component_construction():
    s = make_nonneg_system(np.random.default_rng(27), n_max=5, n_levels=11)
    att = assemble_fuzzy_attainable(s, 15)
    lo, hi = envelope_endpoints(s, s.alphas, 15)
    # the assembly this replaced: one FuzzyNumber per component and step
    ref = [[FuzzyNumber(s.alphas, l, h) for l, h in zip(lo_k.T, hi_k.T)]
           for lo_k, hi_k in zip(lo, hi)]
    assert bits([[c.lo for c in step] for step in ref]) == bits([step.lo.T for step in att.steps])
    assert bits([[c.hi for c in step] for step in ref]) == bits([step.hi.T for step in att.steps])
    assert bits([[c.lo for c in step.components] for step in att.steps]) == \
        bits([[c.lo for c in step] for step in ref])


def test_assembly_and_distances_construct_no_fuzzy_number(monkeypatch):
    s = make_nonneg_system(np.random.default_rng(28), n_max=4, n_levels=11)

    def forbidden(*args, **kwargs):
        raise AssertionError("a FuzzyNumber was built")

    # FuzzyNumber.__init__ and FuzzyVector.__getitem__ are the only ways one is built
    monkeypatch.setattr(FuzzyNumber, "__init__", forbidden)
    monkeypatch.setattr(FuzzyVector, "__getitem__", forbidden)
    att = assemble_fuzzy_attainable(s, 8)
    for which in ("membership", "levelwise"):
        d_fuzzy_vec(att.steps[2], att.steps[8], which=which)
