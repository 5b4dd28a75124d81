"""Unit tests for the nested alpha-cut representation."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdikit import (
    FuzzyNumber,
    FuzzySystem,
    FuzzyVector,
    IntervalMatrix,
    StackingViolation,
    Tfn,
    as_fuzzy,
    d_membership,
    envelope_endpoints,
    level_matrix,
    level_state,
    marginal_test,
    mc_trajectories,
    spectral_radius,
)
from fdikit.cli import load_system

from fdikit import fuzzy_num
from fdikit.fuzzy_num import ORDER_TOL, interp_levels, level_cuts, level_groups, stack_fault

from conftest import (rand_fuzzy_levels, ref_level_groups, ref_membership_limits,
                      stack_outcome)


# -- strategies ----------------------------------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def tfns(draw):
    a, b, c = sorted(draw(st.tuples(finite, finite, finite)))
    return Tfn(a, b, c)


@st.composite
def fuzzy_numbers(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return FuzzyNumber(*zip(*rand_fuzzy_levels(np.random.default_rng(seed))))


# -- triangular cuts -------------------------------------------------------------

def test_triangle_cut_at_zero_is_its_support():
    assert as_fuzzy(Tfn(2, 4, 6)).cut(0.0) == (2.0, 6.0)


def test_triangle_cut_at_one_is_its_peak():
    assert as_fuzzy(Tfn(2, 4, 6)).cut(1.0) == (4.0, 4.0)


def test_triangle_cut_midway():
    assert as_fuzzy(Tfn(2, 4, 6)).cut(0.5) == (3.0, 5.0)


def test_triangle_cut_refuses_a_level_outside_0_1():
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
        as_fuzzy(Tfn(2, 4, 6)).cut(1.5)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got -0.1$"):
        as_fuzzy(Tfn(2, 4, 6)).cut(-0.1)


def test_triangle_cut_is_the_level_stack_cut(tmp_path):
    # 400 seeded triples of mixed sign, some with a degenerate side, as the
    # 20 x 20 H of a file: the triangle's cut, the vector's and the file's
    # level matrix give the same bits
    rng = np.random.default_rng(35)
    x = np.sort(rng.uniform(-1e3, 1e3, (400, 3)), axis=1)
    x[::7, 1] = x[::7, 0]
    x[3::7, 1] = x[3::7, 2]
    tfns = [Tfn(*row) for row in x.tolist()]
    path = tmp_path / "tfn.json"
    cells = [{"tfn": row} for row in x.tolist()]
    path.write_text(json.dumps({"n": 20, "H": [cells[i:i + 20] for i in range(0, 400, 20)],
                                "x0": [0.0] * 20}))
    system, _ = load_system(str(path))
    vector = FuzzyVector(tfns)
    for alpha in [0.0, 1.0, *rng.uniform(0, 1, 11).tolist()]:
        m = level_matrix(system, alpha)
        v_lo, v_hi = vector.cut(alpha)
        for i, t in enumerate(tfns):
            got = as_fuzzy(t).cut(alpha)
            assert got == (v_lo[i], v_hi[i]) == (m.lo.flat[i], m.hi.flat[i])
            if alpha == 0.0:
                assert got == (t.l, t.r)
            if alpha == 1.0:
                assert got == (t.c, t.c)


def test_triangle_cut_refuses_an_unbounded_support():
    with pytest.raises(ValueError, match="support must be bounded"):
        as_fuzzy(Tfn(0, 1, np.inf)).cut(0.5)


def test_tfn_ordering_enforced():
    with pytest.raises(ValueError):
        Tfn(3, 2, 4)


def test_degenerate_tfn_is_crisp_embedding():
    x = as_fuzzy(Tfn(5, 5, 5))
    assert x.cut(0.0) == (5.0, 5.0)
    assert x.membership(5.0) == 1.0
    assert x.membership(5.000001) == 0.0


# -- membership -------------------------------------------------------------------

def test_membership_peak():
    assert as_fuzzy(Tfn(2, 3, 4)).membership(3.0) == 1.0


def test_membership_support_endpoint():
    assert as_fuzzy(Tfn(2, 3, 4)).membership(2.0) == 0.0


def test_membership_right_slope():
    # (8-4)/(8-3) on the right slope; the boundary of cut(0.8) must sit at 4.
    x = as_fuzzy(Tfn(0, 3, 8))
    mu = x.membership(4.0)
    assert mu == pytest.approx(0.8, abs=1e-15)
    assert x.cut(mu)[1] == pytest.approx(4.0, abs=1e-12)


def test_membership_outside_support():
    x = as_fuzzy(Tfn(2, 3, 4))
    assert x.membership(1.0) == 0.0
    assert x.membership(9.0) == 0.0


@pytest.mark.parametrize("x", [Tfn(0, 1, 2), {"levels": [[0, -1, 4], [0.5, 0, 3], [1, 1, 2]]}],
                         ids=["triangle", "three-level"])
def test_membership_at_infinity_is_zero(x):
    # warnings are errors under tier-1, so each call also raises none
    x = as_fuzzy(x)
    assert x.membership(np.inf) == 0.0
    assert x.membership(-np.inf) == 0.0
    points = np.array([[-np.inf, 0.0, 1.0], [np.inf, 1.5, -np.inf]])
    grades = x.membership(points)
    assert grades.shape == (2, 3)
    assert grades[0, 0] == grades[1, 0] == grades[1, 2] == 0.0
    assert [grades[0, 1], grades[0, 2], grades[1, 1]] == [x.membership(p) for p in (0.0, 1.0, 1.5)]
    assert np.isnan(x.membership(np.nan))


def test_membership_beside_a_subnormal_step_raises_no_warning():
    # the quotient beside a 5e-324 step overflows where it is discarded
    x = as_fuzzy(Tfn(0.0, 5e-324, 1.0))
    assert x.membership(np.array([2.0, -2.0, 0.5])).tolist() == [0.0, 0.0, 0.5]


#: Endpoints drawn from a few values repeat within a stack, so that grades jump.
ENDPOINTS = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]


@st.composite
def membership_cases(draw):
    """(alphas, lo, hi, p): n numbers on one grid, with endpoints from
    ENDPOINTS or anywhere in [-4, 4], and m points of each, at those values,
    at +-inf or NaN of either sign; one number is one-dimensional half of
    the time."""
    n, size, m = draw(st.integers(1, 3)), draw(st.integers(2, 5)), draw(st.integers(0, 6))
    inner = draw(st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True),
                          min_size=size - 2, max_size=size - 2, unique=True))
    alphas = np.array([0.0, *sorted(inner), 1.0])

    def values(shape, extra=()):
        value = st.sampled_from(ENDPOINTS + list(extra)) | st.floats(-4, 4)
        count = shape[0] * shape[1]
        return np.array(draw(st.lists(value, min_size=count, max_size=count))).reshape(shape)

    lo = np.sort(values((size, n)), axis=0)
    hi = np.maximum(-np.sort(-values((size, n)), axis=0), lo[-1])  # nonincreasing, >= lo
    p = values((m, n), [np.inf, -np.inf, np.nan, -np.nan])
    if n == 1 and draw(st.booleans()):
        lo, hi, p = lo[:, 0], hi[:, 0], p[:, 0]
    return alphas, lo, hi, p


@settings(max_examples=300, deadline=None)
@given(membership_cases())
def test_membership_limits_equal_the_one_search_referee_bit_for_bit(case):
    # the bytes hold every sign bit and NaN payload
    got, want = fuzzy_num.membership_limits(*case), ref_membership_limits(*case)
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


@given(fuzzy_numbers(), st.floats(min_value=0, max_value=1))
def test_level_set_consistency(x, alpha):
    # membership(p) >= alpha exactly when p lies in cut(alpha), at grid alphas.
    alpha = float(x.alphas[int(alpha * (len(x.alphas) - 1))])
    lo, hi = x.cut(alpha)
    for p in (lo, hi, (lo + hi) / 2):
        assert x.membership(p) >= alpha - 1e-12
    if lo > x.lo[0]:
        assert x.membership(lo - 1e-6 * (1 + abs(lo))) <= alpha or np.isclose(lo, x.lo[0])


@given(fuzzy_numbers(), st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_fuzzy_convexity(x, t, phi):
    # membership along a segment never dips below the worse endpoint.
    lo, hi = x.support
    p = lo + t * (hi - lo)
    q = hi - t * (hi - lo)
    mid = phi * p + (1 - phi) * q
    assert x.membership(mid) >= min(x.membership(p), x.membership(q)) - 1e-12


@given(fuzzy_numbers())
def test_cuts_always_nested(x):
    lo, hi = x.cuts(np.linspace(0, 1, 23))
    assert np.all(np.diff(lo) >= -1e-12)
    assert np.all(np.diff(hi) <= 1e-12)


# -- invariants and encoding -----------------------------------------------------------

def test_constructor_rejects_non_nested():
    with pytest.raises(StackingViolation):
        FuzzyNumber([0, 1], [1, 0], [3, 4])


def test_repr_names_a_triangle_or_its_levels():
    assert repr(as_fuzzy(Tfn(1, 2, 3.5))) == "FuzzyNumber(tfn=(1, 2, 3.5))"
    assert repr(as_fuzzy(2.0)) == "FuzzyNumber(tfn=(2, 2, 2))"
    assert repr(FuzzyNumber([0, 1], [0, 1], [4, 3])) == "FuzzyNumber(2 levels, support=[0, 4])"
    assert repr(FuzzyNumber([0, 0.5, 1], [0, 1, 2], [4, 3, 2])) == (
        "FuzzyNumber(3 levels, support=[0, 4])")


def test_constructor_requires_full_grid():
    with pytest.raises(ValueError):
        FuzzyNumber([0, 0.5], [0, 1], [4, 3])


def test_constructor_rejects_endpoints_of_another_length():
    with pytest.raises(ValueError, match="^alphas, lo, hi must be one-dimensional and equally long$"):
        FuzzyNumber([0, 1], [0], [1])


def test_a_two_dimensional_grid_reads_the_grid_text():
    # check_grid's own rule, as in FuzzyVector.from_stack
    with pytest.raises(ValueError, match="^alpha grid must run from 0 to 1$"):
        FuzzyNumber([[0, 1]], [0, 1], [4, 3])
    with pytest.raises(ValueError, match="^alpha grid must run from 0 to 1$"):
        FuzzyVector.from_stack([[0, 1]], [[0], [1]], [[4], [3]])


def test_constructor_rejects_overflowing_width():
    # finite endpoints whose difference overflows, named without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^cut width hi - lo overflows$"):
            FuzzyNumber([0, 1], [-1.7e308, 0], [1.7e308, 0])


def test_json_round_trip_tfn():
    assert as_fuzzy({"tfn": [2, 3, 4]}) == as_fuzzy(Tfn(2, 3, 4))


@given(fuzzy_numbers())
def test_json_round_trip_levels(x):
    assert as_fuzzy({"levels": [list(row) for row in x.levels()]}) == x


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        as_fuzzy({"tfn": [1, 2]})
    with pytest.raises(ValueError):
        as_fuzzy({"nope": 1})
    with pytest.raises(ValueError):
        as_fuzzy([0, 1, 2])
    with pytest.raises(ValueError, match=r'^"levels" must be a list of \[alpha, lo, hi\] rows$'):
        as_fuzzy({"levels": [[0, 1]]})


# -- level groups ---------------------------------------------------------------------------
#
# level_groups gathers a list of {"tfn": [l, c, r]} cells, or of Tfn objects
# with float fields, floats and FuzzyNumbers on [0, 1], in one flat pass, and
# any other list cell by cell.  conftest's ref_level_groups, the cell-by-cell
# read alone, is the reference for both.

SPECIAL_TRIPLES = [
    [-0.0, 0.0, 0.0], (-0.0, -0.0, -0.0), [5e-324, 1e-310, 2.2250738585072014e-308],
    [-1e-310, -0.0, 5e-324], [0, 1, 3], [2, 2, 2], (0.25, 0.25, 0.25),
    [-1e300, 0.0, 1e300], [1e300, 1.5e300, 1.7e308], [-1.7e308, -1e300, -1e300],
    [False, 0.5, True], [True, True, 2.5], [2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63 + 1],
]
# Levels to cut at besides the breakpoints 0 and 1
BASE_GRIDS = [(), np.round(np.linspace(0.0, 1.0, 11), 12), [0.0, 1.0], [0.0, 0.3, 0.7, 1.0]]


def assert_same_stack(cells, triples, base):
    # the one group and its cuts at base, the breakpoints and their midpoints,
    # read from the cells and from Tfn objects, and by the reference
    objects = [Tfn(*map(float, t)) for t in triples]
    ref = ref_level_groups(objects)
    grid = np.union1d(base, [0.0, 1.0])
    levels = np.concatenate([grid, (grid[1:] + grid[:-1]) / 2.0])
    for got in (level_groups(cells, str), level_groups(objects, str)):
        assert len(got) == len(ref) == 1
        for a, b in zip(got[0], ref[0]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(level_cuts(got, len(cells), levels), level_cuts(ref, len(cells), levels)):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("base", BASE_GRIDS, ids=["none", "11", "01", "extra"])
def test_tfn_cells_stack_like_tfn_objects(base):
    rng = np.random.default_rng(len(base))
    for n in (1, 2, 3, 5, 8, 17, 33, 64):
        m = n * n + n
        scale = 10.0 ** rng.integers(-3, 4, (m, 1))
        triples = np.sort(rng.normal(size=(m, 3)) * scale, axis=1).tolist()
        for p in rng.choice(m, min(m, len(SPECIAL_TRIPLES)), replace=False):
            triples[p] = SPECIAL_TRIPLES[p % len(SPECIAL_TRIPLES)]
        assert_same_stack([{"tfn": t} for t in triples], triples, base)


@pytest.mark.parametrize("base", BASE_GRIDS, ids=["none", "11", "01", "extra"])
def test_integer_tfn_cells_stack_like_tfn_objects(base):
    rng = np.random.default_rng(7)
    triples = np.sort(rng.integers(-50, 50, (20, 3)), axis=1).tolist()
    triples += [[-2 ** 63, 2 ** 53 + 1, 2 ** 63 - 1], [7, 7, 7]]
    assert_same_stack([{"tfn": t} for t in triples], triples, base)


def test_string_tfn_cells_stack_like_tfn_objects():
    # float("0.1") is what the per-cell path reads from a string
    triples = [["0.1", "0.2", "0.3"], [0.5, 1.0, 1.5]]
    assert_same_stack([{"tfn": t} for t in triples], triples, ())


def assert_same_as_reference(cells):
    assert stack_outcome(lambda c: level_groups(c, str), cells) == stack_outcome(
        ref_level_groups, cells)


def unit_fuzzy(a, b, c, d):
    # a <= b <= c <= d: support [a, d], core [b, c]
    return FuzzyNumber([0.0, 1.0], [a, b], [d, c])


wide = st.floats(min_value=-1e300, max_value=1e300)
cell_kinds = {
    "tfn": st.lists(st.floats(allow_nan=False), min_size=3, max_size=3).map(
        lambda t: Tfn(*sorted(t))),
    "float": st.floats(),
    "fuzzy": st.lists(wide, min_size=4, max_size=4).map(lambda t: unit_fuzzy(*sorted(t))),
    "fuzzy-3-levels": st.lists(wide, min_size=3, max_size=3).map(
        lambda t: FuzzyNumber([0.0, 0.5, 1.0], sorted(t), [max(t)] * 3)),
    "dict": st.lists(st.floats(allow_nan=False), min_size=3, max_size=3).map(
        lambda t: {"tfn": sorted(t)}),
    "int-fields": st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=3, max_size=3).map(
        lambda t: Tfn(*sorted(t))),
    "special": st.sampled_from(SPECIAL_TRIPLES).map(lambda t: Tfn(*t)),
    "int": st.integers(-2 ** 1030, 2 ** 1030),  # beyond about 2**1024 no double holds it
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(sorted(cell_kinds)), min_size=1, max_size=10).flatmap(
    lambda kinds: st.tuples(*(cell_kinds[k] for k in kinds))))
def test_cells_in_any_mix_stack_like_the_per_cell_path(cells):
    assert_same_as_reference(list(cells))


def test_objects_on_the_unit_grid_are_read_flat():
    # one group on [0, 1]; -0.0 and subnormal endpoints keep their bits
    cells = [Tfn(0.5, 1.0, 2.0), 0.25, -0.0, unit_fuzzy(5e-324, 1e-310, 1e-310, 2.0),
             Tfn(-0.0, -0.0, 0.0), unit_fuzzy(1.0, 1.0, 1.0, 1.0)]
    assert fuzzy_num._unit_stack(cells) is not None
    assert_same_as_reference(cells)
    [(grid, index, lo, hi)] = level_groups(cells, str)
    assert grid.tolist() == [0.0, 1.0] and index.tolist() == list(range(len(cells)))
    assert np.signbit(lo[:, 2]).all() and np.signbit(hi[:, 2]).all()
    assert lo[:, 3].tolist() == [5e-324, 1e-310] and np.signbit(lo[:, 4]).all()
    assert np.signbit(hi[:, 4]).tolist() == [False, True]


@pytest.mark.parametrize("cells, flat", [
    pytest.param([Tfn(0, 1, 2)], True, id="int-fields"),
    pytest.param([Tfn(0.0, 1.0, 2.0), Tfn(False, 0.5, True)], True, id="bool-field"),
    pytest.param([1], True, id="int"),
    pytest.param([True], False, id="bool"),
    pytest.param([float("nan")], False, id="nan"),
    pytest.param([float("inf"), 0.5], True, id="inf"),
    pytest.param([Tfn(-1.7e308, 0.0, 1.7e308)], True, id="width-overflow"),
    pytest.param([np.float64(0.5)], False, id="numpy-float"),
    pytest.param([FuzzyNumber([0.0, 0.5, 1.0], [0, 1, 2], [4, 3, 2])], False, id="three-levels"),
    pytest.param([FuzzyNumber([-0.0, 1.0], [0.0, 1.0], [2.0, 1.0]), Tfn(0.0, 0.5, 1.0)], False,
                 id="minus-zero-grid"),
    pytest.param([Tfn(0.0, 0.5, 1.0), {"tfn": [0, 1, 2]}], True, id="with-a-dict"),
    pytest.param([Tfn(0.5, 1.0, 2.0), unit_fuzzy(-0.0, 0.5, 0.75, 1.0)], False,  # an interval core
                 id="trapezoid"),
])
def test_doubtful_cells_go_per_cell(cells, flat):
    # cells at the edges of the flat pass, some read flat and some cell by cell:
    # the path each takes, and on either the same groups and cuts, or the same error
    assert (fuzzy_num._unit_stack(cells) is not None) == flat
    assert_same_as_reference(cells)


def test_boolean_tfn_fields_cut_as_floats():
    groups = level_groups([Tfn(True, True, 2.5)], str)
    lo, hi = level_cuts(groups, 1, 0.35)
    want = as_fuzzy(Tfn(1.0, 1.0, 2.5)).cuts(0.35)
    assert lo.dtype == hi.dtype == np.float64
    assert lo.tobytes() == want[0].tobytes() and hi.tobytes() == want[1].tobytes()


def test_integer_tfn_fields_beyond_int64_read_as_floats():
    system = FuzzySystem([[Tfn(0, 2 ** 64, 2 ** 64)]], [Tfn(1, 1, 1)])
    [(grid, index, lo, hi)] = system.groups
    assert lo.dtype == hi.dtype == np.float64
    assert lo[:, 0].tolist() == [0.0, 2.0 ** 64] and hi[:, 0].tolist() == [2.0 ** 64] * 2


def test_integer_tfn_fields_beyond_float_name_the_cell():
    with pytest.raises(ValueError, match=r'^"H"\[0\]\[0\]: int too large to convert to float$'):
        FuzzySystem([[Tfn(0, 2 ** 1100, 2 ** 1100)]], [Tfn(1, 1, 1)])


@pytest.mark.parametrize("cell", [
    Tfn(0, 1, 10 ** 400), {"tfn": [0, 1, 10 ** 400]}, -10 ** 400,
    {"levels": [[0, 0, 10 ** 400], [1, 1, 1]]}, {"levels": [[0, 0, 2], [10 ** 400, 1, 1]]},
], ids=["tfn-field", "tfn-value", "number", "levels-endpoint", "levels-alpha"])
def test_integers_beyond_float_are_value_errors(cell):
    # the message FuzzyVector and a system file prefix with the cell's name
    for read in (as_fuzzy, lambda c: d_membership(c, Tfn(0, 1, 2)), lambda c: FuzzyVector([c])):
        with pytest.raises(ValueError, match=r"int too large to convert to float$"):
            read(cell)


HUGE = 10 ** 400


def tfn_system():
    return FuzzySystem(h=[[Tfn(0.1, 0.2, 0.3)]], x0=[Tfn(1, 2, 3)])


@pytest.mark.parametrize("build", [
    lambda: FuzzyNumber([0, 1], [0, 1], [HUGE, 1]),
    lambda: FuzzyVector.from_stack([0, 1], [[0], [1]], [[HUGE], [1]]),
    lambda: IntervalMatrix([0.0], [HUGE]),
    lambda: marginal_test(IntervalMatrix([[0.5]], [[0.5]]), [[HUGE]]),
    lambda: spectral_radius([[HUGE]]),
    lambda: as_fuzzy(Tfn(0, 1, 2)).cut(HUGE),
    lambda: as_fuzzy(Tfn(0, 1, 2)).cuts([0.5, HUGE]),
    lambda: as_fuzzy(Tfn(0, 1, 2)).membership(HUGE),
    lambda: FuzzyVector([Tfn(0, 1, 2)]).cut(HUGE),
    lambda: level_matrix(tfn_system(), HUGE),
    lambda: level_state(tfn_system(), HUGE),
    lambda: envelope_endpoints(tfn_system(), HUGE, 1),
    lambda: mc_trajectories(tfn_system(), HUGE, 1, 1),
], ids=["FuzzyNumber", "FuzzyVector.from_stack", "IntervalMatrix", "marginal_test",
        "spectral_radius", "FuzzyNumber.cut", "FuzzyNumber.cuts", "FuzzyNumber.membership",
        "FuzzyVector.cut", "level_matrix", "level_state", "envelope_endpoints",
        "mc_trajectories"])
def test_array_constructors_read_integers_beyond_float_as_value_errors(build):
    # float()'s message with no prefix: the arrays are read whole, before any
    # component could be named
    with pytest.raises(ValueError, match=r"^int too large to convert to float$"):
        build()


# -- stack_fault --------------------------------------------------------------------------

def stack_fault_ref(alphas, lo, hi):
    """stack_fault as it was first written: every check reduced row by row
    along the level axis, then the first bad row of each."""
    if alphas.size < 2 or alphas[0] != 0.0 or alphas[-1] != 1.0:
        return 0, ValueError("alpha grid must run from 0 to 1")
    if not np.all(np.diff(alphas) > 0):
        return 0, ValueError("alpha grid must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
        wider = (np.diff(lo) < -ORDER_TOL) | (np.diff(hi) > ORDER_TOL)
    checks = (
        (~(np.isfinite(lo) & np.isfinite(hi)).all(axis=-1), ValueError,
         "support must be bounded (finite endpoints)"),
        (~np.isfinite(width).all(axis=-1), ValueError, "cut width hi - lo overflows"),
        ((width < 0).any(axis=-1), ValueError, "every level must satisfy lo <= hi"),
        (wider.any(axis=-1), StackingViolation,
         "alpha-cuts must be nested (nonincreasing in alpha)"),
    )
    faults = [(int(np.argmax(bad)), kind(message)) for bad, kind, message in checks if bad.any()]
    return min(faults, key=lambda fault: fault[0], default=None)


def inject(rng, lo, hi, row, kind):
    # one fault of ``kind`` at a random level of ``row`` (an index of lo[..., 0])
    size = lo.shape[-1]
    j = int(rng.integers(size))
    if kind == "non-finite":
        (lo if rng.random() < 0.5 else hi)[row + (j,)] = rng.choice([np.inf, -np.inf, np.nan])
    elif kind == "width-overflow":
        lo[row + (j,)], hi[row + (j,)] = -1.7e308, 1.7e308
    elif kind == "unordered":
        lo[row + (j,)], hi[row + (j,)] = hi[row + (j,)] + 1.0, lo[row + (j,)]
    else:  # a level wider than the one below it, by more (or less) than ORDER_TOL
        j = max(j, 1)
        step = rng.choice([2.0, 1.0, 0.5]) * ORDER_TOL
        if rng.random() < 0.5:
            lo[row + (j,)] = lo[row + (j - 1,)] - step
        else:
            hi[row + (j,)] = hi[row + (j - 1,)] + step


FAULT_KINDS = ["non-finite", "width-overflow", "unordered", "wider"]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(FAULT_KINDS), min_size=0, max_size=2), st.booleans())
def test_stack_fault_matches_the_row_by_row_reference(k, n, size, seed, faults, strided):
    rng = np.random.default_rng(seed)
    alphas = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size - 2)), [1.0]])
    # nested cuts: lo rises and hi falls with alpha
    lo = np.cumsum(rng.uniform(0.0, 1.0, (k, n, size)), axis=-1)
    hi = lo[..., -1:] + np.cumsum(rng.uniform(0.0, 1.0, (k, n, size)), axis=-1)[..., ::-1]
    rows = rng.choice(k * n, size=min(len(faults), k * n), replace=False)
    for row, kind in zip(rows, faults):
        inject(rng, lo, hi, tuple(int(i) for i in np.unravel_index(row, (k, n))), kind)
    if strided:  # the level axis strided, as assemble_fuzzy_attainable passes it
        lo, hi = (np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1) for a in (lo, hi))
    got, want = stack_fault(alphas, lo, hi), stack_fault_ref(alphas, lo, hi)
    if want is None:
        assert got is None
    else:
        assert (got[0], type(got[1]), str(got[1])) == (want[0], type(want[1]), str(want[1]))


# -- interpolation onto a level grid -------------------------------------------------

def interp_levels_ref(x, xp, fp):
    """interp_levels as it was first written: every gather, slope and blend
    taken per query level."""
    x = np.asarray(x, dtype=float)
    j = np.searchsorted(xp, x, side="right") - 1
    k = np.minimum(j, xp.size - 2)
    col = x.shape + (1,) * (fp.ndim - 1)
    slope = (fp[k + 1] - fp[k]) / (xp[k + 1] - xp[k]).reshape(col)
    between = slope * (x - xp[k]).reshape(col) + fp[k]
    return np.where((xp[j] == x).reshape(col), fp[j], between)


def test_interp_levels_matches_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for trial in range(300):
        g = int(rng.integers(2, 40))
        xp = np.unique(np.concatenate(([0.0, 1.0], rng.uniform(size=g - 2))))
        if trial % 5 == 0:  # subnormal and tiny spacings next to 0
            xp = np.unique(np.concatenate((xp, [5e-324, 1e-310, 1e-300])))
        tail = tuple(rng.integers(1, 5, size=trial % 3))
        fp = rng.normal(size=(xp.size, *tail)) * 10.0 ** rng.integers(-300, 300)
        x = np.concatenate((rng.uniform(size=int(rng.integers(0, 30))), xp,
                            rng.choice(xp, 3)))
        for query in (x, x[: x.size // 2].reshape(-1, 1), float(rng.choice(x)), 1.0):
            with np.errstate(over="ignore", invalid="ignore"):
                (got,), ref = interp_levels(query, xp, fp), interp_levels_ref(query, xp, fp)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        columns = fp.reshape(xp.size, -1).T
        with np.errstate(over="ignore"):
            slopes = np.diff(columns, axis=1) / np.diff(xp)
        if np.isfinite(slopes).all():  # np.interp retries NaN blends; interp_levels does not
            expected = np.stack([np.interp(x, xp, c) for c in columns], axis=-1)
            assert np.array_equal(interp_levels(x, xp, fp)[0].reshape(x.size, -1), expected)


@pytest.mark.parametrize("levels", [
    [0.0, 0.2, 1.0, 0.7],  # every level on the grid
    [0.05, 0.5, 0.95],  # none on it
    [0.3, 0.25, 0.0, 1.0, 0.6],  # a mix
    [1.0], [0.4],
])
def test_interp_levels_of_two_stacks_is_two_calls_and_np_interp(levels):
    # one call on (lo, hi) searches the levels once and returns what a call
    # per stack returns, bit for bit, and np.interp per column
    rng = np.random.default_rng(8)
    xp = np.array([0.0, 0.2, 0.3, 0.7, 1.0])
    x = np.array(levels)
    for tail in ((), (3,), (2, 4)):
        lo = np.sort(rng.normal(size=(xp.size, *tail)), axis=0) * 10.0 ** rng.integers(-5, 5)
        hi = lo[::-1] + 1.0
        got = interp_levels(x, xp, lo, hi)
        assert len(got) == 2
        for one, fp in zip(got, (lo, hi)):
            (alone,) = interp_levels(x, xp, fp)
            assert one.shape == alone.shape == x.shape + tail
            assert one.dtype == alone.dtype and one.tobytes() == alone.tobytes()
            expected = np.stack([np.interp(x, xp, c) for c in fp.reshape(xp.size, -1).T], -1)
            assert one.reshape(x.size, -1).tobytes() == expected.tobytes()


@pytest.mark.parametrize("levels", [
    [0.0, 0.3, 1.0, 0.3],  # every level on the grid
    [0.1, 0.5, 0.95],  # none on it
    [0.3, 0.2, 0.0, 0.7, 1.0],  # a mix
    [-0.0], [1.0], [0.0], [],
])
def test_interp_levels_grid_lookup_is_bit_equal_to_the_general_path(levels):
    # a level off the grid sends the whole query through the general path
    rng = np.random.default_rng(5)
    xp = np.array([0.0, 0.2, 0.3, 0.7, 1.0])
    for tail in ((), (3,), (2, 4)):
        fp = rng.normal(size=(xp.size, *tail)) * 10.0 ** rng.integers(-5, 5, size=(xp.size, *tail))
        x = np.array(levels)
        (got,), (general,) = interp_levels(x, xp, fp), interp_levels(np.append(x, 0.45), xp, fp)
        general = general[:-1]
        assert got.shape == general.shape == x.shape + tail
        assert got.dtype == general.dtype and got.tobytes() == general.tobytes()
        assert got.tobytes() == interp_levels_ref(x, xp, fp).tobytes()
        if x.size == 1:  # a scalar level, as level_matrix passes it
            (scalar,) = interp_levels(float(x[0]), xp, fp)
            assert scalar.shape == tail and scalar.tobytes() == got[0].tobytes()
        got[...] = 0.0  # a fresh array, never a view of fp
        assert np.all(interp_levels(x, xp, fp)[0] == general)
