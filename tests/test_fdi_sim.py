"""Unit tests for level-wise envelopes, stacking, and Monte Carlo oracles."""

import tracemalloc

import numpy as np
import pytest

from fdikit import (
    FuzzySystem,
    FuzzyVector,
    SignPreconditionError,
    StabilityStatus,
    Tfn,
    analyze,
    as_fuzzy,
    assemble_fuzzy_attainable,
    d_fuzzy_vec,
    envelope_endpoints,
    level_matrix,
    level_state,
    mc_trajectories,
    transition_envelope,
    validate_nested,
)

from fdikit import fdi_sim, interval_linalg

from conftest import (
    OVERFLOWING,
    make_certified_nonneg_system,
    make_nonneg_system,
    rand_fuzzy_levels,
    rand_tfn_nonneg,
)


def scalar_system(alphas=(0.0, 0.5, 1.0)) -> FuzzySystem:
    return FuzzySystem(h=[[Tfn(0.4, 0.5, 0.6)]],
                       x0=FuzzyVector([Tfn(0.8, 1.0, 1.2)]),
                       alphas=np.asarray(alphas))


def crisp_system(n=2, seed=0) -> FuzzySystem:
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 0.5, (n, n))
    x = rng.uniform(0.5, 1.5, n)
    return FuzzySystem(h=[[Tfn(v, v, v) for v in row] for row in a],
                       x0=FuzzyVector([Tfn(v, v, v) for v in x]),
                       alphas=[0.0, 1.0])


# -- level extraction ---------------------------------------------------------------

def test_level_matrix_crisp_entries():
    s = crisp_system()
    m = level_matrix(s, 0.3)
    assert np.array_equal(m.lo, m.hi)


def test_level_matrix_scalar_support():
    m = level_matrix(scalar_system(), 0.0)
    assert (m.lo[0, 0], m.hi[0, 0]) == (0.4, 0.6)


def test_level_matrix_scalar_midlevel():
    m = level_matrix(scalar_system(), 0.5)
    assert m.lo[0, 0] == pytest.approx(0.45, abs=1e-15)
    assert m.hi[0, 0] == pytest.approx(0.55, abs=1e-15)


# -- level stack --------------------------------------------------------------------

def random_entries(rng: np.random.Generator, mixed: bool, count: int) -> list:
    """TFN entries, or (``mixed``) a mix of level stacks with their own grids,
    TFNs, real numbers and JSON objects."""
    out = []
    for _ in range(count):
        kind = int(rng.integers(4)) if mixed else 0
        if kind == 0:
            out.append(rand_tfn_nonneg(rng))
        elif kind == 1:
            out.append(validate_nested(rand_fuzzy_levels(rng))[0])
        elif kind == 2:
            out.append(float(rng.uniform(-2.0, 2.0)))
        else:
            out.append({"levels": [list(row) for row in rand_fuzzy_levels(rng)]})
    return out


def random_level_systems(seed: int, mixed: bool, count: int = 30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        h = random_entries(rng, mixed, n * n)
        x0 = random_entries(rng, mixed, n)
        alphas = np.round(np.linspace(0.0, 1.0, int(rng.integers(2, 12))), 12)
        system = FuzzySystem(h=[h[i * n:(i + 1) * n] for i in range(n)], x0=x0, alphas=alphas)
        yield h, x0, system


def reference_cuts(entries, alpha):
    """Per-entry reference: every entry cut with np.interp on its own grid."""
    cuts = np.array([as_fuzzy(e).cut(alpha) for e in entries])
    return cuts[:, 0], cuts[:, 1]


def breakpoint_levels(s: FuzzySystem) -> np.ndarray:
    """The levels of ``s.alphas`` and every entry's breakpoints."""
    return np.unique(np.concatenate([s.alphas] + [grid for grid, *_ in s.groups]))


def assert_entry_cuts(h, x0, s, alpha):
    m, x = level_matrix(s, alpha), level_state(s, alpha)
    h_lo, h_hi = reference_cuts(h, alpha)
    x_lo, x_hi = reference_cuts(x0, alpha)
    assert m.lo.tobytes() == h_lo.tobytes() and m.hi.tobytes() == h_hi.tobytes(), alpha
    assert x.lo.tobytes() == x_lo.tobytes() and x.hi.tobytes() == x_hi.tobytes(), alpha


@pytest.mark.parametrize("mixed", [False, True])
def test_level_stack_equals_per_entry_cuts_on_grid(mixed):
    # at every level of alphas and every entry's breakpoints
    for h, x0, s in random_level_systems(20 + mixed, mixed):
        for alpha in breakpoint_levels(s):
            assert_entry_cuts(h, x0, s, alpha)


@pytest.mark.parametrize("mixed", [False, True])
def test_level_stack_interpolates_off_grid(mixed):
    # Between breakpoints each entry is interpolated on its own grid, so
    # the cut is the entry's own cut, bit for bit.
    rng = np.random.default_rng(40 + mixed)
    for h, x0, s in random_level_systems(30 + mixed, mixed):
        grid = breakpoint_levels(s)
        for alpha in np.concatenate([(grid[1:] + grid[:-1]) / 2.0, rng.uniform(0.0, 1.0, 5)]):
            assert_entry_cuts(h, x0, s, alpha)


@pytest.mark.parametrize("mixed", [False, True])
def test_cuts_at_many_levels_equal_cuts_one_level_at_a_time(mixed):
    rng = np.random.default_rng(50 + mixed)
    for h, x0, s in random_level_systems(60 + mixed, mixed):
        grid = breakpoint_levels(s)
        levels = rng.permutation(np.concatenate([grid, (grid[1:] + grid[:-1]) / 2.0]))
        many = fdi_sim._cuts(s, levels)
        for i, alpha in enumerate(levels):
            m, x = level_matrix(s, alpha), level_state(s, alpha)
            for got, want in zip(many, (m.lo, m.hi, x.lo, x.hi)):
                assert got[i].tobytes() == want.tobytes(), alpha


def test_groups_keep_each_entry_on_its_own_grid():
    h = [[Tfn(0.1, 0.2, 0.3), {"levels": [[0.0, 0.0, 1.0], [0.5, 0.2, 0.6], [1.0, 0.3, 0.3]]}],
         [0.5, {"tfn": [0.0, 0.1, 0.4]}]]
    s = FuzzySystem(h=h, x0=[{"levels": [[0.0, 1.0, 2.0], [0.5, 1.2, 1.8], [1.0, 1.5, 1.5]]}, 2.0])
    assert [(grid.tolist(), index.tolist()) for grid, index, _, _ in s.groups] == [
        ([0.0, 1.0], [0, 2, 3, 5]), ([0.0, 0.5, 1.0], [1, 4])]
    grid, index, lo, hi = s.groups[1]
    assert lo.tolist() == [[0.0, 1.0], [0.2, 1.2], [0.3, 1.5]]
    assert hi.tolist() == [[1.0, 2.0], [0.6, 1.8], [0.3, 1.5]]
    assert not any(a.flags.writeable for group in s.groups for a in group)
    assert not s.alphas.flags.writeable


def test_system_validation():
    with pytest.raises(ValueError):
        FuzzySystem(h=[[Tfn(0, 0, 1), Tfn(0, 0, 1)]],
                    x0=FuzzyVector([Tfn(0, 0, 1)]), alphas=[0, 1])
    with pytest.raises(ValueError):
        FuzzySystem(h=[[Tfn(0, 0, 1)]], x0=FuzzyVector([Tfn(0, 0, 1)]),
                    alphas=[0.0, 0.5])


@pytest.mark.parametrize("h, x0, message", [
    ([[0.1]], {"a": 1}, '"x0": expected 1 entries'),  # not the keys of a mapping
    ([[0.1]], "a", '"x0": expected 1 entries'),
    ([[0.1]], 1.0, '"x0": expected 1 entries'),
    ([[0.1]], [1.0, 2.0], '"x0": expected 1 entries'),
    ([[0.1, 0.2], {"a": 1, "b": 2}], [1.0, 1.0], '"H"[1]: expected 2 entries'),
    ([[0.1, 0.2], "ab"], [1.0, 1.0], '"H"[1]: expected 2 entries'),
    ([[0.1, 0.2], [0.3]], [1.0, 1.0], '"H"[1]: expected 2 entries'),
    ([], [], '"H": expected at least one row'),
], ids=["x0-mapping", "x0-str", "x0-number", "x0-length", "row-mapping", "row-str",
        "row-length", "no-rows"])
def test_system_shape_faults_name_the_json_path(h, x0, message):
    with pytest.raises(ValueError) as err:
        FuzzySystem(h=h, x0=x0)
    assert str(err.value) == message


def test_system_accepts_any_sequence_of_entries():
    rows = [(0.1, Tfn(0.1, 0.2, 0.3)), np.array([0.3, 0.4])]
    want = FuzzySystem(h=[[0.1, Tfn(0.1, 0.2, 0.3)], [0.3, 0.4]], x0=[1.0, Tfn(1, 2, 3)])
    for x0 in ((1.0, Tfn(1, 2, 3)), FuzzyVector([1.0, Tfn(1, 2, 3)]), iter([1.0, Tfn(1, 2, 3)])):
        got = FuzzySystem(h=rows, x0=x0)
        for a, b in zip(fdi_sim._cuts(got, [0.0, 0.5, 1.0]), fdi_sim._cuts(want, [0.0, 0.5, 1.0])):
            assert np.array_equal(a, b)


# -- envelope propagation ----------------------------------------------------------------

def test_envelope_scalar_two_steps():
    lo, hi = envelope_endpoints(scalar_system(), 0.0, 2)
    assert lo.shape == hi.shape == (3, 1)
    assert lo[2, 0] == pytest.approx(0.128, abs=1e-15)
    assert hi[2, 0] == pytest.approx(0.432, abs=1e-15)


def test_envelope_crisp_degenerates_to_trajectory():
    s = crisp_system()
    lo, hi = envelope_endpoints(s, 0.0, 5)
    a = level_matrix(s, 0.0).lo
    x = level_state(s, 0.0).lo
    for k in range(6):
        assert np.allclose(lo[k], x, rtol=0, atol=0)
        assert np.allclose(hi[k], x, rtol=0, atol=0)
        x = a @ x


def test_envelope_step_zero_is_initial_cut():
    s = scalar_system()
    lo, hi = envelope_endpoints(s, 0.5, 0)
    x = level_state(s, 0.5)
    assert np.array_equal(lo, [x.lo])
    assert np.array_equal(hi, [x.hi])


def test_envelope_contains_monte_carlo_both_modes():
    rng = np.random.default_rng(1)
    s = make_nonneg_system(rng, n_max=2)
    lo, hi = envelope_endpoints(s, 0.0, 10)
    for mode in ("constant", "timevarying"):
        runs = mc_trajectories(s, 0.0, 10, 2000, seed=2, mode=mode)
        assert np.all(runs >= lo[np.newaxis] - 1e-12)
        assert np.all(runs <= hi[np.newaxis] + 1e-12)


def test_envelope_matrix_sign_precondition():
    s = FuzzySystem(h=[[Tfn(-0.2, 0.1, 0.3)]], x0=FuzzyVector([Tfn(0, 1, 2)]),
                    alphas=[0, 1])
    with pytest.raises(SignPreconditionError) as err:
        envelope_endpoints(s, 0.0, 3)
    assert err.value.condition == "matrix_nonneg"


def test_envelope_state_sign_precondition():
    s = FuzzySystem(h=[[Tfn(0.1, 0.2, 0.3)]], x0=FuzzyVector([Tfn(-1, 0, 1)]),
                    alphas=[0, 1])
    with pytest.raises(SignPreconditionError) as err:
        envelope_endpoints(s, 0.0, 3)
    assert err.value.condition == "state_nonneg"


def test_envelope_precondition_checked_per_level():
    # support dips negative but the core does not: only low alphas refuse
    s = FuzzySystem(h=[[Tfn(-0.1, 0.2, 0.4)]], x0=FuzzyVector([Tfn(0.5, 1, 1.5)]),
                    alphas=[0.0, 0.5, 1.0])
    with pytest.raises(SignPreconditionError):
        envelope_endpoints(s, 0.0, 2)
    lo, hi = envelope_endpoints(s, 1.0, 2)
    assert np.array_equal(lo, [[1.0], [0.2], [0.2 * 0.2]])
    assert np.array_equal(hi, lo)


def envelope_endpoints_ref(sys, alphas, horizon):
    """envelope_endpoints as it was before it stepped in place: lower and
    upper steps interleaved, each a new array copied into the stack."""
    m_lo, m_hi, x_lo, x_hi = fdi_sim._cuts(sys, np.asarray(alphas, dtype=float))
    lo = np.empty((horizon + 1, *x_lo.shape))
    hi = np.empty_like(lo)
    lo[0] = x_lo
    hi[0] = x_hi
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            lo[k + 1] = (m_lo @ lo[k][..., None])[..., 0]
            hi[k + 1] = (m_hi @ hi[k][..., None])[..., 0]
    return lo, hi


def recursion_system(n, seed):
    # non-negative rows summing to 0.5-1.1 at the support; one entry and one
    # state component on a grid of their own
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0, (n, n))
    lo *= rng.uniform(0.5, 1.0) / lo.sum(axis=1, keepdims=True)
    c = lo * rng.uniform(1.0, 1.05, (n, n))
    hi = c * rng.uniform(1.0, 1.05, (n, n))
    h = [[Tfn(*t) for t in zip(*rows)] for rows in zip(lo.tolist(), c.tolist(), hi.tolist())]
    h[n - 1][0] = {"levels": [[0.0, lo[n - 1, 0], hi[n - 1, 0]], [0.3, c[n - 1, 0], hi[n - 1, 0]],
                              [1.0, c[n - 1, 0], c[n - 1, 0]]]}
    x0 = [Tfn(*t) for t in np.sort(rng.uniform(0.0, 2.0, (n, 3)), axis=1).tolist()]
    x0[0] = {"levels": [[0.0, 0.5, 2.0], [0.6, 1.0, 1.5], [1.0, 1.0, 1.0]]}
    return FuzzySystem(h, x0)


RECURSION_LEVELS = {
    "scalar": 0.3, "2": [0.0, 1.0], "11": fdi_sim.DEFAULT_ALPHAS,
    "51": np.linspace(0.0, 1.0, 51), "off-grid": [0.05, 0.3, 0.45, 0.6, 0.99],
}


@pytest.mark.parametrize("horizon", [0, 1, 40])
@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_envelope_endpoints_match_the_interleaved_loop(n, horizon):
    s = recursion_system(n, seed=n)
    for levels in RECURSION_LEVELS.values():
        got = fdi_sim.envelope_endpoints(s, levels, horizon)
        want = envelope_endpoints_ref(s, levels, horizon)
        for a, b in zip(got, want):
            assert a.shape == b.shape == (horizon + 1, *np.shape(levels), n)
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("levels", ["scalar", "2", "11", "51"])
def test_overflowing_endpoints_match_the_interleaved_loop(levels):
    s = FuzzySystem(h=OVERFLOWING["H"], x0=OVERFLOWING["x0"])
    levels = RECURSION_LEVELS[levels]
    for horizon in (0, 1, 40):
        got = fdi_sim.envelope_endpoints(s, levels, horizon)
        for a, b in zip(got, envelope_endpoints_ref(s, levels, horizon)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.isinf(got[1]).any() and np.isnan(got[0]).any()


# -- stacked fuzzy attainable sets ------------------------------------------------------------

def test_assemble_step_zero_equals_initial_state():
    s = scalar_system()
    att = assemble_fuzzy_attainable(s, 0)
    for alpha in (0.0, 0.5):
        x = level_state(s, alpha)
        assert att.steps[0][0].cut(alpha) == (x.lo[0], x.hi[0])


def test_assemble_crisp_levels_identical():
    s = crisp_system()
    att = assemble_fuzzy_attainable(s, 4)
    for step in att.steps:
        lo0, hi0 = step.cut(0.0)
        lo1, hi1 = step.cut(1.0)
        assert np.array_equal(lo0, lo1) and np.array_equal(hi0, hi1)
        assert np.array_equal(lo0, hi0)


def test_assemble_boxes_shrink_with_alpha():
    s = scalar_system()
    att = assemble_fuzzy_attainable(s, 6)
    for step in att.steps:
        lo0, hi0 = step.cut(0.0)
        lo5, hi5 = step.cut(0.5)
        lo1, hi1 = step.cut(1.0)
        assert np.all(lo0 <= lo5 + 1e-12) and np.all(lo5 <= lo1 + 1e-12)
        assert np.all(hi1 <= hi5 + 1e-12) and np.all(hi5 <= hi0 + 1e-12)


def test_assemble_validates_against_stacker():
    rng = np.random.default_rng(4)
    s = make_nonneg_system(rng, n_max=3)
    horizon = 5
    att = assemble_fuzzy_attainable(s, horizon)
    # re-stack the raw envelopes through the public validator
    envelopes = [envelope_endpoints(s, a, horizon) for a in s.alphas]
    for k in range(horizon + 1):
        v = validate_nested([(a, lo[k], hi[k]) for a, (lo, hi) in zip(s.alphas, envelopes)])
        assert v.n == s.n
        assert att.steps[k][0].cut(0.0) == v[0].cut(0.0)


def test_assemble_names_the_step_of_an_overflowing_endpoint():
    # 1e200 * 1e200 overflows at step 2; one check of the whole stack names it
    s = FuzzySystem(h=[[Tfn(1e200, 1e200, 1e200)]], x0=[Tfn(1, 1, 1)], alphas=[0, 1])
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        assemble_fuzzy_attainable(s, 3)
    assert str(err.value).startswith("step 2, component 0: support must be bounded")


def test_assemble_steps_are_read_only_views_of_one_stack():
    s = make_nonneg_system(np.random.default_rng(5), n_max=3)
    att = assemble_fuzzy_attainable(s, 4)
    assert att.lo.shape == att.hi.shape == (5, s.alphas.size, s.n) and att.horizon == 4
    for k, step in enumerate(att.steps):
        assert step.lo.base is att.lo and np.array_equal(step.lo, att.lo[k])
        assert step.hi.base is att.hi and np.array_equal(step.hi, att.hi[k])
        assert not step.lo.flags.writeable and not step.hi.flags.writeable
    assert not att.lo.flags.writeable and not att.hi.flags.writeable


# -- transition envelopes ------------------------------------------------------------------------

def test_transition_step_zero_identity():
    s = scalar_system()
    lo, hi = transition_envelope(s, 0.0, 3)
    assert lo.shape == hi.shape == (4, 1, 1)
    assert np.array_equal(lo[0], np.eye(1))
    assert np.array_equal(hi[0], np.eye(1))


def test_transition_scalar_cubes():
    lo, hi = transition_envelope(scalar_system(), 0.0, 3)
    assert lo[3, 0, 0] == pytest.approx(0.064, abs=1e-15)
    assert hi[3, 0, 0] == pytest.approx(0.216, abs=1e-15)


def test_transition_consistent_with_envelope():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = make_nonneg_system(rng, n_max=3)
        horizon = 8
        lo, hi = envelope_endpoints(s, 0.0, horizon)
        p_lo, p_hi = transition_envelope(s, 0.0, horizon)
        x = level_state(s, 0.0)
        for k in range(horizon + 1):
            assert np.allclose(p_lo[k] @ x.lo, lo[k], rtol=1e-12, atol=1e-12)
            assert np.allclose(p_hi[k] @ x.hi, hi[k], rtol=1e-12, atol=1e-12)


def test_transition_monte_carlo_containment():
    rng = np.random.default_rng(4)
    lo = rng.uniform(0, 0.5, (2, 2))
    hi = lo + rng.uniform(0, 0.5, (2, 2))
    s = FuzzySystem(h=[[Tfn(a, (a + b) / 2, b) for a, b in zip(*rows)] for rows in zip(lo, hi)],
                    x0=FuzzyVector([Tfn(1, 1, 1)] * 2), alphas=[0, 1])
    m = level_matrix(s, 0.0)
    assert np.array_equal(m.lo, lo) and np.array_equal(m.hi, hi)
    lo, hi = transition_envelope(s, 0.0, 3)
    for _ in range(1000):
        u3 = np.linalg.matrix_power(interval_linalg.sample_matrix(m, rng), 3)
        assert np.all(u3 >= lo[3] - 1e-12) and np.all(u3 <= hi[3] + 1e-12)


def test_overflowed_endpoints_carry_nan_without_warnings():
    # The zero lower bound of H[0][0] meets an infinite endpoint: the state's
    # lower endpoint is first NaN at step 2, the lower power's at step 3.  Both
    # arrays carry it, without RuntimeWarnings (errors under pyproject.toml).
    s = FuzzySystem(h=OVERFLOWING["H"], x0=OVERFLOWING["x0"])

    def nan_steps(x):
        return np.flatnonzero(np.isnan(x).reshape(len(x), -1).any(axis=1)).tolist()

    lo, hi = envelope_endpoints(s, 0.0, 4)
    assert nan_steps(lo) == [2, 3, 4] and np.isinf(hi).any()
    lo, hi = transition_envelope(s, 0.0, 4)
    assert nan_steps(lo) == [3, 4] and np.isinf(hi).any()


def test_transition_powers_step_the_level_matrix_from_one_cut(monkeypatch):
    s = recursion_system(4, seed=1)
    m = level_matrix(s, 0.3)
    cut, cuts = fdi_sim._cuts, []
    monkeypatch.setattr(fdi_sim, "_cuts", lambda *args: cuts.append(args) or cut(*args))
    p_lo, p_hi = transition_envelope(s, 0.3, 12)
    assert len(cuts) == 1 and p_lo.shape == p_hi.shape == (13, 4, 4)
    lo = hi = np.eye(4)
    for k in range(13):  # bit for bit the powers of the level matrix
        assert p_lo[k].tobytes() == lo.tobytes() and p_hi[k].tobytes() == hi.tobytes()
        lo, hi = m.lo @ lo, m.hi @ hi


@pytest.mark.parametrize("h, x0, condition", [
    (Tfn(-0.2, 0.1, 0.3), Tfn(-1, 0, 1), "matrix_nonneg"),  # the matrix is checked first
    (Tfn(0.1, 0.2, 0.3), Tfn(-1, 0, 1), "state_nonneg"),
])
def test_transition_sign_errors_match_envelope(h, x0, condition):
    s = FuzzySystem(h=[[h]], x0=FuzzyVector([x0]), alphas=[0, 1])
    with pytest.raises(SignPreconditionError) as err:
        transition_envelope(s, 0.0, 3)
    with pytest.raises(SignPreconditionError) as expected:
        envelope_endpoints(s, 0.0, 3)
    assert err.value.condition == expected.value.condition == condition
    assert str(err.value) == str(expected.value)


# -- Monte Carlo ----------------------------------------------------------------------------------

def test_mc_crisp_trajectories_identical():
    s = crisp_system()
    runs = mc_trajectories(s, 0.0, 4, 50, seed=6)
    assert np.all(runs == runs[0][np.newaxis])


def test_mc_modes_differ_on_wide_systems():
    s = scalar_system()
    a = mc_trajectories(s, 0.0, 4, 20, seed=7, mode="constant")
    b = mc_trajectories(s, 0.0, 4, 20, seed=7, mode="timevarying")
    assert not np.array_equal(a, b)


def test_mc_vertex_selection_attains_envelope():
    rng = np.random.default_rng(8)
    s = make_nonneg_system(rng, n_max=3)
    lo, hi = envelope_endpoints(s, 0.0, 10)
    m = level_matrix(s, 0.0)
    x_lo = level_state(s, 0.0).lo
    x_hi = level_state(s, 0.0).hi
    lo_traj, hi_traj = x_lo, x_hi
    for k in range(11):
        assert np.allclose(lo_traj, lo[k], rtol=0, atol=1e-12)
        assert np.allclose(hi_traj, hi[k], rtol=0, atol=1e-12)
        lo_traj = m.lo @ lo_traj
        hi_traj = m.hi @ hi_traj


def test_mc_rejects_bad_mode():
    with pytest.raises(ValueError):
        mc_trajectories(scalar_system(), 0.0, 2, 5, seed=0, mode="sometimes")


def test_mc_deterministic_under_seed():
    s = scalar_system()
    a = mc_trajectories(s, 0.5, 6, 30, seed=9, mode="timevarying")
    b = mc_trajectories(s, 0.5, 6, 30, seed=9, mode="timevarying")
    assert np.array_equal(a, b)



def reference_mc_trajectories(sys, alpha, horizon, n, seed=0, mode="constant"):
    """The one-shot version: every member matrix of a step in one draw."""
    m, x0 = level_matrix(sys, alpha), level_state(sys, alpha)
    rng = np.random.default_rng(seed)
    x = rng.uniform(x0.lo, x0.hi, size=(n, sys.n))
    out = np.empty((n, horizon + 1, sys.n))
    out[:, 0] = x
    if mode == "constant":
        u = rng.uniform(m.lo, m.hi, size=(n, sys.n, sys.n))
    for k in range(1, horizon + 1):
        if mode == "timevarying":
            u = rng.uniform(m.lo, m.hi, size=(n, sys.n, sys.n))
        x = np.einsum("nij,nj->ni", u, x)
        out[:, k] = x
    return out


def signed_tfn_system(rng, n, alphas=(0.0, 0.5, 1.0)) -> FuzzySystem:
    c = rng.normal(0.0, 1.0 / n, size=(n, n))
    w = rng.uniform(0.0, 0.2 / n, size=(2, n, n))
    h = [[Tfn(c[i, j] - w[0, i, j], c[i, j], c[i, j] + w[1, i, j]) for j in range(n)]
         for i in range(n)]
    return FuzzySystem(h=h, x0=[Tfn(v - 0.5, v, v + 0.5) for v in rng.normal(size=n)],
                       alphas=np.asarray(alphas))


@pytest.mark.parametrize("mode", ["constant", "timevarying"])
@pytest.mark.parametrize("n, runs, chunk_entries", [
    (8, 5000, None),  # 4096 runs per chunk, then 904
    (30, 700, None),  # 291, 291, 118
    (3, 50, 40),      # 4 runs per chunk, a partial last chunk
])
def test_mc_chunked_draws_equal_one_shot_draws(monkeypatch, mode, n, runs, chunk_entries):
    if chunk_entries is not None:
        monkeypatch.setattr(interval_linalg, "CHUNK_ENTRIES", chunk_entries)
    s = signed_tfn_system(np.random.default_rng(n), n)
    for alpha in (0.0, 0.5):
        got = mc_trajectories(s, alpha, 4, runs, seed=n + runs, mode=mode)
        ref = reference_mc_trajectories(s, alpha, 4, runs, seed=n + runs, mode=mode)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", ["constant", "timevarying"])
def test_mc_memory_stays_below_member_stack(mode):
    runs, n = 4096, 32
    s = signed_tfn_system(np.random.default_rng(12), n)
    stack = runs * n * n * 8  # the (runs, n, n) member matrices: 33.5 MB
    tracemalloc.start()
    try:
        out = mc_trajectories(s, 0.0, 1, runs, seed=1, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (runs, 2, n)
    assert peak < stack / 3  # 7.4 and 5.3 MB; drawing all members at once peaked at 37.8 MB

# -- link between certified stability and envelope decay -------------------------------------

def test_certified_system_envelope_decays():
    rng = np.random.default_rng(10)
    for _ in range(10):
        s = make_certified_nonneg_system(rng, n_max=3)
        verdict = analyze(level_matrix(s, 0.0), n_samples=0)
        assert verdict.status is StabilityStatus.ASYMPTOTICALLY_STABLE
        lo, hi = envelope_endpoints(s, 0.0, 120)
        sup = np.abs(hi).max(axis=1)
        widths = (hi - lo).max(axis=1)
        assert sup[-1] <= 1e-6 * max(sup[0], 1e-30)
        assert widths[-1] <= 1e-6 * max(sup[0], 1e-30)
        # eventually monotone decrease of the sup norm
        tail = sup[20:]
        assert np.all(np.diff(tail) <= 1e-15)


def test_certified_system_fuzzy_metric_converges():
    rng = np.random.default_rng(11)
    s = make_certified_nonneg_system(rng, n_max=2, n_levels=5)
    att = assemble_fuzzy_attainable(s, 200)
    zero = FuzzyVector([Tfn(0, 0, 0) for _ in range(s.n)])
    d_start = d_fuzzy_vec(att.steps[0], zero, which="levelwise")
    d_end = d_fuzzy_vec(att.steps[-1], zero, which="levelwise")
    assert d_start > 0
    assert d_end < 1e-6
