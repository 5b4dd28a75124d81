"""Unit tests for the stability criteria, validated against spectral oracles."""

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from fdikit import (
    EigenBox,
    IntervalMatrix,
    StabilityStatus,
    StabilityVerdict,
    analyze,
    condeig_check,
    eigen_box_bounds,
    eigen_box_rayleigh,
    gershgorin_nonneg_test,
    gershgorin_nonpos_test,
    marginal_test,
    sample_matrix,
    sampled_falsifier,
    spectral_radii,
    spectral_radius,
    vertex_count,
    vertex_matrices,
)
from fdikit import stability
from fdikit.interval_linalg import halfsum, mid_rad
from fdikit.stability import FALSIFY_TOL, SIGN_BUDGET

from conftest import (
    certified_interval_corpus,
    family_2x2_stable,
    interval_matrix_nonneg_rows,
    random_interval_matrix,
    schur_stable,
    schur_stable_2x2,
)


def imat(lo, hi) -> IntervalMatrix:
    return IntervalMatrix(np.asarray(lo, float), np.asarray(hi, float))


def member_radii(m: IntervalMatrix, n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mats = list(vertex_matrices(m)) if vertex_count(m) <= 4096 else []
    mats += [sample_matrix(m, rng) for _ in range(n_samples)]
    return spectral_radii(np.stack(mats))


# -- spectral radius helper ------------------------------------------------------

def test_spectral_radius_known():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-12)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-12)


# -- non-negative Gershgorin test ---------------------------------------------------

def test_nonneg_rows_certify():
    hi = np.array([[0.4, 0.3], [0.2, 0.5]])
    v = gershgorin_nonneg_test(imat(np.zeros((2, 2)), hi))
    assert v.status is StabilityStatus.ASYMPTOTICALLY_STABLE
    assert v.criterion == "gershgorin_nonneg"


def test_nonneg_rows_boundary_is_inconclusive():
    hi = np.array([[0.5, 0.5], [0.0, 0.5]])
    v = gershgorin_nonneg_test(imat(np.zeros((2, 2)), hi))
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert v.witness["row"] == 0


def test_nonneg_rows_sign_precondition():
    lo = np.array([[0.0, -0.01], [0.0, 0.0]])
    hi = np.array([[0.1, 0.1], [0.1, 0.1]])
    v = gershgorin_nonneg_test(imat(lo, hi))
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert v.witness["entry"] == [0, 1]


# Each row: a diagonal entry from U(0.3, 0.999), off-diagonal entries 2^-k
# (k in 1..60) and one closing entry nextafter(1 - exact partial sum, inf).
# Every exact row sum exceeds 1, so the Perron root does too, yet every row
# passes the floating-point slack test 1 - diag - offdiag_sum > 0.
ROUNDING_PROBE = np.array([
    [0.9432626458391578, 5.551115123125783e-17, 9.5367431640625e-07,
     1.3877787807814457e-17, 0.05673640048652578],
    [2.7755575615628914e-17, 0.9898197084167253, 0.0009765625,
     5.551115123125783e-17, 0.009203729083274633],
    [5.551115123125783e-17, 1.4901161193847656e-08, 0.8788488048664118,
     2.7755575615628914e-17, 0.12115118023242692],
    [0.5, 0.0001220703125, 5.551115123125783e-17, 0.31625565315240906,
     0.18362227653509092],
    [5.551115123125783e-17, 0.5, 0.0007994423275588508, 1.734723475976807e-18,
     0.4992005576724411],
])


@pytest.mark.parametrize("first", [0, 1])
def test_row_test_refuses_exact_row_sums_above_one(first):
    h = ROUNDING_PROBE.copy()
    # a row exactly below 1 whose float slack 2^-53 ties the smallest probe slack
    h[:first] = [0.5, 0.5 - 2.0 ** -53, 0.0, 0.0, 0.0]
    assert [sum(map(Fraction, row)) > 1 for row in h.tolist()] == [i >= first for i in range(5)]
    off = h.sum(axis=1) - np.diag(h)
    slack = 1.0 - np.diag(h) - off
    assert np.all(slack > 0) and np.argmin(slack) == 0
    for test, m, sign in ((gershgorin_nonneg_test, imat(h, h), 1.0),
                          (gershgorin_nonpos_test, imat(-h, -h), -1.0)):
        v = test(m)
        assert v.status is StabilityStatus.INCONCLUSIVE
        assert v.witness == {"reason": "row condition fails (not strict)", "row": first,
                             "offdiag_sum": sign * float(off[first]),
                             "diag": sign * h[first, first]}
        assert not analyze(m).is_stable


def test_row_test_refuses_overflowing_rows():
    h = np.full((2, 2), 1e308)
    v = gershgorin_nonneg_test(imat(np.zeros((2, 2)), h))
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert v.witness["offdiag_sum"] == np.inf


# -- non-positive Gershgorin test ----------------------------------------------------

def test_nonpos_rows_certify_and_sampled_radii():
    lo = np.array([[-0.4, -0.3], [-0.2, -0.5]])
    m = imat(lo, np.zeros((2, 2)))
    v = gershgorin_nonpos_test(m)
    assert v.status is StabilityStatus.ASYMPTOTICALLY_STABLE
    assert v.criterion == "gershgorin_nonpos"
    assert np.all(member_radii(m, 2000, seed=1) < 1.0)


def test_nonpos_rows_positive_entry_inconclusive():
    v = gershgorin_nonpos_test(imat([[-0.5, 0.0], [0.0, -0.5]],
                                    [[0.0, 0.1], [0.0, 0.0]]))
    assert v.status is StabilityStatus.INCONCLUSIVE


def test_nonpos_rows_boundary_inconclusive():
    lo = np.array([[-1.0, 0.0], [0.0, -1.0]])
    v = gershgorin_nonpos_test(imat(lo, np.zeros((2, 2))))
    assert v.status is StabilityStatus.INCONCLUSIVE


def reference_nonpos_test(m: IntervalMatrix) -> StabilityVerdict:
    """The mirror row rule written out on lo and hi, as it was before the
    non-positive test became the non-negative test on the negated family."""
    if np.any(m.hi > 0):
        i, j = np.argwhere(m.hi > 0)[0]
        return StabilityVerdict(
            StabilityStatus.INCONCLUSIVE, "gershgorin_nonpos",
            {"reason": "upper bound matrix has a positive entry",
             "entry": [int(i), int(j)], "value": float(m.hi[i, j])})
    off = m.lo.sum(axis=1) - np.diag(m.lo)
    slack = off - (-1.0 - np.diag(m.lo))
    if np.all(slack > 0):
        return StabilityVerdict(StabilityStatus.ASYMPTOTICALLY_STABLE, "gershgorin_nonpos",
                                {"row_margins": slack.tolist()})
    i = int(np.argmin(slack))
    return StabilityVerdict(
        StabilityStatus.INCONCLUSIVE, "gershgorin_nonpos",
        {"reason": "row condition fails (not strict)", "row": i,
         "offdiag_sum": float(off[i]), "diag": float(m.lo[i, i])})


def test_nonpos_witness_matches_mirror_rule():
    rng = np.random.default_rng(31)
    cases = [imat([[-1.5]], [[-0.2]]), imat([[-0.5]], [[0.0]]), imat([[-0.0]], [[0.0]]),
             imat([[-1.0, 0.0], [-0.0, -1.0]], np.zeros((2, 2)))]
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = interval_matrix_nonneg_rows(rng, n, row_sum_max=float(rng.uniform(0.5, 1.5)))
        cases.append(imat(-m.hi, -m.lo))
        cases.append(random_interval_matrix(rng, n))
    statuses = set()
    for m in cases:
        got, want = gershgorin_nonpos_test(m), reference_nonpos_test(m)
        assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())
        statuses.add((got.status, got.witness.get("reason")))
    assert len(statuses) == 3  # certified, positive entry, failing row


# -- eigenvalue box -------------------------------------------------------------------

def test_eigen_box_diagonal_crisp():
    d = np.diag([0.5, 0.3])
    box = eigen_box_bounds(IntervalMatrix(d, d))
    assert box.r_lo == pytest.approx(0.3, abs=1e-9)
    assert box.r_hi == pytest.approx(0.5, abs=1e-9)
    assert box.i_lo == pytest.approx(0.0, abs=1e-9)
    assert box.i_hi == pytest.approx(0.0, abs=1e-9)


def test_eigen_box_rotation_like():
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    box = eigen_box_bounds(IntervalMatrix(r, r))
    assert box.i_hi >= 1.0 - 1e-9
    assert box.r_lo == pytest.approx(0.0, abs=1e-9)
    assert box.r_hi == pytest.approx(0.0, abs=1e-9)
    lams = np.linalg.eigvals(r)
    assert np.all((box.r_lo - 1e-12 <= lams.real) & (lams.real <= box.r_hi + 1e-12))
    assert np.all((box.i_lo - 1e-12 <= lams.imag) & (lams.imag <= box.i_hi + 1e-12))


def test_eigen_box_monte_carlo_containment():
    rng = np.random.default_rng(2)
    m = random_interval_matrix(rng, 3, scale=0.8, width=0.3)
    box = eigen_box_bounds(m)
    for _ in range(200):
        lams = np.linalg.eigvals(sample_matrix(m, rng))
        assert np.all((box.r_lo - 1e-10 <= lams.real) & (lams.real <= box.r_hi + 1e-10))
        assert np.all((box.i_lo - 1e-10 <= lams.imag) & (lams.imag <= box.i_hi + 1e-10))


def test_eigen_box_of_huge_entries_has_no_nan():
    # (C + C') / 2 and (C - C') / 2 overflow at these entries; halving each
    # term there keeps them finite, and the eigenvalue 2e308 rounds to inf
    c = np.full((2, 2), 1e308)
    assert eigen_box_bounds(imat(c, c)) == EigenBox(0.0, np.inf, 0.0, 0.0)
    c = np.array([[1e308, -1e308], [1e308, 1e308]])
    assert eigen_box_bounds(imat(c, c)) == EigenBox(1e308, 1e308, -1e308, 1e308)


def block_eigen_box(m: IntervalMatrix) -> EigenBox:
    """The closed-form box built as first written: one solve each for sym(C)
    and sym(D), and the skew embedding assembled by ``np.block``."""
    n = m.n
    c, d = mid_rad(m)
    sym_c = np.linalg.eigvalsh(halfsum(c, c.T))
    spread = float(np.linalg.eigvalsh(halfsum(d, d.T))[-1])
    skew = halfsum(c, -c.T)
    emb = np.block([[np.zeros((n, n)), skew], [skew.T, np.zeros((n, n))]])
    i_hi = float(np.linalg.eigvalsh(emb)[-1]) + spread
    return EigenBox(float(sym_c[0]) - spread, float(sym_c[-1]) + spread, -i_hi, i_hi)


def test_eigen_box_bounds_matches_the_block_construction_bit_for_bit():
    rng = np.random.default_rng(39)
    families = [random_interval_matrix(rng, n, width=0.4) for n in range(1, 25)]
    # every entry {"tfn": [1e308, 1e308, 1e308]}: at n >= 2 the top eigenvalue of sym(C) is inf
    families += [imat(np.full((n, n), 1e308), np.full((n, n), 1e308)) for n in (1, 2, 5)]
    for m in families:
        assert box_bits(eigen_box_bounds(m)) == box_bits(block_eigen_box(m)), m.n


def test_eigen_box_rayleigh_inside_closed_form():
    rng = np.random.default_rng(3)
    for k in range(16):  # n >= 6 has more than SIGN_BUDGET imaginary patterns
        m = random_interval_matrix(rng, 1 + k % 8, scale=1.0, width=0.2)
        closed = eigen_box_bounds(m)
        ray = eigen_box_rayleigh(m)
        assert closed.contains_box(ray, tol=1e-9)


@pytest.mark.parametrize("n", [1, 3, 6, 16])
def test_eigen_box_rayleigh_crisp_symmetric_is_spectrum(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    a = a + a.T
    ray = eigen_box_rayleigh(IntervalMatrix(a, a))
    lams = np.linalg.eigvalsh(a)
    assert ray.r_lo == pytest.approx(lams[0], abs=1e-12)
    assert ray.r_hi == pytest.approx(lams[-1], abs=1e-12)
    assert ray.i_hi == 0.0


@pytest.mark.parametrize("rho", [0.7, 1.0, 3.25])
def test_eigen_box_rayleigh_rotation_imaginary_bound(rho):
    r = rho * np.array([[0.0, -1.0], [1.0, 0.0]])
    ray = eigen_box_rayleigh(IntervalMatrix(r, r))
    assert ray.i_hi == rho


@pytest.mark.parametrize("n", [4, 16])
def test_eigen_box_rayleigh_zero_center_real_bound(n):
    d = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, n))
    ray = eigen_box_rayleigh(imat(-d, d))
    top = np.linalg.eigvalsh((d + d.T) / 2.0)[-1]
    assert ray.r_hi == pytest.approx(top, abs=1e-12)
    assert ray.r_lo == pytest.approx(-top, abs=1e-12)


def rayleigh_objectives(m: IntervalMatrix, x: np.ndarray, z: np.ndarray):
    """The quadratic forms the sphere search used to maximise: the upper real
    bound, the negated lower real bound (rows of unit x) and the imaginary
    bound (rows of unit z = (x1, x2))."""
    c, d = (m.lo + m.hi) / 2.0, (m.hi - m.lo) / 2.0
    n = c.shape[0]
    quad, absq = np.einsum("pi,ij,pj->p", x, c, x), np.einsum("pi,ij,pj->p", abs(x), d, abs(x))
    x1, x2 = z[:, :n], z[:, n:]
    cross = np.abs(x1[:, :, None] * x2[:, None, :] - x2[:, :, None] * x1[:, None, :])
    im = np.einsum("pi,ij,pj->p", x1, c - c.T, x2) + np.einsum("ij,pij->p", d, cross)
    return quad + absq, -(quad - absq), im


def unit_rows(rng, count, dim):
    x = rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_eigen_box_rayleigh_dominates_sphere_objectives():
    rng = np.random.default_rng(11)
    for k in range(16):
        n = 1 + k % 8
        m = random_interval_matrix(rng, n, scale=1.0, width=0.4)
        ray = eigen_box_rayleigh(m)
        re_hi, re_lo_neg, im = rayleigh_objectives(m, unit_rows(rng, 20_000, n),
                                                   unit_rows(rng, 20_000, 2 * n))
        assert re_hi.max() <= ray.r_hi + 1e-12
        assert re_lo_neg.max() <= -ray.r_lo + 1e-12
        assert im.max() <= ray.i_hi + 1e-12


def box_bits(box: EigenBox, fields=("r_lo", "r_hi", "i_lo", "i_hi")) -> bytes:
    """The bytes of the box's ``fields``, so equal bits, not equal values, compare equal."""
    return np.array([getattr(box, f) for f in fields]).tobytes()


def test_eigen_box_rayleigh_ignores_starts_and_seed():
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        m = random_interval_matrix(rng, n, scale=1.0, width=0.4)
        ignored = eigen_box_rayleigh(m, n_starts=4, seed=9)
        assert box_bits(eigen_box_rayleigh(m)) == box_bits(ignored)


def count_vector_solves(monkeypatch) -> dict:
    """Count ``np.linalg.eigh`` calls and ``np.linalg.svd`` calls that compute vectors."""
    calls = {"eigh": 0, "svd_uv": 0}
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counting_svd(*args, **kwargs):
        calls["svd_uv"] += kwargs.get("compute_uv", True)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


# n <= 5: every scan within budget; 8: the imaginary one over; 14: all three over
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 14])
def test_eigen_box_rayleigh_exhaustive_scans_compute_values_only(n, monkeypatch):
    m = random_interval_matrix(np.random.default_rng(n), n, width=0.4)
    calls = count_vector_solves(monkeypatch)
    eigen_box_rayleigh(m)
    assert calls == {"eigh": 0, "svd_uv": 0}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 14])
def test_eigen_box_rayleigh_takes_the_closed_form_box_only_beyond_budget(n, monkeypatch):
    assert (2 ** (n * (n - 1) // 2) > SIGN_BUDGET) == (n >= 6)
    calls = []

    def counting_bounds(m):
        calls.append(m)
        return eigen_box_bounds(m)
    monkeypatch.setattr(stability, "eigen_box_bounds", counting_bounds)
    eigen_box_rayleigh(random_interval_matrix(np.random.default_rng(n), n, width=0.4))
    assert len(calls) == (n >= 6)


def test_eigen_box_rayleigh_beyond_budget_is_the_closed_form_box():
    assert 2 ** 13 > SIGN_BUDGET  # n = 14: real and imaginary scans over budget
    m = random_interval_matrix(np.random.default_rng(14), 14, width=0.4)
    assert box_bits(eigen_box_rayleigh(m)) == box_bits(eigen_box_bounds(m))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_eigen_box_rayleigh_exhaustive_bounds_match_brute_force(n):
    m = random_interval_matrix(np.random.default_rng(40 + n), n, width=0.4)
    c, d = (m.lo + m.hi) / 2.0, (m.hi - m.lo) / 2.0
    sym_c, sym_d = (c + c.T) / 2.0, (d + d.T) / 2.0
    signs = [np.diag(s) for s in itertools.product((-1.0, 1.0), repeat=n)]
    r_hi = max(np.linalg.eigvalsh(sym_c + s @ sym_d @ s)[-1] for s in signs)
    r_lo = -max(np.linalg.eigvalsh(-sym_c + s @ sym_d @ s)[-1] for s in signs)
    ray = eigen_box_rayleigh(m)
    assert ray.r_hi == pytest.approx(r_hi, abs=1e-12)
    assert ray.r_lo == pytest.approx(r_lo, abs=1e-12)
    if n == 6:  # 2^15 imaginary patterns: the closed-form coordinate, bit for bit
        closed = eigen_box_bounds(m)
        assert box_bits(ray, ("i_lo", "i_hi")) == box_bits(closed, ("i_lo", "i_hi"))
        return
    i, j = np.triu_indices(n, 1)
    i_hi = 0.0
    for t in itertools.product((-1.0, 1.0), repeat=len(i)):
        a = np.zeros((n, n))
        a[i, j] = (c - c.T)[i, j] + np.array(t) * (d + d.T)[i, j]
        i_hi = max(i_hi, np.linalg.norm(a - a.T, 2) / 2.0)
    assert ray.i_hi == pytest.approx(i_hi, abs=1e-12)


def test_eigen_box_rayleigh_huge_skew_part_is_finite():
    c = np.array([[0.0, -1e308], [1e308, 0.0]])  # c - c' overflows
    ray = eigen_box_rayleigh(imat(c, c))
    assert ray == EigenBox(0.0, 0.0, -1e308, 1e308)
    assert eigen_box_bounds(imat(c, c)).contains_box(ray, tol=0.0)


# -- corner modulus check ----------------------------------------------------------------

def test_condeig_certifies_small_box():
    v = condeig_check(EigenBox(0.3, 0.5, -0.1, 0.1))
    assert v.status is StabilityStatus.ASYMPTOTICALLY_STABLE
    assert max(v.witness["corner_moduli"]) == pytest.approx(np.sqrt(0.26), abs=1e-12)


def test_condeig_boundary_inconclusive():
    v = condeig_check(EigenBox(-1.0, 1.0, 0.0, 0.0))
    assert v.status is StabilityStatus.INCONCLUSIVE


def test_condeig_zero_box():
    v = condeig_check(EigenBox(0.0, 0.0, 0.0, 0.0))
    assert v.status is StabilityStatus.ASYMPTOTICALLY_STABLE


@pytest.mark.parametrize("box", [EigenBox(0.3, 0.5, -0.1, 0.1), EigenBox(-0.0, 0.0, -0.0, 0.0),
                                 EigenBox(-2.5, 1e308, -np.inf, np.inf),
                                 EigenBox(np.float64(0.25), 1, -1, np.float64(3.0))],
                         ids=["small", "signed-zeros", "unbounded", "mixed-types"])
def test_condeig_witness_box_is_asdict(box):
    # keys, order, values and their types, as dataclasses.asdict gives them
    got = condeig_check(box).witness["eigen_box"]
    want = dataclasses.asdict(box)
    assert list(got) == list(want) == ["r_lo", "r_hi", "i_lo", "i_hi"]
    assert [(type(v), repr(v)) for v in got.values()] == [(type(v), repr(v))
                                                         for v in want.values()]


def test_eigen_box_rejects_reversed_axes():
    with pytest.raises(ValueError, match="^eigenvalue box needs lo <= hi on both axes$"):
        EigenBox(1.0, 0.0, 0.0, 0.0)


def test_corner_dominates_dense_grid():
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = np.sort(rng.uniform(-2, 2, 2))
        i = np.sort(rng.uniform(-2, 2, 2))
        box = EigenBox(r[0], r[1], i[0], i[1])
        corner = float(np.max(box.corner_moduli()))
        gr, gi = np.meshgrid(np.linspace(r[0], r[1], 50), np.linspace(i[0], i[1], 50))
        dense = float(np.max(np.hypot(gr, gi)))
        assert dense <= corner + 1e-12


# -- marginal transform ---------------------------------------------------------------------

def test_marginal_already_in_form():
    hi = np.array([[0.5, 0.0], [0.0, 1.0]])
    v = marginal_test(imat(hi, hi), np.eye(2))
    assert v.status is StabilityStatus.STABLE
    assert v.criterion == "marginal_transform"


def test_marginal_with_star_block():
    hi = np.array([[0.5, 0.6], [0.0, 1.0]])
    m = imat(hi, hi)
    v = marginal_test(m, np.eye(2))
    assert v.status is StabilityStatus.STABLE
    # member matrices stay bounded: radius <= 1 and the unit eigenvalue simple
    for u in vertex_matrices(m):
        lams = np.linalg.eigvals(u)
        assert np.max(np.abs(lams)) <= 1.0 + 1e-12
        assert np.count_nonzero(np.abs(np.abs(lams) - 1.0) < 1e-9) == 1


def test_marginal_corner_not_one():
    hi = np.array([[0.5, 0.0], [0.0, 0.9]])
    v = marginal_test(imat(hi, hi), np.eye(2))
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert any("corner" in r for r in v.witness["reasons"])


def test_marginal_general_interval_case():
    lo = np.array([[0.2, 0.0], [0.0, 1.0]])
    hi = np.array([[0.5, 0.0], [0.0, 1.0]])
    # make it sign-indefinite so the general branch runs
    lo2 = lo.copy()
    lo2[0, 1] = -0.05
    hi2 = hi.copy()
    hi2[0, 1] = 0.05
    m = imat(lo2, hi2)
    v = marginal_test(m, np.eye(2))
    assert v.status is StabilityStatus.STABLE
    assert v.witness["case"] == "general"
    assert np.max(member_radii(m, 0, 0)) <= 1.0


def test_marginal_rejects_singular_transform():
    with pytest.raises(ValueError):
        marginal_test(imat(np.eye(2), np.eye(2)), np.zeros((2, 2)))


def test_marginal_rejects_a_transform_of_another_size():
    with pytest.raises(ValueError, match=r"^transform must be 2x2, got \(3, 3\)$"):
        marginal_test(imat(np.eye(2), np.eye(2)), np.eye(3))


def test_marginal_transform_applied():
    # diagonalizable with the marginal mode exposed only through T
    t = np.array([[1.0, 1.0], [1.0, -1.0]])
    d = np.diag([0.5, 1.0])
    a = t @ d @ np.linalg.inv(t)
    v = marginal_test(IntervalMatrix(a, a), t)
    assert v.status is StabilityStatus.STABLE
    assert marginal_test(IntervalMatrix(a, a), np.eye(2)).status \
        is StabilityStatus.INCONCLUSIVE


def test_marginal_general_case_encloses_members_that_mix_endpoints():
    # Both endpoints are T J T^-1 with J in the marginal shape; the vertex
    # [[4.25, -1.75], [5.5, -2.5]] mixes them and has a real eigenvalue above 1.
    m, t = imat([[3.75, -1.75], [5.5, -2.5]], [[4.25, -1.75], [6.5, -2.5]]), [[1, 1], [2, 1]]
    v = marginal_test(m, t)
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert v.witness["reasons"] == ["general case: corner entry is 1 +- 1, not 1"]
    v = analyze(m, t)
    assert v.status is StabilityStatus.FALSIFIED
    assert v.witness["matrix"] == [[4.25, -1.75], [5.5, -2.5]]


def test_marginal_shape_holds_for_every_member_not_only_the_center():
    # The center [[0.5, 0], [0, 1]] is in shape with a unit corner, but the
    # member [[0.5, 0.5], [0.5, 1]] has no zero last row or column, and its
    # spectral radius is (1.5 + sqrt(1.25)) / 2 > 1.
    m = imat([[0.5, -0.5], [-0.5, 1.0]], [[0.5, 0.5], [0.5, 1.0]])
    v = marginal_test(m, np.eye(2))
    assert v.witness["reasons"] == ["general case: transformed matrix is not block-triangular"]
    assert analyze(m, np.eye(2)).status is StabilityStatus.FALSIFIED


def test_marginal_has_no_non_positive_case():
    # lo <= hi <= 0; a unit corner would give lo the eigenvalue -1 as well
    v = marginal_test(imat([[-0.5, 0.0], [0.0, -1.0]], [[-0.25, 0.0], [0.0, -1.0]]), np.eye(2))
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert v.witness["reasons"] == ["general case: corner entry is -1, not 1"]


def test_marginal_reduced_rows_need_exact_sums_below_one():
    # Every reduced row sums to 1 + 2^-55 exactly, but to 1 - 2^-53 in
    # floating point.  The block is 1 r', so its Perron root is r' 1 > 1.
    h = np.zeros((7, 7))
    h[:6, 0], h[:6, 1:6], h[6, 6] = 1.0 - 2.0 ** -53, 2.0 ** -55, 1.0
    assert {sum(map(Fraction, row)) for row in h[:6].tolist()} == {1 + Fraction(1, 2 ** 55)}
    assert np.all(h[:6].sum(axis=1) < 1.0)
    v = marginal_test(imat(h, h), np.eye(7))
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert v.witness["reasons"][0] == "non-negative case: reduced row 0 has Gershgorin bound 1 >= 1"
    assert analyze(imat(h, h), np.eye(7), n_samples=10).status is StabilityStatus.INCONCLUSIVE


def test_marginal_general_case_with_an_empty_reduced_block():
    # A 1x1 family is its own unit corner, so no reduced block is left to check
    # and the SHAPE_TOL rule decides alone.  The general case accepts the
    # transformed corner, whose distance from 1 plus its radius rounds to just
    # below SHAPE_TOL; the non-negative case sees T^-1 hi T just beyond it.  The
    # member radius is about 1 + 1e-9 > 1, so this Stable is the fixed-tolerance
    # defect of ROADMAP item 1; the test pins today's behaviour until it lands.
    m = imat([[1.0000000009999996]], [[1.0000000009999999]])
    assert spectral_radius(m.lo) > 1.0
    v = marginal_test(m, [[3.2648481991983838]])
    assert v.to_json_obj() == {"status": "Stable", "criterion": "marginal_transform",
                               "witness": {"case": "general", "reduced": []}}


def marginal_families(count: int, seed: int):
    """(family, T): the hull of two endpoints T J T^-1 with n in {2, 3},
    integer T with |det T| >= 0.5, and J block-triangular with a unit
    corner, its zero last column or zero last row shared by both ends."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(2, 4))
        t = rng.integers(-2, 3, size=(n, n)).astype(float)
        if abs(np.linalg.det(t)) < 0.5:
            continue
        zero_row = rng.integers(2)
        ends = []
        for _ in range(2):
            j = np.zeros((n, n))
            j[:-1, :-1] = rng.uniform(-0.5, 0.5, (n - 1, n - 1))
            if zero_row:
                j[:-1, -1] = rng.uniform(-1.0, 1.0, n - 1)
            else:
                j[-1, :-1] = rng.uniform(-1.0, 1.0, n - 1)
            j[-1, -1] = 1.0
            ends.append(t @ j @ np.linalg.inv(t))
        count -= 1
        yield imat(np.minimum(*ends), np.maximum(*ends)), t


def test_marginal_certifies_no_family_with_an_unstable_vertex():
    certified = 0
    for m, t in marginal_families(2000, seed=14):
        if marginal_test(m, t).status is StabilityStatus.STABLE:
            certified += 1
            worst = float(np.max(member_radii(m, 0, 0)))
            assert worst <= 1.0 + FALSIFY_TOL, (m.lo.tolist(), m.hi.tolist(), t.tolist())
    assert certified >= 100


# -- sampled falsifier -------------------------------------------------------------------------

def test_falsifier_crisp_unstable():
    m = imat([[1.5]], [[1.5]])
    v = sampled_falsifier(m, n_samples=10, seed=0)
    assert v.status is StabilityStatus.FALSIFIED
    assert v.witness["spectral_radius"] == pytest.approx(1.5, abs=1e-12)


def test_falsifier_scalar_interval_via_vertex():
    v = sampled_falsifier(imat([[0.9]], [[1.1]]), n_samples=0, seed=0)
    assert v.status is StabilityStatus.FALSIFIED
    assert v.witness["matrix"] == [[1.1]]


def test_falsifier_never_fires_inside_certified_region():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = interval_matrix_nonneg_rows(rng, int(rng.integers(1, 4)))
        assert gershgorin_nonneg_test(m).status is StabilityStatus.ASYMPTOTICALLY_STABLE
        v = sampled_falsifier(m, n_samples=50, seed=int(rng.integers(2**31)))
        assert v.status is StabilityStatus.INCONCLUSIVE


def test_falsified_witness_recomputable():
    v = sampled_falsifier(imat([[1.2]], [[1.3]]), n_samples=0, seed=0)
    w = np.asarray(v.witness["matrix"])
    assert spectral_radius(w) == pytest.approx(v.witness["spectral_radius"], abs=1e-12)
    assert spectral_radius(w) > 1.0 + 1e-9


# -- dispatcher ----------------------------------------------------------------------------------

def test_analyze_prefers_gershgorin():
    v = analyze(imat(np.zeros((2, 2)), np.array([[0.4, 0.3], [0.2, 0.5]])))
    assert v.status is StabilityStatus.ASYMPTOTICALLY_STABLE
    assert v.criterion == "gershgorin_nonneg"


def test_analyze_falsifies_scalar():
    v = analyze(imat([[1.2]], [[1.3]]))
    assert v.status is StabilityStatus.FALSIFIED


def test_analyze_eigen_box_when_sign_tests_inapplicable():
    v = analyze(imat([[-0.5]], [[0.5]]))
    assert v.status is StabilityStatus.ASYMPTOTICALLY_STABLE
    assert v.criterion == "eigen_box"
    box = v.witness["eigen_box"]
    assert box["r_lo"] == pytest.approx(-0.5, abs=1e-12)
    assert box["r_hi"] == pytest.approx(0.5, abs=1e-12)


def test_analyze_inconclusive_report():
    v = analyze(imat([[-1.0]], [[1.0]]), t=np.eye(1), n_samples=50)
    assert v.status is StabilityStatus.INCONCLUSIVE
    assert v.criterion == "none"
    names = [r["criterion"] for r in v.witness["sub_reports"]]
    assert names == ["gershgorin_nonneg", "gershgorin_nonpos", "eigen_box",
                     "marginal_transform", "sampled_falsifier"]


def test_verdict_json_shape():
    v = analyze(imat([[0.4]], [[0.6]]))
    obj = v.to_json_obj()
    assert obj["status"] == "AsymptoticallyStable"
    assert obj["criterion"] == "gershgorin_nonneg"
    assert "witness" in obj


def test_every_witness_is_json_as_stored():
    h = np.array([[0.5, 0.0], [0.0, 1.0]])
    indefinite = imat([[0.2, -0.05], [0.0, 1.0]], [[0.5, 0.05], [0.0, 1.0]])
    verdicts = [
        gershgorin_nonneg_test(imat([[0.4]], [[0.6]])),
        gershgorin_nonneg_test(imat([[-0.5]], [[0.5]])),
        gershgorin_nonneg_test(imat([[0.5]], [[1.5]])),
        gershgorin_nonpos_test(imat([[-0.6]], [[-0.4]])),
        gershgorin_nonpos_test(imat([[-1.5]], [[-0.5]])),
        condeig_check(eigen_box_bounds(imat([[-0.5]], [[0.5]]))),
        condeig_check(eigen_box_bounds(imat([[-1.0]], [[1.0]]))),
        marginal_test(imat(h, h), np.eye(2)),
        marginal_test(indefinite, np.eye(2)),
        marginal_test(imat([[0.5, 0.0], [0.0, 0.9]], [[0.5, 0.0], [0.0, 0.9]]), np.eye(2)),
        sampled_falsifier(imat([[1.2]], [[1.3]]), n_samples=0, seed=0),
        sampled_falsifier(imat([[-0.5]], [[0.5]]), n_samples=5, seed=0),
        analyze(imat([[-1.0]], [[1.0]]), t=np.eye(1), n_samples=5),
    ]
    assert [(v.criterion, v.status.value) for v in verdicts] == [
        ("gershgorin_nonneg", "AsymptoticallyStable"), ("gershgorin_nonneg", "Inconclusive"),
        ("gershgorin_nonneg", "Inconclusive"), ("gershgorin_nonpos", "AsymptoticallyStable"),
        ("gershgorin_nonpos", "Inconclusive"), ("eigen_box", "AsymptoticallyStable"),
        ("eigen_box", "Inconclusive"), ("marginal_transform", "Stable"),
        ("marginal_transform", "Stable"), ("marginal_transform", "Inconclusive"),
        ("sampled_falsifier", "Falsified"), ("sampled_falsifier", "Inconclusive"),
        ("none", "Inconclusive")]
    assert [verdicts[i].witness.get("case") for i in (7, 8)] == ["nonneg", "general"]
    for v in verdicts:
        json.dumps(v.witness, allow_nan=False)
    assert all(v.to_json_obj()["witness"] is v.witness for v in verdicts)
    assert verdicts[5].witness["eigen_box"] == {"r_lo": -0.5, "r_hi": 0.5, "i_lo": -0.5,
                                                "i_hi": 0.5}
    assert type(verdicts[8].witness["reduced_box"]) is dict


def test_falsifier_reads_a_numpy_sample_count_as_a_json_int():
    v = analyze(imat([[-1.0]], [[1.0]]), n_samples=np.int64(5))
    assert v.criterion == "none"
    witness = v.witness["sub_reports"][-1]["witness"]
    json.dumps(v.witness, allow_nan=False)
    assert type(witness["n_checked"]) is int and witness["n_checked"] == 2 + 5
    with pytest.raises(TypeError):
        sampled_falsifier(imat([[1.5]], [[1.5]]), n_samples=5.0)


# -- soundness against the spectral oracle ------------------------------------------------------

def test_certified_implies_all_members_contractive():
    rng = np.random.default_rng(6)
    for m, verdict in certified_interval_corpus(rng, count=40):
        radii = member_radii(m, 500, seed=int(rng.integers(2**31)))
        assert np.max(radii) < 1.0, verdict.criterion


def test_widening_never_creates_certificates():
    rng = np.random.default_rng(7)
    checks = 0
    for _ in range(120):
        n = int(rng.integers(1, 4))
        m = random_interval_matrix(rng, n, scale=0.5, width=0.2)
        d = rng.uniform(0.0, 0.3)
        wide = IntervalMatrix(m.lo - d, m.hi + d)
        for test in (gershgorin_nonneg_test, gershgorin_nonpos_test,
                     lambda x: condeig_check(eigen_box_bounds(x))):
            if test(wide).status is StabilityStatus.ASYMPTOTICALLY_STABLE:
                assert test(m).status is StabilityStatus.ASYMPTOTICALLY_STABLE
                checks += 1
    assert checks > 0


def dyadic_2x2_families(count: int, seed: int):
    """2x2 families on a dyadic grid of step 1/4 to 1/64, entries in [-1, 1],
    each entry crisp or one step wide.  Even-numbered families are
    sign-definite (every other one non-positive), odd-numbered ones any sign."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = 2 ** int(rng.integers(2, 7))
        lo = rng.integers(0 if i % 2 == 0 else -k, k, (2, 2)) / k
        hi = lo + rng.integers(0, 2, (2, 2)) / k
        yield imat(-hi, -lo) if i % 4 == 0 else imat(lo, hi)


def test_schur_referee_on_known_matrices():
    assert schur_stable_2x2([[0.5, 0.25], [0.0, -0.75]])
    assert not schur_stable_2x2([[1.0, 0.0], [0.0, 0.5]])  # eigenvalue exactly 1
    assert not schur_stable_2x2([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i
    assert not schur_stable_2x2([[0.5, 0.5], [0.5, 0.5]])  # rows sum exactly to 1
    assert schur_stable_2x2([[0.5, 0.5], [0.5, np.nextafter(0.5, 0.0)]])
    assert not family_2x2_stable(imat([[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 1.0]]))
    assert family_2x2_stable(imat([[-0.5, 0.0], [0.0, 0.5]], [[0.5, 0.25], [0.0, 0.75]]))


def test_verdicts_on_dyadic_2x2_families_agree_with_the_exact_referee():
    # No positive verdict on a family with an exactly unstable vertex, and no
    # Falsified witness that is exactly stable; the referee is exact on 2x2.
    statuses = {s: 0 for s in StabilityStatus}
    for i, m in enumerate(dyadic_2x2_families(1000, seed=15)):
        v = analyze(m, n_samples=50, seed=i)
        statuses[v.status] += 1
        if v.is_stable:
            assert family_2x2_stable(m), (i, v.criterion)
        elif v.status is StabilityStatus.FALSIFIED:
            w = np.array(v.witness["matrix"])
            assert np.all((m.lo <= w) & (w <= m.hi)), i
            assert not schur_stable_2x2(w), i
    assert min(statuses[s] for s in StabilityStatus if s is not StabilityStatus.STABLE) > 50, \
        statuses


def dyadic_sign_definite_families(count: int, seed: int):
    """Seeded sign-definite families at n = 3..8 on a dyadic grid, radii
    around 1, every other one non-positive; some entries are zero or
    degenerate."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(3, 9))
        k = 2 ** int(rng.integers(2, 5)) * (8 if n > 4 else 4)
        top = int(rng.integers(2, 4)) * k // n  # mean row sums of lo from 0.7 to 1.05
        lo = rng.integers(0, top + 1, (n, n)) * (rng.random((n, n)) < 0.7)
        hi = lo + rng.integers(0, 3, (n, n)) * (rng.random((n, n)) < 0.5)
        yield imat(-hi / k, -lo / k) if i % 2 else imat(lo / k, hi / k)


def test_verdicts_on_sign_definite_families_agree_with_the_exact_referee():
    # By Perron-Frobenius monotonicity a non-negative family is stable exactly
    # when hi is, and a non-positive one exactly when lo is: no positive verdict
    # unless that top is exactly stable, and no exactly stable Falsified witness.
    statuses = {s: 0 for s in StabilityStatus}
    for i, m in enumerate(dyadic_sign_definite_families(400, seed=15)):
        v = analyze(m, n_samples=50, seed=i)
        statuses[v.status] += 1
        if v.is_stable:
            assert schur_stable(m.hi if np.all(m.lo >= 0) else m.lo), (i, v.criterion)
        elif v.status is StabilityStatus.FALSIFIED:
            w = np.array(v.witness["matrix"])
            assert np.all((m.lo <= w) & (w <= m.hi)), i
            assert not schur_stable(w), i
    assert min(statuses[s] for s in StabilityStatus if s is not StabilityStatus.STABLE) > 50, \
        statuses


# -- the exact member referee and the defects it shows ---------------------------------

#: Symmetric, and every row sums exactly to 1, so rho = 1 (ROADMAP item 1).
DOUBLY_STOCHASTIC_5 = [[0, .125, .375, 0, .5], [.125, .875, 0, 0, 0], [.375, 0, 0, .625, 0],
                       [0, 0, .625, 0, .375], [.5, 0, 0, .375, .125]]


def jordan(n: int) -> np.ndarray:
    """A = S T S^-1 with T = 0.75 I + 4 N (N the n x n upper shift) and S = I
    plus the lower shift: similar to one n x n Jordan block at 0.75, so
    rho(A) = 0.75 exactly, while eigvals computes 1.18 at n = 16 (ROADMAP
    item 14).  Every entry of A is a float, checked in exact arithmetic."""
    t = [[Fraction(3, 4) if j == i else Fraction(4 if j == i + 1 else 0) for j in range(n)]
         for i in range(n)]
    s_inv = [[Fraction((-1) ** (i - j)) if i >= j else Fraction(0) for j in range(n)]
             for i in range(n)]
    st = [[t[i][j] + (t[i - 1][j] if i else 0) for j in range(n)] for i in range(n)]
    a = [[sum(st[i][k] * s_inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert all(Fraction(float(x)) == x for row in a for x in row)
    return np.array(a, dtype=float)


def jordan_16() -> np.ndarray:
    return jordan(16)


def doubly_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """A crisp symmetric doubly stochastic n x n matrix, so rho = 1 exactly
    (ROADMAP item 1): a sum of 2..4 involution permutation matrices, each
    symmetric, with weights in eighths that sum to 1."""
    def involution():
        p, perm = np.arange(n), rng.permutation(n)
        k = int(rng.integers(0, n // 2 + 1))
        p[perm[:k]], p[perm[k:2 * k]] = perm[k:2 * k], perm[:k]
        return np.eye(n)[p]
    cuts = np.sort(rng.choice(np.arange(1, 8), int(rng.integers(1, 4)), replace=False))
    return sum(w * involution() for w in np.diff(np.concatenate([[0], cuts, [8]])) / 8.0)


def test_exact_member_referee():
    assert schur_stable(jordan_16())
    assert not schur_stable(DOUBLY_STOCHASTIC_5)
    # on a dyadic grid the 2x2 rule is exact too, eigenvalues on the circle included
    rng = np.random.default_rng(31)
    for _ in range(500):
        k = 2 ** int(rng.integers(1, 5))
        a = rng.integers(-k, k + 1, (2, 2)) / k
        assert schur_stable(a) == schur_stable_2x2(a), a
    # away from the circle, the float radius decides
    verdicts = set()
    for _ in range(150):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n))
        a *= rng.uniform(0.5, 1.5) / spectral_radius(a)
        rho = spectral_radius(a)
        if abs(rho - 1.0) >= 1e-6:
            assert schur_stable(a) == (rho < 1.0), a
            verdicts.add(rho < 1.0)
    assert verdicts == {True, False}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: eigen_box trusts eigvalsh")
def test_analyze_does_not_certify_a_doubly_stochastic_matrix():
    assert not analyze(imat(DOUBLY_STOCHASTIC_5, DOUBLY_STOCHASTIC_5), n_samples=10).is_stable


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: Falsified trusts eigvals")
def test_analyze_does_not_falsify_a_stable_jordan_matrix():
    a = jordan_16()
    assert analyze(imat(a, a), n_samples=10).status is not StabilityStatus.FALSIFIED


# -- property tests over the constructed corpora (ROADMAP item 15) ---------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: eigen_box trusts eigvalsh")
def test_no_positive_verdict_on_a_doubly_stochastic_corpus():
    unsound = []
    for n in range(3, 9):
        rng = np.random.default_rng(n)
        for i in range(60):
            a = doubly_stochastic(rng, n)
            assert np.array_equal(a, a.T) and np.all(a.sum(axis=1) == 1), (n, i)
            if analyze(imat(a, a), n_samples=10).is_stable and not schur_stable(a):
                unsound.append((n, i))
    assert unsound == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: Falsified trusts eigvals")
def test_no_falsified_verdict_on_stable_jordan_matrices():
    for n in range(12, 17):
        a = jordan(n)
        assert schur_stable(a), n
        assert analyze(imat(a, a), n_samples=10).status is not StabilityStatus.FALSIFIED, n
