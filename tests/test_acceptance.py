"""Acceptance suite: one test per top-level criterion, at stated tolerances.

Each test prints a single PASS line with its measured evidence once its
assertions hold (run with ``pytest -s`` to see them).  Random corpora are
seeded, so the suite is reproducible.
"""

import json

import numpy as np
import pytest

from fdikit import (
    EigenBox,
    IntervalMatrix,
    FuzzySystem,
    StabilityStatus,
    Tfn,
    analyze,
    assemble_fuzzy_attainable,
    d_membership,
    eigen_box_bounds,
    eigen_box_rayleigh,
    envelope_endpoints,
    level_matrix,
    level_state,
    sampled_falsifier,
    spectral_radii,
    vertex_matrices,
)
from fdikit.cli import main

from conftest import (
    certified_interval_corpus,
    make_certified_nonneg_system,
    make_nonneg_system,
    random_interval_matrix,
)

N_ENVELOPE_SYSTEMS = 100
ENVELOPE_HORIZON = 20
N_MC = 10_000
N_SOUNDNESS_MATRICES = 200
N_EIGENBOX_MATRICES = 100
N_CORNER_BOXES = 1000
N_CONVERGENCE_SYSTEMS = 50
CONVERGENCE_HORIZON = 200


def _report(name: str, detail: str):
    print(f"\nACCEPTANCE PASS  {name}: {detail}")


@pytest.fixture(scope="module")
def envelope_corpus():
    rng = np.random.default_rng(2024)
    systems = [make_nonneg_system(rng, n_max=4, row_sum_range=(0.2, 1.2),
                                  n_levels=11) for _ in range(N_ENVELOPE_SYSTEMS)]
    return systems


def test_figure_value_reproduction():
    d1 = d_membership(Tfn(2, 3, 4), Tfn(3.5, 4.5, 6.5))
    d2 = d_membership(Tfn(2, 3, 4), Tfn(0, 3, 8))
    assert abs(d1 - 1.0) <= 1e-12
    assert abs(d2 - 0.8) <= 1e-12
    _report("figure-value reproduction",
            f"membership distances {d1:.15g} and {d2:.15g}")


def test_envelope_soundness_and_tightness(envelope_corpus):
    rng = np.random.default_rng(7)
    worst_violation = 0.0
    worst_attainment = 0.0
    for idx, system in enumerate(envelope_corpus):
        alpha = float(system.alphas[idx % len(system.alphas)])
        mode = "constant" if idx % 2 == 0 else "timevarying"
        lo, hi = envelope_endpoints(system, alpha, ENVELOPE_HORIZON)

        # containment of member trajectories drawn at the same level
        m = level_matrix(system, alpha)
        x0 = level_state(system, alpha)
        n = system.n
        x = rng.uniform(x0.lo, x0.hi, size=(N_MC, n))
        if mode == "constant":
            u = rng.uniform(m.lo, m.hi, size=(N_MC, n, n))
        viol = np.max(np.maximum(lo[0] - x, x - hi[0]))
        worst_violation = max(worst_violation, float(viol))
        for k in range(1, ENVELOPE_HORIZON + 1):
            if mode == "timevarying":
                u = rng.uniform(m.lo, m.hi, size=(N_MC, n, n))
            x = np.einsum("nij,nj->ni", u, x)
            viol = np.max(np.maximum(lo[k] - x, x - hi[k]))
            worst_violation = max(worst_violation, float(viol))

        # tightness: the two constant vertex selections attain the bounds
        for a in system.alphas:
            lo_a, hi_a = envelope_endpoints(system, float(a), ENVELOPE_HORIZON)
            m_a = level_matrix(system, float(a))
            x0_a = level_state(system, float(a))
            pair = np.stack([x0_a.lo, x0_a.hi])
            mats = np.stack([m_a.lo, m_a.hi])
            for k in range(ENVELOPE_HORIZON + 1):
                gap = max(np.max(np.abs(pair[0] - lo_a[k])),
                          np.max(np.abs(pair[1] - hi_a[k])))
                worst_attainment = max(worst_attainment, float(gap))
                pair = np.einsum("nij,nj->ni", mats, pair)
    assert worst_violation <= 1e-12
    assert worst_attainment <= 1e-12
    _report("envelope soundness and tightness",
            f"{N_ENVELOPE_SYSTEMS} systems x {N_MC} trajectories, "
            f"max violation {worst_violation:.3g}, "
            f"max attainment gap {worst_attainment:.3g}")


def test_envelope_nestedness(envelope_corpus):
    violations = 0
    for system in envelope_corpus:
        attainable = assemble_fuzzy_attainable(system, ENVELOPE_HORIZON)
        envelopes = [envelope_endpoints(system, float(a), ENVELOPE_HORIZON)
                     for a in system.alphas]
        for k in range(ENVELOPE_HORIZON + 1):
            los = np.stack([lo[k] for lo, _ in envelopes])
            his = np.stack([hi[k] for _, hi in envelopes])
            if np.any(np.diff(los, axis=0) < -1e-12):
                violations += 1
            if np.any(np.diff(his, axis=0) > 1e-12):
                violations += 1
        assert attainable.horizon == ENVELOPE_HORIZON
    assert violations == 0
    _report("nestedness across alpha",
            f"{N_ENVELOPE_SYSTEMS} systems x {ENVELOPE_HORIZON + 1} steps x "
            f"11 levels, {violations} violations")


def test_criterion_soundness():
    rng = np.random.default_rng(404)
    corpus = certified_interval_corpus(rng, count=N_SOUNDNESS_MATRICES,
                                       n_choices=(1, 2, 3))
    fired = {}
    worst = 0.0
    for m, verdict in corpus:
        fired[verdict.criterion] = fired.get(verdict.criterion, 0) + 1
        vertices = np.stack(list(vertex_matrices(m)))
        n = m.n
        samples = rng.uniform(m.lo, m.hi, size=(N_MC, n, n))
        rho = float(np.max(spectral_radii(np.concatenate([vertices, samples]))))
        worst = max(worst, rho)
        assert rho < 1.0, verdict.criterion
    assert set(fired) <= {"gershgorin_nonneg", "gershgorin_nonpos", "eigen_box"}
    assert len(fired) == 3  # every positive criterion exercised
    _report("criterion soundness",
            f"{N_SOUNDNESS_MATRICES} certified matrices ({fired}), all vertices "
            f"+ {N_MC} members each, max spectral radius {worst:.6f} < 1")


def test_eigen_box_containment():
    rng = np.random.default_rng(505)
    box_violations = 0
    cross_violations = 0
    for idx in range(N_EIGENBOX_MATRICES):
        n = int(rng.integers(1, 6))
        m = random_interval_matrix(rng, n, scale=rng.uniform(0.3, 1.5),
                                   width=rng.uniform(0.0, 0.4))
        box = eigen_box_bounds(m)
        samples = rng.uniform(m.lo, m.hi, size=(N_MC, n, n))
        lams = np.linalg.eigvals(samples)
        if (np.any(lams.real < box.r_lo - 1e-12)
                or np.any(lams.real > box.r_hi + 1e-12)
                or np.any(lams.imag < box.i_lo - 1e-12)
                or np.any(lams.imag > box.i_hi + 1e-12)):
            box_violations += 1
        ray = eigen_box_rayleigh(m, n_starts=4, seed=idx)
        if not box.contains_box(ray, tol=1e-9):
            cross_violations += 1
    assert box_violations == 0
    assert cross_violations == 0
    _report("eigenvalue-box containment",
            f"{N_EIGENBOX_MATRICES} matrices x {N_MC} members inside the box; "
            f"Rayleigh cross-check inside closed form; 0 violations")


def test_corner_modulus_property():
    rng = np.random.default_rng(606)
    grid = np.linspace(0.0, 1.0, 64)
    worst_excess = -np.inf
    for _ in range(N_CORNER_BOXES):
        r = np.sort(rng.uniform(-3, 3, 2))
        i = np.sort(rng.uniform(-3, 3, 2))
        box = EigenBox(r[0], r[1], i[0], i[1])
        corner = float(np.max(box.corner_moduli()))
        rs = r[0] + grid * (r[1] - r[0])
        is_ = i[0] + grid * (i[1] - i[0])
        dense = float(np.max(np.hypot(rs[:, None], is_[None, :])))
        worst_excess = max(worst_excess, dense - corner)
        assert dense <= corner + 1e-12
    _report("corner-modulus property",
            f"{N_CORNER_BOXES} boxes, dense-grid max never exceeds corners "
            f"(worst excess {worst_excess:.3g})")


def test_stability_convergence_link():
    rng = np.random.default_rng(707)
    slowest = 0
    for _ in range(N_CONVERGENCE_SYSTEMS):
        system = make_certified_nonneg_system(rng, n_max=4, row_sum_max=0.9)
        verdict = analyze(level_matrix(system, 0.0), n_samples=0)
        assert verdict.status is StabilityStatus.ASYMPTOTICALLY_STABLE
        _, hi = envelope_endpoints(system, 0.0, CONVERGENCE_HORIZON)
        sup = np.abs(hi).max(axis=1)
        hit = np.flatnonzero(sup <= 1e-6 * sup[0])
        assert hit.size > 0, "no decay below 1e-6 within the horizon"
        slowest = max(slowest, int(hit[0]))
    _report("stability-convergence link",
            f"{N_CONVERGENCE_SYSTEMS} certified systems decayed below 1e-6 "
            f"of the initial sup-norm within {slowest} <= "
            f"{CONVERGENCE_HORIZON} steps")


def test_falsifier_completeness_on_scalars():
    rng = np.random.default_rng(808)
    cases = 0
    for _ in range(500):
        b = 1.0 + 1e-6 + float(rng.exponential(1.0))
        a = float(rng.uniform(-b - 2.0, b))
        v = sampled_falsifier(
            IntervalMatrix(np.array([[a]]), np.array([[b]])), n_samples=0, seed=0)
        assert v.status is StabilityStatus.FALSIFIED
        assert v.witness["spectral_radius"] >= b - 1e-15
        if abs(a) <= b:
            assert v.witness["matrix"] == [[b]]
        cases += 1
    for b in (1.0 + 2e-6, 1.0001, 10.0, 1e6):
        v = sampled_falsifier(
            IntervalMatrix(np.array([[b]]), np.array([[b]])), n_samples=0, seed=0)
        assert v.status is StabilityStatus.FALSIFIED
        cases += 1
    _report("falsifier completeness on scalars",
            f"{cases} intervals with b > 1 + 1e-6 all Falsified via the vertex")


def test_cli_determinism(tmp_path):
    doc = {
        "n": 2,
        "H": [[{"tfn": [0.2, 0.3, 0.4]}, {"tfn": [0.0, 0.1, 0.2]}],
              [{"tfn": [0.1, 0.15, 0.2]}, {"tfn": [0.3, 0.4, 0.5]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}, {"tfn": [0.25, 0.5, 0.75]}],
    }
    sys_file = tmp_path / "system.json"
    sys_file.write_text(json.dumps(doc))
    outputs = []
    for tag in ("first", "second"):
        env = tmp_path / f"env_{tag}.csv"
        runs = tmp_path / f"runs_{tag}.csv"
        assert main(["simulate", str(sys_file), "--k", "12",
                     "--out", str(env)]) == 0
        assert main(["oracle", str(sys_file), "--k", "12", "--n", "200",
                     "--seed", "99", "--mode", "timevarying",
                     "--out", str(runs)]) == 0
        outputs.append((env.read_bytes(), runs.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    _report("CLI determinism",
            f"simulate and oracle byte-identical across runs "
            f"({len(outputs[0][0])} and {len(outputs[0][1])} bytes)")
