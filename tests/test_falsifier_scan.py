"""Bounded, vectorised member scans: exact vertex counts, the bit-mask vertex
stack, batched draws and the chunked spectral-radius scan shared by the
falsifier and the oracle, each checked against a plain reference copy of
the per-member loop they replace."""

import itertools
import json
import logging
import subprocess
import tracemalloc

import numpy as np
import pytest

from fdikit import (
    IntervalMatrix,
    member_radius_scan,
    sample_matrix,
    sampled_falsifier,
    vertex_count,
    vertex_matrices,
    vertex_stack,
)
from fdikit import cli, interval_linalg, stability
from fdikit.cli import EXIT_FALSIFIED, EXIT_INCONCLUSIVE, EXIT_OK

from conftest import run_python

#: Wall-clock bound on a CLI run that must finish (a hang fails, not stalls).
CLI_TIMEOUT_S = 30


# -- reference copy of the per-member loop ---------------------------------------------

def reference_vertices(m: IntervalMatrix) -> np.ndarray:
    wide = np.argwhere(m.hi > m.lo)
    mats = []
    for picks in itertools.product((0, 1), repeat=len(wide)):
        v = np.array(m.lo)
        for (i, j), pick in zip(wide, picks):
            if pick:
                v[i, j] = m.hi[i, j]
        mats.append(v)
    return np.stack(mats)


def reference_falsifier(m: IntervalMatrix, n_samples: int, seed: int,
                        max_vertices: int = 2 ** 16) -> dict:
    mats = []
    if 2 ** int(np.count_nonzero(m.hi > m.lo)) <= max_vertices:
        mats.extend(reference_vertices(m))
    rng = np.random.default_rng(seed)
    mats.extend(rng.uniform(m.lo, m.hi) for _ in range(n_samples))
    stack = np.stack(mats)
    radii = np.max(np.abs(np.linalg.eigvals(stack)), axis=-1)
    worst = int(np.argmax(radii))
    if radii[worst] > 1.0 + 1e-9:
        return {"status": "Falsified", "criterion": "sampled_falsifier",
                "witness": {"matrix": stack[worst].tolist(),
                            "spectral_radius": float(radii[worst])}}
    return {"status": "Inconclusive", "criterion": "sampled_falsifier",
            "witness": {"max_sampled_radius": float(radii[worst]),
                        "n_checked": len(mats)}}


def partly_fuzzy(rng, n: int, n_wide: int, scale: float = 0.6) -> IntervalMatrix:
    """Random family with exactly ``n_wide`` wide entries; the rest are crisp."""
    center = rng.normal(0.0, scale, size=(n, n))
    radius = np.zeros(n * n)
    radius[rng.choice(n * n, size=n_wide, replace=False)] = rng.uniform(0.05, 0.3, n_wide)
    radius = radius.reshape(n, n)
    return IntervalMatrix(center - radius, center + radius)


# -- exact vertex count ----------------------------------------------------------------

@pytest.mark.parametrize("n, crisp, wide", [(8, 1, 63), (8, 0, 64), (10, 0, 100)])
def test_vertex_count_exact_past_int64(n, crisp, wide):
    lo, hi = np.zeros((n, n)), np.ones((n, n))
    hi.flat[:crisp] = 0.0
    m = IntervalMatrix(lo, hi)
    assert vertex_count(m) == 2 ** wide
    with pytest.raises(interval_linalg.VertexBudgetError):
        next(vertex_matrices(m))


# -- CLI runs that used to hang ---------------------------------------------------------

def _tfn_doc(lo, c, hi) -> dict:
    n = lo.shape[0]
    return {"n": n,
            "H": [[{"tfn": [float(lo[i, j]), float(c[i, j]), float(hi[i, j])]}
                   for j in range(n)] for i in range(n)],
            "x0": [{"tfn": [0.5, 1.0, 1.5]}] * n}


def _rho(a) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def unstable_doc(n: int = 8) -> dict:
    """Fully fuzzy non-negative family whose lower matrix has radius 1.2."""
    rng = np.random.default_rng(11)
    b = rng.uniform(0.2, 1.0, (n, n))
    lo = b * (1.2 / _rho(b))
    hi = lo * rng.uniform(1.1, 1.4, (n, n))
    return _tfn_doc(lo, (lo + hi) / 2, hi)


def nearbound_doc(n: int = 8) -> dict:
    """Fully fuzzy non-negative family with rho(hi) = 0.97 (no member is
    unstable) made non-normal so that no criterion certifies it."""
    rng = np.random.default_rng(12)
    g = 10.0 ** (np.arange(n) / (n - 1))
    while True:
        a = rng.uniform(0.05, 1.0, (n, n)) * g[:, None] / g[None, :]
        hi = a * (0.97 / _rho(a))
        lo = hi * rng.uniform(0.85, 0.95, (n, n))
        c = (lo + hi) / 2
        if hi.sum(axis=1).max() > 1.02 and np.linalg.eigvalsh((c + c.T) / 2)[-1] > 1.02:
            return _tfn_doc(lo, c, hi)


def run_cli(tmp_path, doc, *args) -> subprocess.CompletedProcess:
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    return run_python("-m", "fdikit.cli", args[0], str(path), *args[1:], timeout=CLI_TIMEOUT_S)


def test_analyze_fully_fuzzy_8x8_unstable_finishes(tmp_path):
    proc = run_cli(tmp_path, unstable_doc(), "analyze", "--n", "200")
    assert proc.returncode == EXIT_FALSIFIED, proc.stderr
    out = json.loads(proc.stdout)
    assert out["criterion"] == "sampled_falsifier"
    assert out["witness"]["spectral_radius"] > 1.0


def test_analyze_fully_fuzzy_8x8_nearbound_finishes(tmp_path):
    proc = run_cli(tmp_path, nearbound_doc(), "analyze", "--n", "200")
    assert proc.returncode == EXIT_INCONCLUSIVE, proc.stderr
    assert proc.stderr == ""  # the budget fallback is logged at DEBUG only
    falsifier = json.loads(proc.stdout)["witness"]["sub_reports"][-1]
    assert falsifier["witness"]["n_checked"] == 200  # 2^64 vertices: sampling only
    assert falsifier["witness"]["max_sampled_radius"] <= 0.97 + 1e-9


def test_oracle_fully_fuzzy_8x8_finishes(tmp_path):
    proc = run_cli(tmp_path, nearbound_doc(), "oracle", "--k", "5", "--n", "50",
                   "--out", str(tmp_path / "runs.csv"))
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)["spectral_radius"]
    assert report["n_checked"] == 50
    assert report["count_exceeding_one"] == 0


def test_oracle_logs_its_vertex_budget(tmp_path, caplog, capsys):
    # the budget record comes from the scan that oracle shares with the falsifier
    caplog.set_level(logging.DEBUG, logger="fdikit")
    lo = np.full((4, 4), 0.05)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_tfn_doc(lo, lo * 1.5, lo * 2.0)))
    argv = ["oracle", str(path), "--k", "2", "--n", "20", "--out", str(tmp_path / "runs.csv")]
    assert cli.main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""  # DEBUG only: nothing is printed
    assert [r.getMessage() for r in caplog.records] == [
        f"vertex budget exceeded, sampling only: {2 ** 16} vertices > 1024"]


# -- equivalence with the per-member loop ------------------------------------------------

@pytest.mark.parametrize("lo, hi", [
    ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [2.5, 3.0]]),           # degenerate entries
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),           # crisp
    ([[-1.0, 0.0, 0.5], [0.0, 0.2, 0.1], [0.3, 0.0, -0.4]],
     [[1.0, 0.0, 0.7], [0.5, 0.2, 0.1], [0.3, 0.9, -0.1]]),
    ([[0.0, 0.0, 0.0]], [[1.0, 0.0, 2.0]]),                         # rectangular
])
def test_vertex_stack_matches_product_order(lo, hi):
    m = IntervalMatrix(np.asarray(lo, float), np.asarray(hi, float))
    ref = reference_vertices(m)
    assert np.array_equal(vertex_stack(m), ref)
    assert np.array_equal(np.stack(list(vertex_matrices(m))), ref)
    count = vertex_count(m)
    for start, stop in ((0, 0), (count // 2, count), (count - 1, count)):
        assert np.array_equal(vertex_stack(m, start, stop), ref[start:stop])


def test_vertex_stack_rejects_out_of_range():
    m = IntervalMatrix(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError):
        vertex_stack(m, 0, 5)


def test_vertex_matrices_chunked_matches_reference(monkeypatch):
    monkeypatch.setattr(interval_linalg, "CHUNK_ENTRIES", 27)  # 3 matrices per chunk
    m = partly_fuzzy(np.random.default_rng(3), 3, 5)
    assert np.array_equal(np.stack(list(vertex_matrices(m))), reference_vertices(m))


def test_member_chunks_order_vertices_then_draws(monkeypatch):
    # three members per chunk: the last vertex chunk is partial, and the draws
    # start in a chunk of their own
    monkeypatch.setattr(interval_linalg, "CHUNK_ENTRIES", 12)
    m = IntervalMatrix(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([[0.5, 1.0], [2.5, 3.5]]))
    assert (vertex_count(m), interval_linalg.chunk_rows(m)) == (8, 3)
    chunks = list(interval_linalg.member_chunks(m, 8, 7, np.random.default_rng(11)))
    assert [(r.start, r.stop) for r, _ in chunks] == [(0, 3), (3, 6), (6, 8), (8, 11),
                                                     (11, 14), (14, 15)]
    for rows, stack in chunks[:3]:
        assert np.array_equal(stack, vertex_stack(m)[rows])
    draws = np.concatenate([stack for _, stack in chunks[3:]])
    assert draws.tobytes() == sample_matrix(m, np.random.default_rng(11), 7).tobytes()
    # each count alone yields only what it asks for
    only_draws = list(interval_linalg.member_chunks(m, 0, 7, np.random.default_rng(11)))
    assert [(r.start, r.stop) for r, _ in only_draws] == [(0, 3), (3, 6), (6, 7)]
    assert np.concatenate([s for _, s in only_draws]).tobytes() == draws.tobytes()
    only_vertices = list(interval_linalg.member_chunks(m, 8, 0, None))
    assert [(r.start, r.stop) for r, _ in only_vertices] == [(0, 3), (3, 6), (6, 8)]
    assert np.array_equal(np.concatenate([s for _, s in only_vertices]), vertex_stack(m))
    assert list(interval_linalg.member_chunks(m, 0, 0, None)) == []


def test_batched_draw_matches_sequential_calls():
    m = partly_fuzzy(np.random.default_rng(4), 3, 6)
    n = 37
    seq_rng = np.random.default_rng(9)
    sequential = np.stack([sample_matrix(m, seq_rng) for _ in range(n)])
    assert np.array_equal(sample_matrix(m, np.random.default_rng(9), size=n), sequential)
    split_rng = np.random.default_rng(9)
    split = np.concatenate([sample_matrix(m, split_rng, size=k) for k in (5, 30, 2)])
    assert np.array_equal(split, sequential)


def _families():
    rng = np.random.default_rng(2024)
    fams = []
    for i in range(12):
        n = 2 + i % 3
        n_wide = int(rng.integers(0, n * n + 1)) if n < 4 else int(rng.integers(0, 11))
        scale = 0.9 if i % 2 else 0.4  # mix of Falsified and Inconclusive
        fams.append((partly_fuzzy(rng, n, n_wide, scale), int(rng.integers(0, 60)),
                     int(rng.integers(2 ** 31))))
    return fams


@pytest.mark.parametrize("chunk_entries", [interval_linalg.CHUNK_ENTRIES, 40])
def test_falsifier_matches_reference(monkeypatch, chunk_entries):
    monkeypatch.setattr(interval_linalg, "CHUNK_ENTRIES", chunk_entries)
    statuses = set()
    for m, n_samples, seed in _families():
        got = sampled_falsifier(m, n_samples=n_samples, seed=seed).to_json_obj()
        assert got == reference_falsifier(m, n_samples, seed)
        statuses.add(got["status"])
    assert statuses == {"Falsified", "Inconclusive"}


def test_falsifier_matches_reference_on_partial_last_chunk():
    # 2^16 vertices then 1000 samples: the sample chunk is a partial one.  The
    # family is non-negative, so the falsifier skips the vertices; the full scan
    # of member_radius_scan still solves them all.
    m = IntervalMatrix(np.full((4, 4), 0.05), np.full((4, 4), 0.2))
    assert (vertex_count(m) + 1000) % interval_linalg.chunk_rows(m) != 0
    ref = reference_falsifier(m, 1000, 5)
    got = sampled_falsifier(m, n_samples=1000, seed=5).to_json_obj()
    assert got == ref
    scan = member_radius_scan(m, n_samples=1000, seed=5)
    assert (scan.max_radius, scan.n_checked) == (ref["witness"]["max_sampled_radius"],
                                                 ref["witness"]["n_checked"])


def test_falsifier_matches_reference_beyond_vertex_budget(monkeypatch):
    monkeypatch.setattr(interval_linalg, "CHUNK_ENTRIES", 40)
    monkeypatch.setattr(stability, "DEFAULT_VERTEX_BUDGET", 64)
    m = partly_fuzzy(np.random.default_rng(6), 3, 7, 0.9)
    got = sampled_falsifier(m, n_samples=23, seed=1).to_json_obj()
    assert got == reference_falsifier(m, 23, 1, max_vertices=64)


def test_tied_maximum_across_chunk_boundary_keeps_first(monkeypatch):
    # Diagonal family: radii of the vertices (a, c) in product order are
    # 0.1, 1.5, 1.5, 1.5.  With two matrices per chunk the tie straddles
    # the boundary between members 1 and 2; member 1 must win.
    monkeypatch.setattr(interval_linalg, "CHUNK_ENTRIES", 8)
    m = IntervalMatrix(np.diag([0.1, 0.1]), np.diag([1.5, 1.5]))
    assert interval_linalg.chunk_rows(m) == 2
    got = sampled_falsifier(m, n_samples=0, seed=0).to_json_obj()
    assert got == reference_falsifier(m, 0, 0)
    assert got["witness"]["matrix"] == [[0.1, 0.0], [0.0, 1.5]]


def test_member_scan_counts_members_above_one():
    m = IntervalMatrix(np.array([[0.5]]), np.array([[1.5]]))
    scan = member_radius_scan(m, n_samples=1000, seed=0, max_vertices=1024)
    draws = np.random.default_rng(0).uniform(0.5, 1.5, size=1000)
    assert scan.n_checked == 1002
    assert scan.n_above_one == 1 + int(np.count_nonzero(draws > 1.0))
    assert scan.max_radius == 1.5
    assert scan.worst.tolist() == [[1.5]]


def test_member_scan_without_members_is_an_error():
    m = IntervalMatrix(np.zeros((5, 5)), np.ones((5, 5)))
    with pytest.raises(ValueError, match="no member"):
        member_radius_scan(m, n_samples=0, seed=0, max_vertices=16)


def test_member_scan_without_members_raises_the_budget_error():
    # the error vertex_matrices raises beyond its budget, still a ValueError
    m = IntervalMatrix(np.zeros((5, 5)), np.ones((5, 5)))
    with pytest.raises(interval_linalg.VertexBudgetError, match="no member"):
        member_radius_scan(m, n_samples=0, seed=0, max_vertices=16)
    assert issubclass(interval_linalg.VertexBudgetError, ValueError)


def test_negative_sample_count_is_an_error(monkeypatch):
    # a non-negative family within the vertex budget whose top is proven, the
    # family of test_cli's NONNEG_2: the falsifier refuses the count before it
    # solves anything, since a proven top calls no member scan
    m = IntervalMatrix(np.array([[0.1, 0.0], [0.5, 0.4]]), np.array([[0.3, 0.2], [0.7, 0.6]]))
    solved = count_solves(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(interval_linalg, "sample_matrix", None)  # a draw raises TypeError
        sampled_falsifier(m, n_samples=10)
    assert solved == [4 + 1]  # the top and its four neighbours: the top is proven
    solved.clear()
    with pytest.raises(ValueError, match="^sample count must be non-negative, got -1$"):
        sampled_falsifier(m, n_samples=-1)
    assert solved == []
    with pytest.raises(ValueError, match="non-negative"):
        member_radius_scan(m, n_samples=-1, seed=0)


# -- Perron-Frobenius vertex shortcut for sign-definite families ---------------------

def count_solves(monkeypatch) -> list:
    """Record the number of matrices in every spectral_radii call."""
    solved = []
    solve = stability.spectral_radii

    def counting(stack):
        solved.append(int(np.prod(stack.shape[:-2])))
        return solve(stack)

    monkeypatch.setattr(stability, "spectral_radii", counting)
    return solved


SIGN_DEFINITE_KINDS = ("random", "reducible", "dyadic", "one_ulp", "signed_zero", "huge",
                       "near_overflow")


def sign_definite(rng, kind: str, n: int, sign: float) -> IntervalMatrix:
    """Random non-negative (sign 1) or non-positive (sign -1) family with at
    most 12 wide entries, of the given kind."""
    base = rng.uniform(0.3 / n, (2.0 if kind == "signed_zero" else 1.2) / n, (n, n))
    if kind == "reducible":  # zero pattern, half of them upper-triangular
        base *= rng.random((n, n)) < 0.5
        if rng.random() < 0.5:
            base = np.triu(base)
    if kind == "dyadic":  # exact ties between entries and radii
        base = rng.integers(0, 3, (n, n)) / 4.0
    lo, hi = base.copy(), base.copy()
    wide = rng.choice(n * n, size=int(rng.integers(0, min(n * n, 12) + 1)), replace=False)
    if kind == "one_ulp":
        hi.flat[wide] = np.nextafter(lo.flat[wide], np.inf)
    elif kind == "dyadic":
        hi.flat[wide] += rng.integers(1, 3, wide.size) / 4.0
    else:
        hi.flat[wide] += rng.uniform(0.05, 0.6 / n, wide.size)
    if kind == "huge":
        lo, hi = lo * 1e200, hi * 1e200
    if kind == "near_overflow":  # largest entry above 2^1023 / n: a power step can overflow
        top = hi.max()
        target = 2.0 ** 1023 / n * rng.uniform(1.01, 1.9)
        lo, hi = lo / top * target, hi / top * target
    if sign < 0:
        lo, hi = -hi, -lo
    if kind == "signed_zero":  # a crisp cell [-0.0, 0.0]: witnesses print it as -0.0
        cell = int(rng.integers(n * n))
        lo.flat[cell], hi.flat[cell] = -0.0, 0.0
    return IntervalMatrix(lo, hi)


@pytest.mark.parametrize("kind", SIGN_DEFINITE_KINDS)
def test_perron_shortcut_matches_reference(caplog, monkeypatch, kind):
    caplog.set_level(logging.DEBUG, logger="fdikit")
    rng = np.random.default_rng(SIGN_DEFINITE_KINDS.index(kind))
    solved = count_solves(monkeypatch)
    fired = {1.0: 0, -1.0: 0}  # per sign, families the shortcut settled
    for i in range(20):
        sign = 1.0 if i % 2 else -1.0
        m = sign_definite(rng, kind, 1 + i % 5, sign)
        n_samples, seed = (0 if i % 3 == 0 else int(rng.integers(1, 40))), int(rng.integers(99))
        solved.clear()
        caplog.clear()
        got = sampled_falsifier(m, n_samples=n_samples, seed=seed).to_json_obj()
        assert json.dumps(got) == json.dumps(reference_falsifier(m, n_samples, seed))
        w = int(np.count_nonzero(m.hi > m.lo))
        if w >= 2:  # w + 1 < 2^w: the shortcut skips vertices
            fell_back = any(r.getMessage().startswith("Perron gap") for r in caplog.records)
            assert solved[0] == w + 1
            fired[sign] += not fell_back
    if kind in ("random", "signed_zero", "huge"):
        assert min(fired.values()) > 0, fired


def test_perron_shortcut_solves_top_and_neighbours(monkeypatch):
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.1, 0.4, (4, 4))
    m = IntervalMatrix(lo, lo * 1.3)  # fully fuzzy: 2^16 vertices
    solved = count_solves(monkeypatch)
    got = sampled_falsifier(m, n_samples=100, seed=3).to_json_obj()
    assert sum(solved) <= 17 + 100
    # the full scan, checked against the reference loop on 2^16 vertices above
    # (test_falsifier_matches_reference_on_partial_last_chunk)
    full = member_radius_scan(m, n_samples=100, seed=3)
    assert got["status"] == "Falsified"
    assert json.dumps(got["witness"]) == json.dumps(
        {"matrix": full.worst.tolist(), "spectral_radius": full.max_radius})
    assert got["witness"]["matrix"] == m.hi.tolist()


def test_perron_shortcut_falls_back_on_a_tie(monkeypatch):
    # Upper-triangular family: every vertex with a diagonal entry at 1.5 has
    # radius 1.5, so the top ties its neighbours and all vertices are solved;
    # the witness is the first vertex attaining 1.5, not the top.
    lo = np.triu(np.full((4, 4), 0.1))
    hi = np.triu(np.full((4, 4), 0.3)) + np.diag(np.full(4, 1.2))
    m = IntervalMatrix(lo, hi)
    solved = count_solves(monkeypatch)
    got = sampled_falsifier(m, n_samples=5, seed=0).to_json_obj()
    # the top and its 10 neighbours, then the 960 vertices with a diagonal
    # entry at 1.5; brackets rule out the 64 with every diagonal entry at 0.1
    assert solved[:2] == [11, 960]
    assert json.dumps(got) == json.dumps(reference_falsifier(m, 5, 0))
    assert got["witness"]["matrix"] != m.hi.tolist()


def test_falsifier_logs_its_fallbacks(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="fdikit")
    fuzzy = IntervalMatrix(np.zeros((5, 5)), np.ones((5, 5)))
    with monkeypatch.context() as patch:
        patch.setattr(stability, "DEFAULT_VERTEX_BUDGET", 64)  # read at call time
        sampled_falsifier(fuzzy, n_samples=10, seed=0)
    assert [r.getMessage() for r in caplog.records] == [
        f"vertex budget exceeded, sampling only: {2 ** 25} vertices > 64"]
    assert caplog.records[0].levelno == logging.DEBUG
    caplog.clear()
    tied = IntervalMatrix(np.diag([0.1] * 3), np.diag([0.9] * 3))
    sampled_falsifier(tied, n_samples=10, seed=0)
    # a diagonal member's bracket is its diagonal range at every step, so the
    # six vertices mixing 0.1 and 0.9 on the diagonal stay open next to the top
    assert [r.getMessage() for r in caplog.records] == [
        "Perron gap below PERRON_GAP, full vertex scan of 8 vertices",
        f"brackets unresolved for 6 of 18 members: 0 stopped by a zero or "
        f"unbounded step, 6 open after {stability.BRACKET_STEPS} steps"]
    caplog.clear()
    # n = 2 brackets too: the two vertices mixing 0.1 and 0.9 stay open
    sampled_falsifier(IntervalMatrix(np.diag([0.1] * 2), np.diag([0.9] * 2)), 10, 0)
    assert [r.getMessage() for r in caplog.records] == [
        "Perron gap below PERRON_GAP, full vertex scan of 4 vertices",
        f"brackets unresolved for 2 of 14 members: 0 stopped by a zero or "
        f"unbounded step, 2 open after {stability.BRACKET_STEPS} steps"]
    caplog.clear()
    zero_row = np.ones((3, 3))
    zero_row[2] = 0.0
    member_radius_scan(IntervalMatrix(np.zeros((3, 3)), zero_row), n_samples=10, seed=0,
                       max_vertices=0)
    assert [r.getMessage() for r in caplog.records] == [
        "vertex budget exceeded, sampling only: 64 vertices > 0",
        f"brackets unresolved for 10 of 10 members: 10 stopped by a zero or "
        f"unbounded step, 0 open after {stability.BRACKET_STEPS} steps"]
    caplog.clear()
    positive = IntervalMatrix(np.full((3, 3), 0.1), np.full((3, 3), 0.4))
    sampled_falsifier(positive, n_samples=10, seed=0)
    # irreducible: the shortcut proves the top, so no sample is drawn or scanned
    assert caplog.records == []


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("top, status", [(0.3, "Inconclusive"), (0.4, "Falsified")])
def test_proven_top_draws_no_samples(monkeypatch, sign, top, status):
    # rho(top) is 3 * top: 0.9 or 1.2
    lo, hi = np.full((3, 3), 0.1), np.full((3, 3), top)
    m = IntervalMatrix(lo, hi) if sign > 0 else IntervalMatrix(-hi, -lo)
    ref = reference_falsifier(m, 200, 7)
    assert ref["status"] == status

    def no_draw(*args):
        raise AssertionError("a member was drawn")

    monkeypatch.setattr(interval_linalg, "sample_matrix", no_draw)
    solved = count_solves(monkeypatch)
    got = sampled_falsifier(m, n_samples=200, seed=7).to_json_obj()
    assert json.dumps(got) == json.dumps(ref)
    assert solved == [10]  # the top and its nine neighbours, and nothing else


#: The verdicts a copy of the tree in which the top vertex came from
#: vertex_stack printed for the family of test_top_vertex_keeps_a_signed_zero.
SIGNED_ZERO_TOP = {
    1.0: '{"status": "Falsified", "criterion": "sampled_falsifier", "witness": {"matrix": '
         '[[0.6, 0.4, -0.0], [0.4, 0.6, 0.4], [0.30000000000000004, 0.4, 0.6]], '
         '"spectral_radius": 1.2294860467395512}}',
    -1.0: '{"status": "Falsified", "criterion": "sampled_falsifier", "witness": {"matrix": '
          '[[-0.6, -0.4, -0.0], [-0.4, -0.6, -0.4], [-0.30000000000000004, -0.4, -0.6]], '
          '"spectral_radius": 1.2294860467395512}}',
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_top_vertex_keeps_a_signed_zero(tmp_path, capsys, monkeypatch, sign):
    # entry (0, 2) is [-0.0, 0.0]: not wide, so the top takes its lo, -0.0,
    # in both signs; the top proves the verdict, so no member scan runs
    lo = np.array([[0.5, 0.3, -0.0], [0.3, 0.5, 0.3], [0.2, 0.3, 0.5]])
    hi = lo + 0.1
    hi[0, 2] = 0.0
    m = IntervalMatrix(lo, hi) if sign > 0 else IntervalMatrix(-hi, -lo)
    assert (m.lo[0, 2], m.hi[0, 2]) == (0.0, 0.0) and np.signbit(m.lo[0, 2])
    monkeypatch.setattr(stability, "member_radius_scan", None)
    assert json.dumps(sampled_falsifier(m, 5, 0).to_json_obj()) == SIGNED_ZERO_TOP[sign]
    doc = {"n": 3, "x0": [1, 1, 1],
           "H": [[{"tfn": [a, b, b]} for a, b in zip(*rows)] for rows in zip(m.lo.tolist(),
                                                                           m.hi.tolist())]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path), "--n", "5"]) == EXIT_FALSIFIED
    assert capsys.readouterr().out == SIGNED_ZERO_TOP[sign] + "\n"


def test_tied_top_still_scans_vertices_and_samples(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="fdikit")
    tied = IntervalMatrix(np.diag([0.1] * 3), np.diag([0.9] * 3))
    ref = reference_falsifier(tied, 10, 0)
    drawn = []
    draw = interval_linalg.sample_matrix
    monkeypatch.setattr(interval_linalg, "sample_matrix",
                        lambda m, rng, size: drawn.append((size, *m.shape)) or draw(m, rng, size))
    got = sampled_falsifier(tied, n_samples=10, seed=0).to_json_obj()
    assert caplog.records[0].getMessage().startswith("Perron gap below PERRON_GAP")
    assert json.dumps(got) == json.dumps(ref)
    assert drawn == [(10, 3, 3)]
    assert got["witness"]["n_checked"] == 8 + 10


# -- Collatz-Wielandt brackets in the member scan ------------------------------------

def reference_scan(m: IntervalMatrix, n_samples: int, seed: int, max_vertices: int):
    """Every member solved: (max radius, first maximiser, count above 1, count)."""
    mats = list(reference_vertices(m)) if vertex_count(m) <= max_vertices else []
    rng = np.random.default_rng(seed)
    mats.extend(rng.uniform(m.lo, m.hi) for _ in range(n_samples))
    radii = np.max(np.abs(np.linalg.eigvals(np.stack(mats))), axis=-1)
    worst = int(np.argmax(radii))
    return float(radii[worst]), mats[worst], int(np.count_nonzero(radii > 1.0)), len(mats)


def straddling(m: IntervalMatrix) -> IntervalMatrix:
    """m scaled so that 1 lies between the radii of its extreme vertices."""
    rho_lo, rho_hi = sorted(_rho(a) for a in (m.lo, m.hi))
    s = 2.0 / (rho_lo + rho_hi) if rho_hi > 0 else 1.0
    return IntervalMatrix(m.lo * s, m.hi * s)


def assert_scan_matches_reference(m: IntervalMatrix, n_samples: int, seed: int):
    for max_vertices in (0, 2 ** 16):
        scan = member_radius_scan(m, n_samples, seed, max_vertices)
        best, worst, above, count = reference_scan(m, n_samples, seed, max_vertices)
        assert scan.max_radius == best
        assert np.array_equal(scan.worst, worst)
        assert (scan.n_above_one, scan.n_checked) == (above, count)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", SIGN_DEFINITE_KINDS)
def test_bracketed_scan_matches_full_eigensolve(monkeypatch, kind):
    rng = np.random.default_rng(100 + SIGN_DEFINITE_KINDS.index(kind))
    for i in range(24):
        m = sign_definite(rng, kind, 2 + i % 6, 1.0 if i % 2 else -1.0)
        if i % 4 >= 2 and kind not in ("huge", "near_overflow"):
            m = straddling(m)
        # small chunks carry the running maximum across chunk boundaries
        monkeypatch.setattr(interval_linalg, "CHUNK_ENTRIES", 2 ** 18 if i % 3 else 200)
        assert_scan_matches_reference(m, int(rng.integers(1, 60)), int(rng.integers(99)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ("random", "reducible", "dyadic"))
def test_bracketed_scan_matches_full_eigensolve_at_subnormal_scale(kind):
    # products underflow, and zero rows make iterates vanish: such members
    # must be solved, without a 0 / 0 in the ratios
    rng = np.random.default_rng(200 + SIGN_DEFINITE_KINDS.index(kind))
    for i in range(30):
        m = sign_definite(rng, kind, 2 + i % 6, 1.0)
        scale = 10.0 ** rng.uniform(-323.0, -290.0)
        assert_scan_matches_reference(IntervalMatrix(m.lo * scale, m.hi * scale), 20, i)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lo", [
    # the second and third iterate entries underflow to 0
    [[1e300, 0.0, 0.0], [1e-300, 1e-300, 0.0], [1e-300, 0.0, 1e-300]],
    [[1e308, 1e308, 1e308], [0.0] * 3, [0.0] * 3],  # a power step would overflow
])
def test_bracketed_scan_matches_full_eigensolve_at_extreme_range(lo):
    lo = np.array(lo)
    assert_scan_matches_reference(IntervalMatrix(lo, lo * 1.2), 10, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bracketed_scan_solves_only_overflowing_members(caplog, monkeypatch, sign):
    # entries above 2^1023 / n: only the members whose power step is unbounded
    # are solved and logged, the others are bracketed
    caplog.set_level(logging.DEBUG, logger="fdikit")
    lo = np.array([[4.5e307, 4.0e307], [4.0e307, 4.5e307]])
    m = IntervalMatrix(lo, lo * 1.05) if sign > 0 else IntervalMatrix(-lo * 1.05, -lo)
    assert_scan_matches_reference(m, 200, 0)
    caplog.clear()
    solved = count_solves(monkeypatch)
    scan = member_radius_scan(m, 200, 0)
    assert scan.n_checked == 216
    assert sum(solved) <= 10
    unresolved = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("brackets unresolved")]
    assert len(unresolved) == 1, unresolved


def test_bracketed_scan_solves_few_members(monkeypatch):
    rng = np.random.default_rng(21)
    lo = rng.uniform(0.02, 0.04, (32, 32))
    fuzzy = IntervalMatrix(lo, lo * 1.3)  # 2^1024 vertices: sampling only
    solved = count_solves(monkeypatch)
    scan = member_radius_scan(fuzzy, n_samples=200, seed=4)
    assert sum(solved) <= 10
    assert scan.n_checked == 200
    solved.clear()
    member_radius_scan(IntervalMatrix(-fuzzy.hi, -fuzzy.lo), n_samples=200, seed=4)
    assert sum(solved) <= 10
    indefinite = IntervalMatrix(lo - 0.03, lo * 1.3)
    solved.clear()
    member_radius_scan(indefinite, n_samples=200, seed=4)
    assert sum(solved) == 200
    # brackets apply at every size, n = 2 included
    for n in (2, 3):
        solved.clear()
        member_radius_scan(IntervalMatrix(lo[:n, :n], lo[:n, :n] * 1.3), n_samples=200,
                           seed=4, max_vertices=0)
        assert sum(solved) <= 10


def test_oracle_counts_members_above_one_on_a_straddling_family(tmp_path):
    rng = np.random.default_rng(13)
    b = rng.uniform(0.2, 1.0, (8, 8))
    lo = b * (0.85 / _rho(b))
    hi = lo * 1.35
    proc = run_cli(tmp_path, _tfn_doc(lo, (lo + hi) / 2, hi), "oracle", "--k", "2",
                   "--n", "300", "--seed", "5", "--out", str(tmp_path / "runs.csv"))
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)["spectral_radius"]
    best, _, above, count = reference_scan(IntervalMatrix(lo, hi), 300, 5, 0)
    assert 0 < above < 300
    assert report == {"max": best, "count_exceeding_one": above, "n_checked": count}


# -- bounded memory ---------------------------------------------------------------------

def test_falsifier_memory_stays_below_full_stack():
    n, n_wide = 16, 14
    m = partly_fuzzy(np.random.default_rng(8), n, n_wide, 0.1)
    full_stack_bytes = vertex_count(m) * n * n * 8  # 16,384 vertices: 33.5 MB
    tracemalloc.start()
    try:
        verdict = sampled_falsifier(m, n_samples=10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.witness["n_checked"] == vertex_count(m) + 10
    assert peak < full_stack_bytes / 2, f"peak {peak / 1e6:.1f} MB"


def test_import_leaves_scipy_unloaded():
    # n = 6 runs the exhaustive (real) sign scans and the closed-form imaginary bound;
    # n = 520 checks that spectral_radius is the dense solve of spectral_radii at
    # any size, bit for bit
    code = ("import sys, numpy as np, fdikit.cli\n"
            "print(any(k.startswith('scipy') for k in sys.modules))\n"
            "fdikit.eigen_box_rayleigh(fdikit.IntervalMatrix(-np.ones((6, 6)), np.ones((6, 6))))\n"
            "a = np.random.default_rng(0).random((520, 520))\n"
            "print(fdikit.spectral_radius(a) == float(fdikit.spectral_radii(a)))\n"
            "print(any(k.startswith('scipy') for k in sys.modules))")
    proc = run_python("-c", code, timeout=CLI_TIMEOUT_S)
    assert proc.stdout.split() == ["False", "True", "False"], proc.stderr
