"""Deciding stability of an interval dynamic matrix, criterion by criterion.

Run with:  python3 demos/02_stability_certificates.py
"""

import json

import numpy as np

from fdikit import (
    IntervalMatrix,
    analyze,
    condeig_check,
    eigen_box_bounds,
    eigen_box_rayleigh,
    marginal_test,
    sample_matrix,
    sampled_falsifier,
    spectral_radii,
)

print("=" * 70)
print("1. Non-negative families: a strict Gershgorin row test certifies")
print("=" * 70)

m = IntervalMatrix(np.array([[0.1, 0.05], [0.0, 0.2]]),
                   np.array([[0.4, 0.3], [0.2, 0.5]]))
v = analyze(m)
print(json.dumps(v.to_json_obj(), indent=2))
rng = np.random.default_rng(0)
worst = spectral_radii(sample_matrix(m, rng, 2000)).max()
print(f"spectral oracle over 2000 members: max radius {worst:.4f} < 1")

print()
print("=" * 70)
print("2. Mixed signs: eigenvalue box + corner moduli")
print("=" * 70)

m = IntervalMatrix(np.array([[0.1, -0.6], [0.5, 0.0]]),
                   np.array([[0.3, -0.4], [0.7, 0.2]]))
box = eigen_box_bounds(m)
print(f"closed-form box: Re in [{box.r_lo:.3f}, {box.r_hi:.3f}], "
      f"Im in [{box.i_lo:.3f}, {box.i_hi:.3f}]")
print(f"corner moduli: {np.round(box.corner_moduli(), 4)}")
print(f"verdict: {condeig_check(box).status.value}")
ray = eigen_box_rayleigh(m)
print(f"sign-vertex cross-check (exact at n = 2, inside the box): "
      f"Re [{ray.r_lo:.3f}, {ray.r_hi:.3f}], Im [{ray.i_lo:.3f}, {ray.i_hi:.3f}]")
lams = np.concatenate([np.linalg.eigvals(sample_matrix(m, rng)) for _ in range(500)])
print(f"sampled member eigenvalues stay inside: "
      f"Re in [{lams.real.min():.3f}, {lams.real.max():.3f}], "
      f"Im in [{lams.imag.min():.3f}, {lams.imag.max():.3f}]")

print()
print("=" * 70)
print("3. A marginal mode isolated by a similarity transform")
print("=" * 70)

hi = np.array([[0.5, 0.6], [0.0, 1.0]])
m = IntervalMatrix(hi, hi)
v = marginal_test(m, np.eye(2))
print(f"upper matrix {hi.tolist()} with T = I: {v.status.value} "
      f"(criterion {v.criterion})")
print("the corner eigenvalue sits exactly at 1; the reduced block [0.5]")
print("is strictly contracting, so trajectories stay bounded.")

print()
print("=" * 70)
print("4. Sampling can falsify, never certify")
print("=" * 70)

m = IntervalMatrix(np.array([[0.9]]), np.array([[1.1]]))
v = sampled_falsifier(m, n_samples=50, seed=2)
print(json.dumps(v.to_json_obj(), indent=2))
print("\nthe witness is replayable: spectral radius of the witness matrix is")
print(f"{spectral_radii(np.asarray(v.witness['matrix'])):.6f} > 1 + 1e-9")
