"""Exact solution-set envelopes for a non-negative fuzzy system, checked by
Monte Carlo trajectories, and the nested fuzzy attainable sets they stack into.

Run with:  python3 demos/03_envelopes_and_oracles.py
"""

import numpy as np

from fdikit import (
    FuzzySystem,
    FuzzyVector,
    Tfn,
    analyze,
    assemble_fuzzy_attainable,
    d_fuzzy_vec,
    envelope_endpoints,
    level_matrix,
    level_state,
    mc_trajectories,
)

system = FuzzySystem(
    h=[[Tfn(0.20, 0.30, 0.40), Tfn(0.00, 0.10, 0.20)],
       [Tfn(0.10, 0.15, 0.20), Tfn(0.30, 0.40, 0.50)]],
    x0=FuzzyVector([Tfn(0.50, 1.00, 1.50), Tfn(0.25, 0.50, 0.75)]),
    alphas=np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
)
K = 12

print("=" * 70)
print("Level-wise envelopes: endpoints evolve as two crisp systems")
print("=" * 70)

lo, hi = envelope_endpoints(system, 0.0, K)  # rows k = 0..K
print(f"\nsupport-level envelope of coordinate 1 over {K} steps:")
for k in (0, 1, 2, 4, 8, 12):
    print(f"  k={k:<3d} [{lo[k, 0]:.6f}, {hi[k, 0]:.6f}]")

print()
print("=" * 70)
print("Monte Carlo members never leave the envelope, and the vertex")
print("selections touch it -- the bounds are tight, not just safe")
print("=" * 70)

runs = mc_trajectories(system, alpha=0.0, horizon=K, n=5000, seed=7,
                       mode="timevarying")
violation = max(float(np.max(lo[np.newaxis] - runs)),
                float(np.max(runs - hi[np.newaxis])))
print(f"\n5000 time-varying member trajectories: worst excursion "
      f"{violation:.2e} (non-positive means inside)")

m = level_matrix(system, 0.0)
x = level_state(system, 0.0).lo
for k in range(K + 1):
    assert abs(x[0] - lo[k, 0]) < 1e-12
    x = m.lo @ x
print("the all-lower-endpoints selection reproduces the lower envelope exactly")

print()
print("=" * 70)
print("Stacking the levels gives nested fuzzy attainable sets")
print("=" * 70)

att = assemble_fuzzy_attainable(system, K)
print(f"\nattainable set of coordinate 1 at k={K}, by level:")
for a in system.alphas:
    lo_a, hi_a = att.steps[K][0].cut(float(a))
    print(f"  alpha={a:4.2f}  [{lo_a:.6f}, {hi_a:.6f}]")
print("higher levels are always contained in lower ones (checked on every step).")

print()
print("=" * 70)
print("Certified stability shows up as envelope decay")
print("=" * 70)

verdict = analyze(level_matrix(system, 0.0))
print(f"\nsupport-level verdict: {verdict.status.value} via {verdict.criterion}")
zero = FuzzyVector([Tfn(0, 0, 0), Tfn(0, 0, 0)])
long = assemble_fuzzy_attainable(system, 60)
for k in (0, 10, 30, 60):
    d = d_fuzzy_vec(long.steps[k], zero, which="levelwise")
    print(f"  level-wise distance to the crisp origin at k={k:<3d}: {d:.3e}")
