"""Fuzzy numbers as stacks of nested alpha-cuts, and the two fuzzy metrics.

The cells a system file holds are triangles ({"tfn": [l, c, r]}) and level
stacks ({"levels": [[alpha, lo, hi], ...]}); both read as the same kind of
number, cut exactly at any level.

Run with:  python3 demos/01_fuzzy_numbers_and_metrics.py
"""

from fdikit import (
    FuzzyVector,
    Tfn,
    as_fuzzy,
    d_fuzzy_vec,
    d_membership,
)

print("=" * 70)
print("Triangular fuzzy numbers and alpha-cuts")
print("=" * 70)

wall = as_fuzzy({"tfn": [2, 4, 6]})  # 'a high wall': about 4 meters, wide uncertainty
print(f"\n{wall}: support {wall.cut(0.0)}, peak {wall.cut(1.0)}")
for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
    lo, hi = wall.cut(alpha)
    bar = " " * int(4 * (lo - 1)) + "#" * max(1, int(4 * (hi - lo)))
    print(f"  alpha={alpha:4.2f}  cut=[{lo:4.2f}, {hi:4.2f}]  {bar}")

print("\nMembership grades are read back from the cuts:")
for p in (2.0, 3.0, 4.0, 5.5, 6.5):
    print(f"  membership({p}) = {wall.membership(p):.3f}")

print()
print("=" * 70)
print("Level stacks: any shape is more levels")
print("=" * 70)

shape = as_fuzzy({"levels": [[0.0, 0.0, 5.0], [0.6, 1.0, 4.0], [1.0, 1.5, 2.5]]})
print(f"\n{shape} (a trapezoid-ish stack):")
for a, lo, hi in shape.levels():
    print(f"  alpha={a:3.1f}  [{lo}, {hi}]")
lo, hi = shape.cut(0.3)
print(f"between levels the endpoints interpolate: cut(0.3) = [{lo:g}, {hi:g}]")
print(f"and the grade at 0.5 is {shape.membership(0.5):g}, the level whose cut starts there")

print()
print("=" * 70)
print("Two distances on fuzzy numbers (deliberately distinct)")
print("=" * 70)


def levelwise(x1, x2) -> float:
    """Level-wise distance of two numbers, as one-component fuzzy vectors."""
    return d_fuzzy_vec(FuzzyVector([x1]), FuzzyVector([x2]), "levelwise")


pairs = [
    (Tfn(2, 3, 4), Tfn(3.5, 4.5, 6.5)),  # peaks miss each other's support
    (Tfn(2, 3, 4), Tfn(0, 3, 8)),        # shared peak, different spreads
]
print(f"\n{'pair':<36}{'membership-sup':>16}{'level-wise':>12}")
for x1, x2 in pairs:
    label = f"({x1.l}, {x1.c}, {x1.r}) vs ({x2.l}, {x2.c}, {x2.r})"
    print(f"{label:<36}{d_membership(x1, x2):>16.3f}{levelwise(x1, x2):>12.3f}")
print("\nThe membership-sup distance saturates at 1 as soon as one peak")
print("leaves the other support; the level-wise distance keeps growing")
print("with the endpoint gaps, so the two are reported separately.")
shift = 10.0
x1 = Tfn(2, 3, 4)
x2 = Tfn(2 + shift, 3 + shift, 4 + shift)
print(f"\nShifting a copy by {shift}: membership {d_membership(x1, x2):.1f}, "
      f"level-wise {levelwise(x1, x2):.1f}")

print("\nFuzzy vectors, as `fdikit distance` reads them, add their components:")
x = FuzzyVector([Tfn(2, 3, 4), Tfn(2, 3, 4)])
y = FuzzyVector([Tfn(3.5, 4.5, 6.5), Tfn(0, 3, 8)])
for which in ("membership", "levelwise"):
    print(f"  {which:<10} {d_fuzzy_vec(x, y, which):.3f}")
