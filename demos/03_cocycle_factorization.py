"""Cocycles from generating functionals and back.

Blockwise, a cocycle c is constrained by its Gram data only:
(c^a)*(c^a) = L^a + (L^a)*.  For a symmetric positive L the canonical
choice is the principal PSD square root of 2 L^a, which is unique,
deterministic, and round-trips exactly.  Properness moves between L and c
at an exact factor of two in the eigenvalues, and a proper L always has an
unbounded cocycle: over the dual of Z with the length functional the block
norms grow like sqrt(2 * radius).
"""

import numpy as np

import hapkit as hk

Z = hk.parse_group("Z")
L = hk.length_functional(Z, 8)
table = L.table

c = hk.factor_from_generator(L)
print("cocycle blocks at a^1, a^4:",
      c.blocks[table.decode("a^1")][0, 0].real,
      c.blocks[table.decode("a^4")][0, 0].real)

back = hk.gram_from_cocycle(c)
residual = max(float(np.linalg.norm(back.blocks[lab] - L.blocks[lab], 2))
               for lab in L.labels)
print("round-trip residual:", residual)

M = 6.0
exc_L = hk.check_proper(L, M).exceptional_labels
exc_c = hk.check_proper_cocycle(c, 2 * M).exceptional_labels
print(f"\nexceptional sets transfer at a factor 2 (M={M} vs {2 * M}):")
print("  from L:", [table.encode(lab) for lab in exc_L if not lab.is_trivial])
print("  from c:", [table.encode(lab) for lab in exc_c])

print("\nblock-norm supremum grows with the truncation radius:")
for radius in (2, 4, 8):
    c_r = hk.factor_from_generator(hk.length_functional(Z, radius))
    print(f"  radius {radius}: sup norm {np.max(c_r.norms, initial=0.0):.6f} "
          f"(= sqrt(2*{radius}) = {np.sqrt(2 * radius):.6f})")

print("\nThe CLI form writes the cocycle file and reports the exceptional set:")
print("  hapkit cocycle generator.json --M 8")
