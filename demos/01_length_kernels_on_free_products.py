"""Word lengths and positive-definite kernels on free products of cyclic groups.

The starting point of the whole toolkit is the classical fact that the word
length on a free group is conditionally negative definite, so that
exp(-t * length) is a positive-definite kernel for every t > 0.  Here we
inspect that at desk scale: enumerate balls in F_2 = Z * Z and in
Z_2 * Z_3, assemble the Gram matrices G[i,j] = exp(-t*length(g_i^{-1} g_j)),
and watch the smallest eigenvalue stay nonnegative.
"""

import hapkit as hk

F2 = hk.parse_group("F2")
PSL2Z = hk.parse_group("Z2*Z3")

print("ball sizes in F2:", [len(hk.ball(F2, r)) for r in range(4)])
print("ball sizes in Z2*Z3:", [len(hk.ball(PSL2Z, r)) for r in range(5)])

some = hk.ball(F2, 2)[:8]
print("\nfirst few elements of the radius-2 ball of F2, with lengths:")
for g in some:
    print(f"  {g.encode():10s} length {hk.length(g)}")

print("\nsmallest Gram eigenvalue of exp(-t*length):")
for group, name, radius in ((F2, "F2", 3), (PSL2Z, "Z2*Z3", 4)):
    for t in (0.1, 0.5, 1.0, 2.0):
        min_eig = hk.schoenberg_check(group, t, radius)
        n = len(hk.ball(group, radius))
        print(f"  {name:6s} radius {radius} ({n:3d}x{n:3d})  t={t:<4}  "
              f"min eig {min_eig:+.6e}  {'PASS' if min_eig >= -1e-8 * n else 'FAIL'}")

print("\nThe same check is available from the command line:")
print("  hapkit schoenberg --group F2 --t 1 --radius 3")
