"""States as matrix families, generating functionals, and their semigroups.

A functional on the coefficient algebra of a compact quantum group is
handled through its blocks mu(u^a_{ij}).  Convolution is then blockwise
matrix multiplication: the counit is the identity family and the Haar state
absorbs everything.  A symmetric generating functional L (Hermitian PSD
blocks, zero at the unit) generates the semigroup with blocks exp(-t L^a);
properness of L makes those families decay across labels while they
converge to the identity at each fixed label as t -> 0.  That pair of
behaviours, decay plus convergence, is the blockwise Haagerup criterion.
"""

import math

import hapkit as hk

Z = hk.parse_group("Z")
table = hk.dual_irrep_table(Z, 6)
print(f"dual of Z truncated to radius 6: {len(table)} one-dimensional labels")

# the word-length generating functional: block [|n|] at the label of n
L = hk.length_functional(Z, 6)
for check in (hk.check_symmetric, hk.check_positive_blocks):
    verdict = check(L)
    print(f"{verdict.name}: passed={verdict.passed}, worst {verdict.witnesses[0].render()}")

print("\nproperness within the truncation:")
for M in (2.0, 5.0):
    # L.lows: the smallest eigenvalue of each block, aligned with L.labels
    exceptional = [table.encode(lab) for lab, low in zip(L.labels, L.lows) if not low >= M]
    print(f"  M={M}: {len(exceptional)} exceptional labels {{{', '.join(exceptional)}}}")

print("\nsemigroup blocks exp(-t*|n|) at the label a^2:")
lab = table.decode("a^2")
for t in (0.0, 0.25, 1.0, 4.0):
    fam = hk.semigroup_at(L, t)
    print(f"  t={t:<5} block {fam.blocks[lab][0, 0].real:.6f}")

print("\nc0 scan of the t=1 family at eps=0.1:")
F = hk.semigroup_at(L, 1.0)
print("  exceptional:", [table.encode(lab) for lab, norm in zip(F.labels, F.norms)
                         if not norm <= 0.1])
print("  tail clean:", len(F) == len(F.table))  # a block at every label

# the full blockwise criterion on the family sequence exp(-|n|/k)
ks = [1, 2, 4, 8]
seq = [hk.semigroup_at(L, 1.0 / k) for k in ks]
conv = [1 - math.exp(-6 / k) + 1e-12 for k in ks]
report = hk.check_hap_sequence(seq, eps_decay=0.5, conv_tols=conv, k_values=ks)
print("\n" + report.to_text())

# recover the generator back from small-time samples
est, errors = hk.generator_from_semigroup(lambda s: hk.semigroup_at(L, s), [1e-3, 5e-4])
print("recovered block at a^3 (true value 3):", est.blocks[table.decode("a^3")][0, 0].real)

# and build one from a state sequence: L' = sum_n beta_n (counit - mu_n)
seq = [hk.semigroup_at(L, 1.0 / n) for n in range(1, 7)]
built, info = hk.build_from_states(seq)
print("\nsum-of-states construction with the default schedule beta=2^n, eps=8^-n:")
print("  block at a^1:", built.blocks[table.decode("a^1")][0, 0].real)
print("  tail bound beyond n=6:", info.tail_bound)
print("  labels whose epsilon certificate failed:",
      [table.encode(lab) for lab in info.flagged] or "none")
