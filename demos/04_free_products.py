"""Free products: fusion words, conditionally free states, and the damping bound.

The dual of a free product has irreducible corepresentations labelled by
alternating words of nontrivial factor labels, with dimensions multiplying
along the word.  The conditionally free product of two states acts on a
word as the Kronecker product of the factor blocks, and its generator obeys
the Leibniz rule (a Kronecker sum).  Damped factor sequences with letter
norms at most exp(-1/k) therefore give word norms at most exp(-l/k) for
words of length l, which is what makes the approximation survive the free
product.
"""

import math

import numpy as np

import hapkit as hk

Z = hk.parse_group("Z")
table = hk.dual_irrep_table(Z, 3)
wp = hk.free_product_table(table, table, 3)
print(f"word table of (dual of Z) * (dual of Z), radius 3, words <= 3: {len(wp)} words")
print("first words:", [w.encode() or "(trivial)" for w, _ in list(wp)[:6]])

L = hk.length_functional(Z, 3)
G = hk.cfree_generator(L, L, wp)
w = wp.decode("1:a^2|2:a^-1|1:a^1")
print(f"\nLeibniz generator at {w.encode()}: {G.blocks[w][0, 0].real}"
      " (= 2 + 1 + 1, the letter lengths added)")

# conditionally free product of the time-1/k semigroups
ks = [1, 2, 4, 8, 16]
seq = [hk.semigroup_at(L, 1.0 / k) for k in ks]

print("\nword norms against the exp(-l/k) damping bound (worst word per length):")
for k, fam in zip(ks, seq):
    mu = hk.cfree_state(fam, fam, wp)
    row = []
    for l in (1, 2, 3):
        worst = max(norm for w, norm in zip(mu.labels, mu.norms) if len(w) == l)
        row.append(f"l={l}: {worst:.4f} <= {math.exp(-l / k):.4f}")
    print(f"  k={k:<3} " + "   ".join(row))

# compatibility of products with convolution is exact: by (A x B)(C x D) = AC x BD,
# convolving two conditionally free products gives the product of the convolutions
lhs = hk.convolve(hk.cfree_state(seq[2], seq[2], wp), hk.cfree_state(seq[3], seq[3], wp))
rhs = hk.cfree_state(hk.convolve(seq[2], seq[3]), hk.convolve(seq[2], seq[3]), wp)
res = max(np.linalg.norm(lhs[w] - rhs[w], 2) for w in lhs.labels)
print(f"\nproduct/convolution compatibility residual: {res:.2e} (exact up to rounding)")

# the full pipeline wraps this into one deterministic report
conv = [1 - math.exp(-9 / k) + 1e-12 for k in ks]
report = hk.freeprod_hap_pipeline(seq, seq, wp, eps_decay=0.9,
                                  conv_tols=conv, k_values=ks)
print("\n" + report.to_text())
print("CLI form:  hapkit freeprod fixtures/freeprod_zz.json")
