"""Independent oracles used to pin expected values before checking hapkit.

Everything in this module is deliberately written from first principles
(plain loops, closed forms, textbook extrapolation weights) and never calls
into the code paths it is used to check.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np


def alternating_words(ids1, ids2, max_len):
    """Brute-force enumeration of alternating two-factor words.

    Returns all tuples ((factor, id), ...) of length <= max_len, including
    the empty word, built by filtering the full product of letter choices.
    """
    pools = {1: list(ids1), 2: list(ids2)}
    words = [()]
    for k in range(1, max_len + 1):
        letter_choices = [(fi, id_) for fi in (1, 2) for id_ in pools[fi]]
        for combo in itertools.product(letter_choices, repeat=k):
            if all(combo[i][0] != combo[i + 1][0] for i in range(k - 1)):
                words.append(combo)
    return words


def alternating_count(p: int, q: int, k: int) -> int:
    """Closed-form count of alternating words of exact length k >= 1."""
    if k == 0:
        return 1
    start1 = p ** math.ceil(k / 2) * q ** (k // 2)
    start2 = q ** math.ceil(k / 2) * p ** (k // 2)
    return start1 + start2


def free_group_ball_size(rank: int, radius: int) -> int:
    """1 + sum over spheres 2n*(2n-1)^(k-1) of the free group of given rank."""
    total = 1
    for k in range(1, radius + 1):
        total += 2 * rank * (2 * rank - 1) ** (k - 1)
    return total


def zdual_values(radius: int):
    """Label values n = -radius..radius of the integer-group dual."""
    return list(range(-radius, radius + 1))


def lagrange_weights_at_zero(ts):
    """Extrapolation weights: p(0) = sum w_i p(t_i) for the interpolant."""
    weights = []
    for i, ti in enumerate(ts):
        w = 1.0
        for j, tj in enumerate(ts):
            if j != i:
                w *= tj / (tj - ti)
        weights.append(w)
    return weights


def scalar_quotient_extrapolation(lam: float, ts):
    """Extrapolated (1 - exp(-lam*t))/t difference quotients at t -> 0."""
    weights = lagrange_weights_at_zero(ts)
    return sum(w * (1.0 - math.exp(-lam * t)) / t for w, t in zip(weights, ts))


def zdual_word_norm(letters, k: float) -> float:
    """Scalar-product oracle: a word over two integer-group duals at stage k
    has block value prod_j exp(-|n_j| / k)."""
    out = 1.0
    for n in letters:
        out *= math.exp(-abs(n) / k)
    return out


def kron_word_blocks(phi1, phi2, wp):
    """Per-word conditionally free product: reduce(np.kron) over the letter
    blocks of every nontrivial word, in letter order."""
    families = {1: phi1, 2: phi2}
    return {word: reduce(np.kron, [families[fi].blocks[lab] for fi, lab in word.letters])
            for word, _ in wp if not word.is_trivial}


def kron_sum_word_blocks(L1, L2, wp):
    """Per-word Leibniz generator: sum_j I x ... x L^{a_j} x ... x I."""
    functionals = {1: L1, 2: L2}
    out = {}
    for word, dim in wp:
        if word.is_trivial:
            continue
        letters = [functionals[fi].blocks[lab] for fi, lab in word.letters]
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for j, blk in enumerate(letters):
            factors = [np.eye(b.shape[0], dtype=np.complex128) for b in letters]
            factors[j] = blk
            acc = acc + reduce(np.kron, factors)
        out[word] = acc
    return out


def block_norms(blocks, minus_identity=False):
    """One numpy operator-norm call per block, in order; NaN for a non-finite block."""
    return [float(np.linalg.norm(blk - np.eye(blk.shape[0]) if minus_identity else blk, 2))
            if np.isfinite(blk).all() else math.nan for blk in blocks]


def block_min_eigenvalues(blocks):
    """One numpy eigvalsh call per block on (B + B*)/2; NaN for a non-finite block."""
    return [float(np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0])
            if np.isfinite(blk).all() else math.nan for blk in blocks]


def block_expm_neg(blocks, t):
    """exp(-t*a) one block at a time: one eigh on (a + a*)/2 when the adjoint
    residual is at most 1e-12 * max(1, ||a||), scipy's expm otherwise."""
    import scipy.linalg
    out = []
    for a in blocks:
        norm, residual = block_norms([a, a - a.conj().T])
        if residual <= 1e-12 * max(1.0, norm):
            w, v = np.linalg.eigh((a + a.conj().T) / 2)
            out.append((v * np.exp(-t * w)) @ v.conj().T)
        else:
            out.append(scipy.linalg.expm(-t * a))
    return out


def block_psd_sqrt(blocks):
    """One eigh per block on (B + B*)/2: the root with negative eigenvalues
    clamped to 0 and the smallest eigenvalue; NaN for a non-finite block."""
    roots, lows = [], []
    for blk in blocks:
        if not np.isfinite(blk).all():
            roots.append(np.full(blk.shape, math.nan, dtype=np.complex128))
            lows.append(math.nan)
            continue
        w, v = np.linalg.eigh((blk + blk.conj().T) / 2)
        roots.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
        lows.append(float(w[0]))
    return roots, lows


def first_certified(deviations, eps):
    """Per label (one row of per-state deviations each), the 1-based first n
    from which deviation <= eps holds to the end of the range, or None."""
    n_states = len(eps)
    return [next((n0 + 1 for n0 in range(n_states)
                  if all(row[n] <= eps[n] for n in range(n0, n_states))), None)
            for row in deviations]
