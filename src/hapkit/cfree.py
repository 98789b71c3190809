"""Conditionally free products over free-product word tables.

The dual free product has labels given by alternating words of nontrivial
factor labels.  The conditionally free product (relative to the Haar
states) of two normalized families acts on a word as the Kronecker product
of the factor blocks in letter order; its generator obeys the Leibniz rule,
a Kronecker sum over the letters.  Both use row-major index flattening over
the letters (numpy's ``kron`` convention), fixed once and exercised by the
mixed-product exactness check.

The free-product certification pipeline consumes two pre-damped sequences
(nontrivial block norms at stage k at most exp(-1/k)) and verifies, word by
word, the tensor-multiplicativity bound norm <= exp(-l/k) for words of
length l, the pointwise convergence to identity blocks, and c0 decay on the
word table.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from . import _linalg
from .fourier import (DEFAULT_TOL, MatrixFamily, _c0_condition, _identity_condition,
                      _norm_bound_condition, _require_normalized, convolve,
                      family_content_digest)
from .genfun import GeneratingFunctional
from .irreps import FreeProductTable
from .reports import CertificationReport

DAMP_INPUT_TOL = 1e-12


def _check_factor_tables(wp: FreeProductTable, F1, F2) -> None:
    if F1.table != wp.factor1 or F2.table != wp.factor2:
        raise ValueError("factor data does not match the word table's factors")


def _letter_block(family, fi: int, label) -> np.ndarray:
    try:
        return family.blocks[label]
    except KeyError:
        raise KeyError(f"missing letter block: factor {fi}, label {label.id!r}") from None


def cfree_state(phi1: MatrixFamily, phi2: MatrixFamily,
                wp: FreeProductTable) -> MatrixFamily:
    """Conditionally free product family on the word table.

    The block at the word (a_1, ..., a_l) is the Kronecker product of the
    factor blocks in letter order; the trivial word gets [1].
    """
    _check_factor_tables(wp, phi1, phi2)
    _require_normalized(phi1, "factor 1 family")
    _require_normalized(phi2, "factor 2 family")
    families = {1: phi1, 2: phi2}
    blocks = {}
    for word, _ in wp:
        if word.is_trivial:
            blocks[word] = np.ones((1, 1), dtype=np.complex128)
            continue
        letters = [_letter_block(families[fi], fi, lab) for fi, lab in word.letters]
        blocks[word] = reduce(np.kron, letters)
    return MatrixFamily(wp, blocks, normalized=True)


def cfree_generator(L1: GeneratingFunctional, L2: GeneratingFunctional,
                    wp: FreeProductTable) -> GeneratingFunctional:
    """Leibniz-rule generator of the conditionally free semigroup.

    The block at a word is the Kronecker sum of the letter blocks:
    sum_j I x ... x L^{a_j} x ... x I, in letter order.
    """
    _check_factor_tables(wp, L1, L2)
    functionals = {1: L1, 2: L2}
    blocks = {}
    for word, dim in wp:
        if word.is_trivial:
            continue
        letters = [_letter_block(functionals[fi], fi, lab) for fi, lab in word.letters]
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for j, blk in enumerate(letters):
            factors = [np.eye(b.shape[0], dtype=np.complex128) for b in letters]
            factors[j] = blk
            acc = acc + reduce(np.kron, factors)
        blocks[word] = acc
    return GeneratingFunctional(wp, blocks)


def check_diam3(phi1: MatrixFamily, phi2: MatrixFamily,
                omega1: MatrixFamily, omega2: MatrixFamily,
                wp: FreeProductTable, tol: float = 1e-12) -> tuple[bool, float]:
    """Exactness of product-vs-convolution compatibility.

    Verifies blockwise that convolving two conditionally free products
    equals the conditionally free product of the factorwise convolutions.
    The mixed-product identity (A x B)(C x D) = AC x BD makes this exact up
    to rounding, so a residual beyond ~1e-12 signals an implementation bug.
    """
    lhs = convolve(cfree_state(phi1, phi2, wp), cfree_state(omega1, omega2, wp))
    rhs = cfree_state(convolve(phi1, omega1), convolve(phi2, omega2), wp)
    worst = 0.0
    for word in rhs.labels:
        worst = max(worst, _linalg.spectral_norm(lhs.blocks[word] - rhs.blocks[word]))
    return worst <= tol, worst


def damping_family(table, k: int) -> MatrixFamily:
    """Family with blocks exp(-1/k) * I at nontrivial labels, [1] at the unit.

    This is the time-1/k semigroup family of the functional counit - haar;
    convolving by it multiplies every nontrivial block by exp(-1/k).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    damp = math.exp(-1.0 / k)
    blocks = {
        lab: (np.ones((1, 1), dtype=np.complex128) if lab == table.trivial
              else damp * np.eye(table.dim(lab), dtype=np.complex128))
        for lab in table.labels
    }
    return MatrixFamily(table, blocks, normalized=True)


def damp_sequence(omegas, k_values, tol: float = DAMP_INPUT_TOL) -> list[MatrixFamily]:
    """Damp a state sequence so nontrivial norms drop below exp(-1/k).

    Each input family must have block norms <= 1 + tol (states do); the
    k-th output is the input convolved with the damping family, so its
    nontrivial blocks obey norm <= exp(-1/k) + tol, with equality reached
    exactly when the input block has norm 1.
    """
    omegas = list(omegas)
    if len(omegas) != len(k_values):
        raise ValueError("k_values must align with the family sequence")
    out = []
    for F, k in zip(omegas, k_values):
        _require_normalized(F, "input family")
        for lab in F.labels:
            nrm = _linalg.spectral_norm(F.blocks[lab])
            if nrm > 1.0 + tol:
                raise ValueError(f"input block at {F.table.encode(lab)!r} has norm "
                                 f"{nrm:.12g} > 1 + {tol:g}")
        out.append(convolve(F, damping_family(F.table, k)))
    return out


def freeprod_hap_pipeline(seq1, seq2, wp: FreeProductTable, eps_decay: float,
                          conv_tols, k_values, tol: float = DEFAULT_TOL,
                          input_digest: str | None = None) -> CertificationReport:
    """Word-table certification of the free-product approximation argument.

    For each stage k the conditionally free product of the factor families
    is formed on the word table and three conditions are checked:

    (a) word-norm-bound: a word of length l has block norm <= exp(-l/k)+tol
        (Kronecker products multiply spectral norms, so damped letters give
        exponentially damped words);
    (b) identity-convergence: per word, ||block_k - I|| <= conv_tols[k];
    (c) c0-decay: the exceptional set at eps_decay is finite inside the
        truncation, tail verified, with at least one label decayed.

    Failures are reported with witnesses, never raised.
    """
    seq1, seq2 = list(seq1), list(seq2)
    k_values = list(k_values)
    conv_tols = [float(x) for x in conv_tols]
    if not (len(seq1) == len(seq2) == len(k_values) == len(conv_tols)):
        raise ValueError("seq1, seq2, k_values and conv_tols must have equal length")
    products = [cfree_state(F1, F2, wp) for F1, F2 in zip(seq1, seq2)]
    contexts = [f"k={k}" for k in k_values]
    conditions = (
        _norm_bound_condition(
            "word-norm-bound", "length-l word blocks damped below exp(-l/k) + tol",
            products, wp, k_values, tol, len, lambda i, l: f"{contexts[i]}, length {l}"),
        _identity_condition(products, wp, conv_tols, contexts,
                            "per-word ||block - I|| within the stage tolerance schedule"),
        _c0_condition(products, wp, eps_decay, contexts, "word"),
    )

    return CertificationReport(
        command="freeprod",
        input_digest=input_digest or family_content_digest(list(seq1) + list(seq2)),
        truncation=(f"word table: {len(wp)} words (max word length {wp.max_word_length}); "
                    f"factor1: {len(wp.factor1)} labels; factor2: {len(wp.factor2)} labels"),
        tolerances=(("tol", tol), ("eps_decay", eps_decay)),
        conditions=conditions,
        notes=(f"conv_tols: {', '.join(f'{x:g}' for x in conv_tols)}",
               f"k_values: {', '.join(str(k) for k in k_values)}"),
    )
