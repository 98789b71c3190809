"""Conditionally free products over free-product word tables.

The dual free product has labels given by alternating words of nontrivial
factor labels.  The conditionally free product (relative to the Haar
states) of two normalized families acts on a word as the Kronecker product
of the factor blocks in letter order; its generator obeys the Leibniz rule,
a Kronecker sum over the letters.  Both use row-major index flattening over
the letters (numpy's ``kron`` convention, ``kron(A, B)`` at the word (a, b)).

The free-product certification pipeline consumes two pre-damped sequences
(nontrivial block norms at stage k at most exp(-1/k)) and verifies, word by
word, the tensor-multiplicativity bound norm <= exp(-l/k) for words of
length l, the pointwise convergence to identity blocks, and c0 decay on the
word table.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import (DEFAULT_TOL, MatrixFamily, _c0_condition, _constant_blocks,
                      _identity_condition, _norm_bound_condition, _require_normalized,
                      convolve, family_content_digest, max_block_deviation)
from .genfun import GeneratingFunctional
from .irreps import FreeProductTable
from .reports import CertificationReport

DAMP_INPUT_TOL = 1e-12


def _check_factor_tables(wp: FreeProductTable, F1, F2) -> None:
    if F1.table != wp.factor1 or F2.table != wp.factor2:
        raise ValueError("factor data does not match the word table's factors")


def _word_stacks(F1, F2, wp: FreeProductTable):
    """The nontrivial words of ``wp``, grouped by their (factor, letter dim) sequence.

    Yields (words, stacks) per group, words in table order, where
    ``stacks[j][i]`` is the block of F1 or F2 at the j-th letter of
    ``words[i]``.
    """
    slots, letter_stacks = {}, {}
    for fi, F in ((1, F1), (2, F2)):
        by_dim = {}
        for lab, blk in F.nontrivial_blocks():
            same_dim = by_dim.setdefault(blk.shape[0], [])
            slots[fi, lab.id] = (fi, blk.shape[0]), len(same_dim)
            same_dim.append(blk)
        letter_stacks.update(((fi, d), np.stack(blks)) for d, blks in by_dim.items())
    groups = {}
    try:
        for word, _ in wp:
            if word.letters:
                key, rows = zip(*[slots[fi, lab.id] for fi, lab in word.letters])
                words, index = groups.setdefault(key, ([], []))
                words.append(word)
                index.append(rows)
    except KeyError as exc:
        fi, lab_id = exc.args[0]
        raise KeyError(f"missing letter block: factor {fi}, label {lab_id!r}") from None
    for key, (words, index) in groups.items():
        index = np.array(index)
        yield words, [letter_stacks[k][index[:, j]] for j, k in enumerate(key)]


def _kron_fold(stacks) -> np.ndarray:
    """Matrix-wise Kronecker products of (n, d_j, d_j) stacks, left to right.

    Each step forms the elementwise products ``np.kron`` forms, in the same
    order, so matrix i of the result is ``reduce(np.kron, [s[i] for s in
    stacks])`` bitwise.  A single stack is returned as it is; otherwise
    the result owns its memory.
    """
    acc = stacks[0]
    for nxt in stacks[1:]:
        n, p, q = len(acc), acc.shape[1], nxt.shape[1]
        out = np.empty((n, p * q, p * q), dtype=np.complex128)
        np.multiply(acc[:, :, None, :, None], nxt[:, None, :, None, :],
                    out=out.reshape(n, p, q, p, q))
        acc = out
    return acc


def _word_blocks(words, stack: np.ndarray) -> dict:
    """word -> read-only view of its matrix in ``stack``, which is frozen too."""
    stack.setflags(write=False)
    return dict(zip(words, stack))


def cfree_state(phi1: MatrixFamily, phi2: MatrixFamily,
                wp: FreeProductTable) -> MatrixFamily:
    """Conditionally free product family on the word table.

    The block at the word (a_1, ..., a_l) is the Kronecker product of the
    factor blocks in letter order; the trivial word gets [1].  Words with
    the same letter dimensions are built together, as one stack.
    """
    _check_factor_tables(wp, phi1, phi2)
    _require_normalized(phi1, "factor 1 family")
    _require_normalized(phi2, "factor 2 family")
    blocks = _word_blocks([wp.trivial], np.ones((1, 1, 1), dtype=np.complex128))
    for words, stacks in _word_stacks(phi1, phi2, wp):
        blocks.update(_word_blocks(words, _kron_fold(stacks)))
    return MatrixFamily(wp, blocks, normalized=True)


def cfree_generator(L1: GeneratingFunctional, L2: GeneratingFunctional,
                    wp: FreeProductTable) -> GeneratingFunctional:
    """Leibniz-rule generator of the conditionally free semigroup.

    The block at a word is the Kronecker sum of the letter blocks:
    sum_j I x ... x L^{a_j} x ... x I, in letter order.
    """
    _check_factor_tables(wp, L1, L2)
    blocks = {}
    for words, stacks in _word_stacks(L1, L2, wp):
        eyes = [np.broadcast_to(np.eye(s.shape[1], dtype=np.complex128), s.shape)
                for s in stacks]
        side = math.prod(s.shape[1] for s in stacks)
        acc = np.zeros((len(words), side, side), dtype=np.complex128)
        for j, stack in enumerate(stacks):
            acc = acc + _kron_fold(eyes[:j] + [stack] + eyes[j + 1:])
        blocks.update(_word_blocks(words, acc))
    return GeneratingFunctional(wp, blocks)


def check_diam3(phi1: MatrixFamily, phi2: MatrixFamily,
                omega1: MatrixFamily, omega2: MatrixFamily,
                wp: FreeProductTable) -> tuple[bool, float]:
    """Exactness of product-vs-convolution compatibility.

    Verifies blockwise that convolving two conditionally free products
    equals the conditionally free product of the factorwise convolutions.
    The mixed-product identity (A x B)(C x D) = AC x BD makes this exact up
    to rounding, so a residual beyond ~1e-12 signals an implementation bug.
    """
    lhs = convolve(cfree_state(phi1, phi2, wp), cfree_state(omega1, omega2, wp))
    rhs = cfree_state(convolve(phi1, omega1), convolve(phi2, omega2), wp)
    worst = max_block_deviation(lhs, rhs)
    return worst <= 1e-12, worst


def damping_family(table, k: int) -> MatrixFamily:
    """Family with blocks exp(-1/k) * I at nontrivial labels, [1] at the unit.

    This is the time-1/k semigroup family of the functional counit - haar;
    convolving by it multiplies every nontrivial block by exp(-1/k).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return MatrixFamily(table, _constant_blocks(table, math.exp(-1.0 / k), 1.0),
                        normalized=True)


def damp_sequence(omegas, k_values) -> list[MatrixFamily]:
    """Damp a state sequence so nontrivial norms drop below exp(-1/k).

    Each input family must have block norms <= 1 + DAMP_INPUT_TOL (states
    do, a NaN norm does not); the k-th output is the input convolved with
    the damping family, so its nontrivial blocks obey norm <= exp(-1/k) +
    DAMP_INPUT_TOL, with equality exactly where the input norm is 1.
    """
    omegas = list(omegas)
    if len(omegas) != len(k_values):
        raise ValueError("k_values must align with the family sequence")
    out = []
    for F, k in zip(omegas, k_values):
        _require_normalized(F, "input family")
        over = np.flatnonzero(~(F.norms <= 1.0 + DAMP_INPUT_TOL))
        if over.size:
            raise ValueError(f"input block at {F.table.encode(F.labels[over[0]])!r} has norm "
                             f"{F.norms[over[0]]:.12g} > 1 + {DAMP_INPUT_TOL:g}")
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
