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

from . import _linalg
from .fourier import (DEFAULT_TOL, MatrixFamily, _by_side, _c0_condition, _constant_blocks,
                      _identity_condition, _norm_bound_condition, _require_c0_eps,
                      _require_normalized, convolve, family_content_digest,
                      max_block_deviation, stacked_blocks)
from .genfun import GeneratingFunctional
from .irreps import FreeProductTable
from .reports import CertificationReport

DAMP_INPUT_TOL = 1e-12


def _letter_stacks(F1, F2, wp: FreeProductTable, normalized: bool = False) -> dict:
    """The letter blocks of F1 and F2: ``stacks[factor, d]`` stacks the factor's
    nontrivial blocks of side d in table order.

    Raises ValueError unless F1 and F2 sit on the factor tables of ``wp`` (and,
    if ``normalized``, have the trivial block [1]).  Raises KeyError for the
    first word in table order with a letter that has no block: when ``wp``
    holds more than the trivial word, every nontrivial label is a one-letter
    word, so that is the first label without a block, factor 1 first.
    """
    if F1.table != wp.factor1 or F2.table != wp.factor2:
        raise ValueError("factor data does not match the word table's factors")
    if normalized:
        _require_normalized(F1.blocks, "factor 1 family")
        _require_normalized(F2.blocks, "factor 2 family")
    stacks = {}
    if len(wp) > 1:
        for fi, F in ((1, F1), (2, F2)):
            missing = np.flatnonzero(F.rows[1:] < 0)
            if missing.size:
                lab = F.table.nontrivial_labels[missing[0]]
                raise KeyError(f"missing letter block: factor {fi}, label {lab.id!r}")
            for d, at in _by_side(F.table, np.arange(1, len(F.table))).items():
                stacks[fi, d] = F.blocks.gather(d, at)
    return stacks


def _word_groups(wp: FreeProductTable) -> list:
    """The nontrivial words of ``wp``, grouped by their letters' (factor, side).

    One (key, positions, index) per group: ``key[j]`` is the (factor, side)
    of the j-th letter, ``positions`` are the places of the group's words in
    ``wp``, ascending, and ``index[i, j]`` is the row of the j-th letter of
    word ``positions[i]`` in the stack ``key[j]`` of ``_letter_stacks``.
    Read from the table's letter arrays and its factors' dims alone.
    """
    sides, rows = [f.dims[1:] for f in (wp.factor1, wp.factor2)], []
    for side in sides:  # a letter's row counts the factor's earlier letters of its side
        row = np.zeros_like(side)
        for d in set(side.tolist()):
            row[side == d] = np.arange(np.count_nonzero(side == d))
        rows.append(row)
    firsts = np.flatnonzero(np.diff(wp.lengths * 3 + wp.starts, prepend=-1))
    out = []
    for r0, r1 in zip(firsts[1:], [*firsts[2:], len(wp)]):  # row 0 is the trivial word
        k, start = int(wp.lengths[r0]), int(wp.starts[r0])
        factors = [start if j % 2 == 0 else 3 - start for j in range(k)]
        letters = [wp.letters[r0:r1, j] for j in range(k)]
        letter_sides = np.stack([sides[f - 1][x] for x, f in zip(letters, factors)], axis=1)
        order = np.lexsort(letter_sides.T[::-1])  # stable, by the letters' sides in letter order
        cuts = np.flatnonzero(np.diff(letter_sides[order], axis=0).any(axis=1)) + 1
        for at in np.split(order, cuts):
            out.append((tuple(zip(factors, letter_sides[at[0]].tolist())), at + r0,
                        np.stack([rows[f - 1][x[at]] for x, f in zip(letters, factors)], axis=1)))
    return out


def _word_stacks(stacks: dict, wp: FreeProductTable):
    """(positions, stacks) per group of ``_word_groups``, where ``stacks[j][i]``
    is the letter block at the j-th letter of the word at ``positions[i]``;
    ``stacks`` is what ``_letter_stacks`` returns."""
    for key, positions, index in _word_groups(wp):
        yield positions, [stacks[k][index[:, j]] for j, k in enumerate(key)]


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


def cfree_state(phi1: MatrixFamily, phi2: MatrixFamily,
                wp: FreeProductTable) -> MatrixFamily:
    """Conditionally free product family on the word table.

    The block at the word (a_1, ..., a_l) is the Kronecker product of the
    factor blocks in letter order; the trivial word gets [1].  Words with
    the same letter dimensions are built together, as one stack.
    """
    letters = _letter_stacks(phi1, phi2, wp, normalized=True)
    trivial = (np.zeros(1, dtype=np.intp), np.ones((1, 1, 1), dtype=np.complex128))
    return MatrixFamily(wp, stacked_blocks(wp, [trivial, *(
        (positions, _kron_fold(stacks)) for positions, stacks in _word_stacks(letters, wp))]),
        normalized=True)


def cfree_generator(L1: GeneratingFunctional, L2: GeneratingFunctional,
                    wp: FreeProductTable) -> GeneratingFunctional:
    """Leibniz-rule generator of the conditionally free semigroup.

    The block at a word is the Kronecker sum of the letter blocks:
    sum_j I x ... x L^{a_j} x ... x I, in letter order.
    """
    parts = []
    for positions, stacks in _word_stacks(_letter_stacks(L1, L2, wp), wp):
        eyes = [np.broadcast_to(np.eye(s.shape[1], dtype=np.complex128), s.shape)
                for s in stacks]
        side = math.prod(s.shape[1] for s in stacks)
        acc = np.zeros((len(positions), side, side), dtype=np.complex128)
        for j, stack in enumerate(stacks):
            acc = acc + _kron_fold(eyes[:j] + [stack] + eyes[j + 1:])
        parts.append((positions, acc))
    return GeneratingFunctional(wp, stacked_blocks(wp, parts))


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
        _require_normalized(F.blocks, "input family")
        over = np.flatnonzero(~(F.norms <= 1.0 + DAMP_INPUT_TOL))
        if over.size:
            raise ValueError(f"input block at {F.table.encode(F.labels[over[0]])!r} has norm "
                             f"{F.norms[over[0]]:.12g} > 1 + {DAMP_INPUT_TOL:g}")
        out.append(convolve(F, damping_family(F.table, k)))
    return out


# Unit roundoff of float64.
_U = np.finfo(np.float64).eps / 2


class _WordValues:
    """||W|| and ||W - I|| of every word block W at every stage of a pipeline.

    The arrays are stage-major: row ``s * len(wp) + j`` is word j at stage s,
    whose letters are the blocks of ``seq1[s]`` and ``seq2[s]``.

    ``norms`` and ``deviations`` are read from the letters, without forming
    W.  For Hermitian letters A_j, W = A_1 x ... x A_l is Hermitian with the
    products of the letters' eigenvalues as its eigenvalues (Van Loan, "The
    ubiquitous Kronecker product", JCAM 2000), so ||W|| = prod_j max|lambda|
    and ||W - I|| = max |prod_j lambda - 1|.  A word with a letter that is
    not finite or not exactly Hermitian gets NaN.

    ``margins`` bound the gap between these values and the ones the formed
    block gives, which ``exact`` computes on demand.  With side D = prod d_j
    and N = max(1, prod ||A_j||), first-order backward-error bounds (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002) give: each
    eigenvalue of A_j is off by at most about d_j u ||A_j||, so the products
    by about (sum d_j + l) u N; the formed block carries l - 1 roundings per
    entry, at most about l sqrt(D) u N in norm; its SVD is off by about
    D u N.  ``margins`` = 32 l (D + sum d_j) u N covers their sum with room:
    a test keeps the gap seen below an eighth of it.  The trivial word's
    values, 1 and 0, are exact.
    """

    def __init__(self, seq1, seq2, wp: FreeProductTable):
        stages = [_letter_stacks(F1, F2, wp, normalized=True) for F1, F2 in zip(seq1, seq2)]
        # every stage has the same stacks: (stages, rows, d, d) per (factor, side)
        self._letters = {k: np.stack([s[k] for s in stages]) for k in stages[0]}
        self._groups = _word_groups(wp)
        self._n = n = len(wp)
        self._where = np.zeros((n, 2), dtype=np.intp)  # (group, row) of every word
        for g, (_, positions, _) in enumerate(self._groups):
            self._where[positions, 0], self._where[positions, 1] = g, np.arange(len(positions))
        norms, deviations, margins = (np.full((len(stages), n), x) for x in (1.0, 0.0, 0.0))
        spectra = {k: _linalg.hermitian_eigenvalues(a.reshape(-1, *a.shape[2:]))
                   .reshape(a.shape[:3]) for k, a in self._letters.items()}
        for key, positions, index in self._groups:  # (stages, words, d) arrays
            letters = [spectra[k][:, index[:, j]] for j, k in enumerate(key)]
            norm, products = np.abs(letters[0]).max(axis=2), letters[0]
            for lam in letters[1:]:
                norm = norm * np.abs(lam).max(axis=2)
                products = (products[..., np.newaxis] * lam[..., np.newaxis, :]).reshape(
                    *lam.shape[:2], -1)
            sides = [d for _, d in key]
            norms[:, positions] = norm
            deviations[:, positions] = np.abs(products - 1.0).max(axis=2)
            margins[:, positions] = (32 * len(key) * (math.prod(sides) + sum(sides)) * _U
                                     * np.maximum(1.0, norm))
        margins[~np.isfinite(margins)] = np.nan
        self.norms, self.deviations = norms.ravel(), deviations.ravel()
        self.margins = margins.ravel()
        self._exact = {False: self.norms.copy(), True: self.deviations.copy()}
        self._known = {False: self.margins == 0, True: self.margins == 0}

    def exact(self, rows: np.ndarray, minus_identity: bool) -> np.ndarray:
        """||W|| (or ||W - I||) of the formed blocks at stage-major ``rows``: the
        value ``_linalg.spectral_norms`` gives for the ``_kron_fold`` of the letters."""
        values, known = self._exact[minus_identity], self._known[minus_identity]
        todo = rows[~known[rows]]
        stage, word = np.divmod(todo, self._n)
        group, at = self._where[word].T
        for g in sorted(set(group.tolist())):
            here = group == g
            key, _, index = self._groups[g]
            index = index[at[here]]
            blocks = _kron_fold([self._letters[k][stage[here], index[:, j]]
                                 for j, k in enumerate(key)])
            values[todo[here]] = _linalg.spectral_norms(blocks, minus_identity)
            known[todo[here]] = True
        return values[rows]

    def c0_scans(self, eps: float) -> list:
        """Per stage: (words whose norm is not <= eps, how many of them are
        nontrivial, no unspecified words), deciding from the estimate where
        the margin allows."""
        _require_c0_eps(eps)
        unsure = np.flatnonzero(~((self.norms + self.margins <= eps)
                                  | (self.norms - self.margins > eps)))
        over = self.norms - self.margins > eps
        over[unsure] = ~(self.exact(unsure, False) <= eps)
        return [(int(np.count_nonzero(o)), int(np.count_nonzero(o[1:])), ())
                for o in over.reshape(-1, self._n)]


def freeprod_hap_pipeline(seq1, seq2, wp: FreeProductTable, eps_decay: float,
                          conv_tols, k_values, tol: float = DEFAULT_TOL,
                          input_digest: str | None = None) -> CertificationReport:
    """Word-table certification of the free-product approximation argument.

    For each stage k the conditionally free product of the factor families
    is taken on the word table and three conditions are checked:

    (a) word-norm-bound: a word of length l has block norm <= exp(-l/k)+tol
        (Kronecker products multiply spectral norms, so damped letters give
        exponentially damped words);
    (b) identity-convergence: per word, ||block_k - I|| <= conv_tols[k];
    (c) c0-decay: the exceptional set at eps_decay is finite inside the
        truncation, tail verified, with at least one label decayed.

    Each word is decided from its letters' eigenvalues (``_WordValues``);
    a word block is formed only when its margin cannot settle a row, or
    when the report shows the row.  Every reported value is the formed
    block's.  Failures are reported with witnesses, never raised.
    """
    seq1, seq2 = list(seq1), list(seq2)
    k_values = list(k_values)
    conv_tols = [float(x) for x in conv_tols]
    if not (len(seq1) == len(seq2) == len(k_values) == len(conv_tols)):
        raise ValueError("seq1, seq2, k_values and conv_tols must have equal length")
    if not seq1:
        raise ValueError("empty family sequence")
    values = _WordValues(seq1, seq2, wp)
    n = len(wp)
    contexts = [f"k={k}" for k in k_values]
    norms, margins = (a.reshape(-1, n)[:, 1:] for a in (values.norms, values.margins))
    conditions = (
        # the trivial word, of length 0, comes first: without it row r is word
        # r % (n - 1) + 1 at stage r // (n - 1), row r + r // (n - 1) + 1 of ``values``
        _norm_bound_condition(
            "word-norm-bound", "length-l word blocks damped below exp(-l/k) + tol",
            [(np.arange(1, n), wp.lengths[1:], row) for row in norms], wp, k_values, tol,
            lambda i, l: f"{contexts[i]}, length {l}", margin=margins.ravel(),
            exact=lambda rows: values.exact(rows + rows // (n - 1) + 1, False)),
        _identity_condition(values.deviations.reshape(-1, n), wp, conv_tols, contexts,
                            "per-word ||block - I|| within the stage tolerance schedule",
                            margin=values.margins,
                            exact=lambda rows: values.exact(rows, True)),
    )
    c0 = _c0_condition(values.c0_scans(eps_decay), wp, eps_decay, contexts, "word")

    return CertificationReport(
        command="freeprod",
        input_digest=input_digest or family_content_digest(list(seq1) + list(seq2)),
        truncation=(f"word table: {len(wp)} words (max word length {wp.max_word_length}); "
                    f"factor1: {len(wp.factor1)} labels; factor2: {len(wp.factor2)} labels"),
        tolerances=(("tol", tol), ("eps_decay", eps_decay)),
        conditions=conditions + (c0,),
        notes=(f"conv_tols: {', '.join(f'{x:g}' for x in conv_tols)}",
               f"k_values: {', '.join(str(k) for k in k_values)}"),
    )
