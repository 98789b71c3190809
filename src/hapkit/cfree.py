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
from .fourier import (DEFAULT_TOL, MatrixFamily, _by_side, _c0_condition,
                      _identity_condition, _norm_bound_condition, _require_normalized,
                      convolve, family_content_digest, stacked_blocks)
from .genfun import GeneratingFunctional
from .irreps import FreeProductTable
from .reports import CertificationReport

DAMP_INPUT_TOL = 1e-12


def _letter_stacks(F1, F2, wp: FreeProductTable, normalized: bool = False) -> dict:
    """The letter blocks of F1 and F2: ``stacks[factor, d]`` stacks the factor's
    nontrivial blocks of side d in table order.

    Raises ValueError unless F1 and F2 sit on the factor tables of ``wp`` (and,
    if ``normalized``, have the trivial block [1]).  If ``wp`` holds more than
    the trivial word, every nontrivial label is a one-letter word, and a
    KeyError names the first label without a block, factor 1 first.
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


def _word_groups(wp: FreeProductTable, positions: np.ndarray):
    """Groups of the nontrivial words at ``positions``, by one stable sort on
    (length, first factor, letter sides).  Per group (key, at, index), with
    ``key[j]`` the (factor, side) of the j-th letter, ``at`` the places in
    ``positions`` of its words, ascending, and ``index[i, j]`` the row of the
    j-th letter of ``positions[at[i]]`` in the stack ``key[j]`` of ``_letter_stacks``."""
    factors, sides, rows = _letter_places(wp)
    letters = wp.letters[positions]
    keys = np.column_stack([wp.lengths[positions], factors[letters[:, :1]], sides[letters]])
    order = np.lexsort(keys.T[::-1])  # stable: a group keeps the order of ``positions``
    keys, index = keys[order], rows[letters[order]]
    firsts = np.flatnonzero(np.diff(keys, axis=0, prepend=-1).any(axis=1)).tolist()
    for r0, r1 in zip(firsts, [*firsts[1:], len(order)]):
        k, start, *word_sides = keys[r0].tolist()  # the factors alternate from ``start``
        yield tuple(zip((start, 3 - start) * k, word_sides[:k])), order[r0:r1], index[r0:r1, :k]


def _letter_places(wp: FreeProductTable) -> tuple:
    """(factor, side, row in its stack of ``_letter_stacks``) of every letter,
    in the numbering of ``wp.letters``."""
    factors = np.repeat([1, 2], [len(wp.factor1) - 1, len(wp.factor2) - 1])
    sides = np.concatenate([wp.factor1.dims[1:], wp.factor2.dims[1:]])
    order = np.argsort(factors + 3 * sides, kind="stable")  # by (side, factor), stable
    kinds = (factors + 3 * sides)[order]
    rows = np.empty_like(sides)  # a letter's row counts the earlier letters of its kind
    rows[order] = np.arange(len(sides)) - np.searchsorted(kinds, kinds)
    return factors, sides, rows


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
    letters, words = _letter_stacks(phi1, phi2, wp, normalized=True), np.arange(1, len(wp))
    trivial = (np.zeros(1, dtype=np.intp), np.ones((1, 1, 1), dtype=np.complex128))
    return MatrixFamily(wp, stacked_blocks(wp, [trivial, *(
        (words[at], _kron_fold([letters[k][index[:, j]] for j, k in enumerate(key)]))
        for key, at, index in _word_groups(wp, words))]), normalized=True)


def cfree_generator(L1: GeneratingFunctional, L2: GeneratingFunctional,
                    wp: FreeProductTable) -> GeneratingFunctional:
    """Leibniz-rule generator of the conditionally free semigroup.

    The block at a word is the Kronecker sum of the letter blocks:
    sum_j I x ... x L^{a_j} x ... x I, in letter order.
    """
    parts, letters, words = [], _letter_stacks(L1, L2, wp), np.arange(1, len(wp))
    for key, at, index in _word_groups(wp, words):
        stacks = [letters[k][index[:, j]] for j, k in enumerate(key)]
        eyes = [np.broadcast_to(np.eye(s.shape[1], dtype=np.complex128), s.shape)
                for s in stacks]
        parts.append((words[at], sum(_kron_fold(eyes[:j] + [stack] + eyes[j + 1:])
                                     for j, stack in enumerate(stacks))))
    return GeneratingFunctional(wp, stacked_blocks(wp, parts))


def damping_family(table, k: int) -> MatrixFamily:
    """Family with blocks exp(-1/k) * I at nontrivial labels, [1] at the unit.

    This is the time-1/k semigroup family of the functional counit - haar;
    convolving by it multiplies every nontrivial block by exp(-1/k).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    c = math.exp(-1.0 / k)
    parts = [(at, np.repeat(c * np.eye(d, dtype=np.complex128)[np.newaxis], len(at), axis=0))
             for d, at in _by_side(table, np.arange(1, len(table))).items()]
    unit = (np.zeros(1, dtype=np.intp), np.ones((1, 1, 1), dtype=np.complex128))
    return MatrixFamily(table, stacked_blocks(table, [*parts, unit]), normalized=True)


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


_U = np.finfo(np.float64).eps / 2  # unit roundoff of float64


class _WordValues:
    """||W|| and ||W - I|| of every word block W at every stage of a pipeline.

    The arrays are stage-major: row ``s * len(wp) + j`` is word j at stage s,
    whose letters are the blocks of ``seq1[s]`` and ``seq2[s]``.

    ``norms`` and ``deviations`` are read from the letters' eigenvalues,
    without forming W: for Hermitian letters A_j, the eigenvalues of W = A_1
    x ... x A_l are the products of theirs (Van Loan, "The ubiquitous
    Kronecker product", JCAM 2000), so ||W|| = prod_j max|lambda| and
    ||W - I|| = max |prod_j lambda - 1|; a letter that is not finite or not
    exactly Hermitian gives NaN, always ``np.nan``: IEEE 754 leaves a NaN's
    sign open, and numpy's loops pass on either operand's.  Rounding is
    monotone, so the least and greatest product of a word's first j letters,
    multiplied left to right, are among the products of the first j - 1
    letters' extremes with the j-th letter's, and |x - 1| peaks at one of
    them: each letter's extremes give bitwise what every product gives, save
    inf * 0, NaN wherever it falls.

    ``margins`` = 32 l (D + sum d_j) u N, with side D = prod d_j, the integer
    rounded once, and N = max(1, prod ||A_j||), bound the gap to the values
    of the formed block, which ``exact`` computes.  By first-order
    backward-error bounds (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002) the eigenvalues move the products by about (sum d_j +
    l) u N, forming W moves its norm by about l sqrt(D) u N and its SVD is
    off by about D u N; a test keeps the gap seen below an eighth of the
    margin.  A margin that is not finite is NaN, so its word is formed.

    A word of 1x1 letters whose norm and deviation are both 0 or in
    [2**-400, 2**400] has margin 0: its estimates are the formed values.
    ``_kron_fold`` forms it as the same left-to-right products, |fl(ab)| =
    fl(|a| |b|), and the SVD of a 1x1 block is its absolute value bitwise
    when LAPACK does not rescale it, as it does not in that range.
    """

    def __init__(self, seq1, seq2, wp: FreeProductTable):
        stages = [_letter_stacks(F1, F2, wp, normalized=True) for F1, F2 in zip(seq1, seq2)]
        # every stage has the same stacks: (stages, rows, d, d) per (factor, side)
        self._letters = {k: np.stack([s[k] for s in stages]) for k in stages[0]}
        self._wp, self._n = wp, len(wp)
        factors, sides, _ = _letter_places(wp)
        # per stage and letter: the least, greatest, greatest |.| and least |.| eigenvalue
        ends = np.empty((4, len(stages), len(sides)))
        for (f, d), a in self._letters.items():
            lam = _linalg.hermitian_eigenvalues(a.reshape(-1, d, d)).reshape(a.shape[:3])
            ends[:, :, (factors == f) & (sides == d)] = (
                lam[..., 0], lam[..., -1], np.abs(lam).max(axis=2), np.abs(lam).min(axis=2))
        # per word, over its letters so far: the least and greatest product of their
        # eigenvalues, the greatest and least |product|, and the sum of their sides
        acc = np.ones((4, len(stages), self._n))
        low, high, norms, least = acc
        side_sums = np.zeros(self._n, dtype=sides.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(wp.letters.shape[1]):  # the words of length > j are a suffix
                rows = slice(np.searchsorted(wp.lengths, j, side="right"), None)
                letters = wp.letters[rows, j]
                a, b, big, small = letter = ends[:, :, letters]  # a copy, used up below
                lost = np.isnan(norms[:, rows] * small + least[:, rows] * big)  # inf * 0
                acc[2:, :, rows] *= letter[2:]
                x, y = low[:, rows], high[:, rows]  # to the least and greatest of xa, xb, ya, yb
                cross = np.multiply(x, b, out=small), np.multiply(y, a, out=big)
                x *= a
                y *= b
                np.minimum(x, y, out=a)
                np.maximum(x, y, out=y)
                np.maximum(y, np.maximum(*cross, out=b), out=y)
                np.minimum(a, np.minimum(*cross, out=x), out=x)
                x[lost] = np.nan
                side_sums[rows] += sides[letters]
            deviations = np.maximum(np.abs(low - 1.0), np.abs(high - 1.0))
            wide = 32 * len(wp.letters.T) * (int(wp.dims.max()) + int(side_sums.max())) >= 2**63
            sizes = wp.dims.astype(object if wide else np.int64) + side_sums  # D + sum d_j, exact
            margins = (32 * wp.lengths * sizes).astype(float) * _U * np.maximum(1.0, norms)
        margins[~np.isfinite(margins)] = np.nan
        plain = [(v == 0) | ((2.0**-400 <= v) & (v <= 2.0**400)) for v in (norms, deviations)]
        margins[(wp.dims == 1) & plain[0] & plain[1]] = 0.0  # exact: see the docstring
        for a in (norms, deviations):
            a[np.isnan(a)] = np.nan
        self.norms, self.deviations, self.margins = map(np.ravel, (norms, deviations, margins))
        self._exact = {False: self.norms.copy(), True: self.deviations.copy()}
        self._known = {False: self.margins == 0, True: self.margins == 0}

    def exact(self, rows: np.ndarray, minus_identity: bool) -> np.ndarray:
        """||W|| (or ||W - I||) of the formed blocks at stage-major ``rows``: the
        value ``_linalg.spectral_norms`` gives for the ``_kron_fold`` of the letters."""
        values, known = self._exact[minus_identity], self._known[minus_identity]
        todo = rows[~known[rows]]
        stage, word = np.divmod(todo, self._n)
        for key, at, index in _word_groups(self._wp, word):
            blocks = _kron_fold([self._letters[k][stage[at], index[:, j]]
                                 for j, k in enumerate(key)])  # gathered: ours to change
            if minus_identity:
                blocks -= np.eye(blocks.shape[-1])
            values[todo[at]] = _linalg.spectral_norms(blocks)
            known[todo[at]] = True
        return values[rows]


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
    when the report shows the row and its margin is not 0.  A word of 1x1
    letters with plain values has margin 0, so it is never formed.  Every
    reported value is the formed block's.  Failures are reported with
    witnesses, never raised.
    """
    seq1, seq2 = list(seq1), list(seq2)
    k_values = list(k_values)
    conv_tols = [float(x) for x in conv_tols]
    if not (len(seq1) == len(seq2) == len(k_values) == len(conv_tols)):
        raise ValueError("seq1, seq2, k_values and conv_tols must have equal length")
    if not seq1:
        raise ValueError("empty family sequence")
    values, grid = _WordValues(seq1, seq2, wp), (len(k_values), len(wp))
    contexts = [f"k={k}" for k in k_values]
    norms, exact_norms = values.norms.reshape(grid), lambda rows: values.exact(rows, False)
    c0 = _c0_condition(norms, wp, eps_decay, contexts, "word", margin=values.margins,
                       exact=exact_norms)  # first: a bad eps_decay raises before any block forms
    conditions = (
        _norm_bound_condition(
            "word-norm-bound", "length-l word blocks damped below exp(-l/k) + tol",
            norms, wp.lengths, wp, k_values, tol,
            lambda i, l: f"{contexts[i]}, length {l}", margin=values.margins, exact=exact_norms),
        _identity_condition(values.deviations.reshape(grid), wp, conv_tols, contexts,
                            "per-word ||block - I|| within the stage tolerance schedule",
                            margin=values.margins,
                            exact=lambda rows: values.exact(rows, True)),
        c0,
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
