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
from .fourier import (DEFAULT_TOL, MatrixFamily, _c0_condition, _constant_blocks,
                      _identity_condition, _norm_bound_condition, _require_c0_eps,
                      _require_normalized, _rows, convolve, family_content_digest,
                      max_block_deviation, stacked_blocks)
from .genfun import GeneratingFunctional
from .irreps import FreeProductTable
from .reports import CertificationReport

DAMP_INPUT_TOL = 1e-12


def _check_factor_tables(wp: FreeProductTable, F1, F2) -> None:
    if F1.table != wp.factor1 or F2.table != wp.factor2:
        raise ValueError("factor data does not match the word table's factors")


def _letter_stacks(F1, F2):
    """Where the letter blocks of F1 and F2 sit: (slots, stacks).

    ``stacks[factor, side]`` stacks the factor's nontrivial blocks of that
    side in table order.  ``slots`` is two arrays over the letters, the
    nontrivial labels of factor 1 and then those of factor 2: the side of
    each letter's block (0 where the family has none) and its row in that
    stack.
    """
    sides, rows, stacks = [], [], {}
    for fi, F in ((1, F1), (2, F2)):
        side = np.where(F.rows[1:] >= 0, F.table.dims[1:], 0).astype(np.intp)
        row = np.zeros_like(side)
        for d in sorted(set(side[side > 0].tolist())):
            at = np.flatnonzero(side == d)
            row[at] = np.arange(len(at))
            stacks[fi, d] = F.blocks.gather(d, at + 1)
        sides.append(side)
        rows.append(row)
    return (np.concatenate(sides), np.concatenate(rows)), stacks


def _word_groups(wp: FreeProductTable, slots) -> list:
    """The nontrivial words of ``wp``, grouped by their sequence of letter stacks.

    One (key, positions, index) per group: ``positions`` are the places of
    its words in ``wp``, ascending, and ``index[i, j]`` is the row of the
    j-th letter of word ``positions[i]`` in the stack ``key[j]``.  Read from
    the table's letter arrays; ``slots`` is what ``_letter_stacks`` gives.
    """
    sides, rows = slots
    offsets = (0, len(wp.factor1) - 1)  # where each factor's letters start in ``slots``
    # Number each factor's sides 0, 1, ...: a word's group is its sides in that
    # mixed radix, below the size of its (length, first factor) block.
    kinds, radix = np.empty_like(sides), []
    for part in (slice(0, offsets[1]), slice(offsets[1], None)):
        values = sorted(set(sides[part].tolist()))
        kinds[part] = np.searchsorted(values, sides[part])
        radix.append(len(values))
    firsts = np.flatnonzero(np.diff(wp.lengths * 3 + wp.starts, prepend=-1))
    out = []
    for r0, r1 in zip(firsts[1:], [*firsts[2:], len(wp)]):  # row 0 is the trivial word
        k, start = int(wp.lengths[r0]), int(wp.starts[r0])
        factors = [start if j % 2 == 0 else 3 - start for j in range(k)]
        letters = [wp.letters[r0:r1, j] + offsets[fi - 1] for j, fi in enumerate(factors)]
        side = np.stack([sides[x] for x in letters], axis=1)
        missing = np.flatnonzero(side == 0)
        if missing.size:  # the first in table order, as a loop over the words finds it
            w, j = np.divmod(missing[0], k)
            lab = (wp.factor1, wp.factor2)[factors[j] - 1].nontrivial_labels[
                wp.letters[r0 + w, j]]
            raise KeyError(f"missing letter block: factor {factors[j]}, label {lab.id!r}")
        group = np.zeros(r1 - r0, dtype=np.intp)
        for x, fi in zip(letters, factors):
            group = group * radix[fi - 1] + kinds[x]
        order = np.argsort(group, kind="stable")
        for at in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
            out.append((tuple(zip(factors, side[at[0]].tolist())), at + r0,
                        np.stack([rows[x[at]] for x in letters], axis=1)))
    return out


def _word_stacks(letters, wp: FreeProductTable):
    """(positions, stacks) per group of ``_word_groups``, where ``stacks[j][i]``
    is the letter block at the j-th letter of the word at ``positions[i]``;
    ``letters`` is what ``_letter_stacks`` returns."""
    slots, stacks = letters
    for key, positions, index in _word_groups(wp, slots):
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


def _state_letters(phi1: MatrixFamily, phi2: MatrixFamily, wp: FreeProductTable):
    """``_letter_stacks`` of two normalized factor families of ``wp``."""
    _check_factor_tables(wp, phi1, phi2)
    _require_normalized(phi1.blocks, "factor 1 family")
    _require_normalized(phi2.blocks, "factor 2 family")
    return _letter_stacks(phi1, phi2)


def cfree_state(phi1: MatrixFamily, phi2: MatrixFamily,
                wp: FreeProductTable) -> MatrixFamily:
    """Conditionally free product family on the word table.

    The block at the word (a_1, ..., a_l) is the Kronecker product of the
    factor blocks in letter order; the trivial word gets [1].  Words with
    the same letter dimensions are built together, as one stack.
    """
    letters = _state_letters(phi1, phi2, wp)
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
    _check_factor_tables(wp, L1, L2)
    parts = []
    for positions, stacks in _word_stacks(_letter_stacks(L1, L2), wp):
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
    """||W|| and ||W - I|| of every word block W of one stage, in table order.

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

    def __init__(self, F1, F2, wp: FreeProductTable, layouts: dict):
        slots, self._letters = _state_letters(F1, F2, wp)
        key = tuple(a.tobytes() for a in slots)
        if key not in layouts:  # stages with the same letter layout share their word groups
            groups = _word_groups(wp, slots)
            where = np.zeros((len(wp), 2), dtype=np.intp)  # (group, row) of every word
            for g, (_, positions, _) in enumerate(groups):
                where[positions] = np.column_stack([np.full(len(positions), g),
                                                    np.arange(len(positions))])
            layouts[key] = groups, where
        self._groups, self._where = layouts[key]
        n = len(wp)
        self.norms, self.deviations, self.margins = np.ones(n), np.zeros(n), np.zeros(n)
        spectra = {k: _linalg.hermitian_eigenvalues(stack) for k, stack in self._letters.items()}
        for key, positions, index in self._groups:
            letters = [spectra[k][index[:, j]] for j, k in enumerate(key)]
            norm, products = np.abs(letters[0]).max(axis=1), letters[0]
            for lam in letters[1:]:
                norm = norm * np.abs(lam).max(axis=1)
                products = (products[:, :, np.newaxis] * lam[:, np.newaxis, :]).reshape(
                    len(lam), -1)
            sides = [d for _, d in key]
            self.norms[positions] = norm
            self.deviations[positions] = np.abs(products - 1.0).max(axis=1)
            self.margins[positions] = (32 * len(key) * (math.prod(sides) + sum(sides)) * _U
                                       * np.maximum(1.0, norm))
        self.margins[~np.isfinite(self.margins)] = np.nan
        self._exact = {False: self.norms.copy(), True: self.deviations.copy()}
        self._known = {False: self.margins == 0, True: self.margins == 0}

    def exact(self, positions: np.ndarray, minus_identity: bool) -> np.ndarray:
        """||W|| (or ||W - I||) of the formed blocks at ``positions``: the value
        ``_linalg.spectral_norms`` gives for the ``_kron_fold`` of the letters."""
        values, known = self._exact[minus_identity], self._known[minus_identity]
        todo = positions[~known[positions]]
        for g in sorted(set(self._where[todo, 0].tolist())):
            at = todo[self._where[todo, 0] == g]
            key, _, index = self._groups[g]
            rows = index[self._where[at, 1]]
            blocks = _kron_fold([self._letters[k][rows[:, j]] for j, k in enumerate(key)])
            values[at] = _linalg.spectral_norms(blocks, minus_identity)
            known[at] = True
        return values[positions]

    def c0_scan(self, eps: float) -> tuple:
        """(words whose norm is not <= eps, how many of them are nontrivial, no
        unspecified words), deciding from the estimate where the margin allows."""
        _require_c0_eps(eps)
        unsure = np.flatnonzero(~((self.norms + self.margins <= eps)
                                  | (self.norms - self.margins > eps)))
        over = self.norms - self.margins > eps
        over[unsure] = ~(self.exact(unsure, False) <= eps)
        return int(np.count_nonzero(over)), int(np.count_nonzero(over[1:])), ()


def _stagewise(stages, positions: np.ndarray, minus_identity: bool):
    """``exact`` for condition rows that run stage-major over ``positions``."""
    def exact(rows):
        stage, col = np.divmod(rows, len(positions))
        out = np.empty(len(rows))
        for s in sorted(set(stage.tolist())):
            here = stage == s
            out[here] = stages[s].exact(positions[col[here]], minus_identity)
        return out
    return exact


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
    layouts = {}
    stages = [_WordValues(F1, F2, wp, layouts) for F1, F2 in zip(seq1, seq2)]
    everywhere = np.arange(len(wp))
    contexts = [f"k={k}" for k in k_values]
    conditions = (
        _norm_bound_condition(  # the trivial word, of length 0, comes first
            "word-norm-bound", "length-l word blocks damped below exp(-l/k) + tol",
            [(everywhere[1:], wp.lengths[1:], s.norms[1:]) for s in stages], wp, k_values, tol,
            lambda i, l: f"{contexts[i]}, length {l}",
            margin=_rows(s.margins[1:] for s in stages),
            exact=_stagewise(stages, everywhere[1:], False)),
        _identity_condition([s.deviations for s in stages], wp, conv_tols, contexts,
                            "per-word ||block - I|| within the stage tolerance schedule",
                            margin=_rows(s.margins for s in stages),
                            exact=_stagewise(stages, everywhere, True)),
    )
    c0 = _c0_condition([s.c0_scan(eps_decay) for s in stages], wp, eps_decay, contexts, "word")

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
