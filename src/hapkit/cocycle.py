"""Blockwise cocycle data and its interplay with generating functionals.

A cocycle is carried here purely through its matrices of values on the
coefficient basis, one block per nontrivial label (cocycles vanish on the
unit).  Only the quadratic Gram identity is constrained at block level:

    (c^a)* (c^a) = L^a + (L^a)*,

so for a symmetric positive functional the canonical factorization takes
c^a to be the principal PSD square root of 2 L^a, which is unique and makes
the round trip with ``gram_from_cocycle`` exact.  Boundedness means a
uniform bound on block norms; properness at level M means all but finitely
many blocks satisfy (c^a)*(c^a) >= M*I.
"""

from __future__ import annotations

import logging

import numpy as np

from . import _linalg
from .fourier import BlockMap
from .genfun import GeneratingFunctional, PropernessResult, _proper_scan

logger = logging.getLogger(__name__)

CLAMP_TOL = 1e-10


class CocycleMatrices(BlockMap):
    """Label -> cocycle block over a table, with no block at the unit."""

    def _check_trivial(self) -> None:
        if self.table.trivial in self.blocks:
            raise ValueError("cocycle matrices carry no block at the trivial label")


def factor_from_generator(L: GeneratingFunctional, tol: float = CLAMP_TOL) -> CocycleMatrices:
    """Principal PSD square root of L^a + (L^a)* at every nontrivial label.

    Eigenvalues of the Hermitian part in [-tol, 0) are clamped to zero (and
    logged); anything below -tol means the data is not conditionally
    negative and raises.  The principal root is unique, so repeated runs
    are bitwise identical.
    """
    grams = {lab: blk + blk.conj().T for lab, blk in L.nontrivial_blocks()}
    roots, lows = _linalg.psd_sqrt(list(grams.values()))
    bad = np.flatnonzero(~(lows >= -tol))
    if bad.size:
        raise ValueError(f"block {L.table.encode(list(grams)[bad[0]])!r}: matrix is not "
                         f"positive semidefinite: eigenvalue {float(lows[bad[0]])}")
    if (lows < 0).any():
        logger.info("factor_from_generator: clamped %d blocks (worst magnitude %g)",
                    np.count_nonzero(lows < 0), -lows.min())
    return CocycleMatrices(L.table, dict(zip(grams, roots)))


def gram_from_cocycle(c: CocycleMatrices) -> GeneratingFunctional:
    """Recover the symmetric functional with blocks (c^a)*(c^a) / 2."""
    return GeneratingFunctional(c.table, {lab: _linalg.hermitize(blk.conj().T @ blk) / 2.0
                                          for lab, blk in c.blocks.items()})


def check_proper_cocycle(c: CocycleMatrices, M: float) -> PropernessResult:
    """Labels where the smallest eigenvalue of (c^a)*(c^a) is below M."""
    if M <= 0:
        raise ValueError("threshold M must be positive")
    grams = [blk.conj().T @ blk for blk in c.blocks.values()]
    lows = zip(c.labels, _linalg.min_eigenvalues(grams).tolist())
    unspecified = [lab for lab in c.table.labels
                   if lab not in c.blocks and lab != c.table.trivial]
    return _proper_scan(M, lows, unspecified, len(c.table) - 1)  # no trivial label


def check_bounded(c: CocycleMatrices) -> float:
    """Supremum of block norms over the truncation (0 for empty support, NaN if any is)."""
    return float(np.max(c.norms, initial=0.0))
