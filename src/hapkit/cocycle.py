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
    blocks = {}
    clamped = 0
    worst_clamp = 0.0
    for lab in L.labels:
        if lab == L.table.trivial:
            continue
        gram = L.blocks[lab] + L.blocks[lab].conj().T
        try:
            root, clamp = _linalg.psd_sqrt(gram, tol)
        except ValueError as exc:
            raise ValueError(f"block {L.table.encode(lab)!r}: {exc}") from None
        if clamp > 0:
            clamped += 1
            worst_clamp = max(worst_clamp, clamp)
        blocks[lab] = root
    if clamped:
        logger.info("factor_from_generator: clamped %d blocks (worst magnitude %g)",
                    clamped, worst_clamp)
    return CocycleMatrices(L.table, blocks)


def gram_from_cocycle(c: CocycleMatrices) -> GeneratingFunctional:
    """Recover the symmetric functional with blocks (c^a)*(c^a) / 2."""
    blocks = {}
    for lab in c.labels:
        gram = c.blocks[lab].conj().T @ c.blocks[lab]
        blocks[lab] = _linalg.hermitize(gram) / 2.0
    return GeneratingFunctional(c.table, blocks)


def check_proper_cocycle(c: CocycleMatrices, M: float) -> PropernessResult:
    """Labels where the smallest eigenvalue of (c^a)*(c^a) is below M."""
    if M <= 0:
        raise ValueError("threshold M must be positive")
    lows = ((lab, _linalg.min_eigenvalue(c.blocks[lab].conj().T @ c.blocks[lab]))
            for lab in c.labels)
    unspecified = [lab for lab in c.table.labels
                   if lab not in c.blocks and lab != c.table.trivial]
    return _proper_scan(M, lows, unspecified, len(c.table) - 1)  # no trivial label


def check_bounded(c: CocycleMatrices) -> float:
    """Supremum of block norms over the truncation (0 for empty support)."""
    worst = 0.0
    for lab in c.labels:
        worst = max(worst, _linalg.spectral_norm(c.blocks[lab]))
    return worst
