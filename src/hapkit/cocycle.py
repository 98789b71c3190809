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
from .fourier import BlockMap, ExceptionalSet, _by_side, _exceptional_set, stacked_blocks
from .genfun import GeneratingFunctional, check_positive_blocks, check_symmetric
from .reports import CertificationReport, ConditionVerdict, Witness, fmt

logger = logging.getLogger(__name__)

CLAMP_TOL = 1e-10


class CocycleMatrices(BlockMap):
    """Label -> cocycle block over a table, with no block at the unit."""

    def _check_trivial(self, blocks: BlockMap) -> BlockMap:
        if blocks.rows[0] >= 0:
            raise ValueError("cocycle matrices carry no block at the trivial label")
        return blocks


def factor_from_generator(L: GeneratingFunctional, tol: float = CLAMP_TOL) -> CocycleMatrices:
    """Principal PSD square root of L^a + (L^a)* at every nontrivial label.

    Eigenvalues of the Hermitian part in [-tol, 0) are clamped to zero (and
    logged); anything below -tol means the data is not conditionally
    negative and raises.  The principal root is unique, so repeated runs
    are bitwise identical.
    """
    roots, lows = _linalg.psd_sqrt({d: s + np.swapaxes(s.conj(), -1, -2)
                                    for d, s in L.stacks.items()})
    lows, at = L.blocks.in_order(lows)[1:], L.positions[1:]  # the trivial block comes first
    bad = np.flatnonzero(~(lows >= -tol))
    if bad.size:
        raise ValueError(f"block {L.table.key_at(int(at[bad[0]]))!r}: matrix is not "
                         f"positive semidefinite: eigenvalue {float(lows[bad[0]])}")
    if (lows < 0).any():
        logger.info("factor_from_generator: clamped %d blocks (worst magnitude %g)",
                    np.count_nonzero(lows < 0), -lows.min())
    return CocycleMatrices(L.table, stacked_blocks(L.table, [
        (where, roots[d][L.rows[where]]) for d, where in _by_side(L.table, at).items()]))


def gram_from_cocycle(c: CocycleMatrices) -> GeneratingFunctional:
    """Recover the symmetric functional with blocks (c^a)*(c^a) / 2."""
    return GeneratingFunctional(c.table, stacked_blocks(c.table, c._parts(
        {d: _linalg.hermitize(_gram(s)) / 2.0 for d, s in c.stacks.items()})))


def check_proper_cocycle(c: CocycleMatrices, M: float) -> ExceptionalSet:
    """(label, smallest eigenvalue of (c^a)*(c^a)) of the blocks below M, over
    the nontrivial labels."""
    if M <= 0:
        raise ValueError("threshold M must be positive")
    lows = c.blocks.scan(lambda s: _linalg.min_eigenvalues(_gram(s)))
    return _exceptional_set(c, lows, lows >= M, M, nontrivial=True)


def cocycle_report(L: GeneratingFunctional, M: float, tol: float, input_digest: str
                   ) -> tuple[CertificationReport, CocycleMatrices | None]:
    """The ``cocycle`` report on ``L`` at level M, and the cocycle factored out of
    ``L``, or None when ``L`` is not symmetric with positive blocks."""
    truncation = f"{len(L.table)} labels"
    sym = check_symmetric(L, tol)
    conditions = [ConditionVerdict(
        name="symmetric", passed=sym.ok,
        witnesses=(Witness(label="*", achieved=sym.residual, threshold=tol,
                           context="largest Hermitian residual"),),
        summary="all blocks self-adjoint")]
    if sym.ok:
        pos = check_positive_blocks(L, tol)
        conditions.append(ConditionVerdict(
            name="positive-blocks", passed=pos.ok,
            witnesses=(Witness(label="*", achieved=pos.min_eigenvalue, threshold=-tol,
                               context="smallest block eigenvalue"),),
            summary="all blocks positive semidefinite"))
    c, notes = None, ()
    if all(v.passed for v in conditions):
        c = factor_from_generator(L, tol=tol)
        proper = check_proper_cocycle(c, M)
        exceptional = ", ".join(L.table.encode(lab) for lab, _ in proper.exceptional)
        conditions.append(ConditionVerdict(
            name="proper-at-level", passed=proper.proper_at_level,
            witnesses=tuple(Witness(label=L.table.encode(lab), achieved=low,
                                    threshold=M, context="min eigenvalue of (c*)c")
                            for lab, low in proper.exceptional),
            summary=(f"proper at level M={fmt(M)} (up to a truncation of {truncation}): "
                     f"{proper.certified_count} blocks certified >= M")))
        notes = (f"exceptional set at M={fmt(M)}: "
                 + (f"{{{exceptional}}}" if exceptional else "{}"),)
    return CertificationReport(
        command="cocycle",
        input_digest=input_digest,
        truncation=truncation,
        tolerances=(("tol", tol), ("M", M)),
        conditions=tuple(conditions),
        notes=notes,
    ), c


def _gram(stack: np.ndarray) -> np.ndarray:
    """(c^a)*(c^a) for every block of a stack."""
    return np.swapaxes(stack.conj(), -1, -2) @ stack


def check_bounded(c: CocycleMatrices) -> float:
    """Supremum of block norms over the truncation (0 for empty support, NaN if any is)."""
    return float(np.max(c.norms, initial=0.0))
