"""Blockwise cocycle data and its interplay with generating functionals.

A cocycle is carried here purely through its matrices of values on the
coefficient basis, one block per nontrivial label (cocycles vanish on the
unit).  Only the quadratic Gram identity is constrained at block level:

    (c^a)* (c^a) = L^a + (L^a)*,

so for a symmetric positive functional the canonical factorization takes
c^a to be the principal PSD square root of 2 L^a, which is unique and makes
the round trip with ``gram_from_cocycle`` exact.  Properness at level M
means all but finitely many blocks satisfy (c^a)*(c^a) >= M*I; the root and
the ``cocycle`` report's properness are read off one spectrum, that of
L^a + (L^a)*, so rounding in the root never decides a verdict.
"""

from __future__ import annotations

import numpy as np

from . import _linalg
from .fourier import DEFAULT_TOL, BlockMap, _by_side, _proper_condition, stacked_blocks
from .genfun import GeneratingFunctional, check_positive_blocks, check_symmetric
from .reports import CertificationReport, ConditionVerdict, fmt, log_info


class CocycleMatrices(BlockMap):
    """Label -> cocycle block over a table, with no block at the unit."""

    def _check_trivial(self, blocks: BlockMap) -> BlockMap:
        if blocks.rows[0] >= 0:
            raise ValueError("cocycle matrices carry no block at the trivial label")
        return blocks


def factor_from_generator(L: GeneratingFunctional, tol: float = DEFAULT_TOL) -> CocycleMatrices:
    """Principal PSD square root of L^a + (L^a)* at every nontrivial label.

    Positivity is decided on ``L.lows`` as ``check_positive_blocks`` decides it:
    a Hermitian part with an eigenvalue below -tol (or NaN) is not conditionally
    negative and raises; one in [-tol, 0) is clamped to zero (and logged).  The
    principal root is unique, so repeated runs are bitwise identical.
    """
    lows, at = L.lows[1:], L.positions[1:]  # the trivial block comes first
    bad = np.flatnonzero(~(lows >= -tol))
    if bad.size:
        raise ValueError(f"block {L.table.key_at(int(at[bad[0]]))!r}: matrix is not "
                         f"positive semidefinite: eigenvalue {float(lows[bad[0]])}")
    if (lows < 0).any():
        log_info(__name__, "factor_from_generator: clamped %d blocks (worst magnitude %g)",
                 np.count_nonzero(lows < 0), -lows.min())
    # L + L* is twice the Hermitian part, so its spectrum is twice L's, exactly
    roots = _linalg.psd_sqrt({d: (2 * w, v) for d, (w, v) in L._spectra.items()})
    return CocycleMatrices(L.table, stacked_blocks(L.table, [
        (where, roots[d][L.rows[where]]) for d, where in _by_side(L.table, at).items()]))


def gram_from_cocycle(c: CocycleMatrices) -> GeneratingFunctional:
    """Recover the symmetric functional with blocks (c^a)*(c^a) / 2."""
    return GeneratingFunctional(c.table, stacked_blocks(c.table, c._parts(
        {d: _linalg.hermitize(np.swapaxes(s.conj(), -1, -2) @ s) / 2.0
         for d, s in c.stacks.items()})))


# Kept only because the benchmark tracer wraps it by name; it goes with the tracer's span.
def check_proper_cocycle(c: CocycleMatrices, M: float) -> ConditionVerdict:
    """proper-at-level of ``c`` at M, on twice the smallest eigenvalues of
    ``gram_from_cocycle(c)``: those of (c^a)*(c^a)."""
    if M <= 0:
        raise ValueError("threshold M must be positive")
    return _proper_condition(2 * gram_from_cocycle(c).lows[1:], M, c.table, c.positions,
                             f"{len(c.table)} labels")


def cocycle_report(L: GeneratingFunctional, M: float, tol: float, input_digest: str
                   ) -> tuple[CertificationReport, CocycleMatrices | None]:
    """The ``cocycle`` report on ``L`` at level M, and the cocycle factored out of
    ``L``, or None when ``L`` is not symmetric with positive blocks."""
    if M <= 0:
        raise ValueError("threshold M must be positive")
    truncation = f"{len(L.table)} labels"
    conditions = [check_symmetric(L, tol)]
    if conditions[0].passed:
        conditions.append(check_positive_blocks(L, tol))
    c, notes = None, ()
    if all(v.passed for v in conditions):
        c = factor_from_generator(L, tol=tol)
        # the eigenvalues of (c*)c = L + L*, clamped as the root is; + 0.0 turns -0 into 0
        lows = np.maximum(2 * L.lows[1:], 0.0) + 0.0
        proper = _proper_condition(lows, M, L.table, L.positions[1:], truncation)
        conditions.append(proper)
        notes = (f"exceptional set at M={fmt(M)}: "
                 f"{{{', '.join(w.label for w in proper.witnesses)}}}",)
    return CertificationReport(
        command="cocycle",
        input_digest=input_digest,
        truncation=truncation,
        tolerances=(("tol", tol), ("M", M)),
        conditions=tuple(conditions),
        notes=notes,
    ), c
