"""Matrix families of functionals and their convolution calculus.

A functional mu on the coefficient algebra of a compact quantum group is
seen here only through its matrix coefficients: one n_a x n_a complex block
mu(u^a_{ij}) per irreducible corepresentation a.  Under this transform,
convolution of functionals is blockwise matrix multiplication, the counit is
the identity family, and the Haar state is 1 at the trivial label and 0
elsewhere.

The discrete dual has the Haagerup property exactly when there are states
whose families vanish at infinity across labels (c0 decay) while converging
to the identity block at each fixed label; ``check_hap_sequence`` certifies
both conditions, plus an optional uniform damping bound, within a finite
truncation of the label set.

Blocks that a family does not carry are *unspecified*, never implicitly
zero: operations restrict to support intersections, so no decay is ever
fabricated for labels nobody supplied.

``BlockMap`` is the label -> block container behind families, generating
functionals and cocycles; ``_threshold_condition`` is the one verdict
kernel behind every per-label threshold check, here and in ``cfree``.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _linalg
from .reports import CertificationReport, ConditionVerdict, Witness

logger = logging.getLogger(__name__)

NORMALIZED_ATOL = 1e-9
DEFAULT_TOL = 1e-9


class BlockMap:
    """Label -> complex block map over a fixed table.

    Immutable after construction: blocks are stored read-only in canonical
    table order, so maps can be shared freely between threads and
    serialized reproducibly.  States, generating functionals and cocycles
    differ only in what they allow at the trivial label, which each
    subclass enforces in ``_check_trivial``.
    """

    def __init__(self, table, blocks: Mapping):
        store = {label: _linalg.as_block(blocks[label], table.dim(label))
                 for label in table.labels if label in blocks}
        if len(store) != len(blocks):
            extra = [k for k in blocks if k not in store]
            raise KeyError(f"blocks supplied for labels outside the table: {extra!r}")
        self.table = table
        self.blocks = MappingProxyType(store)
        self._check_trivial()

    def _check_trivial(self) -> None:
        """Validate (or complete) the block at the trivial label."""

    @property
    def support(self) -> frozenset:
        return frozenset(self.blocks)

    @property
    def labels(self) -> tuple:
        """Supported labels in canonical table order."""
        return tuple(self.blocks)

    def block(self, label) -> np.ndarray:
        try:
            return self.blocks[label]
        except KeyError:
            raise KeyError(f"no block at label {self.table.encode(label)!r}") from None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.blocks)}/{len(self.table)} blocks)"


def _require_normalized(F: BlockMap, who: str) -> None:
    """Raise unless the trivial block of ``F`` is [1] (NaN fails closed)."""
    triv = F.blocks.get(F.table.trivial)
    if triv is None or not abs(complex(triv[0, 0]) - 1.0) <= NORMALIZED_ATOL:
        raise ValueError(f"{who} must be normalized (trivial block [1])")


class MatrixFamily(BlockMap):
    """Block map of a functional; ``normalized`` asserts the trivial block is [1]."""

    def __init__(self, table, blocks: Mapping, normalized: bool = False):
        self.normalized = normalized
        super().__init__(table, blocks)

    def _check_trivial(self) -> None:
        if self.normalized:
            _require_normalized(self, "family")

    def __repr__(self) -> str:
        if not self.normalized:
            return super().__repr__()
        return f"MatrixFamily({len(self.blocks)}/{len(self.table)} blocks, normalized)"


def _require_same_table(F: BlockMap, G, who: str = "operands") -> None:
    if F.table is not G.table and F.table != G.table:
        raise ValueError(f"{who} live over different tables")


def convolve(F: MatrixFamily, G: MatrixFamily) -> MatrixFamily:
    """Blockwise product: the convolution of the underlying functionals.

    The result is supported on the intersection of the supports; labels
    missing from either operand are dropped (and logged), not zero-filled.
    """
    _require_same_table(F, G)
    common = [lab for lab in F.labels if lab in G.blocks]
    omitted = (F.support | G.support) - set(common)
    if omitted:
        logger.info("convolve: %d labels outside common support omitted", len(omitted))
    blocks = {lab: F.blocks[lab] @ G.blocks[lab] for lab in common}
    return MatrixFamily(F.table, blocks, normalized=F.normalized and G.normalized)


def counit_family(table) -> MatrixFamily:
    """Identity block at every label: the two-sided convolution identity."""
    blocks = {lab: np.eye(table.dim(lab), dtype=np.complex128) for lab in table.labels}
    return MatrixFamily(table, blocks, normalized=True)


def haar_family(table) -> MatrixFamily:
    """[1] at the trivial label, zero elsewhere: absorbing for convolution."""
    blocks = {
        lab: (np.ones((1, 1), dtype=np.complex128) if lab == table.trivial
              else np.zeros((table.dim(lab),) * 2, dtype=np.complex128))
        for lab in table.labels
    }
    return MatrixFamily(table, blocks, normalized=True)


def block_norm(F: MatrixFamily, label) -> float:
    """Spectral norm of the block at ``label``."""
    return _linalg.spectral_norm(F.block(label))


def max_block_deviation(F: MatrixFamily, G: MatrixFamily) -> float:
    """Largest spectral-norm difference over the common support."""
    _require_same_table(F, G)
    worst = 0.0
    for lab in F.labels:
        if lab in G.blocks:
            worst = max(worst, _linalg.spectral_norm(F.blocks[lab] - G.blocks[lab]))
    return worst


@dataclass(frozen=True)
class C0Result:
    """Outcome of a c0-decay scan at one threshold."""

    eps: float
    exceptional: tuple
    unspecified: tuple
    tail_clean: bool
    table_size: int

    @property
    def complement_size(self) -> int:
        """Labels verified at or below eps."""
        return self.table_size - len(self.exceptional) - len(self.unspecified)


def check_c0(F: MatrixFamily, eps: float) -> C0Result:
    """Labels whose block norm exceeds ``eps``.

    ``tail_clean`` records whether every remaining table label actually
    carries a block that was verified <= eps; unspecified labels make the
    scan inconclusive outside the support and are listed separately.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    exceptional = []
    for lab in F.labels:
        blk = F.blocks[lab]
        # Frobenius dominates the spectral norm: cheap accept before an SVD.
        if _linalg.frobenius_norm(blk) <= eps:
            continue
        if _linalg.spectral_norm(blk) > eps:
            exceptional.append(lab)
    unspecified = tuple(lab for lab in F.table.labels if lab not in F.blocks)
    return C0Result(
        eps=eps,
        exceptional=tuple(exceptional),
        unspecified=unspecified,
        tail_clean=not unspecified,
        table_size=len(F.table),
    )


@dataclass(frozen=True)
class StateCandidate:
    """Necessary state conditions only; full positivity is not decided."""

    ok: bool
    trivial_deviation: float
    worst_norm: float
    worst_label: str
    detail: str = ("necessary conditions only: trivial block [1] and "
                   "contractive blocks; positivity of the functional is not decided")

    def __bool__(self) -> bool:
        return self.ok


def is_state_candidate(F: MatrixFamily, tol: float = DEFAULT_TOL) -> StateCandidate:
    """True iff the trivial block is [1] within tol and all norms are <= 1+tol."""
    triv = F.blocks.get(F.table.trivial)
    trivial_dev = math.inf if triv is None else abs(complex(triv[0, 0]) - 1.0)
    worst_norm = 0.0
    worst_label = ""
    for lab in F.labels:
        nrm = block_norm(F, lab)
        if nrm > worst_norm:
            worst_norm, worst_label = nrm, F.table.encode(lab)
    ok = trivial_dev <= tol and worst_norm <= 1.0 + tol
    return StateCandidate(ok, trivial_dev, worst_norm, worst_label)


def family_content_digest(families, table=None) -> str:
    """Content hash of a family sequence (canonical label order)."""
    h = hashlib.sha256()
    if families:
        table = table or families[0].table
    if table is not None:
        for lab in table.labels:
            h.update(table.encode(lab).encode())
            h.update(str(table.dim(lab)).encode())
    for F in families:
        for lab in F.labels:
            h.update(F.table.encode(lab).encode())
            h.update(np.ascontiguousarray(F.blocks[lab]).tobytes())
    return "sha256:" + h.hexdigest()


def _c0_verdict(res: C0Result, table, ctx: str):
    """Classify one c0 scan: (ok, witness).

    Decay is only demandable at nontrivial labels (the trivial block of a
    state is always 1, it just sits inside the finite exceptional set), so
    the scan passes when the tail is verified and either the table has no
    nontrivial labels at all or at least one of them decayed below eps.
    """
    if not res.tail_clean:
        return False, Witness(
            label=table.encode(res.unspecified[0]),
            achieved=float(len(res.unspecified)), threshold=0.0,
            context=f"{ctx}: labels without blocks")
    nontrivial_total = len(table) - 1
    exc = len(res.exceptional)
    nontrivial_exc = sum(1 for lab in res.exceptional if lab != table.trivial)
    if nontrivial_total > 0 and nontrivial_exc >= nontrivial_total:
        return False, Witness(
            label="*", achieved=float(exc), threshold=float(nontrivial_total),
            context=f"{ctx}: no nontrivial label decayed below eps")
    return True, Witness(
        label="*", achieved=float(exc), threshold=float(len(table)),
        context=f"{ctx}: exceptional labels within truncation")


def _c0_condition(families, table, eps_decay, contexts, noun: str) -> ConditionVerdict:
    """c0-decay verdict over a family sequence, one context string per family.

    Fails with every failing family's witness; otherwise reports the family
    with the most exceptional labels.
    """
    results = [_c0_verdict(check_c0(F, eps_decay), table, ctx)
               for F, ctx in zip(families, contexts)]
    failed = tuple(w for ok, w in results if not ok)
    worst = max((w for _, w in results), key=lambda w: w.achieved, default=None)
    return ConditionVerdict(
        name="c0-decay", passed=not failed,
        witnesses=failed or ((worst,) if worst else ()),
        summary=f"{noun} norms above eps_decay form a finite set, "
                f"tail verified <= {eps_decay:g}")


def _threshold_condition(name: str, summary: str, rows, encode,
                         failed=()) -> ConditionVerdict:
    """Verdict over lazily produced (label, achieved, threshold, context) rows.

    A row holds only when ``achieved <= threshold``, so NaN on either side
    fails closed.  Every failing row becomes a witness, after the ``failed``
    witnesses found up front; when nothing fails, the row with the largest
    achieved - threshold is reported instead.  Labels are encoded and
    witnesses built only for the rows that are reported.
    """
    witnesses = list(failed)
    worst = None
    for label, achieved, threshold, context in rows:
        if not achieved <= threshold:
            witnesses.append(Witness(encode(label), achieved, threshold, context))
        elif worst is None or achieved - threshold > worst[0]:
            worst = (achieved - threshold, label, achieved, threshold, context)
    passed = not witnesses
    if passed and worst is not None:
        _, label, achieved, threshold, context = worst
        witnesses = [Witness(encode(label), achieved, threshold, context)]
    return ConditionVerdict(name=name, passed=passed, witnesses=tuple(witnesses),
                            summary=summary)


def _identity_condition(families, table, conv_tols, contexts,
                        summary: str) -> ConditionVerdict:
    """identity-convergence: ||block_k - I|| <= conv_tols[k] at every table label.

    An unspecified block fails; so does a tolerance schedule that increases.
    """
    failed = ()
    if any(b > a for a, b in zip(conv_tols, conv_tols[1:])):
        failed = (Witness(label="*", achieved=max(conv_tols), threshold=conv_tols[0],
                          context="conv_tols schedule is not nonincreasing"),)

    def rows():
        for F, thr, ctx in zip(families, conv_tols, contexts):
            for lab in F.table.labels:
                blk = F.blocks.get(lab)
                if blk is None:
                    yield lab, math.inf, thr, f"{ctx}: block unspecified"
                else:
                    yield lab, _linalg.spectral_norm(blk - np.eye(blk.shape[0])), thr, ctx
    return _threshold_condition("identity-convergence", summary, rows(), table.encode, failed)


def _norm_bound_condition(name: str, summary: str, families, table, k_values,
                          tol: float, length, context) -> ConditionVerdict:
    """Block norm <= exp(-l/k) + tol at every supported label of length l >= 1.

    ``length`` maps a label to its length (0 skips it) and ``context(i, l)``
    names family i at length l.
    """
    def rows():
        for i, (F, k) in enumerate(zip(families, k_values)):
            for lab in F.labels:
                l = length(lab)
                if l:
                    yield (lab, _linalg.spectral_norm(F.blocks[lab]),
                           math.exp(-l / k) + tol, context(i, l))
    return _threshold_condition(name, summary, rows(), table.encode)


def check_hap_sequence(seq, eps_decay: float, conv_tols, k_values=None,
                       tol: float = DEFAULT_TOL,
                       input_digest: str | None = None) -> CertificationReport:
    """Certify the two approximate-identity conditions on a state sequence.

    (a) each family decays: the labels with block norm > ``eps_decay`` are a
        finite set inside the truncation and every other table label was
        verified below the threshold;
    (b) each family is close to the counit: for every label,
        ||block_k - I|| <= conv_tols[k], with the tolerance schedule
        nonincreasing toward zero;
    (c) optionally, when ``k_values`` is supplied, the uniform damping bound
        ||block|| <= exp(-1/k) + tol at every nontrivial label (the
        free-product word bound at length 1).

    Failures are reported with witnesses, never raised.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty family sequence")
    table = seq[0].table
    for F in seq[1:]:
        _require_same_table(seq[0], F)
    conv_tols = [float(x) for x in conv_tols]
    if len(conv_tols) != len(seq):
        raise ValueError("conv_tols must align with the family sequence")
    if k_values is not None and len(k_values) != len(seq):
        raise ValueError("k_values must align with the family sequence")
    contexts = ([f"family k={k}" for k in k_values] if k_values
                else [f"family #{i}" for i in range(len(seq))])

    conditions = [
        _c0_condition(seq, table, eps_decay, contexts, "block"),
        _identity_condition(seq, table, conv_tols, contexts,
                            "||block - I|| within the per-family tolerance schedule"),
    ]
    if k_values is not None:
        conditions.append(_norm_bound_condition(
            "damped-norm-bound", "nontrivial block norms <= exp(-1/k) + tol",
            seq, table, k_values, tol, lambda lab: int(lab != table.trivial),
            lambda i, _: contexts[i]))

    return CertificationReport(
        command="certify-hap",
        input_digest=input_digest or family_content_digest(seq, table),
        truncation=f"{len(table)} labels",
        tolerances=(("tol", tol), ("eps_decay", eps_decay)),
        conditions=tuple(conditions),
        notes=(f"conv_tols: {', '.join(f'{x:g}' for x in conv_tols)}",)
        + ((f"k_values: {', '.join(str(k) for k in k_values)}",) if k_values else ()),
    )
