"""Generating functionals and their convolution semigroups.

A generating functional is given blockwise: one complex matrix per label,
vanishing at the unit (zero trivial block).  It is *symmetric* when every
block is self-adjoint, in which case the blocks are automatically positive
whenever they generate a semigroup of states; it is *proper at level M*
when all but finitely many blocks dominate M times the identity.

The associated semigroup of functionals has blocks exp(-t * L^a); symmetry
plus properness makes those families decay across labels while converging
to the identity at each fixed label, which is the engine behind every
certification in this package.

Also here: the classical sum-of-states construction L = sum_n beta_n
(counit - mu_n), recovery of the generator from small-time semigroup
samples, the functional counit - haar, and the report builders of the
``semigroup`` and ``buildgen`` commands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import _linalg
from .fourier import (DEFAULT_TOL, BlockMap, ExceptionalSet, MatrixFamily, _by_side,
                      _exceptional_set, _require_normalized, _require_same_table,
                      _threshold_condition, stacked_blocks)
from .reports import CertificationReport, ConditionVerdict, fmt, log_info


class GeneratingFunctional(BlockMap):
    """Blockwise generating functional: label -> matrix, zero at the unit.

    The trivial block is always present and identically zero; supplying a
    nonzero trivial block is an error.  Nontrivial labels may be left
    unspecified, in which case nothing is claimed about them.
    """

    def _check_trivial(self, blocks: BlockMap) -> BlockMap:
        triv = blocks.at(0)
        if triv is None:  # a zero row after the other 1 x 1 blocks
            zero = (np.zeros(1, dtype=np.intp), np.zeros((1, 1, 1), dtype=np.complex128))
            return stacked_blocks(self.table, [*blocks._parts(blocks.stacks), zero])
        if np.any(triv != 0):
            raise ValueError("generating functional must vanish at the unit")
        return blocks

    @functools.cached_property
    def _spectra(self) -> dict:
        """Side -> ``_linalg.hermitian_eigh`` (w, v) of its stack: the one
        eigendecomposition of the Hermitian parts that every spectral reading
        of L takes, whatever t or M."""
        return {d: _linalg.hermitian_eigh(stack) for d, stack in self.stacks.items()}

    @functools.cached_property
    def lows(self) -> np.ndarray:
        """Read-only smallest eigenvalue of the Hermitian part of every block, aligned
        with ``labels``; NaN if non-finite.  Every positivity decision on L reads these."""
        return self.in_order({d: w[:, 0] for d, (w, _) in self._spectra.items()})


def check_symmetric(L: GeneratingFunctional, tol: float = DEFAULT_TOL) -> ConditionVerdict:
    """symmetric: ||B - B*|| <= tol at every block, one row each (NaN fails)."""
    return _threshold_condition("symmetric", "all blocks self-adjoint", L.residuals, tol,
                                L.table, L.positions, 0, ("Hermitian residual",))


def check_positive_blocks(L: GeneratingFunctional, tol: float = DEFAULT_TOL) -> ConditionVerdict:
    """positive-blocks: smallest eigenvalue >= -tol at every block, the trivial
    one included, one row each; requires a symmetric functional."""
    if not check_symmetric(L, tol).passed:
        raise ValueError(f"positivity check needs symmetric blocks "
                         f"(Hermitian residual {np.max(L.residuals):g})")
    # 0.0 - low, not -low: a zero eigenvalue is shown as 0, not -0
    return _threshold_condition("positive-blocks", "all blocks positive semidefinite",
                                0.0 - L.lows, tol, L.table, L.positions, 0,
                                ("minus the smallest block eigenvalue",))


def check_proper(L: GeneratingFunctional, M: float) -> ExceptionalSet:
    """(label, smallest eigenvalue) of the blocks of a symmetric functional below M."""
    if M <= 0:
        raise ValueError("threshold M must be positive")
    if not check_symmetric(L).passed:
        raise ValueError(f"properness is defined for symmetric functionals "
                         f"(Hermitian residual {np.max(L.residuals):g})")
    return _exceptional_set(L, L.lows, L.lows >= M, M)


def semigroup_at(L: GeneratingFunctional, t: float) -> MatrixFamily:
    """Family of the convolution semigroup at time t: blocks exp(-t * L^a).

    The result is a normalized family supported where L is; see
    ``_linalg.expm_neg`` for how the blocks are exponentiated.  The residuals,
    norms and eigendecomposition of L are made once, for every t.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    hermitian = L.by_side(L.residuals <= 1e-12 * np.maximum(1.0, L.norms))
    stacks = _linalg.expm_neg(L.stacks, t, {d: (hermitian[d], w, v)
                                            for d, (w, v) in L._spectra.items()})
    stacks[1][L.rows[0]] = 1.0  # the trivial block
    return MatrixFamily(L.table, stacked_blocks(L.table, L._parts(stacks)), normalized=True)


def semigroup_report(L: GeneratingFunctional, ts,
                     input_digest: str) -> tuple[CertificationReport, list[MatrixFamily]]:
    """The ``semigroup`` report on ``L``, and its family at each time in ``ts``."""
    # an overflow leaves a non-finite block for the caller to find, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        families = [semigroup_at(L, t) for t in ts]
    return CertificationReport(
        command="semigroup",
        input_digest=input_digest,
        truncation=f"{len(L.table)} labels",
        tolerances=(),
        conditions=(ConditionVerdict(
            name="evaluation", passed=True,
            summary=f"{len(families)} semigroup families written"),),
        notes=(f"t values: {', '.join(fmt(t) for t in ts)}",),
    ), families


def default_schedule(n_terms: int) -> tuple[list[float], list[float]]:
    """Weights beta_n = 2^n and targets eps_n = 8^-n, so sum(beta*eps) < inf."""
    betas = [2.0 ** n for n in range(1, n_terms + 1)]
    eps = [8.0 ** -n for n in range(1, n_terms + 1)]
    return betas, eps


def _is_default_schedule(betas, eps) -> bool:
    ref_b, ref_e = default_schedule(len(betas))
    return list(betas) == ref_b and list(eps) == ref_e


@dataclass(frozen=True)
class BuildReport:
    """Certificate data for the sum-of-states construction."""

    schedule: tuple[tuple[float, float], ...]  # (beta_n, eps_n) pairs
    tail_bound: float | None
    first_certified: Mapping  # label -> first n with the bound holding onward, or None
    flagged: tuple  # labels where no suffix of the supplied range certifies
    f_sets: tuple  # per n, frozenset of labels with ||I - block_n|| <= eps_n


def build_from_states(seq, betas=None, eps=None) -> tuple[GeneratingFunctional, BuildReport]:
    """Assemble L = sum_n beta_n (counit - mu_n) over a finite range.

    ``betas`` must be positive and increasing, ``eps`` positive and
    decreasing; the defaults are beta_n = 2^n, eps_n = 8^-n, whose tail
    sum_{n>N} beta_n*eps_n = 4^-N / 3 is reported as the truncation-error
    certificate.  For each label the report records the first index from
    which ||I - block_n|| <= eps_n holds for the whole remaining range;
    labels where no such index exists are flagged (the epsilon certificate
    cannot be extended for them), but the finite sum is still returned.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty state sequence")
    if betas is None or eps is None:
        if betas is not None or eps is not None:
            raise ValueError("supply both betas and eps, or neither")
        betas, eps = default_schedule(len(seq))
    betas = [float(b) for b in betas]
    eps = [float(e) for e in eps]
    if not (len(betas) == len(eps) == len(seq)):
        raise ValueError("betas and eps must align with the state sequence")
    if any(b <= 0 for b in betas) or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be positive and increasing")
    if any(e <= 0 for e in eps) or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("eps must be positive and decreasing")
    table = seq[0].table
    for F in seq:
        _require_same_table(seq[0], F, "state families")
        _require_normalized(F.blocks, "state families")

    common = np.logical_and.reduce([F.rows >= 0 for F in seq])
    common[0] = False  # the trivial label
    at = np.flatnonzero(common)
    # Python's sum, as on one block: it starts from the integer 0, so -0.0 becomes +0.0
    blocks = stacked_blocks(table, [
        (where, sum(b * (np.eye(d) - F.blocks.gather(d, where)) for b, F in zip(betas, seq)))
        for d, where in _by_side(table, at).items()])
    support = [table.labels[j] for j in at.tolist()]

    # ok[n, j]: ||I - block_n|| <= eps_n at support[j] (never at a NaN deviation)
    ok = np.array([F.deviations[np.searchsorted(F.positions, at)] <= e
                   for F, e in zip(seq, eps)]).reshape(len(seq), len(at))
    # onward[n, j]: ok from n to the end of the range
    onward = np.logical_and.accumulate(ok[::-1], axis=0)[::-1]
    starts = onward.argmax(axis=0) + 1  # 1-based index into the schedule
    first_certified = {lab: int(n) if certified else None
                       for lab, n, certified in zip(support, starts, onward.any(axis=0))}
    flagged = [lab for lab, n in first_certified.items() if n is None]
    if flagged:
        log_info(__name__, "build_from_states: epsilon certificate impossible for %d labels",
                 len(flagged))
    f_sets = tuple(frozenset(lab for lab, good in zip(support, row) if good) for row in ok)
    report = BuildReport(
        schedule=tuple(zip(betas, eps)),
        tail_bound=4.0 ** -len(seq) / 3.0 if _is_default_schedule(betas, eps) else None,
        first_certified=MappingProxyType(first_certified),
        flagged=tuple(flagged),
        f_sets=f_sets,
    )
    return GeneratingFunctional(table, blocks), report


def buildgen_report(seq: list, betas, eps,
                    input_digest: str) -> tuple[CertificationReport, GeneratingFunctional]:
    """The ``buildgen`` report on :func:`build_from_states`, and the generator it built.

    A nontrivial label is certified exactly when the last state meets
    ||I - block_N|| <= eps_N there, so that is its row; a label outside the
    common support, where the generator has no block, gets inf and fails.
    """
    L, build = build_from_states(seq, betas=betas, eps=eps)
    last, at = seq[-1], np.arange(1, len(L.table))
    common = L.rows[at] >= 0  # where L has a block: the states' common support
    deviations = np.full(len(at), math.inf)
    deviations[common] = last.deviations[np.searchsorted(last.positions, at[common])]
    schedule = ", ".join(f"(beta={fmt(b)}, eps={fmt(e)})" for b, e in build.schedule)
    tail = "not available for this schedule" if build.tail_bound is None \
        else fmt(build.tail_bound)
    return CertificationReport(
        command="buildgen",
        input_digest=input_digest,
        truncation=f"{len(L.table)} labels",
        tolerances=(),
        conditions=(_threshold_condition(
            "epsilon-certificate", "every label eventually meets ||I - block_n|| <= eps_n",
            deviations, build.schedule[-1][1], L.table, at, (~common).astype(np.intp),
            (f"||I - block_n|| at the last n={len(seq)}", "block unspecified in some state")),),
        notes=(f"schedule: {schedule}", f"tail bound beyond supplied range: {tail}"),
    ), L


def generator_from_semigroup(sampler: Callable[[float], MatrixFamily],
                             t_small) -> tuple[GeneratingFunctional, dict]:
    """Recover the generator from small-time samples of its semigroup.

    Evaluates the difference quotients (I - block(t)) / t and extrapolates
    them to t -> 0 through the Lagrange polynomial at the supplied nodes
    (Richardson extrapolation; two nodes in ratio 2 give the classical
    2*D(t/2) - D(t) rule).  Returns the estimate together with a per-label
    error proxy: the distance from the extrapolant to the smallest-t
    quotient.
    """
    t_small = [float(t) for t in t_small]
    if len(t_small) < 2:
        raise ValueError("need at least two sample times")
    if any(t <= 0 for t in t_small) or len(set(t_small)) != len(t_small):
        raise ValueError("sample times must be positive and distinct")
    samples = [sampler(t) for t in t_small]
    table = samples[0].table
    for F in samples[1:]:
        _require_same_table(samples[0], F, "sampled families")
    weights = []
    for i, ti in enumerate(t_small):
        w = 1.0
        for j, tj in enumerate(t_small):
            if j != i:
                w *= tj / (tj - ti)
        weights.append(w)
    i_min = min(range(len(t_small)), key=lambda i: t_small[i])

    common = np.logical_and.reduce([F.rows >= 0 for F in samples])
    common[0] = False  # the trivial label
    at = np.flatnonzero(common)
    parts, gaps = [], np.empty(len(at))
    for d, where in _by_side(table, at).items():
        quotients = [(np.eye(d) - F.blocks.gather(d, where)) / t for F, t in zip(samples, t_small)]
        est = sum(w * q for w, q in zip(weights, quotients))
        parts.append((where, est))
        gaps[np.searchsorted(at, where)] = _linalg.spectral_norms(est - quotients[i_min])
    errors = dict(zip([table.labels[j] for j in at.tolist()], gaps.tolist()))
    return GeneratingFunctional(table, stacked_blocks(table, parts)), errors
