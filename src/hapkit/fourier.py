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

``BlockMap`` is the label -> block map behind families, generating
functionals and cocycles, one stack per block side; ``_threshold_condition``
is the one verdict kernel behind every per-label threshold check, here and
in ``cfree``.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _linalg
from .reports import (CertificationReport, ConditionVerdict, Witness, WitnessRows,
                      _matrix_template)

logger = logging.getLogger(__name__)

NORMALIZED_ATOL = 1e-9
DEFAULT_TOL = 1e-9


class BlockMap(Mapping):
    """Read-only label -> complex block map over a fixed table.

    The blocks are held as one ``(n_d, d, d)`` stack per side d, frozen with
    ``_linalg.freeze``, and ``rows``: ``rows[j]`` is the row of table position
    j's block in the stack of its side, or -1 where there is none, so an
    unspecified block is never zero-filled.  Each stack row belongs to one
    position.  Maps are immutable, so they can be shared freely between
    threads and serialized reproducibly; the label -> block dict behind
    lookups is built on first use.  States, generating functionals and
    cocycles differ only in what they allow at the trivial label, which each
    subclass enforces in ``_check_trivial``.
    """

    def __init__(self, table, blocks: Mapping):
        """A ``BlockMap`` over an equal table is adopted: its stacks and index
        arrays are taken as they are.  Any other label -> block mapping is
        copied into one stack per side; a block that is not a square matrix of
        its label's dim raises ValueError (the first such in table order), and
        keys outside the table raise KeyError."""
        self.table = table
        if not (isinstance(blocks, BlockMap) and (blocks.table is table or blocks.table == table)):
            positions, arrays, extra = [], [], []
            for label, mat in blocks.items():
                try:
                    positions.append(table.index(label))
                    arrays.append(mat)
                except KeyError:
                    extra.append(label)
            for i in sorted(range(len(positions)), key=positions.__getitem__):
                a = arrays[i] = np.asarray(arrays[i], dtype=np.complex128)
                if a.ndim != 2 or a.shape[0] != a.shape[1]:
                    raise ValueError(f"block must be a square matrix, got shape {a.shape}")
                if a.shape[0] != (d := table.dims[positions[i]]):
                    raise ValueError(f"block has side {a.shape[0]}, expected {d}")
            if extra:
                raise KeyError(f"blocks supplied for labels outside the table: {extra!r}")
            blocks = stacked_blocks(table, [([j], a[np.newaxis])
                                            for j, a in zip(positions, arrays)])
        blocks = self._check_trivial(blocks)
        self.stacks, self.rows, self.positions, self._places = (
            blocks.stacks, blocks.rows, blocks.positions, blocks._places)

    def _check_trivial(self, blocks: BlockMap) -> BlockMap:
        """Validate (or complete) the block at the trivial label."""
        return blocks

    @property
    def blocks(self) -> BlockMap:  # the map itself: ``F.blocks[label]`` is ``F[label]``
        return self

    @functools.cached_property
    def labels(self) -> tuple:
        """Supported labels in canonical table order."""
        return tuple(self.table.labels[j] for j in self.positions.tolist())

    def views(self) -> list:
        """The blocks in table order, each a view of its row."""
        return [self.stacks[d][r] for d, r in zip(self.table.dims[self.positions].tolist(),
                                                   self.rows[self.positions].tolist())]

    @functools.cached_property
    def _dict(self) -> dict:
        return dict(zip(self.labels, self.views()))

    def __getitem__(self, label) -> np.ndarray:
        try:
            return self._dict[label]
        except KeyError:
            raise KeyError(f"no block at label {self.table.encode(label)!r}") from None

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.positions)

    def at(self, j: int):
        """The block at table position ``j``, or None."""
        r = self.rows[j]
        return None if r < 0 else self.stacks[int(self.table.dims[j])][r]

    def gather(self, d: int, positions) -> np.ndarray:
        """The blocks at ``positions``, all of side ``d``, as a new stack."""
        return self.stacks[d][self.rows[positions]]

    def in_order(self, by_side: Mapping, dtype=float) -> np.ndarray:
        """Values given per side, in stack row order, put in table order, read-only."""
        out = np.empty(len(self.positions), dtype=dtype)
        for d, (places, rows) in self._places.items():
            out[places] = by_side[d][rows]
        out.setflags(write=False)
        return out

    def by_side(self, values: np.ndarray) -> dict:
        """Values in table order, put per side in stack row order."""
        out = {d: np.empty(len(rows), dtype=values.dtype) for d, (_, rows) in self._places.items()}
        for d, (places, rows) in self._places.items():
            out[d][rows] = values[places]
        return out

    def scan(self, per_block, dtype=float) -> np.ndarray:
        """``per_block`` maps a stack to one value per block; the values in table order."""
        return self.in_order({d: per_block(stack) for d, stack in self.stacks.items()}, dtype)

    def _parts(self, stacks: Mapping) -> list:
        """``stacked_blocks`` parts that lay ``stacks`` out as this map's stacks are."""
        return [(at, stacks[d]) for d, at in self.by_side(self.positions).items()]

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """Read-only ||B|| of every block, aligned with ``labels``; NaN if non-finite."""
        return self.scan(_linalg.spectral_norms)

    @functools.cached_property
    def deviations(self) -> np.ndarray:
        """Read-only ||B - I|| of every block, aligned with ``labels``."""
        return self.scan(functools.partial(_linalg.spectral_norms, minus_identity=True))

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """Read-only Hermitian residual ||B - B*|| of every block, aligned with ``labels``."""
        return self.scan(_linalg.adjoint_residuals)

    def json_texts(self, depth: int) -> dict:
        """Block key -> the JSON text of its block nested ``depth`` levels deep,
        for ``reports.json_pieces``: its interleaved real and imaginary parts in
        its template.  Each side's numbers are checked and listed at once; a
        non-finite one raises, naming the first of the first such block in key
        order."""
        keys = self.table.keys_at(self.positions)
        numbers = {d: np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.float64)
                   for d, stack in self.stacks.items()}
        finite = self.in_order({d: np.isfinite(x).all(axis=1) for d, x in numbers.items()}, bool)
        if not finite.all():
            first = min(np.flatnonzero(~finite).tolist(), key=keys.__getitem__)
            values = self.views()[first].reshape(-1).view(np.float64)
            bad = float(values[np.argmin(np.isfinite(values))])
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        texts = {}
        for d, x in numbers.items():
            template, step = _matrix_template(d, depth), 2 * d * d
            values = x.reshape(-1).tolist()
            texts[d] = np.array([template % tuple(map(float.__repr__, values[i:i + step]))
                                 for i in range(0, len(values), step)], dtype=object)
        return dict(zip(keys, self.in_order(texts, object)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)}/{len(self.table)} blocks)"


def stacked_blocks(table, parts) -> BlockMap:
    """A plain ``BlockMap`` from (positions, stack) pairs, ``stack[i]`` at table
    position ``positions[i]``; the parts of one side are concatenated in order.
    Every map is first made here."""
    rows = np.full(len(table), -1, dtype=np.intp)
    by_side = {}
    for positions, stack in parts:
        if len(positions):
            by_side.setdefault(stack.shape[-1], []).append((positions, stack))
    for group in by_side.values():
        n = 0
        for positions, _ in group:
            rows[positions] = np.arange(n, n + len(positions))
            n += len(positions)
    rows.setflags(write=False)
    out = BlockMap.__new__(BlockMap)
    out.table, out.rows, out.positions = table, rows, np.flatnonzero(rows >= 0)
    out.stacks = MappingProxyType({d: _linalg.freeze(
        group[0][1] if len(group) == 1 else np.concatenate([stack for _, stack in group]))
        for d, group in sorted(by_side.items())})
    sides = table.dims[out.positions]
    out._places = {}  # side -> (indices into positions, stack rows) of its blocks
    for d, stack in out.stacks.items():
        places = np.flatnonzero(sides == d)
        rows = out.rows[out.positions[places]]
        if stack.shape != (len(rows), d, d) or (np.sort(rows) != np.arange(len(rows))).any():
            raise ValueError(f"side-{d} stack of shape {stack.shape} does not match its rows")
        out._places[d] = places, rows
    if sum(len(places) for places, _ in out._places.values()) != len(sides):
        raise ValueError("a block has no stack of its side")
    return out


def _by_side(table, positions: np.ndarray) -> dict:
    """Side -> the ``positions`` (kept in order) where the table's dim is that side."""
    sides = table.dims[positions]
    return {d: positions[sides == d] for d in sorted(set(sides.tolist()))}


def _require_normalized(blocks: BlockMap, who: str) -> None:
    """Raise unless the trivial block is [1] (NaN fails closed)."""
    triv = blocks.at(0)
    if triv is None or not abs(complex(triv[0, 0]) - 1.0) <= NORMALIZED_ATOL:
        raise ValueError(f"{who} must be normalized (trivial block [1])")


class MatrixFamily(BlockMap):
    """Block map of a functional; ``normalized`` asserts the trivial block is [1]."""

    def __init__(self, table, blocks: Mapping, normalized: bool = False):
        self.normalized = normalized
        super().__init__(table, blocks)

    def _check_trivial(self, blocks: BlockMap) -> BlockMap:
        if self.normalized:
            _require_normalized(blocks, "family")
        return blocks

    def __repr__(self) -> str:
        if not self.normalized:
            return super().__repr__()
        return f"MatrixFamily({len(self)}/{len(self.table)} blocks, normalized)"


def _require_same_table(F: BlockMap, G, who: str = "operands") -> None:
    if F.table is not G.table and F.table != G.table:
        raise ValueError(f"{who} live over different tables")


def convolve(F: MatrixFamily, G: MatrixFamily) -> MatrixFamily:
    """Blockwise product: the convolution of the underlying functionals.

    The result is supported on the intersection of the supports; labels
    missing from either operand are dropped (and logged), not zero-filled.
    """
    _require_same_table(F, G)
    common = np.flatnonzero((F.rows >= 0) & (G.rows >= 0))
    omitted = np.count_nonzero((F.rows >= 0) | (G.rows >= 0)) - len(common)
    if omitted:
        logger.info("convolve: %d labels outside common support omitted", omitted)
    blocks = stacked_blocks(F.table, [(at, F.blocks.gather(d, at) @ G.blocks.gather(d, at))
                                      for d, at in _by_side(F.table, common).items()])
    return MatrixFamily(F.table, blocks, normalized=F.normalized and G.normalized)


def _constant_blocks(table, c: float, unit: float | None = None) -> BlockMap:
    """c * I at every nontrivial label, plus [unit] at the trivial one unless None."""
    parts = [(at, np.repeat(c * np.eye(d, dtype=np.complex128)[np.newaxis], len(at), axis=0))
             for d, at in _by_side(table, np.arange(1, len(table))).items()]
    if unit is not None:
        parts.append((np.zeros(1, dtype=np.intp), np.full((1, 1, 1), unit, dtype=np.complex128)))
    return stacked_blocks(table, parts)


def counit_family(table) -> MatrixFamily:
    """Identity block at every label: the two-sided convolution identity."""
    return MatrixFamily(table, _constant_blocks(table, 1.0, 1.0), normalized=True)


def haar_family(table) -> MatrixFamily:
    """[1] at the trivial label, zero elsewhere: absorbing for convolution."""
    return MatrixFamily(table, _constant_blocks(table, 0.0, 1.0), normalized=True)


def block_norm(F: MatrixFamily, label) -> float:
    """Spectral norm of the block at ``label``."""
    F[label]  # raises for a label without a block
    return float(F.norms[F.labels.index(label)])


def max_block_deviation(F: MatrixFamily, G: MatrixFamily) -> float:
    """Largest spectral-norm difference over the common support."""
    _require_same_table(F, G)
    common = np.flatnonzero((F.rows >= 0) & (G.rows >= 0))
    gaps = [_linalg.spectral_norms(F.blocks.gather(d, at) - G.blocks.gather(d, at))
            for d, at in _by_side(F.table, common).items()]
    return float(np.max(np.concatenate([np.empty(0), *gaps]), initial=0.0))


@dataclass(frozen=True)
class ExceptionalSet:
    """Outcome of a c0 scan (block norm <= eps) or a properness scan (smallest
    eigenvalue of L^a or (c^a)*(c^a) >= M).  ``proper_at_level`` holds relative
    to the truncation only: at least one block was certified there."""

    threshold: float
    exceptional: tuple  # (label, value) pairs in table order; NaN for a non-finite block
    unspecified: tuple  # scanned labels without a block
    table_size: int  # labels the scan covers

    @property
    def exceptional_labels(self) -> tuple:
        return tuple(lab for lab, _ in self.exceptional)

    @property
    def tail_clean(self) -> bool:
        return not self.unspecified

    @property
    def certified_count(self) -> int:
        return self.table_size - len(self.exceptional) - len(self.unspecified)

    @property
    def proper_at_level(self) -> bool:
        return self.certified_count > 0


def _exceptional_set(B: BlockMap, values, ok, threshold: float,
                     nontrivial: bool = False) -> ExceptionalSet:
    """The scan of ``B`` whose ``values``, aligned with ``B.labels``, are on the
    good side where ``ok`` holds, so a NaN fails closed; ``nontrivial`` leaves
    the trivial label out of the scan."""
    bad, first = np.flatnonzero(~ok), int(nontrivial)
    labels, missing = B.labels, np.flatnonzero(B.rows[first:] < 0) + first
    return ExceptionalSet(threshold, tuple(zip([labels[i] for i in bad.tolist()],
                                               values[bad].tolist())),
                          tuple(B.table.labels[j] for j in missing.tolist()),
                          len(B.table) - first)


def _require_c0_eps(eps: float) -> None:
    """A state's blocks have norm at most 1, so only an ``eps`` in (0, 1) certifies decay."""
    if not 0 < eps < 1:
        raise ValueError(f"eps_decay (the c0 threshold) must lie in (0, 1), got {eps:g}")


def check_c0(F: MatrixFamily, eps: float) -> ExceptionalSet:
    """(label, norm) of the blocks whose norm is not verified <= ``eps`` (NaN
    counts as above), and the labels without a block, which make the scan
    inconclusive outside the support (``tail_clean`` is then False)."""
    _require_c0_eps(eps)
    return _exceptional_set(F, F.norms, F.norms <= eps, eps)


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


def is_state_candidate(F: MatrixFamily) -> StateCandidate:
    """True iff the trivial block is [1] and all norms are <= 1, within DEFAULT_TOL.

    ``worst_label`` names the block of largest norm, or the first NaN one.
    """
    triv = F.blocks.at(0)
    trivial_dev = math.inf if triv is None else abs(complex(triv[0, 0]) - 1.0)
    worst_norm = float(np.max(F.norms, initial=0.0))
    worst_label = F.table.encode(F.labels[np.argmax(F.norms)]) if worst_norm else ""
    ok = trivial_dev <= DEFAULT_TOL and worst_norm <= 1.0 + DEFAULT_TOL
    return StateCandidate(ok, trivial_dev, worst_norm, worst_label)


def family_content_digest(families) -> str:
    """Content hash of a family sequence (canonical label order)."""
    h = hashlib.sha256()
    if families:
        table = families[0].table
        for key, dim in zip(table.keys_at(np.arange(len(table))), table.dims.tolist()):
            h.update(key.encode())
            h.update(str(dim).encode())
    for F in families:
        for key, blk in zip(F.table.keys_at(F.positions), F.blocks.views()):
            h.update(key.encode())
            h.update(np.ascontiguousarray(blk).tobytes())
    return "sha256:" + h.hexdigest()


def _c0_scan(res: ExceptionalSet, table) -> tuple:
    """(exceptional, nontrivial exceptional, unspecified) of a ``check_c0`` result:
    its exceptional labels are in table order, so only the first can be trivial."""
    exc = res.exceptional_labels
    return len(exc), len(exc) - (exc[:1] == (table.trivial,)), res.unspecified


def _c0_verdict(exc: int, nontrivial_exc: int, unspecified: tuple, table, ctx: str):
    """Classify one c0 scan: (ok, witness).

    ``exc`` labels are above eps, ``nontrivial_exc`` of them nontrivial.
    Decay is only demandable at nontrivial labels (the trivial block of a
    state is always 1, it just sits inside the finite exceptional set), so
    the scan passes when the tail is verified and either the table has no
    nontrivial labels at all or at least one of them decayed below eps.
    """
    if unspecified:
        return False, Witness(
            label=table.encode(unspecified[0]),
            achieved=float(len(unspecified)), threshold=0.0,
            context=f"{ctx}: labels without blocks")
    nontrivial_total = len(table) - 1
    if nontrivial_total > 0 and nontrivial_exc >= nontrivial_total:
        return False, Witness(
            label="*", achieved=float(exc), threshold=float(nontrivial_total),
            context=f"{ctx}: no nontrivial label decayed below eps")
    return True, Witness(
        label="*", achieved=float(exc), threshold=float(len(table)),
        context=f"{ctx}: exceptional labels within truncation")


def _c0_condition(scans, table, eps_decay, contexts, noun: str) -> ConditionVerdict:
    """c0-decay verdict over one (exceptional, nontrivial exceptional,
    unspecified) scan per family, one context string each.

    Fails with every failing family's witness; otherwise reports the family
    with the most exceptional labels.
    """
    results = [_c0_verdict(*scan, table, ctx) for scan, ctx in zip(scans, contexts)]
    failed = tuple(w for ok, w in results if not ok)
    worst = max((w for _, w in results), key=lambda w: w.achieved, default=None)
    return ConditionVerdict(
        name="c0-decay", passed=not failed,
        witnesses=failed or ((worst,) if worst else ()),
        summary=f"{noun} norms above eps_decay form a finite set, "
                f"tail verified <= {eps_decay:g}")


def _threshold_condition(name: str, summary: str, estimate, threshold, table, at, context,
                         contexts, failed=(), margin=0.0, exact=None) -> ConditionVerdict:
    """Verdict over rows held as arrays, in row order.

    Row r holds only when its achieved value a <= threshold[r], so NaN on
    either side fails closed.  Up front only ``estimate`` is known, with
    |a - estimate[r]| <= margin[r] even after the sum estimate + margin is
    rounded; a margin of 0 means the estimate is a.  ``exact(rows)`` gives
    a at an ascending index array; it is asked only for the rows whose
    bracket does not clear the threshold and for those that may be the worst
    row.  Every failing row is a witness, after the ``failed`` witnesses
    found up front; when nothing fails, the first row of largest
    a - threshold is reported instead.  A reported row r names the label at
    table position ``at[r]`` in the context ``contexts[context[r]]``; the
    rows are kept as ``WitnessRows``, so labels are encoded only when shown.
    """
    achieved = np.array(estimate, dtype=float)
    threshold = np.asarray(threshold, dtype=float)
    margin = np.broadcast_to(np.asarray(margin, dtype=float), achieved.shape)
    unknown = margin != 0

    def settle(rows):
        rows = rows[unknown[rows]]
        if rows.size:
            achieved[rows] = exact(rows)
            unknown[rows] = False

    settle(np.flatnonzero(~(achieved + margin <= threshold)))
    reported = np.flatnonzero(~(achieved <= threshold))
    passed = not failed and not reported.size
    if passed and achieved.size:
        # the worst row is among those whose slack can reach the best sure slack
        low = np.where(unknown, (achieved - margin) - threshold, achieved - threshold)
        high = np.where(unknown, (achieved + margin) - threshold, achieved - threshold)
        settle(np.flatnonzero(high >= low.max()))
        reported = np.argmax(np.where(unknown, -np.inf, achieved - threshold), keepdims=True)
    rows = WitnessRows(tuple(failed), table, at[reported], achieved[reported],
                       threshold[reported], np.array(contexts, dtype=object)[context[reported]])
    return ConditionVerdict(name=name, passed=passed, witnesses=rows, summary=summary)


def _rows(per_family, dtype=float) -> np.ndarray:
    """The per-family value arrays laid end to end: the row order of a condition."""
    return np.concatenate([np.empty(0, dtype=dtype), *per_family])


def _identity_condition(deviations, table, conv_tols, contexts, summary: str,
                        unspecified=None, margin=0.0, exact=None) -> ConditionVerdict:
    """identity-convergence: ||block_k - I|| <= conv_tols[k] at every table label.

    ``deviations[k]`` holds family k's values in table order, inf where
    ``unspecified[k]`` marks a label without a block, which fails; so does a
    tolerance schedule that increases.
    """
    failed = ()
    if any(b > a for a, b in zip(conv_tols, conv_tols[1:])):
        failed = (Witness(label="*", achieved=max(conv_tols), threshold=conv_tols[0],
                          context="conv_tols schedule is not nonincreasing"),)
    n, stages = len(table), len(conv_tols)
    context = np.repeat(np.arange(stages), n)
    if unspecified is not None:
        context[_rows(unspecified, bool)] += stages
    return _threshold_condition(
        "identity-convergence", summary, _rows(deviations), np.repeat(conv_tols, n), table,
        np.tile(np.arange(n), stages), context,
        [*contexts, *(f"{c}: block unspecified" for c in contexts)], failed, margin, exact)


def _norm_bound_condition(name: str, summary: str, families, table, k_values,
                          tol: float, context, margin=0.0, exact=None) -> ConditionVerdict:
    """Block norm <= exp(-l/k) + tol at every row.

    ``families[i]`` is (positions, lengths, norms) of family i: the table
    positions of its rows, their lengths (each >= 1) and the block norms there;
    ``context(i, l)`` names family i at length l.
    """
    thresholds = [np.array([math.exp(-l / k) + tol
                            for l in range(int(lengths.max(initial=0)) + 1)])[lengths]
                  for (_, lengths, _), k in zip(families, k_values)]
    width = 1 + max((int(lengths.max(initial=0)) for _, lengths, _ in families), default=0)
    return _threshold_condition(
        name, summary, _rows(norms for _, _, norms in families), _rows(thresholds), table,
        _rows((positions for positions, _, _ in families), np.intp),
        _rows((i * width + lengths for i, (_, lengths, _) in enumerate(families)), np.intp),
        [context(i, l) for i in range(len(families)) for l in range(width)],
        margin=margin, exact=exact)


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

    present = [F.rows >= 0 for F in seq]
    deviations = [np.full(len(table), math.inf) for _ in seq]
    for dev, F, here in zip(deviations, seq, present):
        dev[here] = F.deviations
    conditions = [
        _c0_condition([_c0_scan(check_c0(F, eps_decay), table) for F in seq], table,
                      eps_decay, contexts, "block"),
        _identity_condition(deviations, table, conv_tols, contexts,
                            "||block - I|| within the per-family tolerance schedule",
                            unspecified=[~here for here in present]),
    ]
    if k_values is not None:
        # the trivial label, first in table order, is the one label of length 0
        rows = [(np.flatnonzero(here[1:]) + 1, F.norms[int(here[0]):])
                for F, here in zip(seq, present)]
        conditions.append(_norm_bound_condition(
            "damped-norm-bound", "nontrivial block norms <= exp(-1/k) + tol",
            [(at, np.ones(len(at), dtype=int), norms) for at, norms in rows],
            table, k_values, tol, lambda i, _: contexts[i]))

    return CertificationReport(
        command="certify-hap",
        input_digest=input_digest or family_content_digest(seq),
        truncation=f"{len(table)} labels",
        tolerances=(("tol", tol), ("eps_decay", eps_decay)),
        conditions=tuple(conditions),
        notes=(f"conv_tols: {', '.join(f'{x:g}' for x in conv_tols)}",)
        + ((f"k_values: {', '.join(str(k) for k in k_values)}",) if k_values else ()),
    )
