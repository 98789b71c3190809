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
functionals and cocycles, one stack per block side.  ``_threshold_condition``
is the one verdict kernel behind every per-label threshold check: here, in
``classical``, in ``genfun`` and, through ``genfun``'s checks, in ``cocycle``.
The "good side of a threshold outside a finite set" conditions have one
builder each: ``_c0_condition`` for c0-decay and ``_proper_condition`` for the
``cocycle`` report's proper-at-level.  The ``certify-hap`` and ``freeprod``
conditions (``_c0_condition``, ``_identity_condition``,
``_norm_bound_condition``, called here and in ``cfree``) read their values off
one stage-major (stage, table position) grid.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _linalg
from .reports import (CertificationReport, ConditionVerdict, Witness, WitnessRows,
                      _matrix_template, fmt, log_info, sha256)

NORMALIZED_ATOL = 1e-9
DEFAULT_TOL = 1e-9
_RUN = 32  # blocks per batch of ``block_texts``: one batch's numbers and texts live at a time


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

    def json_texts(self, depth) -> tuple:
        """Its sorted block keys and their texts (``block_texts``), for ``json_pieces``."""
        return block_texts(self.table.keys_at(self.positions), self.table.dims[self.positions],
                           self.rows[self.positions], self.stacks, depth)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)}/{len(self.table)} blocks)"


def block_texts(keys: list, sides: np.ndarray, rows: np.ndarray, stacks: Mapping,
                depth) -> tuple:
    """``keys`` sorted, and an iterator over the JSON texts of their blocks, that of
    ``keys[i]`` being row ``rows[i]`` of ``stacks[sides[i]]``: its interleaved real and
    imaginary parts in ``_matrix_template(side, depth)``.  The texts are made
    ``_RUN`` blocks at a time, with one list of numbers per side."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [keys[i] for i in order], _batched_texts(sides[order], rows[order], stacks, depth)


def _batched_texts(sides: np.ndarray, rows: np.ndarray, stacks: Mapping, depth):
    for lo in range(0, len(sides), _RUN):
        at, texts = slice(lo, lo + _RUN), np.empty(min(_RUN, len(sides) - lo), dtype=object)
        for d in {*sides[at].tolist()}:
            mine = sides[at] == d
            values = stacks[d][rows[at][mine]].view(np.float64).reshape(-1).tolist()
            template, step = _matrix_template(d, depth), 2 * d * d
            # a tuple display has a known size, which the tuple free lists then reuse
            texts[mine] = [template % (*map(float.__repr__, values[i:i + step]),)
                           for i in range(0, len(values), step)]
        yield from texts.tolist()


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
        log_info(__name__, "convolve: %d labels outside common support omitted", omitted)
    blocks = stacked_blocks(F.table, [(at, F.blocks.gather(d, at) @ G.blocks.gather(d, at))
                                      for d, at in _by_side(F.table, common).items()])
    return MatrixFamily(F.table, blocks, normalized=F.normalized and G.normalized)


def _require_c0_eps(eps: float) -> None:
    """A state's blocks have norm at most 1, so only an ``eps`` in (0, 1) certifies decay."""
    if not 0 < eps < 1:
        raise ValueError(f"eps_decay (the c0 threshold) must lie in (0, 1), got {eps:g}")


def family_content_digest(families) -> str:
    """Content hash of a family sequence (canonical label order)."""
    h = sha256()
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


def _c0_condition(norms, table, eps_decay: float, contexts, noun: str, present=True,
                  margin=0.0, exact=None) -> ConditionVerdict:
    """c0-decay: each family's block norms are <= eps_decay outside a finite set.

    ``norms[i, j]`` is family i's block norm at table position j, within
    ``margin`` (0: exact) of the value ``exact`` gives, and ``present[i, j]``
    says it has a block; all three read the grid flat, stage-major.  A label
    is exceptional unless its norm is verified <= eps_decay, so NaN is;
    ``exact`` is asked only for the rows whose bracket straddles eps_decay.

    Decay is only demandable at nontrivial labels (the trivial block of a
    state is always 1, it just sits inside the finite exceptional set), so a
    family passes when it has a block at every label and at least one
    nontrivial label decayed below eps; a table without one fails.
    Fails with every failing family's witness; otherwise reports the first
    family with the most exceptional labels.
    """
    _require_c0_eps(eps_decay)
    norms = np.asarray(norms, dtype=float)
    margin = np.broadcast_to(margin, norms.size).reshape(norms.shape)
    rows = np.flatnonzero((margin != 0) & ~(norms - margin > eps_decay)
                          & ~(norms + margin <= eps_decay))
    over, missing = ~(norms <= eps_decay), np.broadcast_to(~np.asarray(present), norms.shape)
    if rows.size:
        over.flat[rows] = ~(exact(rows) <= eps_decay)
    total, failed, worst = len(table) - 1, [], None
    for i, ctx in enumerate(contexts):
        exc = int(np.count_nonzero(over[i]))
        if (gaps := np.flatnonzero(missing[i])).size:
            failed.append(Witness(label=table.encode(table.labels[gaps[0]]),
                                  achieved=float(gaps.size), threshold=0.0,
                                  context=f"{ctx}: labels without blocks"))
        elif np.count_nonzero(over[i, 1:]) >= total:
            failed.append(Witness(label="*", achieved=float(exc), threshold=float(total),
                                  context=f"{ctx}: no nontrivial label decayed below eps"))
        elif worst is None or exc > worst.achieved:
            worst = Witness(label="*", achieved=float(exc), threshold=float(len(table)),
                            context=f"{ctx}: exceptional labels within truncation")
    return ConditionVerdict(
        name="c0-decay", passed=not failed,
        witnesses=tuple(failed) or ((worst,) if worst else ()),
        summary=f"{noun} norms above eps_decay form a finite set, "
                f"tail verified <= {eps_decay:g}")


def _proper_condition(lows, M: float, table, at, truncation: str) -> ConditionVerdict:
    """proper-at-level: ``lows[r]``, the smallest eigenvalue of (c*)c at table
    position ``at[r]``, is >= M outside a finite set.  Within the truncation
    that means at least one row is certified >= M (NaN fails closed); every
    other row is a witness."""
    bad = np.flatnonzero(~(lows >= M))
    return ConditionVerdict(
        name="proper-at-level", passed=bad.size < len(lows),
        witnesses=WitnessRows((), table, at[bad], lows[bad], np.full(bad.size, float(M)),
                              np.full(bad.size, "min eigenvalue of (c*)c", dtype=object)),
        summary=(f"proper at level M={fmt(M)} (up to a truncation of {truncation}): "
                 f"{len(lows) - bad.size} blocks certified >= M"))


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
    found up front and a ``'*'`` one if there are no rows; when nothing
    fails, the first row of largest a - threshold[r] is reported instead, or
    of largest a, which is exact, when ``threshold`` is one value for all
    rows.  A reported row r names the label at table position ``at[r]`` in
    the context ``contexts[context[r]]``; the rows are kept as
    ``WitnessRows``, so labels are encoded only when shown.
    ``threshold``, ``margin`` and ``context`` may each be one value for all rows.
    """
    achieved = np.array(estimate, dtype=float)
    if not achieved.size:  # a condition that compared nothing certifies nothing
        failed = (*failed, Witness("*", 0.0, 1.0, "no rows compared"))
    one = np.ndim(threshold) == 0
    threshold = np.broadcast_to(np.asarray(threshold, dtype=float), achieved.shape)
    offset = 0.0 if one else threshold  # what ranks the rows is a - offset
    margin = np.broadcast_to(np.asarray(margin, dtype=float), achieved.shape)
    context = np.broadcast_to(context, achieved.shape)
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
        low = np.where(unknown, (achieved - margin) - offset, achieved - offset)
        high = np.where(unknown, (achieved + margin) - offset, achieved - offset)
        settle(np.flatnonzero(high >= low.max()))
        reported = np.argmax(np.where(unknown, -np.inf, achieved - offset), keepdims=True)
    rows = WitnessRows(tuple(failed), table, at[reported], achieved[reported],
                       threshold[reported], np.array(contexts, dtype=object)[context[reported]])
    return ConditionVerdict(name=name, passed=passed, witnesses=rows, summary=summary)


def _identity_condition(deviations, table, conv_tols, contexts, summary: str,
                        present=True, margin=0.0, exact=None) -> ConditionVerdict:
    """identity-convergence: ||block_k - I|| <= conv_tols[k] at every table label.

    ``deviations[k, j]`` holds family k's value at table position j, inf where
    ``present[k, j]`` is False, a label without a block, which fails; so does a
    tolerance schedule that increases.  The grid is read flat, stage-major,
    and so are ``margin`` and the rows ``exact`` is asked for.
    """
    failed = ()
    if any(b > a for a, b in zip(conv_tols, conv_tols[1:])):
        failed = (Witness(label="*", achieved=max(conv_tols), threshold=conv_tols[0],
                          context="conv_tols schedule is not nonincreasing"),)
    n, stages = len(table), len(conv_tols)
    context = np.repeat(np.arange(stages), n)
    context[~np.broadcast_to(present, np.shape(deviations)).reshape(-1)] += stages
    return _threshold_condition(
        "identity-convergence", summary, np.ravel(deviations), np.repeat(conv_tols, n), table,
        np.tile(np.arange(n), stages), context,
        [*contexts, *(f"{c}: block unspecified" for c in contexts)], failed, margin, exact)


def _norm_bound_condition(name: str, summary: str, norms, lengths, table, k_values,
                          tol: float, context, present=True, margin=0.0,
                          exact=None) -> ConditionVerdict:
    """Block norm <= exp(-l/k) + tol at every present label of length l >= 1.

    ``norms[i, j]`` is the block norm of family i at table position j, whose
    length is ``lengths[j]``; ``present[i, j]`` says it has a block.  The rows
    are taken stage-major, and ``margin`` and the rows ``exact`` is asked for
    read the grid flat.  ``context(i, l)`` names family i at length l.
    """
    rows = np.flatnonzero(np.broadcast_to(present & (lengths >= 1), np.shape(norms)))
    stage, at = np.divmod(rows, len(table))
    length = lengths[at]
    width = 1 + int(length.max(initial=0))
    bounds = np.array([[math.exp(-l / k) + tol for l in range(width)] for k in k_values])
    return _threshold_condition(
        name, summary, np.ravel(norms)[rows], bounds[stage, length], table, at,
        stage * width + length,
        [context(i, l) for i in range(len(k_values)) for l in range(width)],
        margin=np.broadcast_to(margin, np.size(norms))[rows], exact=lambda r: exact(rows[r]))


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

    present = np.array([F.rows >= 0 for F in seq])
    norms, deviations = np.full((2, *present.shape), math.inf)
    for i, F in enumerate(seq):
        norms[i, present[i]], deviations[i, present[i]] = F.norms, F.deviations
    conditions = [
        _c0_condition(norms, table, eps_decay, contexts, "block", present=present),
        _identity_condition(deviations, table, conv_tols, contexts,
                            "||block - I|| within the per-family tolerance schedule",
                            present=present),
    ]
    if k_values is not None:
        # the trivial label, first in table order, is the one label of length 0
        conditions.append(_norm_bound_condition(
            "damped-norm-bound", "nontrivial block norms <= exp(-1/k) + tol", norms,
            np.minimum(np.arange(len(table)), 1), table, k_values, tol,
            lambda i, _: contexts[i], present=present))

    return CertificationReport(
        command="certify-hap",
        input_digest=input_digest or family_content_digest(seq),
        truncation=f"{len(table)} labels",
        tolerances=(("tol", tol), ("eps_decay", eps_decay)),
        conditions=tuple(conditions),
        notes=(f"conv_tols: {', '.join(f'{x:g}' for x in conv_tols)}",)
        + ((f"k_values: {', '.join(str(k) for k in k_values)}",) if k_values else ()),
    )


# Kept only because the benchmark tracer wraps it by name; it goes with the tracer's span.
def check_c0(F: MatrixFamily, eps: float) -> ConditionVerdict:
    """The c0-decay verdict that ``check_hap_sequence`` gives for the sequence ``[F]``."""
    return check_hap_sequence([F], eps, [1.0]).conditions[0]
