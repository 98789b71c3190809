"""Independent oracles used to pin expected values before checking hapkit.

Everything in this module is deliberately written from first principles
(plain loops, closed forms, textbook extrapolation weights) and never calls
into the code paths it is used to check.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import reduce

import numpy as np

import hapkit as hk
from hapkit import serialize


def alternating_words(ids1, ids2, max_len):
    """Brute-force enumeration of alternating two-factor words.

    Returns all tuples ((factor, id), ...) of length <= max_len, including
    the empty word, built by filtering the full product of letter choices.
    """
    pools = {1: list(ids1), 2: list(ids2)}
    words = [()]
    for k in range(1, max_len + 1):
        letter_choices = [(fi, id_) for fi in (1, 2) for id_ in pools[fi]]
        for combo in itertools.product(letter_choices, repeat=k):
            if all(combo[i][0] != combo[i + 1][0] for i in range(k - 1)):
                words.append(combo)
    return words


def product_words(t1, t2, max_len):
    """(Word, dim) of every alternating word of length <= max_len, by the
    per-word loop: itertools.product over the nontrivial labels of each
    (length, first factor) letter pattern, one ``Word`` per word."""
    from hapkit.irreps import Word
    nontrivial = {1: t1.labels[1:], 2: t2.labels[1:]}
    tables = {1: t1, 2: t2}
    words = [(Word(()), 1)]
    for k in range(1, max_len + 1):
        for start in (1, 2):
            pattern = [start if j % 2 == 0 else 3 - start for j in range(k)]
            for combo in itertools.product(*[nontrivial[fi] for fi in pattern]):
                letters = tuple(zip(pattern, combo))
                words.append((Word(letters), math.prod(tables[fi].dim(lab) for fi, lab in letters)))
    return words



def parse_word(encoding: str, factor1, factor2) -> hk.Word:
    """Inverse of ``Word.encode`` relative to the two factor tables, letter by letter."""
    if encoding == "":
        return hk.Word(())
    letters = []
    for part in encoding.split("|"):
        fi_str, _, id_ = part.partition(":")
        if fi_str not in ("1", "2") or not id_:
            raise ValueError(f"malformed word letter {part!r}")
        fi = int(fi_str)
        table = factor1 if fi == 1 else factor2
        letters.append((fi, table.decode(id_)))
    return hk.Word(tuple(letters))

def word_groups(wp, F1, F2):
    """{(factor, side) per letter: (positions, letter rows)} over the nontrivial
    words of ``wp``, by a loop over its ``Word`` objects; a letter's row counts
    the factor's earlier blocks of its side, in table order."""
    slots, seen = {}, {}
    for fi, F in ((1, F1), (2, F2)):
        for lab in F.table.labels[1:]:
            if lab in F.blocks:
                side = F.blocks[lab].shape[0]
                slots[fi, lab.id] = (fi, side), seen.get((fi, side), 0)
                seen[fi, side] = seen.get((fi, side), 0) + 1
    groups = {}
    for pos, (word, _) in enumerate(wp):
        if word.letters:
            try:
                key, rows = zip(*[slots[fi, lab.id] for fi, lab in word.letters])
            except KeyError as exc:
                fi, lab_id = exc.args[0]
                raise KeyError(f"missing letter block: factor {fi}, label {lab_id!r}") from None
            positions, index = groups.setdefault(key, ([], []))
            positions.append(pos)
            index.append(rows)
    return {key: (np.array(positions), np.array(index)) for key, (positions, index) in groups.items()}


def alternating_count(p: int, q: int, k: int) -> int:
    """Closed-form count of alternating words of exact length k >= 1."""
    if k == 0:
        return 1
    start1 = p ** math.ceil(k / 2) * q ** (k // 2)
    start2 = q ** math.ceil(k / 2) * p ** (k // 2)
    return start1 + start2


def free_group_ball_size(rank: int, radius: int) -> int:
    """1 + sum over spheres 2n*(2n-1)^(k-1) of the free group of given rank."""
    total = 1
    for k in range(1, radius + 1):
        total += 2 * rank * (2 * rank - 1) ** (k - 1)
    return total


def reduce_word(orders, letters) -> tuple:
    """Reduced form of a sequence of letters (generator, exponent) in the free
    product of cyclic groups of ``orders`` (0: infinite order): letters of one
    generator merge as they meet, an order-m exponent is taken mod m, and a
    letter of exponent 0 drops out."""
    reduced = []
    for i, e in letters:
        reduced.append((i, e))
        while reduced:
            j, f = reduced[-1]
            f = f % orders[j] if orders[j] else f
            if f == 0:
                reduced.pop()
            elif len(reduced) >= 2 and reduced[-2][0] == j:
                reduced[-2:] = [(j, reduced[-2][1] + f)]
            else:
                reduced[-1] = (j, f)
                break
    return tuple(reduced)


def multiply_words(orders, g, h) -> tuple:
    """Reduced product of two reduced words."""
    return reduce_word(orders, g + h)


def inverse_word(orders, g) -> tuple:
    """Reduced inverse of a reduced word."""
    return tuple((i, -e if orders[i] == 0 else orders[i] - e) for i, e in reversed(g))


def word_length(orders, g) -> int:
    """Word metric of a reduced word: a letter costs |e| (infinite order) or
    min(e, m - e) (order m)."""
    return sum(abs(e) if orders[i] == 0 else min(e, orders[i] - e) for i, e in g)


def encode_word(g) -> str:
    """"e", or the letters as "a^2.b^-1" (generators a..z, then g26, g27, ...)."""
    def name(i):
        return chr(ord("a") + i) if i < 26 else f"g{i}"
    return ".".join(f"{name(i)}^{e}" for i, e in g) or "e"


def ball_words(orders, radius: int) -> list:
    """Reduced words of length <= radius, ordered by (length, encoding), by a
    breadth-first multiply-and-reduce search with the generators and their
    inverses as moves."""
    moves = [((i, s),) for i, m in enumerate(orders) for s in ((1,) if m == 2 else (1, -1))]
    seen = {(): 0}
    frontier = [()]
    for r in range(1, radius + 1):
        new = []
        for g in frontier:
            for s in moves:
                h = multiply_words(orders, g, s)
                if h not in seen:
                    seen[h] = r
                    new.append(h)
        frontier = new
    return sorted(seen, key=lambda g: (seen[g], encode_word(g)))


def word_length_gram(orders, words, t: float) -> np.ndarray:
    """exp(-t * length(g^-1 h)) over ``words`` by group arithmetic: one
    multiply-and-reduce of reduced words per pair."""
    n = len(words)
    gram = np.empty((n, n))
    for i in range(n):
        inverse = inverse_word(orders, words[i])
        for j in range(i, n):
            distance = word_length(orders, multiply_words(orders, inverse, words[j]))
            gram[i, j] = gram[j, i] = math.exp(-t * distance)
    return gram


def zdual_values(radius: int):
    """Label values n = -radius..radius of the integer-group dual."""
    return list(range(-radius, radius + 1))



def shift_unit(L: hk.GeneratingFunctional) -> hk.GeneratingFunctional:
    """L + (counit - haar): the identity added to every nontrivial block, label by label."""
    return hk.GeneratingFunctional(L.table, {lab: L[lab] + np.eye(len(L[lab]))
                                             for lab in L.labels if lab != L.table.trivial})

def lagrange_weights_at_zero(ts):
    """Extrapolation weights: p(0) = sum w_i p(t_i) for the interpolant."""
    weights = []
    for i, ti in enumerate(ts):
        w = 1.0
        for j, tj in enumerate(ts):
            if j != i:
                w *= tj / (tj - ti)
        weights.append(w)
    return weights


def scalar_quotient_extrapolation(lam: float, ts):
    """Extrapolated (1 - exp(-lam*t))/t difference quotients at t -> 0."""
    weights = lagrange_weights_at_zero(ts)
    return sum(w * (1.0 - math.exp(-lam * t)) / t for w, t in zip(weights, ts))


def zdual_word_norm(letters, k: float) -> float:
    """Scalar-product oracle: a word over two integer-group duals at stage k
    has block value prod_j exp(-|n_j| / k)."""
    out = 1.0
    for n in letters:
        out *= math.exp(-abs(n) / k)
    return out


def kron_word_blocks(phi1, phi2, wp):
    """Per-word conditionally free product: reduce(np.kron) over the letter
    blocks of every nontrivial word, in letter order."""
    families = {1: phi1, 2: phi2}
    return {word: reduce(np.kron, [families[fi].blocks[lab] for fi, lab in word.letters])
            for word, _ in wp if not word.is_trivial}


def kron_sum_word_blocks(L1, L2, wp):
    """Per-word Leibniz generator: sum_j I x ... x L^{a_j} x ... x I."""
    functionals = {1: L1, 2: L2}
    out = {}
    for word, dim in wp:
        if word.is_trivial:
            continue
        letters = [functionals[fi].blocks[lab] for fi, lab in word.letters]
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for j, blk in enumerate(letters):
            factors = [np.eye(b.shape[0], dtype=np.complex128) for b in letters]
            factors[j] = blk
            acc = acc + reduce(np.kron, factors)
        out[word] = acc
    return out


def block_norms(blocks, minus_identity=False):
    """One numpy operator-norm call per block, in order; NaN for a non-finite block."""
    return [float(np.linalg.norm(blk - np.eye(blk.shape[0]) if minus_identity else blk, 2))
            if np.isfinite(blk).all() else math.nan for blk in blocks]


def threshold_verdict(name, summary, rows, failed=()):
    """The per-row verdict loop over (label, achieved, threshold, context) tuples:
    a row holds only when achieved <= threshold; every failing row is a
    witness after ``failed``; when none fails, the first row of largest
    achieved - threshold is reported."""
    from hapkit.reports import ConditionVerdict, Witness
    witnesses = list(failed)
    worst = None
    for label, achieved, threshold, context in rows:
        if not achieved <= threshold:
            witnesses.append(Witness(label, achieved, threshold, context))
        elif worst is None or achieved - threshold > worst[0]:
            worst = (achieved - threshold, Witness(label, achieved, threshold, context))
    passed = not witnesses
    if passed and worst is not None:
        witnesses = [worst[1]]
    return ConditionVerdict(name=name, passed=passed, witnesses=tuple(witnesses),
                            summary=summary)


def freeprod_report(seq1, seq2, wp, eps_decay, conv_tols, k_values, tol, input_digest):
    """The free-product report from formed word blocks: every word by
    ``kron_word_blocks``, its norms by ``block_norms``, and each condition by
    ``threshold_verdict`` over one tuple per (stage, word)."""
    from hapkit.reports import CertificationReport, ConditionVerdict, Witness
    if not 0 < eps_decay < 1:
        raise ValueError("eps_decay must lie in (0, 1)")
    conv_tols = [float(x) for x in conv_tols]
    words = [w for w, _ in wp]
    norms, deviations = [], []
    for F1, F2 in zip(seq1, seq2):
        blocks = kron_word_blocks(F1, F2, wp)
        blocks[wp.trivial] = np.ones((1, 1), dtype=np.complex128)
        ordered = [blocks[w] for w in words]
        norms.append(block_norms(ordered))
        deviations.append(block_norms(ordered, minus_identity=True))
    contexts = [f"k={k}" for k in k_values]
    norm_rows = [(w.encode(), n, math.exp(-len(w) / k) + tol, f"{ctx}, length {len(w)}")
                 for stage, k, ctx in zip(norms, k_values, contexts)
                 for w, n in zip(words, stage) if len(w)]
    schedule = ()
    if any(b > a for a, b in zip(conv_tols, conv_tols[1:])):
        schedule = (Witness("*", max(conv_tols), conv_tols[0],
                            "conv_tols schedule is not nonincreasing"),)
    deviation_rows = [(w.encode(), d, thr, ctx)
                      for stage, thr, ctx in zip(deviations, conv_tols, contexts)
                      for w, d in zip(words, stage)]
    c0 = []
    for stage, ctx in zip(norms, contexts):
        exceptional = [w for w, n in zip(words, stage) if not n <= eps_decay]
        nontrivial = sum(1 for w in exceptional if len(w))
        if len(words) > 1 and nontrivial >= len(words) - 1:
            c0.append((False, Witness("*", float(len(exceptional)), float(len(words) - 1),
                                      f"{ctx}: no nontrivial label decayed below eps")))
        else:
            c0.append((True, Witness("*", float(len(exceptional)), float(len(words)),
                                     f"{ctx}: exceptional labels within truncation")))
    c0_failed = tuple(w for ok, w in c0 if not ok)
    c0_worst = max((w for _, w in c0), key=lambda w: w.achieved, default=None)
    return CertificationReport(
        command="freeprod",
        input_digest=input_digest,
        truncation=(f"word table: {len(wp)} words (max word length {wp.max_word_length}); "
                    f"factor1: {len(wp.factor1)} labels; factor2: {len(wp.factor2)} labels"),
        tolerances=(("tol", tol), ("eps_decay", eps_decay)),
        conditions=(
            threshold_verdict("word-norm-bound",
                              "length-l word blocks damped below exp(-l/k) + tol", norm_rows),
            threshold_verdict("identity-convergence",
                              "per-word ||block - I|| within the stage tolerance schedule",
                              deviation_rows, schedule),
            ConditionVerdict(
                name="c0-decay", passed=not c0_failed,
                witnesses=c0_failed or ((c0_worst,) if c0_worst else ()),
                summary=f"word norms above eps_decay form a finite set, "
                        f"tail verified <= {eps_decay:g}"),
        ),
        notes=(f"conv_tols: {', '.join(f'{x:g}' for x in conv_tols)}",
               f"k_values: {', '.join(str(k) for k in k_values)}"),
    )


def group_word_values(seq1, seq2, wp):
    """(norms, deviations, margins) of ``cfree._WordValues``, stage-major, by the
    loop over word groups that it replaced: per (factor, side) group of words
    (``word_groups``), every product of the letters' eigenvalues is formed, in
    letter order, and the largest |product - 1| taken."""
    from hapkit import _linalg, cfree
    unit = np.finfo(np.float64).eps / 2
    stages = [cfree._letter_stacks(F1, F2, wp, normalized=True) for F1, F2 in zip(seq1, seq2)]
    spectra = {k: _linalg.hermitian_eigenvalues(a.reshape(-1, *a.shape[2:])).reshape(a.shape[:3])
               for k, a in ((k, np.stack([s[k] for s in stages])) for k in stages[0])}
    norms, deviations, margins = (np.full((len(stages), len(wp)), x) for x in (1.0, 0.0, 0.0))
    groups = word_groups(wp, seq1[0], seq2[0]) if len(wp) > 1 else {}
    with np.errstate(over="ignore", invalid="ignore"):
        for key, (positions, index) in groups.items():  # (stages, words, d) arrays
            index = index.reshape(len(positions), len(key))
            letters = [spectra[k][:, index[:, j]] for j, k in enumerate(key)]
            norm, products = np.abs(letters[0]).max(axis=2), letters[0]
            for lam in letters[1:]:
                norm = norm * np.abs(lam).max(axis=2)
                products = (products[..., np.newaxis] * lam[..., np.newaxis, :]).reshape(
                    *lam.shape[:2], -1)
            sides = [d for _, d in key]
            norms[:, positions] = norm
            deviations[:, positions] = np.abs(products - 1.0).max(axis=2)
            margins[:, positions] = (32 * len(key) * (math.prod(sides) + sum(sides)) * unit
                                     * np.maximum(1.0, norm))
    margins[~np.isfinite(margins)] = np.nan
    return norms.ravel(), deviations.ravel(), margins.ravel()


def block_min_eigenvalues(blocks):
    """One numpy eigvalsh call per block on (B + B*)/2; NaN for a non-finite block."""
    return [float(np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0])
            if np.isfinite(blk).all() else math.nan for blk in blocks]


def block_expm_neg(blocks, t):
    """exp(-t*a) one block at a time: one eigh on (a + a*)/2 when the adjoint
    residual is at most 1e-12 * max(1, ||a||), scipy's expm otherwise."""
    import scipy.linalg
    out = []
    for a in blocks:
        norm, residual = block_norms([a, a - a.conj().T])
        if residual <= 1e-12 * max(1.0, norm):
            w, v = np.linalg.eigh((a + a.conj().T) / 2)
            out.append((v * np.exp(-t * w)) @ v.conj().T)
        else:
            out.append(scipy.linalg.expm(-t * a))
    return out


def block_psd_sqrt(blocks):
    """One eigh per block on (B + B*)/2: the root with negative eigenvalues
    clamped to 0 and the smallest eigenvalue; NaN for a non-finite block."""
    roots, lows = [], []
    for blk in blocks:
        if not np.isfinite(blk).all():
            roots.append(np.full(blk.shape, math.nan, dtype=np.complex128))
            lows.append(math.nan)
            continue
        w, v = np.linalg.eigh((blk + blk.conj().T) / 2)
        roots.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
        lows.append(float(w[0]))
    return roots, lows


def first_certified(deviations, eps):
    """Per label (one row of per-state deviations each), the 1-based first n
    from which deviation <= eps holds to the end of the range, or None."""
    n_states = len(eps)
    return [next((n0 + 1 for n0 in range(n_states)
                  if all(row[n] <= eps[n] for n in range(n0, n_states))), None)
            for row in deviations]


def matrix_to_obj(block) -> list:
    """A matrix as nested lists: rows of [re, im] pairs of Python floats."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(block)]


def canonical_json(obj) -> str:
    """The text ``reports.content_digest`` hashes: sorted keys, no spaces, ASCII."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def nested_json_text(obj) -> str:
    """json.dumps(..., sort_keys=True, indent=2, allow_nan=False) of ``obj``, and a
    newline, after every ``BlockMap`` leaf is turned into a dict from each label's
    ``encode`` to its block as nested lists by ``matrix_to_obj``."""
    def lists(o):
        if isinstance(o, hk.fourier.BlockMap):
            return {o.table.encode(lab): matrix_to_obj(blk) for lab, blk in o.items()}
        if isinstance(o, dict):
            return {k: lists(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [lists(v) for v in o]
        return o
    return json.dumps(lists(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


class SchemaFault(ValueError):
    """A rejected input of the per-entry reader below."""


def matrix_from_obj(obj, where: str) -> np.ndarray:
    """One matrix, checked and converted entry by entry, row by row."""
    def expect(cond, what):
        if not cond:
            raise SchemaFault(f"{where}: {what}")

    expect(isinstance(obj, list) and obj, "matrix must be a nonempty list of rows")
    n = len(obj)
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(obj):
        expect(isinstance(row, list) and len(row) == n, f"row {i} must have {n} entries")
        for j, entry in enumerate(row):
            expect(isinstance(entry, list) and len(entry) == 2
                   and isinstance(entry[0], (int, float)) and not isinstance(entry[0], bool)
                   and isinstance(entry[1], (int, float)) and not isinstance(entry[1], bool),
                   f"entry ({i},{j}) must be an [re, im] pair of numbers")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:  # a JSON integer beyond the float range
                raise SchemaFault(f"{where}: entry ({i},{j}) must be finite") from None
    expect(np.isfinite(out).all(), "entries must be finite")
    return out


def blocks_from_obj(table, obj, where: str) -> dict:
    """A 'blocks' object read key by key in file order, each matrix by ``matrix_from_obj``."""
    if not isinstance(obj, dict):
        raise SchemaFault(f"{where}: 'blocks' must be an object")
    out = {}
    for key, mat in obj.items():
        try:
            label = table.decode(key)
        except KeyError as exc:
            raise SchemaFault(f"{where}: unknown block key {key!r} ({exc})") from None
        block = out[label] = matrix_from_obj(mat, f"{where}.blocks[{key!r}]")
        if len(block) != table.dim(label):
            raise SchemaFault(f"{where}.blocks[{key!r}]: block has side {len(block)}, "
                              f"expected {table.dim(label)}")
    return out


def family_from_obj(obj, where: str = "family") -> hk.MatrixFamily:
    """A bare family file read back (no CLI path reads one): not an oracle, but
    ``serialize``'s shared reader with the class it builds."""
    return serialize._map_from_obj(obj, where, hk.MatrixFamily, None)


def cocycle_from_obj(obj, where: str = "cocycle") -> hk.CocycleMatrices:
    """A cocycle file read back, as ``family_from_obj`` reads a family file."""
    return serialize._map_from_obj(obj, where, hk.CocycleMatrices, "cocycle")


class LabelBlockMap:
    """The per-label block map: one read-only complex128 array per label, in
    table order, each checked on its own; a generating functional's missing
    trivial block becomes [0], as the stacked map makes it."""

    def __init__(self, table, blocks, generator=False):
        store = {}
        for label in table.labels:
            if label in blocks:
                a = np.array(blocks[label], dtype=np.complex128)
                if a.ndim != 2 or a.shape[0] != a.shape[1]:
                    raise ValueError(f"block must be a square matrix, got shape {a.shape}")
                if a.shape[0] != table.dim(label):
                    raise ValueError(f"block has side {a.shape[0]}, expected {table.dim(label)}")
                a.setflags(write=False)
                store[label] = a
        if len(store) != len(blocks):
            extra = [k for k in blocks if k not in store]
            raise KeyError(f"blocks supplied for labels outside the table: {extra!r}")
        if generator and table.trivial not in store:
            store = {table.trivial: np.zeros((1, 1), dtype=np.complex128), **store}
        self.table, self.blocks = table, store
        self.labels = tuple(store)
        values = list(store.values())
        self.norms = np.array(block_norms(values))
        self.deviations = np.array(block_norms(values, minus_identity=True))
        self.residuals = np.array(block_norms([b - b.conj().T for b in values]))


def label_semigroup(L: LabelBlockMap, t):
    """label -> exp(-t L^a) by ``block_expm_neg``, one nontrivial label at a
    time, and [1] at the trivial label."""
    nontrivial = [lab for lab in L.labels if lab != L.table.trivial]
    out = dict(zip(nontrivial, block_expm_neg([L.blocks[lab] for lab in nontrivial], t)))
    out[L.table.trivial] = np.ones((1, 1), dtype=np.complex128)
    return {lab: out[lab] for lab in L.labels}


def label_factor(L: LabelBlockMap, tol):
    """label -> principal root of L^a + (L^a)* by ``block_psd_sqrt``, or the
    ValueError text for the first label whose smallest eigenvalue is below -tol."""
    nontrivial = [lab for lab in L.labels if lab != L.table.trivial]
    roots, lows = block_psd_sqrt([L.blocks[lab] + L.blocks[lab].conj().T for lab in nontrivial])
    for lab, low in zip(nontrivial, lows):
        if not low >= -tol:
            return (f"block {L.table.encode(lab)!r}: matrix is not positive semidefinite: "
                    f"eigenvalue {float(low)}")
    return dict(zip(nontrivial, roots))


def label_c0(table, blocks, eps):
    """(exceptional (label, norm) pairs, unspecified labels, labels scanned) of
    the family blocks at threshold eps, one operator norm per label."""
    labels = [lab for lab in table.labels if lab in blocks]
    norms = block_norms([blocks[lab] for lab in labels])
    return (tuple((lab, norm) for lab, norm in zip(labels, norms) if not norm <= eps),
            tuple(lab for lab in table.labels if lab not in blocks), len(table.labels))


def label_proper(table, blocks, M):
    """(exceptional (label, low) pairs, unspecified labels, labels scanned) of
    the generator blocks at level M, with [0] at a missing trivial label, one
    ``eigvalsh`` per label; or the ValueError text when a Hermitian residual
    is over 1e-9 or NaN."""
    blocks = {table.trivial: np.zeros((1, 1), dtype=np.complex128), **blocks}
    residuals = block_norms([blk - blk.conj().T for blk in blocks.values()])
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    if not worst <= 1e-9:
        return f"properness is defined for symmetric functionals (Hermitian residual {worst:g})"
    labels = [lab for lab in table.labels if lab in blocks]
    lows = block_min_eigenvalues([blocks[lab] for lab in labels])
    return (tuple((lab, low) for lab, low in zip(labels, lows) if not low >= M),
            tuple(lab for lab in table.labels if lab not in blocks), len(table.labels))


def label_proper_cocycle(table, blocks, M):
    """(exceptional (label, low) pairs, unspecified labels, labels scanned) of
    the cocycle blocks at level M, one ``eigvalsh`` of (c*)c per label in
    table order; the trivial label is not scanned."""
    labels = [lab for lab in table.labels if lab in blocks]
    lows = block_min_eigenvalues([blocks[lab].conj().T @ blocks[lab] for lab in labels])
    return (tuple((lab, low) for lab, low in zip(labels, lows) if not low >= M),
            tuple(lab for lab in table.labels[1:] if lab not in blocks), len(table.labels) - 1)


def label_build_from_states(table, seq, betas, eps):
    """(generator blocks, first_certified, f_sets) of sum_n beta_n (counit - mu_n),
    one label at a time; ``seq`` holds one label -> block dict per state.
    Python's sum starts from the integer 0, as the library's does."""
    support = [lab for lab in table.labels
               if lab != table.trivial and all(lab in F for F in seq)]
    blocks = {lab: sum(b * (np.eye(table.dim(lab)) - F[lab]) for b, F in zip(betas, seq))
              for lab in support}
    deviations = [[block_norms([F[lab]], minus_identity=True)[0] for F in seq]
                  for lab in support]
    first = dict(zip(support, first_certified(deviations, eps)))
    f_sets = tuple(frozenset(lab for lab, row in zip(support, deviations) if row[n] <= eps[n])
                   for n in range(len(seq)))
    return blocks, first, f_sets


def label_key(table, j: int) -> str:
    """The key of the label at position ``j``, from the label itself."""
    label = table.labels[j]
    return label.id if hasattr(label, "id") else label.encode()


def closure_threshold_condition(name, summary, estimate, threshold, witness,
                                failed=(), margin=0.0, exact=None):
    """The verdict kernel with one ``Witness`` per reported row, built as the
    row is found by ``witness(r, achieved)``."""
    from hapkit.reports import ConditionVerdict
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
    witnesses = list(failed) + [witness(int(r), float(achieved[r]))
                                for r in np.flatnonzero(~(achieved <= threshold))]
    passed = not witnesses
    if passed and achieved.size:
        low = np.where(unknown, (achieved - margin) - threshold, achieved - threshold)
        high = np.where(unknown, (achieved + margin) - threshold, achieved - threshold)
        settle(np.flatnonzero(high >= low.max()))
        r = int(np.argmax(np.where(unknown, -np.inf, achieved - threshold)))
        witnesses = [witness(r, float(achieved[r]))]
    return ConditionVerdict(name=name, passed=passed, witnesses=tuple(witnesses),
                            summary=summary)


def closure_identity_condition(deviations, table, conv_tols, contexts, summary,
                               unspecified=None, margin=0.0, exact=None):
    """identity-convergence through ``closure_threshold_condition``."""
    from hapkit.reports import Witness
    failed = ()
    if any(b > a for a, b in zip(conv_tols, conv_tols[1:])):
        failed = (Witness(label="*", achieved=max(conv_tols), threshold=conv_tols[0],
                          context="conv_tols schedule is not nonincreasing"),)
    n = len(table)

    def witness(r, achieved):
        k, j = divmod(r, n)
        gap = unspecified is not None and unspecified[k][j]
        return Witness(label_key(table, j), achieved, conv_tols[k],
                       f"{contexts[k]}: block unspecified" if gap else contexts[k])
    return closure_threshold_condition(
        "identity-convergence", summary, np.concatenate([np.empty(0), *deviations]),
        np.repeat(conv_tols, n), witness, failed, margin, exact)


def closure_norm_bound_condition(name, summary, families, table, k_values, tol, context,
                                 margin=0.0, exact=None):
    """The word and damped norm bounds through ``closure_threshold_condition``."""
    from hapkit.reports import Witness
    thresholds = [np.array([math.exp(-l / k) + tol
                            for l in range(int(lengths.max(initial=0)) + 1)])[lengths]
                  for (_, lengths, _), k in zip(families, k_values)]
    ends = np.cumsum([len(lengths) for _, lengths, _ in families])
    threshold = np.concatenate([np.empty(0), *thresholds])

    def witness(r, achieved):
        i = int(np.searchsorted(ends, r, side="right"))
        positions, lengths, _ = families[i]
        j = r - (int(ends[i - 1]) if i else 0)
        return Witness(label_key(table, int(positions[j])), achieved, float(threshold[r]),
                       context(i, int(lengths[j])))
    return closure_threshold_condition(
        name, summary, np.concatenate([np.empty(0), *(norms for _, _, norms in families)]),
        threshold, witness, margin=margin, exact=exact)
