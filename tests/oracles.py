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



def constant_family(table, c: float) -> hk.MatrixFamily:
    """[1] at the trivial label and c * I at every other: the counit at c = 1, the
    Haar state at c = 0."""
    return hk.MatrixFamily(table, {lab: (c if j else 1.0) * np.eye(d)
                                   for j, (lab, d) in enumerate(table)}, normalized=True)


def unit_shift(table) -> hk.GeneratingFunctional:
    """The generator counit - haar: the identity at every nontrivial label."""
    return hk.GeneratingFunctional(table, {lab: np.eye(d) for lab, d in list(table)[1:]})


def max_block_deviation(F, G) -> float:
    """Largest ||F^a - G^a|| over the labels both carry, a block at a time; 0 if none."""
    return float(np.max(block_norms([F[lab] - G[lab] for lab in F.labels if lab in G]),
                        initial=0.0))


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


def c0_rule(keys, norms, eps, contexts):
    """The scalar c0-decay rule: (passed, one (label, achieved, threshold,
    context) tuple per witness).  ``keys`` are the table's label keys, the
    trivial one first; ``norms[i][j]`` is family i's block norm at label j,
    None where it has no block.  A family fails at its first label without a
    block (achieved: how many it lacks), or when none of its nontrivial
    labels, if it has any, has norm <= eps (achieved: its labels not <= eps).  The witnesses are
    the failing families', or else the first family with the most labels not
    <= eps."""
    failing, worst = [], None
    for row, ctx in zip(norms, contexts):
        missing = [key for key, norm in zip(keys, row) if norm is None]
        over = [j for j, norm in enumerate(row) if norm is not None and not norm <= eps]
        if missing:
            failing.append((missing[0], float(len(missing)), 0.0, f"{ctx}: labels without blocks"))
        elif sum(1 for j in over if j) >= len(keys) - 1:
            failing.append(("*", float(len(over)), float(len(keys) - 1),
                            f"{ctx}: no nontrivial label decayed below eps"))
        elif worst is None or len(over) > worst[1]:
            worst = ("*", float(len(over)), float(len(keys)),
                     f"{ctx}: exceptional labels within truncation")
    return not failing, tuple(failing) or ((worst,) if worst else ())


def freeprod_report(seq1, seq2, wp, eps_decay, conv_tols, k_values, tol, input_digest):
    """The free-product report from formed word blocks: every word by
    ``kron_word_blocks``, its norms by ``block_norms``, the norm and identity
    conditions by ``threshold_verdict`` over one tuple per (stage, word), and
    c0-decay by ``c0_rule``."""
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
    c0_passed, c0 = c0_rule([w.encode() for w in words], norms, eps_decay, contexts)
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
                name="c0-decay", passed=c0_passed, witnesses=tuple(Witness(*w) for w in c0),
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
    letter order, and the largest |product - 1| taken.  A word of 1x1 letters
    whose norm and deviation are both 0 or in [2**-400, 2**400] has margin 0."""
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
    for key, (positions, _) in groups.items():
        if all(d == 1 for _, d in key):  # a scalar word: exact, inside LAPACK's unscaled range
            for s, j in itertools.product(range(len(stages)), positions.tolist()):
                if all(v == 0 or 2.0**-400 <= v <= 2.0**400
                       for v in (norms[s, j], deviations[s, j])):
                    margins[s, j] = 0.0
    norms[np.isnan(norms)] = np.nan  # inf * 0 gives the sign the hardware picks
    return norms.ravel(), deviations.ravel(), margins.ravel()


def block_min_eigenvalues(blocks):
    """One numpy eigvalsh call per block on (B + B*)/2; NaN for a non-finite block."""
    return [float(np.linalg.eigvalsh((blk + blk.conj().T) / 2)[0])
            if np.isfinite(blk).all() else math.nan for blk in blocks]


def block_eigh_lows(blocks):
    """The smallest eigenvalue of one numpy eigh call per block on (B + B*)/2,
    whose eigenvectors a generator's root and semigroup share; NaN for a
    non-finite block."""
    return [float(np.linalg.eigh((blk + blk.conj().T) / 2)[0][0])
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
    clamped to 0; NaN for a non-finite block."""
    roots = []
    for blk in blocks:
        if not np.isfinite(blk).all():
            roots.append(np.full(blk.shape, math.nan, dtype=np.complex128))
            continue
        w, v = np.linalg.eigh((blk + blk.conj().T) / 2)
        roots.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    return roots


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
    ValueError text for the first label whose Hermitian part L^a has its
    smallest eigenvalue (``block_eigh_lows``) below -tol."""
    nontrivial = [lab for lab in L.labels if lab != L.table.trivial]
    lows = block_eigh_lows([L.blocks[lab] for lab in nontrivial])
    for lab, low in zip(nontrivial, lows):
        if not low >= -tol:
            return (f"block {L.table.encode(lab)!r}: matrix is not positive semidefinite: "
                    f"eigenvalue {float(low)}")
    roots = block_psd_sqrt([L.blocks[lab] + L.blocks[lab].conj().T for lab in nontrivial])
    return dict(zip(nontrivial, roots))


def label_c0(table, blocks, eps):
    """The ``c0_rule`` verdict of the one family ``blocks`` at threshold eps, as
    "family #0", one operator norm per label."""
    norms = [block_norms([blocks[lab]])[0] if lab in blocks else None for lab in table.labels]
    return c0_rule([table.encode(lab) for lab in table.labels], [norms], eps, ["family #0"])


def exceptional(B, values, holds) -> tuple:
    """(label, value) of each block of the map ``B`` where ``holds`` is False, in
    table order.  ``values`` and ``holds`` are aligned with ``B.labels``, as
    ``F.norms`` and ``L.lows`` are: ``F.norms <= eps`` for c0 decay,
    ``L.lows >= M`` for properness, either False at NaN."""
    return tuple((lab, value) for lab, value, ok in zip(B.labels, values.tolist(),
                                                        holds.tolist()) if not ok)


def label_proper(table, blocks, M):
    """(exceptional (label, low) pairs, unspecified labels) of the generator
    blocks at level M, with [0] at a missing trivial label, one ``eigh`` per
    label; or None, properness being undefined, when a Hermitian residual is
    over 1e-9 or NaN."""
    blocks = {table.trivial: np.zeros((1, 1), dtype=np.complex128), **blocks}
    residuals = block_norms([blk - blk.conj().T for blk in blocks.values()])
    if not all(r <= 1e-9 for r in residuals):
        return None
    labels = [lab for lab in table.labels if lab in blocks]
    lows = block_eigh_lows([blocks[lab] for lab in labels])
    return (tuple((lab, low) for lab, low in zip(labels, lows) if not low >= M),
            tuple(lab for lab in table.labels if lab not in blocks))


def label_proper_cocycle(table, blocks, M):
    """The proper-at-level rule on the cocycle blocks at level M: (passed, one
    (label, achieved, threshold, context) tuple per label whose value is not
    >= M), the value being twice the smallest eigenvalue of one ``eigh`` of the
    Gram block ((c*)c + ((c*)c)*)/2 / 2 per label in table order.  It passes
    when some label's value is >= M."""
    labels = [lab for lab in table.labels if lab in blocks]
    grams = [blocks[lab].conj().T @ blocks[lab] for lab in labels]
    lows = [2 * low for low in block_eigh_lows([(g + g.conj().T) / 2 / 2 for g in grams])]
    failing = tuple((table.encode(lab), low, M, "min eigenvalue of (c*)c")
                    for lab, low in zip(labels, lows) if not low >= M)
    return len(failing) < len(labels), failing


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


def _rule(labels, values, holds, passed, extreme) -> tuple:
    """(passed, (label, value) of each row where ``holds`` is False, the row at
    index ``extreme`` or None)."""
    failing = [(lab, v) for lab, v, ok in zip(labels, values, holds) if not ok]
    return passed, failing, None if extreme is None else (labels[extreme], values[extreme])


def _first_extreme(values, pick):
    """The index of the first of the ``pick`` (max or min) of ``values``, or None."""
    return values.index(pick(values)) if values and not any(map(math.isnan, values)) else None


def symmetric_rule(L: LabelBlockMap, tol):
    """The scalar symmetric rule: the largest Hermitian residual, NaN if any is,
    is at most ``tol``; with the rows behind it (see ``_rule``), the extreme
    being the first largest residual."""
    r = L.residuals.tolist()
    worst = math.nan if any(map(math.isnan, r)) else max(r)
    return _rule(L.labels, r, [x <= tol for x in r], worst <= tol, _first_extreme(r, max))


def positive_rule(L: LabelBlockMap, tol):
    """The scalar positive-blocks rule: the smallest eigenvalue over every block,
    the trivial [0] included, NaN if any is, is at least ``-tol``; with the rows
    behind it, the extreme being the first smallest eigenvalue."""
    lows = block_eigh_lows(list(L.blocks.values()))
    worst = math.nan if any(map(math.isnan, lows)) else min(lows)
    return _rule(L.labels, lows, [x >= -tol for x in lows], worst >= -tol,
                 _first_extreme(lows, min))


def epsilon_rule(table, seq, eps):
    """The epsilon-certificate rule over per-label state dicts ``seq``: no label
    of the common support is flagged by ``first_certified``, and no
    nontrivial label lies outside it.  Rows: each nontrivial label with the
    last state's ||I - block||, or inf outside the common support; the
    extreme is the first largest.  With no nontrivial label there is no row,
    and the rule fails on one ``'*'`` row of value 0."""
    labels = table.labels[1:]
    common = [lab for lab in labels if all(lab in F for F in seq)]
    deviations = {lab: block_norms([F[lab] for F in seq], minus_identity=True)
                  for lab in common}
    flagged = [lab for lab, n in zip(common, first_certified(list(deviations.values()), eps))
               if n is None]
    values = [deviations[lab][-1] if lab in deviations else math.inf for lab in labels]
    holds = [lab in deviations and lab not in flagged for lab in labels]
    if not labels:
        return False, [("*", 0.0)], None
    return _rule(labels, values, holds, not flagged and len(common) == len(labels),
                 _first_extreme(values, max))


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
                               present=True, margin=0.0, exact=None):
    """identity-convergence through ``closure_threshold_condition``."""
    from hapkit.reports import Witness
    failed = ()
    if any(b > a for a, b in zip(conv_tols, conv_tols[1:])):
        failed = (Witness(label="*", achieved=max(conv_tols), threshold=conv_tols[0],
                          context="conv_tols schedule is not nonincreasing"),)
    n = len(table)

    def witness(r, achieved):
        k, j = divmod(r, n)
        gap = not np.broadcast_to(present, np.shape(deviations))[k][j]
        return Witness(label_key(table, j), achieved, conv_tols[k],
                       f"{contexts[k]}: block unspecified" if gap else contexts[k])
    return closure_threshold_condition(
        "identity-convergence", summary, np.concatenate([np.empty(0), *deviations]),
        np.repeat(conv_tols, n), witness, failed, margin, exact)


def closure_norm_bound_condition(name, summary, norms, lengths, table, k_values, tol, context,
                                 present=True, margin=0.0, exact=None):
    """The word and damped norm bounds through ``closure_threshold_condition``:
    one row per present (stage, position) of length >= 1, stage-major, each
    with its own exp(-l/k) + tol."""
    from hapkit.reports import Witness
    stages, n = np.shape(norms)
    present = np.broadcast_to(present, (stages, n))
    cells = [(i, j) for i in range(stages) for j in range(n)
             if present[i, j] and lengths[j] >= 1]
    flat = np.array([i * n + j for i, j in cells], dtype=np.intp)
    threshold = [math.exp(-int(lengths[j]) / k_values[i]) + tol for i, j in cells]

    def witness(r, achieved):
        i, j = cells[r]
        return Witness(label_key(table, j), achieved, threshold[r], context(i, int(lengths[j])))
    return closure_threshold_condition(
        name, summary, [norms[i][j] for i, j in cells], threshold, witness,
        margin=np.broadcast_to(margin, stages * n)[flat], exact=lambda r: exact(flat[r]))
