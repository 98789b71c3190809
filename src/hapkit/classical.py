"""Duals of classical discrete groups: free products of cyclic groups.

A group spec is a list of generator orders (0 for infinite order, m >= 2 for
a cyclic factor of order m), so ``[0]`` is Z, ``[0, 0]`` is the free group
F_2 and ``[2, 3]`` is Z_2 * Z_3.  Elements are reduced words; every element
is a 1-dimensional corepresentation of the dual, so balls of elements give
concrete irrep tables.

The word length used throughout charges |e| for a letter g^e of infinite
order and min(e, m-e) for an order-m letter: the word metric with respect to
the standard generators and their inverses.  ``schoenberg_report`` decides,
at desk scale, that exp(-t*length) is a positive-definite kernel on a ball.
"""

from __future__ import annotations

import functools
import math
import operator
import string
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .fourier import _threshold_condition, stacked_blocks
from .genfun import GeneratingFunctional
from .irreps import IrrepTable, make_table
from .reports import CertificationReport


@dataclass(frozen=True)
class GroupSpec:
    """Free product of cyclic groups, one entry per generator order."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders:
            raise ValueError("need at least one generator")
        for m in self.orders:
            if isinstance(m, bool) or not hasattr(type(m), "__index__"):
                raise ValueError(f"generator order must be an integer, got {m!r}")
            if m != 0 and m < 2:
                raise ValueError(f"generator order must be 0 or >= 2, got {m}")
        object.__setattr__(self, "orders", tuple(map(operator.index, self.orders)))

    def gen_name(self, i: int) -> str:
        if i < len(string.ascii_lowercase):
            return string.ascii_lowercase[i]
        return f"g{i}"


@dataclass(frozen=True)
class GroupElement:
    """Reduced word over a :class:`GroupSpec`."""

    spec: GroupSpec
    word: tuple[tuple[int, int], ...]

    @property
    def is_identity(self) -> bool:
        return not self.word

    def encode(self) -> str:
        if not self.word:
            return "e"
        return ".".join(f"{self.spec.gen_name(i)}^{e}" for i, e in self.word)

    def __repr__(self) -> str:
        return f"GroupElement({self.encode()})"


def _cost(m: int, e: int) -> int:
    """Length of the syllable g^e for a generator g of order m (0: infinite)."""
    return abs(e) if m == 0 else min(e % m, m - e % m)


def length(g: GroupElement) -> int:
    """Word length with respect to the standard generators and inverses."""
    return sum(_cost(g.spec.orders[i], e) for i, e in g.word)


def ball(spec: GroupSpec, radius: int) -> list[GroupElement]:
    """All elements of length <= radius, ordered by (length, encoding).

    The elements are the reduced syllable words of length <= radius: a
    syllable is g_i^e with e in 1..m-1 for order m and e in ±1..±radius for
    infinite order, and adjacent syllables use different generators.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return list(_ball(spec, radius))


@functools.lru_cache(maxsize=1)
def _ball(spec: GroupSpec, radius: int) -> tuple[GroupElement, ...]:
    """``ball``, kept for the last ``(spec, radius)``: a ``schoenberg`` run reads
    it in ``length_gram`` and again for the size its report states."""
    syllables = [(c, i, e) for i, m in enumerate(spec.orders)
                 for e in (range(1, m) if m else range(-radius, radius + 1))
                 if 0 < (c := _cost(m, e)) <= radius]
    words = [((), 0)]
    for word, n in words:  # visits the words appended below too
        words += [(word + ((i, e),), n + c) for c, i, e in syllables
                  if n + c <= radius and not (word and word[-1][0] == i)]
    elements = {GroupElement(spec, word): n for word, n in words}
    return tuple(sorted(elements, key=lambda g: (elements[g], g.encode())))


def dual_irrep_table(spec: GroupSpec, radius: int) -> IrrepTable:
    """Irrep table of the dual: one 1-dimensional label per ball element."""
    return _dual_table(ball(spec, radius))


def _dual_table(elements: list[GroupElement]) -> IrrepTable:
    return make_table([(g.encode(), 1) for g in elements], trivial_id="e")


def _merge_table(spec: GroupSpec, syllables: list[tuple[int, int]]) -> np.ndarray:
    """Change in length(g^-1 h) from one syllable position of g and h.

    Entry [a, b] is what syllables a (of g) and b (of h) add at the first
    position where g and h differ, beyond their own costs: 0 across
    generators, and cost(merged) - cost(a) - cost(b) for one generator, where
    the merged syllable has exponent f - e (mod m for order m).  The diagonal
    is -2 cost(a): a syllable both words share cancels.  The last row and
    column are the padding past a word's end, and add nothing.
    """
    k = len(syllables)
    table = np.zeros((k + 1, k + 1), dtype=np.int64)
    for a, (i, e) in enumerate(syllables):
        for b, (j, f) in enumerate(syllables):
            if i == j:
                m = spec.orders[i]
                table[a, b] = _cost(m, f - e) - _cost(m, e) - _cost(m, f)
    return table


def length_gram(spec: GroupSpec, t: float, radius: int) -> np.ndarray:
    """Gram matrix G[i, j] = exp(-t * length(g_i^{-1} g_j)) over a ball.

    The lengths come from the reduced syllable words, with no group
    multiplication: g_i^{-1} g_j drops the common prefix of the two words and
    merges their first differing syllables if both use one generator.  One
    pass per syllable position over n x n compact integers; each distance d
    maps to ``math.exp(-t * d)``.
    """
    elements = ball(spec, radius)
    ids: dict[tuple[int, int], int] = {}
    words = [[ids.setdefault(s, len(ids)) for s in g.word] for g in elements]
    # codes[k, i]: the k-th syllable of element i, or len(ids) past its end
    codes = np.full((max(map(len, words)), len(words)), len(ids),
                    dtype=np.min_scalar_type(len(ids)))
    for i, word in enumerate(words):
        codes[:len(word), i] = word
    # a distance is at most 2 * radius, and a table entry at least -2 * radius
    dtype = np.min_scalar_type(-2 * radius - 1)
    table = _merge_table(spec, list(ids)).astype(dtype)
    lengths = np.array([length(g) for g in elements], dtype=dtype)
    dist = lengths[:, None] + lengths[None, :]
    agree = np.ones(dist.shape, dtype=bool)
    for col in codes:
        step = table[col][:, col]
        step *= agree
        dist += step
        agree &= col[:, None] == col[None, :]
    lut = np.array([math.exp(-t * x) for x in range(2 * radius + 1)])
    return lut[dist]


def schoenberg_check(spec: GroupSpec, t: float, radius: int) -> float:
    """Smallest eigenvalue of the Gram matrix of exp(-t*length) over the radius-R
    ball: the kernel is positive definite there iff it is >= 0.  A non-finite
    Gram gives NaN.  ``schoenberg_report`` decides it against a tolerance."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(_linalg.min_eigenvalues(length_gram(spec, t, radius)[np.newaxis])[0])


def schoenberg_report(spec: GroupSpec, t: float, radius: int, tol: float, *, group: str,
                      input_digest: str) -> CertificationReport:
    """The ``schoenberg`` report: one row, labelled '*', that passes iff the
    Gram's smallest eigenvalue is >= -tol; ``group`` is ``spec`` as written."""
    low, n = schoenberg_check(spec, t, radius), len(ball(spec, radius))
    return CertificationReport(
        command="schoenberg",
        input_digest=input_digest,
        truncation=f"ball of radius {radius}: {n} elements ({n}x{n} Gram matrix)",
        tolerances=(("tol", tol), ("t", t)),
        # 0.0 - low, not -low: a zero eigenvalue is shown as 0, not -0
        conditions=(_threshold_condition(
            "gram-positive-semidefinite", f"exp(-t*length) kernel on the group {group}",
            [0.0 - low], tol, make_table([], trivial_id="*"), np.zeros(1, dtype=np.intp), 0,
            ("minus the smallest eigenvalue",)),),
    )


def length_functional(spec: GroupSpec, radius: int) -> GeneratingFunctional:
    """Word length as a generating functional on the dual's irrep table.

    Every label is 1-dimensional, so the block at a group element g is the
    scalar [length(g)]; its semigroup at time t has blocks exp(-t*length(g)),
    the kernels certified by :func:`schoenberg_check`.
    """
    elements = ball(spec, radius)
    table = _dual_table(elements)
    elements = [g for g in elements if not g.is_identity]
    at = np.array([table.locate(g.encode()) for g in elements], dtype=np.intp)
    lengths = np.array([[[float(length(g))]] for g in elements], dtype=np.complex128)
    return GeneratingFunctional(table, stacked_blocks(table, [(at, lengths)]))


def parse_group(text: str) -> GroupSpec:
    """Parse spec strings like ``"Z"``, ``"Z3*Z4"``, ``"F2"``.

    ``Z`` is an infinite cyclic factor, ``Zm`` a cyclic factor of order m,
    and ``Fn`` expands to n infinite cyclic factors.  Factors are joined
    with ``*``.
    """
    orders: list[int] = []
    for token in text.split("*"):
        token = token.strip()
        if token == "Z":
            orders.append(0)
        elif token.startswith("Z") and token[1:].isdigit():
            m = int(token[1:])
            if m < 2:
                raise ValueError(f"cyclic order must be >= 2 in {token!r}")
            orders.append(m)
        elif token.startswith("F") and token[1:].isdigit():
            n = int(token[1:])
            if n < 1:
                raise ValueError(f"free rank must be >= 1 in {token!r}")
            orders.extend([0] * n)
        else:
            raise ValueError(f"unsupported group spec {token!r}")
    return GroupSpec(tuple(orders))
