"""Duals of classical discrete groups: free products of cyclic groups.

A group spec is a list of generator orders (0 for infinite order, m >= 2 for
a cyclic factor of order m), so ``[0]`` is Z, ``[0, 0]`` is the free group
F_2 and ``[2, 3]`` is Z_2 * Z_3.  Elements are reduced words; every element
is a 1-dimensional corepresentation of the dual, so balls of elements give
concrete irrep tables.

The word length used throughout charges |e| for a letter g^e of infinite
order and min(e, m-e) for an order-m letter: the word metric with respect to
the standard generators and their inverses.  ``schoenberg_check`` certifies,
at desk scale, that exp(-t*length) is a positive-definite kernel on a ball.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from .genfun import GeneratingFunctional
from .irreps import IrrepTable, make_table


@dataclass(frozen=True)
class GroupSpec:
    """Free product of cyclic groups, one entry per generator order."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders:
            raise ValueError("need at least one generator")
        for m in self.orders:
            if m != 0 and m < 2:
                raise ValueError(f"generator order must be 0 or >= 2, got {m}")
        object.__setattr__(self, "orders", tuple(self.orders))

    def gen_name(self, i: int) -> str:
        if i < len(string.ascii_lowercase):
            return string.ascii_lowercase[i]
        return f"g{i}"

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def generator(self, i: int, exp: int = 1) -> "GroupElement":
        return self.element([(i, exp)])

    def element(self, word) -> "GroupElement":
        """Reduce an arbitrary letter sequence to a group element."""
        reduced: list[tuple[int, int]] = []
        for i, e in word:
            if not (0 <= i < len(self.orders)):
                raise ValueError(f"no generator with index {i}")
            reduced.append((i, e))
            while reduced:
                i2, e2 = reduced[-1]
                e2 = self._normalize_exp(i2, e2)
                if e2 == 0:
                    reduced.pop()
                    continue
                reduced[-1] = (i2, e2)
                if len(reduced) >= 2 and reduced[-2][0] == i2:
                    j, f = reduced[-2]
                    reduced[-2:] = [(j, f + e2)]
                    continue
                break
        return GroupElement(self, tuple(reduced))

    def _normalize_exp(self, i: int, e: int) -> int:
        m = self.orders[i]
        return e if m == 0 else e % m


@dataclass(frozen=True)
class GroupElement:
    """Reduced word over a :class:`GroupSpec`."""

    spec: GroupSpec
    word: tuple[tuple[int, int], ...]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def inverse(self) -> "GroupElement":
        inv = []
        for i, e in reversed(self.word):
            m = self.spec.orders[i]
            inv.append((i, -e if m == 0 else m - e))
        return GroupElement(self.spec, tuple(inv))

    def __invert__(self) -> "GroupElement":
        return self.inverse()

    @property
    def is_identity(self) -> bool:
        return not self.word

    def encode(self) -> str:
        if not self.word:
            return "e"
        return ".".join(f"{self.spec.gen_name(i)}^{e}" for i, e in self.word)

    def __repr__(self) -> str:
        return f"GroupElement({self.encode()})"


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Reduced product of two elements of the same group."""
    if g.spec != h.spec:
        raise ValueError("elements belong to different group specs")
    return g.spec.element(g.word + h.word)


def length(g: GroupElement) -> int:
    """Word length with respect to the standard generators and inverses."""
    total = 0
    for i, e in g.word:
        m = g.spec.orders[i]
        total += abs(e) if m == 0 else min(e, m - e)
    return total


def ball(spec: GroupSpec, radius: int) -> list[GroupElement]:
    """All elements of length <= radius, ordered by (length, encoding)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    moves = []
    for i, m in enumerate(spec.orders):
        moves.append(spec.generator(i, 1))
        if m != 2:
            moves.append(spec.generator(i, -1))
    seen: dict[GroupElement, int] = {spec.identity(): 0}
    frontier = [spec.identity()]
    for r in range(1, radius + 1):
        new: list[GroupElement] = []
        for g in frontier:
            for s in moves:
                h = g * s
                if h not in seen:
                    seen[h] = r
                    new.append(h)
        frontier = new
    out = sorted(seen, key=lambda g: (seen[g], g.encode()))
    return out


def dual_irrep_table(spec: GroupSpec, radius: int) -> IrrepTable:
    """Irrep table of the dual: one 1-dimensional label per ball element."""
    return make_table([(g.encode(), 1) for g in ball(spec, radius)], trivial_id="e")


def length_gram(spec: GroupSpec, t: float, radius: int) -> np.ndarray:
    """Gram matrix G[i, j] = exp(-t * length(g_i^{-1} g_j)) over a ball."""
    elements = ball(spec, radius)
    inverses = [g.inverse() for g in elements]
    n = len(elements)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            d = length(inverses[i] * elements[j])
            gram[i, j] = gram[j, i] = math.exp(-t * d)
    return gram


def schoenberg_check(spec: GroupSpec, t: float, radius: int,
                     tol: float | None = None) -> tuple[bool, float]:
    """Positive-definiteness desk check for the kernel exp(-t*length).

    Passes iff the smallest eigenvalue of the Gram matrix over the radius-R
    ball is >= -tol.  The default tolerance 1e-8 is scaled by the matrix
    dimension, matching the backward stability of dense symmetric
    eigensolvers at this size.  A failing check is a result, not an error.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    gram = length_gram(spec, t, radius)
    if tol is None:
        tol = 1e-8 * gram.shape[0]
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    return (min_eig >= -tol), min_eig


def length_functional(spec: GroupSpec, radius: int) -> GeneratingFunctional:
    """Word length as a generating functional on the dual's irrep table.

    Every label is 1-dimensional, so the block at a group element g is the
    scalar [length(g)]; its semigroup at time t has blocks exp(-t*length(g)),
    the kernels certified by :func:`schoenberg_check`.
    """
    table = dual_irrep_table(spec, radius)
    blocks = {}
    for g in ball(spec, radius):
        if g.is_identity:
            continue
        blocks[table.decode(g.encode())] = [[float(length(g))]]
    return GeneratingFunctional(table, blocks)


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
