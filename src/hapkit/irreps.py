"""Irreducible-corepresentation tables and free-product word combinatorics.

A table is a finite truncation of the label set of irreducible unitary
corepresentations of a compact quantum group: one distinguished trivial label
of dimension 1 plus finitely many labels with positive dimensions.  The dual
of a free product has labels given by alternating words of nontrivial labels
of the factors, with dimensions multiplying along the word; this module
enumerates those words up to a chosen length.

Tables and words are immutable values, safe to share across threads.  Words
are hashable; tables are not, and compare by value.  A table's derived tuples
(``labels`` and, for word tables, ``entries``) are made once, on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

_RESERVED_ID_CHARS = ("|", ":")
# the largest dim, and the most letters a word table may hold: both must be indexable
_MAX_INDEX = np.iinfo(np.intp).max


@dataclass(frozen=True)
class IrrepLabel:
    """Opaque label of one irreducible corepresentation."""

    id: str
    is_trivial: bool = False


class LabelTable:
    """Protocol shared by label tables: ordered (label, dim) entries, trivial first.

    The canonical entry order governs every serialization and report
    produced from the table.  Subclasses fix ``keys_at``, the strings the
    labels at given positions are encoded to, and ``_noun``, what their
    labels are called in errors; one that does not hold its entries
    overrides what reads them.
    Labels and keys are looked up here only, through dicts made on first use.
    """

    _noun = "label"

    def __init__(self, entries: tuple):
        self.entries = entries
        self.trivial = entries[0][0]

    @functools.cached_property
    def labels(self) -> tuple:
        return tuple(lab for lab, _ in self.entries)

    @functools.cached_property
    def nontrivial_labels(self) -> tuple:
        return self.labels[1:]

    @functools.cached_property
    def dims(self) -> np.ndarray:
        """The dimension of the label at each position."""
        return np.array([dim for _, dim in self.entries], dtype=np.intp)

    @functools.cached_property
    def _positions(self) -> dict:
        return {lab: j for j, lab in enumerate(self.labels)}

    @functools.cached_property
    def _at_key(self) -> dict:
        return dict(zip(self.keys_at(np.arange(len(self))), range(len(self))))

    def index(self, label) -> int:
        """The position of ``label`` in the table."""
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"{self._noun} {label!r} not in table") from None

    def dim(self, label) -> int:
        return self.entries[self.index(label)][1]

    def encode(self, label) -> str:
        return self.key_at(self.index(label))

    def key_at(self, j: int) -> str:
        """The key of the label at position ``j``."""
        return self.keys_at([j])[0]

    def keys_at(self, positions) -> list:
        """The keys of the labels at ``positions``, in that order."""
        raise NotImplementedError

    def locate(self, key: str) -> int:
        """The position of the label encoded as ``key``."""
        try:
            return self._at_key[key]
        except KeyError:
            raise KeyError(f"no {self._noun} encoded as {key!r}") from None

    def decode(self, key: str):
        return self.labels[self.locate(key)]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)


class IrrepTable(LabelTable):
    """Ordered finite list of (label, dimension) pairs, trivial label first.

    The canonical order is trivial first, then lexicographic by id; labels
    are encoded as their ids.
    """

    def __init__(self, entries: Iterable[tuple[IrrepLabel, int]]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("table needs at least one entry")
        seen: set[str] = set()
        for lab, dim in entries:
            if lab.id in seen:
                raise ValueError(f"duplicate label id {lab.id!r}")
            seen.add(lab.id)
            if not lab.id:
                raise ValueError("label ids must be nonempty")
            for ch in _RESERVED_ID_CHARS:
                if ch in lab.id:
                    raise ValueError(f"label id {lab.id!r} contains reserved character {ch!r}")
            if dim < 1:
                raise ValueError(f"label {lab.id!r} has nonpositive dimension {dim}")
            if dim > _MAX_INDEX:
                raise ValueError(f"label {lab.id!r} has dimension {dim}, over {_MAX_INDEX}")
        trivials = [lab for lab, _ in entries if lab.is_trivial]
        if len(trivials) != 1:
            raise ValueError(f"table needs exactly one trivial label, got {len(trivials)}")
        if not entries[0][0].is_trivial:
            raise ValueError("trivial label must come first")
        if entries[0][1] != 1:
            raise ValueError(f"trivial label {trivials[0].id!r} must have dimension 1")
        for (a, _), (b, _) in zip(entries[1:], entries[2:]):
            if not a.id < b.id:
                raise ValueError(f"label ids must increase after the trivial label: "
                                 f"{b.id!r} follows {a.id!r}")
        super().__init__(entries)

    def keys_at(self, positions) -> list:
        return [self.entries[j][0].id for j in np.asarray(positions, dtype=np.intp).tolist()]

    def __eq__(self, other) -> bool:
        return isinstance(other, IrrepTable) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"IrrepTable({len(self.entries)} labels)"


def make_table(entries: Iterable[tuple[str, int]], trivial_id: str = "1") -> IrrepTable:
    """Build an :class:`IrrepTable` from (id, dim) pairs.

    The entry whose id equals ``trivial_id`` is the trivial corepresentation
    and must have dimension 1; if absent it is inserted automatically.  The
    remaining entries are sorted lexicographically by id.
    """
    entries = sorted(entries, key=lambda entry: (entry[0] != trivial_id, entry[0]))
    if not entries or entries[0][0] != trivial_id:
        entries.insert(0, (trivial_id, 1))
    return IrrepTable((IrrepLabel(id_, is_trivial=id_ == trivial_id), dim) for id_, dim in entries)


@dataclass(frozen=True)
class Word:
    """Alternating word of nontrivial factor labels; empty word is trivial.

    Each letter is a pair (factor_index, label) with factor_index in {1, 2}
    and adjacent letters coming from distinct factors.
    """

    letters: tuple[tuple[int, IrrepLabel], ...] = ()

    def __post_init__(self):
        prev = None
        for fi, lab in self.letters:
            if fi not in (1, 2):
                raise ValueError(f"factor index must be 1 or 2, got {fi}")
            if lab.is_trivial:
                raise ValueError("words may not contain trivial letters")
            if prev == fi:
                raise ValueError("adjacent letters must come from distinct factors")
            prev = fi

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def encode(self) -> str:
        return "|".join(f"{fi}:{lab.id}" for fi, lab in self.letters)

    def __repr__(self) -> str:
        return f"Word({self.encode()!r})" if self.letters else "Word(trivial)"


class FreeProductTable(LabelTable):
    """All alternating words of length <= max_word_length over two factors.

    The word list is ordered by (length, starting factor, letter ids), the
    dimension of a word is the product of its letters' dimensions, and words
    are encoded by :meth:`Word.encode`.  Factor tables are referenced, not
    copied.

    The words are held as arrays, row j for the j-th word: ``letters[j, i]``
    is the number of its i-th letter, the letters of both factors numbered
    together, factor 1's nontrivial labels first, then factor 2's (0 past
    the word's end), ``lengths[j]`` its length and ``dims[j]`` its
    dimension.  ``keys_at`` encodes rows from these; ``Word`` objects,
    ``labels`` and ``entries`` are made on first use.
    """

    _noun = "word"

    def __init__(self, factor1: IrrepTable, factor2: IrrepTable, max_word_length: int):
        if max_word_length < 0:
            raise ValueError("max_word_length must be >= 0")
        self.factor1 = factor1
        self.factor2 = factor2
        self.max_word_length = max_word_length
        pools = (len(factor1) - 1, len(factor2) - 1)
        # a factor without nontrivial labels leaves only the one-letter words of the other
        longest = max_word_length if all(pools) else min(max_word_length, int(any(pools)))
        n, counts = 1, (1, 1)  # words, and those of the last length by starting factor
        for _ in range(longest):  # in Python ints, before anything is allocated
            counts = (pools[0] * counts[1], pools[1] * counts[0])
            n += sum(counts)
            if n * longest > _MAX_INDEX:
                raise ValueError(f"max_word_length {max_word_length} gives a word table "
                                 f"too large to index (over {_MAX_INDEX} letters)")
        big = max(dim for _, dim in factor1.entries + factor2.entries) ** longest
        dtype = np.int64 if big <= np.iinfo(np.int64).max else object
        letter_dims = [np.array([dim for _, dim in f.entries[1:]], dtype=dtype)
                       for f in (factor1, factor2)]
        self.letters = np.zeros((n, longest), dtype=np.intp, order="F")
        self.lengths = np.zeros(n, dtype=np.intp)
        self.dims = np.ones(n, dtype=dtype)
        # The words of length k that start in factor s are a letter of s, slowest,
        # followed by each word of length k - 1 that starts in the other factor
        # (itertools.product order); the empty word stands for both at k = 0.
        shorter, row = [slice(0, 1)] * 2, 1
        for k in range(1, longest + 1):
            made = []
            for s in (0, 1):
                tail, size = shorter[1 - s], pools[s]
                rows = slice(row, row + size * (tail.stop - tail.start))
                self.letters[rows, 0] = np.repeat(np.arange(size) + s * pools[0],
                                                  tail.stop - tail.start)
                self.letters[rows, 1:k] = np.tile(self.letters[tail, :k - 1], (size, 1))
                self.dims[rows] = np.multiply.outer(letter_dims[s], self.dims[tail]).ravel()
                self.lengths[rows] = k
                made.append(rows)
                row = rows.stop
            shorter = made

    def __len__(self) -> int:
        return len(self.lengths)

    @functools.cached_property
    def trivial(self) -> Word:
        return Word(())

    @functools.cached_property
    def labels(self) -> tuple:
        pool = [(fi, lab) for fi, f in ((1, self.factor1), (2, self.factor2))
                for lab in f.nontrivial_labels]
        return tuple(Word(tuple(map(pool.__getitem__, row[:k])))
                     for row, k in zip(self.letters.tolist(), self.lengths.tolist()))

    @functools.cached_property
    def entries(self) -> tuple:
        return tuple(zip(self.labels, self.dims.tolist()))

    @functools.cached_property
    def _letter_keys(self) -> list:
        return [f"{fi}:{lab.id}" for fi, f in ((1, self.factor1), (2, self.factor2))
                for lab in f.nontrivial_labels]

    def keys_at(self, positions) -> list:
        """The keys of the words at ``positions``: the words of one length are
        encoded together, a letter column at a time."""
        positions = np.asarray(positions, dtype=np.intp)
        out = [""] * len(positions)  # the trivial word's key
        lengths = self.lengths[positions]
        for k in sorted(set(lengths.tolist()) - {0}):
            at = np.flatnonzero(lengths == k)
            columns = [map(self._letter_keys.__getitem__, self.letters[positions[at], i].tolist())
                       for i in range(k)]
            for i, key in zip(at.tolist(), map("|".join, zip(*columns))):
                out[i] = key
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeProductTable)
                and self.factor1 == other.factor1
                and self.factor2 == other.factor2
                and self.max_word_length == other.max_word_length)

    def __repr__(self) -> str:
        return f"FreeProductTable({len(self)} words, max_word_length={self.max_word_length})"


def free_product_table(t1: IrrepTable, t2: IrrepTable, max_word_length: int) -> FreeProductTable:
    """Enumerate the truncated label set of the dual free product.

    Words are alternating sequences of nontrivial factor labels; the empty
    word is the trivial label of the product.  Enumeration is deterministic:
    re-running with equal inputs gives an identical word list.
    """
    return FreeProductTable(t1, t2, max_word_length)
