"""Irreducible-corepresentation tables and free-product word combinatorics.

A table is a finite truncation of the label set of irreducible unitary
corepresentations of a compact quantum group: one distinguished trivial label
of dimension 1 plus finitely many labels with positive dimensions.  The dual
of a free product has labels given by alternating words of nontrivial labels
of the factors, with dimensions multiplying along the word; this module
enumerates those words up to a chosen length.

Tables and words are immutable values: safe to share across threads and to
use as dictionary keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

_RESERVED_ID_CHARS = ("|", ":")


@dataclass(frozen=True)
class IrrepLabel:
    """Opaque label of one irreducible corepresentation."""

    id: str
    is_trivial: bool = False


class LabelTable:
    """Protocol shared by label tables: ordered (label, dim) entries, trivial first.

    The canonical entry order governs every serialization and report
    produced from the table.  Subclasses fix ``_key``, the string a label is
    encoded to, and ``_noun``, what their labels are called in errors.
    """

    _noun = "label"

    def __init__(self, entries: tuple):
        self.entries = entries
        self.trivial = entries[0][0]
        self._dims = dict(entries)
        self._by_key = {self._key(lab): lab for lab, _ in entries}

    @property
    def labels(self) -> tuple:
        return tuple(lab for lab, _ in self.entries)

    @property
    def nontrivial_labels(self) -> tuple:
        return tuple(lab for lab, _ in self.entries if not lab.is_trivial)

    def dim(self, label) -> int:
        try:
            return self._dims[label]
        except KeyError:
            raise KeyError(f"{self._noun} {label!r} not in table") from None

    def encode(self, label) -> str:
        if label not in self._dims:
            raise KeyError(f"{self._noun} {label!r} not in table")
        return self._key(label)

    def decode(self, key: str):
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(f"no {self._noun} encoded as {key!r}") from None

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
        trivials = [lab for lab, _ in entries if lab.is_trivial]
        if len(trivials) != 1:
            raise ValueError(f"table needs exactly one trivial label, got {len(trivials)}")
        if entries[0][0] is not trivials[0] and entries[0][0] != trivials[0]:
            raise ValueError("trivial label must come first")
        if entries[0][1] != 1:
            raise ValueError("trivial label must have dimension 1")
        ids = [lab.id for lab, _ in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("label ids must be unique")
        for (lab, dim) in entries:
            if dim < 1:
                raise ValueError(f"label {lab.id!r} has nonpositive dimension {dim}")
        super().__init__(entries)

    @staticmethod
    def _key(label: IrrepLabel) -> str:
        return label.id

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
    entries = list(entries)
    seen: set[str] = set()
    for id_, dim in entries:
        if id_ in seen:
            raise ValueError(f"duplicate label id {id_!r}")
        seen.add(id_)
        if not id_:
            raise ValueError("label ids must be nonempty")
        for ch in _RESERVED_ID_CHARS:
            if ch in id_:
                raise ValueError(f"label id {id_!r} contains reserved character {ch!r}")
        if dim < 1:
            raise ValueError(f"label {id_!r} has nonpositive dimension {dim}")
    trivial_dims = [dim for id_, dim in entries if id_ == trivial_id]
    if trivial_dims and trivial_dims[0] != 1:
        raise ValueError(f"trivial label {trivial_id!r} must have dimension 1")
    rest = sorted((id_, dim) for id_, dim in entries if id_ != trivial_id)
    ordered = [(IrrepLabel(trivial_id, is_trivial=True), 1)]
    ordered.extend((IrrepLabel(id_), dim) for id_, dim in rest)
    return IrrepTable(ordered)


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

    The word list is ordered by (length, factor pattern, letter ids), the
    dimension of a word is the product of its letters' dimensions, and words
    are encoded by :meth:`Word.encode`.  Factor tables are referenced, not
    copied.
    """

    _noun = "word"
    _key = staticmethod(Word.encode)

    def __init__(self, factor1: IrrepTable, factor2: IrrepTable, max_word_length: int,
                 words: tuple[tuple[Word, int], ...]):
        self.factor1 = factor1
        self.factor2 = factor2
        self.max_word_length = max_word_length
        super().__init__(words)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeProductTable)
                and self.factor1 == other.factor1
                and self.factor2 == other.factor2
                and self.max_word_length == other.max_word_length)

    def __repr__(self) -> str:
        return (f"FreeProductTable({len(self.entries)} words, "
                f"max_word_length={self.max_word_length})")


def parse_word(encoding: str, factor1: IrrepTable, factor2: IrrepTable) -> Word:
    """Inverse of :meth:`Word.encode` relative to the two factor tables."""
    if encoding == "":
        return Word(())
    letters = []
    for part in encoding.split("|"):
        fi_str, _, id_ = part.partition(":")
        if fi_str not in ("1", "2") or not id_:
            raise ValueError(f"malformed word letter {part!r}")
        fi = int(fi_str)
        table = factor1 if fi == 1 else factor2
        letters.append((fi, table.decode(id_)))
    return Word(tuple(letters))


def free_product_table(t1: IrrepTable, t2: IrrepTable, max_word_length: int) -> FreeProductTable:
    """Enumerate the truncated label set of the dual free product.

    Words are alternating sequences of nontrivial factor labels; the empty
    word is the trivial label of the product.  Enumeration is deterministic:
    re-running with equal inputs gives an identical word list.
    """
    if max_word_length < 0:
        raise ValueError("max_word_length must be >= 0")
    nontrivial = {1: t1.nontrivial_labels, 2: t2.nontrivial_labels}
    dims = {1: t1, 2: t2}
    words: list[tuple[Word, int]] = [(Word(()), 1)]
    for k in range(1, max_word_length + 1):
        for start in (1, 2):
            pattern = [start if j % 2 == 0 else 3 - start for j in range(k)]
            pools = [nontrivial[fi] for fi in pattern]
            if any(not pool for pool in pools):
                continue
            # itertools.product in pool order = lexicographic in letter ids,
            # because every factor table lists nontrivial labels sorted by id.
            for combo in itertools.product(*pools):
                letters = tuple(zip(pattern, combo))
                dim = 1
                for fi, lab in letters:
                    dim *= dims[fi].dim(lab)
                words.append((Word(letters), dim))
    return FreeProductTable(t1, t2, max_word_length, tuple(words))
