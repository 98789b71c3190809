"""JSON (de)serialization for tables, families, generators and cocycles.

Schemas
-------
IrrepTable:        {"entries": [{"id": str, "dim": int, "trivial": bool}, ...]}
FreeProductTable:  {"factor1": <table>, "factor2": <table>, "max_word_length": int}
                   (words are recomputed on load, never stored)
MatrixFamily:      {"table": <table or free product>, "blocks": {key: <matrix>},
                    "normalized": bool}
GeneratingFunctional: {"kind": "generator", "table": ..., "blocks": ...};
                   the trivial block must be zero and is enforced on load.
CocycleMatrices:   {"kind": "cocycle", "table": ..., "blocks": ...}; the
                   trivial label must be absent.

Matrices are lists of rows of [re, im] pairs.  Block keys are label ids for
plain tables and "i1:id1|i2:id2|..." word encodings (empty string for the
trivial word) for free-product tables.  Writing is deterministic: canonical
label order, sorted keys, fixed separators.

``load_json`` converts each 'blocks' object of JSON floats as soon as it is
parsed, so the raw matrices of one such object live at a time: the
``ReadBlocks`` it leaves holds one read-only stack per side, which
``blocks_from_obj`` checks against the table and a family, generator or
cocycle adopts without a copy.  ``dump_json`` writes each ``BlockMap`` a
batch of blocks at a time, byte for byte as json.dumps(..., indent=2) lays
out their nested lists.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .cocycle import CocycleMatrices
from .fourier import BlockMap, MatrixFamily, block_texts, stacked_blocks
from .genfun import GeneratingFunctional
from .irreps import FreeProductTable, IrrepTable, free_product_table, make_table
from .reports import json_pieces


class SchemaError(ValueError):
    """Input JSON does not match the expected shape."""


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {what}")


def table_to_obj(table) -> dict:
    if isinstance(table, FreeProductTable):
        return {
            "factor1": table_to_obj(table.factor1),
            "factor2": table_to_obj(table.factor2),
            "max_word_length": table.max_word_length,
        }
    return {
        "entries": [
            {"id": lab.id, "dim": dim, "trivial": lab.is_trivial}
            for lab, dim in table.entries
        ]
    }


def table_from_obj(obj, where: str = "table"):
    _expect(isinstance(obj, dict), where, "must be an object")
    if "factor1" in obj or "factor2" in obj or "max_word_length" in obj:
        for key in ("factor1", "factor2", "max_word_length"):
            _expect(key in obj, where, f"free-product table needs {key!r}")
        mwl = obj["max_word_length"]
        _expect(type(mwl) is int and mwl >= 0, where,
                "max_word_length must be a nonnegative integer")
        f1 = table_from_obj(obj["factor1"], where + ".factor1")
        f2 = table_from_obj(obj["factor2"], where + ".factor2")
        _expect(isinstance(f1, IrrepTable) and isinstance(f2, IrrepTable), where,
                "factors must be plain tables")
        return free_product_table(f1, f2, mwl)
    _expect("entries" in obj and isinstance(obj["entries"], list), where,
            "needs an 'entries' list")
    entries = []
    trivial_id = None
    for i, ent in enumerate(obj["entries"]):
        # each text is made only when its check fails
        if not isinstance(ent, dict):
            raise SchemaError(f"{where}: entry {i} must be an object")
        if not isinstance(ent.get("id"), str):
            raise SchemaError(f"{where}: entry {i} needs a string id")
        if not (type(ent.get("dim")) is int and ent["dim"] >= 1):
            raise SchemaError(f"{where}: entry {i} needs a positive integer dim")
        if not isinstance(ent.get("trivial", False), bool):
            raise SchemaError(f"{where}: entry {i}: 'trivial' must be a boolean")
        if ent.get("trivial", False):
            _expect(trivial_id is None, where, "more than one trivial entry")
            trivial_id = ent["id"]
        entries.append((ent["id"], ent["dim"]))
    _expect(trivial_id is not None, where, "no trivial entry")
    try:
        return make_table(entries, trivial_id=trivial_id)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


class ReadBlocks:
    """A 'blocks' object as ``load_json`` read it, with no table: its keys in file order,
    each one's side and stack row, one read-only stack per side, and their texts."""

    def __init__(self, keys: list, sides: np.ndarray, rows: np.ndarray, stacks: dict):
        self.keys, self.sides, self.rows, self.stacks = keys, sides, rows, stacks

    def json_texts(self, depth) -> tuple:
        return block_texts(self.keys, self.sides, self.rows, self.stacks, depth)


def _read_blocks(obj: dict, kinds=(int, float)) -> ReadBlocks | None:
    """The one converter: the matrices of a 'blocks' object, side by side, or None
    unless each is a list of rows of [re, im] pairs of finite numbers of ``kinds``."""
    mats = list(obj.values())
    sides = np.array([len(mat) if type(mat) is list else 0 for mat in mats], dtype=np.intp)
    rows, stacks = np.empty(len(mats), dtype=np.intp), {}
    for side in {*sides.tolist()}:
        at = np.flatnonzero(sides == side)
        stacks[side], rows[at] = _read_stack(side, [mats[i] for i in at], kinds), range(len(at))
        if stacks[side] is None:
            return None
    return ReadBlocks(list(obj), sides, rows, stacks)


def _read_hook(obj: dict) -> dict:
    """json's object hook: a 'blocks' object of JSON floats is converted once parsed."""
    if type(obj.get("blocks")) is dict and obj["blocks"]:
        obj["blocks"] = _read_blocks(obj["blocks"], (float,)) or obj["blocks"]
    return obj


def blocks_from_obj(table, obj, where: str) -> BlockMap:
    """The blocks of a 'blocks' object, raw or as ``load_json`` read it, one
    read-only stack per side; an unknown key, a malformed matrix or one of the
    wrong side raises, naming the first fault in file order."""
    _expect(isinstance(obj, (dict, ReadBlocks)), where, "'blocks' must be an object")
    read = obj if isinstance(obj, ReadBlocks) else _read_blocks(obj)
    try:
        positions = None if read is None else np.array([*map(table.locate, read.keys)], np.intp)
    except KeyError:
        positions = None
    if positions is None or (table.dims[positions] != read.sides).any():
        raise _first_fault(table, obj, where)
    return stacked_blocks(table, [(positions[read.sides == d], stack)
                                  for d, stack in read.stacks.items()])


def _read_stack(side: int, mats: list, kinds):
    """Read-only (k, side, side) complex128 stack of ``mats``, or None unless each
    is a list of ``side`` rows of ``side`` [re, im] pairs of finite numbers of
    ``kinds``; 64 matrices per numpy call keep its temporaries small."""
    try:
        numbers = np.concatenate([np.array(mats[lo:lo + 64], dtype=np.float64)
                                  for lo in range(0, len(mats), 64)])
    except (ValueError, TypeError, OverflowError):  # ragged, non-numeric or beyond the float range
        return None
    flat = chain.from_iterable
    if not (numbers.shape == (len(mats), side, side, 2)
            and {*map(type, flat(mats)), *map(type, flat(flat(mats)))} == {list}
            and {*map(type, flat(flat(flat(mats))))} <= {*kinds} and np.isfinite(numbers).all()):
        return None
    numbers.setflags(write=False)
    return numbers.view(np.complex128)[..., 0]


def _first_fault(table, obj, where: str) -> SchemaError:
    """The error for the first unknown key, malformed matrix or matrix of the
    wrong side of a rejected 'blocks' object."""
    read = isinstance(obj, ReadBlocks)
    for key, mat in zip(obj.keys, obj.sides.tolist()) if read else obj.items():
        try:
            dim = table.dims[table.locate(key)]
        except KeyError as exc:
            return SchemaError(f"{where}: unknown block key {key!r} ({exc})")
        fault = None if read else _matrix_fault(mat)
        if fault is None and (side := mat if read else len(mat)) != dim:
            fault = f"block has side {side}, expected {dim}"
        if fault is not None:
            return SchemaError(f"{where}.blocks[{key!r}]: {fault}")
    return SchemaError(f"{where}: malformed 'blocks'")  # fail closed if no fault is named


def _matrix_fault(mat) -> str | None:
    """What is wrong with one matrix, checked row by row and entry by entry; None if nothing."""
    if not (type(mat) is list and mat):
        return "matrix must be a nonempty list of rows"
    n = len(mat)
    for i, row in enumerate(mat):
        if not (type(row) is list and len(row) == n):
            return f"row {i} must have {n} entries"
        for j, pair in enumerate(row):
            if not (type(pair) is list and len(pair) == 2
                    and {type(pair[0]), type(pair[1])} <= {int, float}):
                return f"entry ({i},{j}) must be an [re, im] pair of numbers"
            try:
                complex(*pair)
            except OverflowError:  # a JSON integer beyond the float range
                return f"entry ({i},{j}) must be finite"
    if not all(map(math.isfinite, chain.from_iterable(chain.from_iterable(mat)))):
        return "entries must be finite"
    return None


def _map_to_obj(M, kind: str | None) -> dict:
    """Shared writer: table and blocks, plus the kind tag or the normalized flag."""
    tag = {"kind": kind} if kind is not None else {"normalized": M.normalized}
    return {"table": table_to_obj(M.table), "blocks": M, **tag}


def _map_from_obj(obj, where: str, cls, kind: str | None):
    """Shared reader: checks the shape and kind tag, then builds ``cls``."""
    _expect(isinstance(obj, dict), where, "must be an object")
    if kind is not None:
        _expect(obj.get("kind") == kind, where, f"needs \"kind\": \"{kind}\"")
    _expect("table" in obj and "blocks" in obj, where, "needs 'table' and 'blocks'")
    table = table_from_obj(obj["table"], where + ".table")
    blocks = blocks_from_obj(table, obj["blocks"], where)
    extra = {}
    if kind is None:
        extra["normalized"] = obj.get("normalized", False)
        _expect(isinstance(extra["normalized"], bool), where, "'normalized' must be a boolean")
    try:
        return cls(table, blocks, **extra)
    except (ValueError, KeyError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def family_to_obj(F: MatrixFamily) -> dict:
    return _map_to_obj(F, None)


def generator_to_obj(L: GeneratingFunctional) -> dict:
    return _map_to_obj(L, "generator")


def generator_from_obj(obj, where: str = "generator") -> GeneratingFunctional:
    return _map_from_obj(obj, where, GeneratingFunctional, "generator")


def cocycle_to_obj(c: CocycleMatrices) -> dict:
    return _map_to_obj(c, "cocycle")


def load_json(path) -> object:
    """The JSON value in the UTF-8 file at ``path``; SchemaError names a file that is not."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=_read_hook)
    except (ValueError, RecursionError) as exc:  # an int past the digit limit among them
        raise SchemaError(f"{path}: malformed JSON ({exc})") from None


def dump_json(obj, path) -> None:
    """Write ``obj`` as json.dumps(obj, sort_keys=True, indent=2) would, with the
    blocks of every ``BlockMap`` value as matrices of [re, im] pairs, each piece
    as ``reports.json_pieces`` makes it.  Strict JSON: a NaN or infinite value
    raises before the file is opened."""
    try:
        _check_finite(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.writelines(json_pieces(obj, allow_nan=False))
        fh.write("\n")


def _check_finite(obj) -> None:
    """Raise json's error for the first NaN or infinite number of ``obj``, in written
    order; a ``BlockMap`` is scanned a side at a time."""
    if isinstance(obj, BlockMap):  # its non-finite blocks, as key -> numbers
        bad = np.flatnonzero(~obj.scan(lambda stack: np.isfinite(stack).all(axis=(-2, -1)), bool))
        obj = {obj.table.key_at(obj.positions[i]): obj.views()[i].view(np.float64).ravel().tolist()
               for i in bad.tolist()}
    if isinstance(obj, (dict, list, tuple)):
        for value in map(obj.__getitem__, sorted(obj)) if isinstance(obj, dict) else obj:
            _check_finite(value)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
