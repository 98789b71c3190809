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

In memory, a 'blocks' object is a ``BlockMap``: ``dump_json`` formats each
of its stacks' numbers at once (``BlockMap.json_texts``) and writes every
block in the layout json.dumps(..., indent=2) gives its nested lists, byte
for byte.  ``blocks_from_obj`` converts all matrices of one side with one
numpy call into one read-only stack, which the map it returns holds and a
family, generator or cocycle built from it adopts without a copy.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .cocycle import CocycleMatrices
from .fourier import BlockMap, MatrixFamily, stacked_blocks
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


def blocks_to_obj(table, blocks) -> BlockMap:
    """``blocks`` as a ``BlockMap`` over ``table``, which ``dump_json`` writes as
    block key -> matrix; a block map over an equal table is adopted, not copied."""
    return BlockMap(table, blocks)


def blocks_from_obj(table, obj, where: str) -> BlockMap:
    """The blocks of a 'blocks' object, one read-only stack per side.

    The matrices of one side are checked and converted together; when any
    is malformed, or is not of its label's dim, the error names the first
    fault in file order.
    """
    _expect(isinstance(obj, dict), where, "'blocks' must be an object")
    try:
        positions = np.array([table.locate(key) for key in obj], dtype=np.intp)
    except KeyError:
        raise _first_fault(table, obj, where) from None
    mats = list(obj.values())
    by_side = {}
    for i, mat in enumerate(mats):
        by_side.setdefault(len(mat) if type(mat) is list else 0, []).append(i)
    parts = []
    for side, idx in by_side.items():
        stack = _read_stack(side, [mats[i] for i in idx])
        at = positions[idx]
        if stack is None or (table.dims[at] != side).any():
            raise _first_fault(table, obj, where)
        parts.append((at, stack))
    return stacked_blocks(table, parts)


def _read_stack(side: int, mats: list):
    """Read-only (k, side, side) complex128 stack of ``mats``, or None unless each
    is a list of ``side`` rows of ``side`` [re, im] pairs of finite JSON numbers."""
    if side == 0:  # not a nonempty list
        return None
    try:
        numbers = np.array(mats, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):  # ragged, non-numeric or beyond the float range
        return None
    if numbers.shape != (len(mats), side, side, 2):
        return None
    rows = list(chain.from_iterable(mats))
    pairs = list(chain.from_iterable(rows))
    if not ({*map(type, rows), *map(type, pairs)} == {list}
            and {*map(type, chain.from_iterable(pairs))} <= {int, float}
            and np.isfinite(numbers).all()):
        return None
    numbers.setflags(write=False)
    return numbers.view(np.complex128)[..., 0]


def _first_fault(table, obj: dict, where: str) -> SchemaError:
    """The error for the first unknown key, malformed matrix or matrix of the
    wrong side of a rejected 'blocks' object."""
    for key, mat in obj.items():
        try:
            dim = table.dims[table.locate(key)]
        except KeyError as exc:
            return SchemaError(f"{where}: unknown block key {key!r} ({exc})")
        fault = _matrix_fault(mat)
        if fault is None and len(mat) != dim:
            fault = f"block has side {len(mat)}, expected {dim}"
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
    return {"table": table_to_obj(M.table), "blocks": blocks_to_obj(M.table, M), **tag}


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
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: malformed JSON ({exc})") from None


def dump_json(obj, path) -> None:
    """Write ``obj`` as json.dumps(obj, sort_keys=True, indent=2) would, with
    the blocks of every ``BlockMap`` value written as matrices of [re, im]
    pairs, through ``reports.json_pieces``.

    Strict JSON: a NaN or infinite value raises and writes nothing.
    """
    try:
        pieces = json_pieces(obj, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    pieces.append("\n")
    with open(path, "w") as fh:  # piece by piece: no second copy of the whole text
        fh.writelines(pieces)
