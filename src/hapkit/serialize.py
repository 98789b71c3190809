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
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cocycle import CocycleMatrices
from .fourier import MatrixFamily
from .genfun import GeneratingFunctional
from .irreps import FreeProductTable, IrrepTable, free_product_table, make_table


class SchemaError(ValueError):
    """Input JSON does not match the expected shape."""


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {what}")


def matrix_to_obj(block: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(block)]


def matrix_from_obj(obj, where: str) -> np.ndarray:
    _expect(isinstance(obj, list) and obj, where, "matrix must be a nonempty list of rows")
    n = len(obj)
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == n, where,
                f"row {i} must have {n} entries")
        for j, entry in enumerate(row):
            _expect(isinstance(entry, list) and len(entry) == 2
                    and isinstance(entry[0], (int, float)) and not isinstance(entry[0], bool)
                    and isinstance(entry[1], (int, float)) and not isinstance(entry[1], bool),
                    where, f"entry ({i},{j}) must be an [re, im] pair of numbers")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:  # a JSON integer beyond the float range
                raise SchemaError(f"{where}: entry ({i},{j}) must be finite") from None
    _expect(np.isfinite(out).all(), where, "entries must be finite")
    return out


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
        _expect(isinstance(ent, dict), where, f"entry {i} must be an object")
        _expect(isinstance(ent.get("id"), str), where, f"entry {i} needs a string id")
        _expect(type(ent.get("dim")) is int and ent["dim"] >= 1, where,
                f"entry {i} needs a positive integer dim")
        _expect(isinstance(ent.get("trivial", False), bool), where,
                f"entry {i}: 'trivial' must be a boolean")
        if ent.get("trivial", False):
            _expect(trivial_id is None, where, "more than one trivial entry")
            trivial_id = ent["id"]
        entries.append((ent["id"], ent["dim"]))
    _expect(trivial_id is not None, where, "no trivial entry")
    try:
        return make_table(entries, trivial_id=trivial_id)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def blocks_to_obj(table, blocks) -> dict:
    return {table.encode(lab): matrix_to_obj(blk) for lab, blk in blocks.items()}


def blocks_from_obj(table, obj, where: str) -> dict:
    _expect(isinstance(obj, dict), where, "'blocks' must be an object")
    out = {}
    for key, mat in obj.items():
        try:
            label = table.decode(key)
        except KeyError as exc:
            raise SchemaError(f"{where}: unknown block key {key!r} ({exc})") from None
        out[label] = matrix_from_obj(mat, f"{where}.blocks[{key!r}]")
    return out


def _map_to_obj(M, kind: str | None) -> dict:
    """Shared writer: table and blocks, plus the kind tag or the normalized flag."""
    tag = {"kind": kind} if kind is not None else {"normalized": M.normalized}
    return {"table": table_to_obj(M.table), "blocks": blocks_to_obj(M.table, M.blocks), **tag}


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


def family_from_obj(obj, where: str = "family") -> MatrixFamily:
    return _map_from_obj(obj, where, MatrixFamily, None)


def generator_to_obj(L: GeneratingFunctional) -> dict:
    return _map_to_obj(L, "generator")


def generator_from_obj(obj, where: str = "generator") -> GeneratingFunctional:
    return _map_from_obj(obj, where, GeneratingFunctional, "generator")


def cocycle_to_obj(c: CocycleMatrices) -> dict:
    return _map_to_obj(c, "cocycle")


def cocycle_from_obj(obj, where: str = "cocycle") -> CocycleMatrices:
    return _map_from_obj(obj, where, CocycleMatrices, "cocycle")


def load_json(path) -> object:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON ({exc})") from None


def dump_json(obj, path) -> None:
    """Write strict JSON: a NaN or infinite value raises and writes nothing."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n")
