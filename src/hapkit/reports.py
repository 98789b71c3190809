"""Deterministic certification reports.

A report records the tool version, a content digest of the input, the
truncation it was computed on, every tolerance that was used, and one
verdict per checked condition with witnesses (label, achieved value,
threshold).  Rendering is byte-deterministic: identical inputs and flags
produce identical text and JSON, so reports can be content-addressed and
audited.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape

__version__ = "0.1.0"

# The interpreter's own SHA-256, as random.py takes its sha512: hashlib would
# load and initialise OpenSSL's libcrypto, about 3.6 MB of every run's peak.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

_TEXT_WITNESS_CAP = 8


def content_digest(obj) -> str:
    """sha256 of the canonical JSON text of ``obj``, hashed piece by piece as
    ``json_pieces(obj, depth=None)`` makes it."""
    h = sha256()
    for piece in json_pieces(obj, depth=None):
        h.update(piece.encode())
    return "sha256:" + h.hexdigest()


def log_info(name: str, msg: str, *args) -> None:
    """Log ``msg % args`` at INFO on the logger ``name``.  Until some code imports
    ``logging`` nothing can have set a level or a handler, and the root
    logger's default level, WARNING, drops the record, so hapkit never
    imports it and a run is spared its few milliseconds of import."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).info(msg, *args)


def fmt(x) -> str:
    """Fixed rendering for numbers in reports."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


def _json_num(x: float):
    # keep the machine report strict JSON: non-finite values go out as strings
    return x if math.isfinite(x) else fmt(x)


_INDENT = "  "
# json's text of null, the booleans and, by their repr, the non-finite floats
_CONSTANTS = {None: "null", True: "true", False: "false",
              "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _leaf(x, allow_nan: bool = True) -> str:
    """json's text of a scalar; floats, ``np.float64`` among them, by ``float.__repr__``."""
    if isinstance(x, str):
        return _escape(x)
    if x is None or x is True or x is False:
        return _CONSTANTS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if not isinstance(x, float):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not (allow_nan or math.isfinite(x)):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    text = float.__repr__(x)
    return _CONSTANTS.get(text, text)


def _layout(depth: int | None) -> tuple:
    """The text before each member, before the closing bracket and after each key, and
    the members' depth: indent=2 and ``depth`` levels deep, or compact if ``depth`` is None."""
    if depth is None:
        return "", "", ":", None
    return "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth, ": ", depth + 1


@functools.lru_cache(maxsize=64)
def _template(keys: tuple, depth: int | None) -> str:
    """json's text of an object with the sorted ``keys`` in ``_layout(depth)``,
    with one %s per value."""
    inner, outer, colon, _ = _layout(depth)
    members = ("," + inner).join(_escape(key).replace("%", "%%") + colon + "%s" for key in keys)
    return "{" + inner + members + outer + "}"


@functools.lru_cache(maxsize=16)
def _matrix_template(d: int, depth: int | None) -> str:
    """json's text of a d x d matrix of [re, im] pairs, one %s per number: indent=2
    and nested ``depth`` levels deep, or the canonical compact text if ``depth`` is None."""
    return "".join(json_pieces([[[0, 0]] * d] * d, depth=depth)).replace("0", "%s")


def json_pieces(obj, allow_nan: bool = True, depth: int | None = 0):
    """The text of json.dumps(obj, sort_keys=True, allow_nan=allow_nan), yielded in
    pieces as it is made: indent=2 and nested ``depth`` levels deep, or the
    canonical compact text (separators "," and ":") if ``depth`` is None.

    An object whose values are all scalars fills the template of its keys.
    A value with a ``json_texts(depth)`` method lays out its own items: it
    gives their keys in order (None for an array) and their texts, nested
    ``depth`` levels deep.
    """
    inner, outer, colon, child = _layout(depth)
    own = hasattr(obj, "json_texts")
    if own:
        keys, values = obj.json_texts(child)
    elif isinstance(obj, (dict, list, tuple)):
        keys = sorted(obj) if isinstance(obj, dict) else None
        values = obj if keys is None else [obj[key] for key in keys]
    else:
        values = keys = None
    if values is None:
        yield _leaf(obj, allow_nan)
    elif keys and not own and all(isinstance(v, (str, int, float)) or v is None for v in values):
        # from a list: a tuple of known size, which the tuple free lists then reuse
        yield _template(tuple(keys), depth) % tuple([_leaf(v, allow_nan) for v in values])
    elif not (values if keys is None else keys):
        yield "[]" if keys is None else "{}"
    else:
        yield "[" if keys is None else "{"
        for n, value in enumerate(values):
            yield ("," if n else "") + inner + ("" if keys is None else _escape(keys[n]) + colon)
            yield from [value] if own else json_pieces(value, allow_nan, child)
        yield outer + ("]" if keys is None else "}")


@dataclass(frozen=True)
class Witness:
    """One (label, achieved, threshold) data point behind a verdict."""

    label: str
    achieved: float
    threshold: float
    context: str = ""

    def to_obj(self) -> dict:
        return {
            "label": self.label,
            "achieved": _json_num(self.achieved),
            "threshold": _json_num(self.threshold),
            "context": self.context,
        }

    def render(self) -> str:
        ctx = f" ({self.context})" if self.context else ""
        return (f"label={self.label!r} achieved={fmt(self.achieved)} "
                f"threshold={fmt(self.threshold)}{ctx}")


def _once(text, keys: list, values: list) -> map:
    """``text(values[i])`` for every i, made once per distinct ``keys[i]``."""
    texts = {key: text(value) for key, value in dict(zip(keys, values)).items()}
    return map(texts.__getitem__, keys)


def _num_texts(values) -> map:
    """The texts of ``_json_num`` of each number in the float array ``values``, one
    per distinct float64: keyed by its bits, so 0.0 and -0.0 stay apart, and so do NaNs."""
    text = float.__repr__ if (abs(values) < math.inf).all() else lambda x: _leaf(_json_num(x))
    return _once(text, values.view("i8").tolist(), values.tolist())


@dataclass(frozen=True, eq=False)
class WitnessRows:
    """Witnesses kept as arrays: ``head``, then one per row i, for the label at
    position ``positions[i]`` of ``table``, with ``achieved[i]``,
    ``threshold[i]`` and ``contexts[i]``.  Row witnesses, and their label
    keys, are made only when asked for; ``json_texts`` reads the arrays.
    """

    head: tuple = ()
    table: object = None
    positions: object = ()
    achieved: object = ()
    threshold: object = ()
    contexts: object = ()

    def __len__(self) -> int:
        return len(self.head) + len(self.positions)

    def witnesses(self, stop: int | None = None) -> tuple:
        """The first ``stop`` witnesses, or all of them."""
        if self.table is None:
            return self.head[:stop]
        rows = slice(0, None if stop is None else max(0, stop - len(self.head)))
        return self.head[:stop] + tuple(map(
            Witness, self.table.keys_at(self.positions[rows]), self.achieved[rows].tolist(),
            self.threshold[rows].tolist(), self.contexts[rows].tolist()))

    def json_texts(self, depth: int) -> tuple:
        texts = ["".join(json_pieces(w.to_obj(), depth=depth)) for w in self.head]
        if self.table is not None:
            contexts = self.contexts.tolist()
            texts += map(_template(("achieved", "context", "label", "threshold"), depth).__mod__,
                         zip(_num_texts(self.achieved), _once(_escape, contexts, contexts),
                             map(_escape, self.table.keys_at(self.positions)),
                             _num_texts(self.threshold)))
        return None, texts


class _Witnesses:
    """``ConditionVerdict.witnesses``: set as a tuple of ``Witness`` or as
    ``WitnessRows``, kept as ``rows``, and read as a tuple made on first use."""

    def __get__(self, verdict, owner=None) -> tuple:
        if verdict is None:
            return ()  # the field's default
        if "_witnesses" not in vars(verdict):
            vars(verdict)["_witnesses"] = verdict.rows.witnesses()
        return vars(verdict)["_witnesses"]

    def __set__(self, verdict, value) -> None:
        vars(verdict)["rows"] = value if isinstance(value, WitnessRows) \
            else WitnessRows(tuple(value))


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    passed: bool
    witnesses: tuple[Witness, ...] = _Witnesses()  # given as a tuple or as WitnessRows
    summary: str = ""

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "summary": self.summary,
            "witnesses": [w.to_obj() for w in self.witnesses],
        }


@dataclass(frozen=True)
class CertificationReport:
    command: str
    input_digest: str
    truncation: str
    tolerances: tuple[tuple[str, float], ...]
    conditions: tuple[ConditionVerdict, ...]
    notes: tuple[str, ...] = ()
    version: str = __version__

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def exit_code(self) -> int:
        return 0 if self.overall else 1

    def to_obj(self) -> dict:
        return self._obj([c.to_obj() for c in self.conditions])

    def json_pieces(self) -> list:
        """The text of json.dumps(self.to_obj(), sort_keys=True, indent=2) and a
        newline, in pieces, with each condition's witnesses read from its rows."""
        return [*json_pieces(self._obj([
            {"name": c.name, "passed": c.passed, "summary": c.summary, "witnesses": c.rows}
            for c in self.conditions])), "\n"]

    def _obj(self, conditions: list) -> dict:
        return {
            "tool": "hapkit",
            "version": self.version,
            "command": self.command,
            "input_digest": self.input_digest,
            "truncation": self.truncation,
            "tolerances": {k: _json_num(v) for k, v in self.tolerances},
            "conditions": conditions,
            "notes": list(self.notes),
            "overall": "PASS" if self.overall else "FAIL",
        }

    def to_text(self) -> str:
        lines = [f"hapkit {self.version} {self.command}"]
        lines.append(f"input: {self.input_digest}")
        lines.append(f"truncation: {self.truncation}")
        tols = ", ".join(f"{k}={fmt(v)}" for k, v in self.tolerances)
        lines.append(f"tolerances: {tols}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for cond in self.conditions:
            verdict = "PASS" if cond.passed else "FAIL"
            suffix = f" [{cond.summary}]" if cond.summary else ""
            lines.append(f"condition {cond.name}: {verdict}{suffix}")
            shown = cond.rows.witnesses(_TEXT_WITNESS_CAP)
            tag = "worst" if cond.passed else "witness"
            for w in shown:
                lines.append(f"  {tag}: {w.render()}")
            hidden = len(cond.rows) - len(shown)
            if hidden > 0:
                lines.append(f"  (+{hidden} more witnesses)")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"
