"""Deterministic certification reports.

A report records the tool version, a content digest of the input, the
truncation it was computed on, every tolerance that was used, and one
verdict per checked condition with witnesses (label, achieved value,
threshold).  Rendering is byte-deterministic: identical inputs and flags
produce identical text and JSON, so reports can be content-addressed and
audited.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

__version__ = "0.1.0"

_TEXT_WITNESS_CAP = 8


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_digest(obj) -> str:
    """sha256 of ``canonical_json(obj)``, fed a piece at a time.

    The pieces are the members of a top-level object and the items of the
    lists directly in it, so a large input (a states file's families) is
    never held as one JSON string.
    """
    h = hashlib.sha256()
    if not (isinstance(obj, dict) and all(type(key) is str for key in obj)):
        h.update(canonical_json(obj).encode())
        return "sha256:" + h.hexdigest()
    h.update(b"{")
    for n, key in enumerate(sorted(obj)):
        h.update(("," * (n > 0) + canonical_json(key) + ":").encode())
        items = obj[key]
        if not isinstance(items, list):
            h.update(canonical_json(items).encode())
            continue
        h.update(b"[")
        for i, item in enumerate(items):
            h.update(("," * (i > 0) + canonical_json(item)).encode())
        h.update(b"]")
    h.update(b"}")
    return "sha256:" + h.hexdigest()


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


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    passed: bool
    witnesses: tuple[Witness, ...] = ()
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
        return {
            "tool": "hapkit",
            "version": self.version,
            "command": self.command,
            "input_digest": self.input_digest,
            "truncation": self.truncation,
            "tolerances": {k: _json_num(v) for k, v in self.tolerances},
            "conditions": [c.to_obj() for c in self.conditions],
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
            shown = cond.witnesses[:_TEXT_WITNESS_CAP]
            tag = "worst" if cond.passed else "witness"
            for w in shown:
                lines.append(f"  {tag}: {w.render()}")
            hidden = len(cond.witnesses) - len(shown)
            if hidden > 0:
                lines.append(f"  (+{hidden} more witnesses)")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"
