"""Span tracer for hapkit's public functions, built from the outside.

``Tracer.install`` replaces each traced function with a wrapper on every
hapkit module attribute bound to it (``cli``, ``cfree`` and ``serialize``
import functions by name, so patching the defining module alone would miss
calls) and ``uninstall`` puts the originals back.  Each call records a span
(name, start, end, parent span, invocation id) in memory; ``write`` dumps
them when the run ends.  A layer's self time is its span's duration minus
the time covered by its child spans.

Counters that need the call's arguments or result are computed after the
invocation, outside every span, from references the wrappers keep.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name -> (module, attribute) of every function recorded under it
TRACED = {
    "cli.main": [("cli", "main")],
    "irreps.free_product_table": [("irreps", "free_product_table")],
    "classical.ball": [("classical", "ball")],
    "classical.length_gram": [("classical", "length_gram")],
    "classical.schoenberg_check": [("classical", "schoenberg_check")],
    "fourier.convolve": [("fourier", "convolve")],
    "fourier.check_c0": [("fourier", "check_c0")],
    "fourier.check_hap_sequence": [("fourier", "check_hap_sequence")],
    "genfun.semigroup_at": [("genfun", "semigroup_at")],
    "genfun.build_from_states": [("genfun", "build_from_states")],
    "genfun.check_symmetric": [("genfun", "check_symmetric")],
    "genfun.check_positive_blocks": [("genfun", "check_positive_blocks")],
    "cocycle.factor_from_generator": [("cocycle", "factor_from_generator")],
    "cocycle.check_proper_cocycle": [("cocycle", "check_proper_cocycle")],
    "cfree.cfree_state": [("cfree", "cfree_state")],
    "cfree.damp_sequence": [("cfree", "damp_sequence")],
    "cfree.freeprod_hap_pipeline": [("cfree", "freeprod_hap_pipeline")],
    # metric names may not start with "_", so hapkit._linalg reports as "linalg"
    "linalg.spectral_norm": [("_linalg", "spectral_norm")],
    "linalg.frobenius_norm": [("_linalg", "frobenius_norm")],
    "linalg.expm_neg": [("_linalg", "expm_neg")],
    "linalg.psd_sqrt": [("_linalg", "psd_sqrt")],
    "linalg.min_eigenvalue": [("_linalg", "min_eigenvalue")],
    "serialize.read": [("serialize", "load_json"), ("serialize", "table_from_obj"),
                       ("serialize", "blocks_from_obj"), ("serialize", "generator_from_obj")],
    "serialize.write": [("serialize", "dump_json"), ("serialize", "family_to_obj"),
                        ("serialize", "generator_to_obj"), ("serialize", "cocycle_to_obj")],
    "reports.render": [("reports.CertificationReport", "to_text"),
                       ("reports.CertificationReport", "to_obj")],
}

SELF_TIMES = list(TRACED)
CALLS = ["cfree.cfree_state", "linalg.spectral_norm", "linalg.frobenius_norm",
         "linalg.expm_neg", "linalg.psd_sqrt", "linalg.min_eigenvalue"]
COUNTERS = ["irreps.words", "classical.gram_entries", "cfree.block_bytes",
            "fourier.check_c0.blocks_scanned", "fourier.check_c0.prefilter_accepts",
            "fourier.convolve.dropped_labels", "serialize.bytes_read",
            "serialize.bytes_written", "reports.witnesses"]


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = sys.modules[f"hapkit.{module}"]
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, invocation id)
        self.invocation = -1
        self._stack = []
        self._pending = []  # (counter function, args, result)
        self._patched = []  # (owner, attribute, original)
        self._reports = {}  # id -> report, one witness count per rendered report
        self.counters = defaultdict(int)

    def install(self) -> None:
        hapkit_modules = [m for name, m in sys.modules.items()
                          if name == "hapkit" or name.startswith("hapkit.")]
        post = {
            ("irreps", "free_product_table"): self._count_words,
            ("classical", "length_gram"): self._count_gram,
            ("cfree", "cfree_state"): self._count_block_bytes,
            ("fourier", "check_c0"): self._count_prefilter,
            ("fourier", "convolve"): self._count_dropped,
            ("serialize", "load_json"): self._count_read,
            ("serialize", "dump_json"): self._count_written,
            ("reports.CertificationReport", "to_text"): self._count_witnesses,
            ("reports.CertificationReport", "to_obj"): self._count_witnesses,
        }
        for span, targets in TRACED.items():
            for owner_path, attr in targets:
                owner = _resolve(owner_path)
                original = vars(owner)[attr]
                wrapper = self._wrap(span, original, post.get((owner_path, attr)))
                owners = [owner] if "." in owner_path else hapkit_modules
                for holder in owners:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            self._patched.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def _wrap(self, span: str, fn, counter):
        spans, stack, pending, clock = self.spans, self._stack, self._pending, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.invocation)
            if counter is not None:
                pending.append((counter, args, result))
            return result
        return wrapper

    def flush_counters(self) -> None:
        """Evaluate the counters queued since the last flush (outside all spans)."""
        for counter, args, result in self._pending:
            counter(args, result)
        self._pending.clear()
        self._reports.clear()

    # counters: each takes the wrapped call's positional args and result

    def _count_words(self, _args, table):
        self.counters["irreps.words"] += len(table)

    def _count_gram(self, _args, gram):
        self.counters["classical.gram_entries"] += gram.size

    def _count_block_bytes(self, _args, family):
        self.counters["cfree.block_bytes"] += sum(b.nbytes for b in family.blocks.values())

    def _count_prefilter(self, args, _result):
        family, eps = args[0], args[1]
        self.counters["fourier.check_c0.blocks_scanned"] += len(family.blocks)
        self.counters["fourier.check_c0.prefilter_accepts"] += sum(
            1 for b in family.blocks.values() if float(np.linalg.norm(b)) <= eps)

    def _count_dropped(self, args, result):
        F, G = args[0], args[1]
        self.counters["fourier.convolve.dropped_labels"] += (
            len(F.blocks.keys() | G.blocks.keys()) - len(result.blocks))

    def _count_read(self, args, _result):
        self.counters["serialize.bytes_read"] += Path(args[0]).stat().st_size

    def _count_written(self, args, _result):
        self.counters["serialize.bytes_written"] += Path(args[1]).stat().st_size

    def _count_witnesses(self, args, _result):
        report = args[0]
        if id(report) not in self._reports:
            self._reports[id(report)] = report
            self.counters["reports.witnesses"] += sum(len(c.witnesses) for c in report.conditions)

    def self_times(self, first: int = 0):
        """(self seconds, calls) per span name over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), inner in zip(spans, child):
            self_s[name] += (end - start) - inner
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\tinvocation\n")
            for i, (name, start, end, parent, inv) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{inv}\n")
