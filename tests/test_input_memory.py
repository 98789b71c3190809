"""A CLI run holds an input's raw JSON only while it reads it.

Peaks are traced Python allocations (``tracemalloc``) of a second call,
made after a full collection, so that caches, first-call set-up and what
earlier tests left in the free lists are not counted.  The inputs are the
benchmark's 1,000-label generator and states files.
"""

import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

import oracles
from conftest import load_perfbench, run_cli
from hapkit import reports

# the digest's largest piece is one run of members: a small share of the text
DIGEST_OVER_TEXT = 0.25


def _traced_peak(call) -> int:
    call()
    gc.collect()  # also empties the free lists, whose reuse tracemalloc does not see
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def invocations(tmp_path_factory):
    """name -> (argv, input path) of the generator-files part of one benchmark round."""
    indir = tmp_path_factory.mktemp("inputs")
    out = tmp_path_factory.mktemp("out")
    built = load_perfbench("workloads").build("files-schoenberg", 1, 0, "full", indir)
    return {inv.name: ([arg.replace("{out}", str(out)) for arg in inv.argv] + ["--quiet"],
                       Path(inv.argv[1]))
            for inv in built if inv.part == "generator-files"}


# How far a run's peak may pass that of reading and parsing its input: the
# parse sets the peak of buildgen and certify-hap, while cocycle and semigroup
# peak higher as they write their outputs, after the raw JSON is gone.
@pytest.mark.parametrize("name, bound", [("cocycle", 1.15), ("semigroup", 1.3),
                                         ("buildgen", 1.05), ("certify-hap", 1.05)])
def test_run_peaks_near_one_parse_of_its_input(invocations, name, bound):
    argv, source = invocations[name]
    assert run_cli(*argv).returncode == 0
    parse = _traced_peak(lambda: json.loads(source.read_text(encoding="utf-8")))
    run = _traced_peak(lambda: run_cli(*argv))
    assert run <= bound * parse, (run, parse, round(run / parse, 3))


@pytest.mark.parametrize("name", ["cocycle", "buildgen", "certify-hap"])
def test_digest_peaks_below_a_share_of_the_canonical_text(invocations, name):
    obj = json.loads(invocations[name][1].read_text(encoding="utf-8"))
    text = oracles.canonical_json(obj)
    assert reports.content_digest(obj) == "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    peak = _traced_peak(lambda: reports.content_digest(obj))
    assert peak < DIGEST_OVER_TEXT * len(text), (peak, len(text), round(peak / len(text), 3))
