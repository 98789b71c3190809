"""A CLI run holds the raw JSON of one 'blocks' object at a time.

``serialize.load_json`` converts each 'blocks' object into stacks as it
parses, so a states file's families never live as nested lists side by
side: ``buildgen`` and ``certify-hap`` peak well below one plain parse of
their input.  A generator file is one 'blocks' object, so ``cocycle`` and
``semigroup`` peak near one parse; their outputs are written block by
block and add little.  The digest hashes the writer's compact pieces, the
converted blocks remade from their stacks a batch at a time, and stays a
small share of the canonical text.

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
from hapkit import reports, serialize

# the digest's largest piece is one batch of block texts: a small share of the text
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


# A run's peak as a share of one plain parse of its input (json.loads, no
# hook): the states readers hold one family's raw matrices at a time, and the
# generator readers the whole of their one 'blocks' object, beside the text.
@pytest.mark.parametrize("name, bound", [("cocycle", 1.15), ("semigroup", 1.15),
                                         ("buildgen", 0.7), ("certify-hap", 0.7)])
def test_run_peaks_near_one_parse_of_its_input(invocations, name, bound):
    argv, source = invocations[name]
    assert run_cli(*argv).returncode == 0
    parse = _traced_peak(lambda: json.loads(source.read_text(encoding="utf-8")))
    run = _traced_peak(lambda: run_cli(*argv))
    assert run <= bound * parse, (run, parse, round(run / parse, 3))


def _digest_peak_is_small(path, read):
    text = oracles.canonical_json(json.loads(path.read_text(encoding="utf-8")))
    obj = read(path)
    assert reports.content_digest(obj) == "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    peak = _traced_peak(lambda: reports.content_digest(obj))
    assert peak < DIGEST_OVER_TEXT * len(text), (peak, len(text), round(peak / len(text), 3))


@pytest.mark.parametrize("name", ["cocycle", "buildgen", "certify-hap"])
def test_digest_peaks_below_a_share_of_the_canonical_text(invocations, name):
    _digest_peak_is_small(invocations[name][1], lambda path: json.loads(path.read_text("utf-8")))


@pytest.mark.parametrize("name", ["cocycle", "buildgen", "certify-hap"])
def test_digest_of_the_converted_blocks_peaks_below_the_same_share(invocations, name):
    # the blocks' texts are remade from their stacks, one batch of blocks at a time
    _digest_peak_is_small(invocations[name][1], serialize.load_json)
