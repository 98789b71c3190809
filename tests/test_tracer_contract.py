"""What the benchmark tracer, ``perfbench/tracing.py``, needs of the package.

The tracer wraps functions by (module, attribute) and its counters read
block maps; the benchmark's own smoke tests run outside this suite, so
without these checks a rename would only show up as a broken traced run.
The tracer module is loaded from its file and never changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hapkit as hk
import oracles
from hapkit import cli, genfun
from hapkit import serialize as sz
from conftest import FIXTURES, REPO_ROOT, load_perfbench, run_cli


tracing = load_perfbench("tracing")
assert cli.main  # the tracer resolves modules from sys.modules: hapkit.cli imports them all


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_every_traced_target_resolves(span):
    for owner_path, attr in tracing.TRACED[span]:
        assert callable(vars(tracing._resolve(owner_path))[attr])


def test_importing_the_cli_alone_loads_every_traced_target():
    """``Tracer.install`` looks each (module, attribute) up in ``sys.modules`` of
    a process that has only imported ``hapkit.cli``: a module that the CLI
    loads later, or never, breaks every traced run (``--trace 1``).  Checked
    in a fresh process, where nothing else has imported hapkit."""
    targets = sorted({pair for pairs in tracing.TRACED.values() for pair in pairs})
    code = ("import json, sys\nimport hapkit.cli\nmissing = []\n"
            "for path, attr in json.loads(sys.argv[1]):\n"
            "    module, _, cls = path.partition('.')\n"
            "    owner = sys.modules.get(f'hapkit.{module}')\n"
            "    owner = getattr(owner, cls, None) if cls else owner\n"
            "    if not callable(vars(owner).get(attr) if owner is not None else None):\n"
            "        missing.append(f'{path}.{attr}')\n"
            "print(json.dumps(missing))")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(targets)],
                         capture_output=True, check=True, cwd=REPO_ROOT)
    assert json.loads(res.stdout) == []


def test_counters_read_maps_built_from_stacks():
    t = hk.make_table([("a", 2), ("b", 1), ("c", 3)])
    read = sz.blocks_from_obj(t, {"b": [[[0.5, 0.0]]],
                                  "a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "x")
    family, counit = hk.MatrixFamily(t, read), oracles.constant_family(t, 1.0)
    product = hk.convolve(family, counit)
    assert list(family.blocks.keys()) == [t.decode("a"), t.decode("b")]
    assert len(family.blocks) == 2 and len(product.blocks) == 2
    assert [blk.shape for blk in family.blocks.values()] == [(2, 2), (1, 1)]
    tracer = tracing.Tracer()
    tracer._count_block_bytes((), family)
    tracer._count_prefilter((family, 0.75), None)
    tracer._count_dropped((family, counit), product)
    assert dict(tracer.counters) == {
        "cfree.block_bytes": 16 * (4 + 1),
        "fourier.check_c0.blocks_scanned": 2,
        "fourier.check_c0.prefilter_accepts": 1,  # only [0.5] has Frobenius norm <= 0.75
        "fourier.convolve.dropped_labels": 2,  # the trivial label and c
    }


def test_traced_run_keeps_the_call_paths(tmp_path):
    """A traced semigroup run makes one ``expm_neg`` per t and reads through the
    traced reader; a cocycle run takes one ``psd_sqrt``; a schoenberg run goes
    through the traced ``schoenberg_check``; everything is put back."""
    original = genfun.semigroup_at
    gen = FIXTURES / "zdual_length_generator.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run_cli("semigroup", gen, "--t", "0.5,1,2", "--out", tmp_path).returncode == 0
        assert run_cli("cocycle", gen, "--M", "1", "--out", tmp_path / "c.json").returncode == 0
        assert run_cli("schoenberg", "--group", "Z2*Z3", "--radius", "3").returncode == 0
        tracer.flush_counters()
    finally:
        tracer.uninstall()
    assert genfun.semigroup_at is original and hk.semigroup_at is original
    _, calls = tracer.self_times()
    assert calls["linalg.expm_neg"] == 3 and calls["genfun.semigroup_at"] == 3
    assert calls["linalg.psd_sqrt"] == 1 and calls["cocycle.factor_from_generator"] == 1
    assert calls["classical.schoenberg_check"] == 1
    assert calls["serialize.read"] >= 2 and calls["serialize.write"] >= 4
    assert tracer.counters["serialize.bytes_written"] == sum(
        path.stat().st_size for path in Path(tmp_path).iterdir())
    assert np.isfinite(list(tracer.self_times()[0].values())).all()
