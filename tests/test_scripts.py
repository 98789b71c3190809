"""The bundled scripts still run against the public API.

Each ``demos/*.py`` must exit 0, and ``fixtures/regenerate.py``, run from a
copy in a temporary directory, must write files byte-identical to the
committed ``fixtures/``.  Every function the benchmark tracer patches must
still exist under the name it looks up.
"""

import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

import hapkit.cli  # noqa: F401  (the tracer resolves names in loaded modules)
from conftest import FIXTURES, REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def run_script(path, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(path)], capture_output=True, cwd=cwd, env=env)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    res = run_script(demo, tmp_path)
    assert res.returncode == 0, res.stderr.decode()


def test_regenerate_reproduces_fixtures(tmp_path):
    script = tmp_path / "regenerate.py"
    shutil.copy(FIXTURES / "regenerate.py", script)
    res = run_script(script, tmp_path)
    assert res.returncode == 0, res.stderr.decode()
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "regenerate.py")
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for span in tracing.TRACED.values() for target in span]
    missing = [(owner, attr) for owner, attr in targets
               if attr not in vars(tracing._resolve(owner))]
    assert not missing
