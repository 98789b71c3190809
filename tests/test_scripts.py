"""The bundled scripts still run against the public API.

Each ``demos/*.py`` must exit 0 and print its pinned stdout, and
``fixtures/regenerate.py``, run from a copy in a temporary directory, must
write files byte-identical to the committed ``fixtures/``, also without
``PYTHONPATH`` when ``src/`` sits beside its directory, as in a checkout.
Every name in ``hapkit.__all__`` must exist, and every module-level function
and class in ``src/hapkit`` must be used there, be traced, or be public and
used by a demo or ``fixtures/regenerate.py``.
Every function the benchmark tracer patches must still exist under the name
it looks up, and a traced run must leave every module as it found it.  The
CLI builds no verdict and reads no private name of the library, the library
builds verdicts in its kernels only, and only ``serialize.load_json`` parses
JSON.  Module-level definitions in ``src/hapkit`` keep PEP 8's two blank
lines above them.
"""

import ast
import hashlib
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import hapkit.cli  # noqa: F401  (the tracer resolves names in loaded modules)
from conftest import FIXTURES, REPO_ROOT, load_perfbench, run_cli

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, the same under 1 and 2 BLAS threads: the demos
# are what runs convolve, cfree_state and maps built from dicts
DEMO_STDOUT = {
    "01_length_kernels_on_free_products.py":
        "46946bf23856f036c1bcc92182a6276a6ba33a1891d22b44f0a1523a4bac2a03",
    "02_convolution_semigroups.py":
        "fd90b902344b063049007d59de2365243284508fe30558ef320a5fb268c22e94",
    "03_cocycle_factorization.py":
        "1719aaea4176c254a05f5ffa312a168ab41ef41e8c6769aece89fe2c882153b6",
    "04_free_products.py":
        "781a1f06b30a23dd46ced8b9dc5a79555efb25806c754e305231469c07e608b8",
}


def run_script(path, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(path)], capture_output=True, cwd=cwd, env=env)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    res = run_script(demo, tmp_path)
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == DEMO_STDOUT[demo.name], res.stdout.decode()


def test_regenerate_reproduces_fixtures(tmp_path):
    script = tmp_path / "regenerate.py"
    shutil.copy(FIXTURES / "regenerate.py", script)
    res = run_script(script, tmp_path)
    assert res.returncode == 0, res.stderr.decode()
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "regenerate.py")
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_regenerate_runs_without_pythonpath(tmp_path):
    # the layout of a checkout: fixtures/regenerate.py beside src/
    (tmp_path / "fixtures").mkdir()
    script = tmp_path / "fixtures" / "regenerate.py"
    shutil.copy(FIXTURES / "regenerate.py", script)
    (tmp_path / "src").symlink_to(REPO_ROOT / "src", target_is_directory=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(script)], capture_output=True, cwd=tmp_path,
                         env=env)
    assert res.returncode == 0, res.stderr.decode()
    for path in FIXTURES.glob("*.json"):
        assert (script.parent / path.name).read_bytes() == path.read_bytes(), path.name


def test_traced_names_resolve():
    tracing = load_perfbench("tracing")
    targets = [target for span in tracing.TRACED.values() for target in span]
    missing = [(owner, attr) for owner, attr in targets
               if attr not in vars(tracing._resolve(owner))]
    assert not missing


def test_public_names_resolve():
    import hapkit
    assert len(set(hapkit.__all__)) == len(hapkit.__all__)
    assert [name for name in hapkit.__all__ if not hasattr(hapkit, name)] == []


def _names(node) -> Counter:
    """How often each name is read in ``node``, as a variable or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_src_code_only_tests_use():
    """A module-level def or class of ``src/hapkit`` is referenced in ``src``
    outside its own body, or is a benchmark target, or is public (in
    ``hapkit.__all__``) and referenced by a demo or ``fixtures/regenerate.py``:
    no name is kept for the tests alone."""
    import hapkit
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((REPO_ROOT / "src" / "hapkit").glob("*.py"))}
    used = sum(map(_names, trees.values()), Counter())
    scripts = sum((_names(ast.parse(path.read_text(encoding="utf-8")))
                   for path in [*DEMOS, FIXTURES / "regenerate.py"]), Counter())
    traced = {target for span in load_perfbench("tracing").TRACED.values() for target in span}
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and used[node.name] <= _names(node)[node.name]
              and not (node.name in hapkit.__all__ and scripts[node.name])
              and (module, node.name) not in traced]
    assert unused == []


def test_module_level_definitions_have_two_blank_lines_above():
    """PEP 8's layout: exactly two blank lines above each module-level def and
    class of ``src/hapkit``, a comment directly above it counting as its own."""
    wrong = []
    for path in sorted((REPO_ROOT / "src" / "hapkit").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            top = min(d.lineno for d in [node, *node.decorator_list]) - 1  # lines above it
            while top and lines[top - 1].startswith("#"):
                top -= 1
            blank = next((i for i in range(top) if lines[top - 1 - i].strip()), top)
            if blank != 2 and blank != top:  # a file may open with a definition
                wrong.append(f"{path.name}:{node.lineno} {node.name}: {blank} blank lines")
    assert wrong == []


def test_cli_builds_no_verdict_and_reads_no_private_name():
    """``cli`` parses, loads, writes and exits: each report comes whole from a
    library call, so ``cli.py`` never names ``ConditionVerdict`` or ``Witness``,
    imports no ``_``-prefixed name and reads none off a hapkit module."""
    tree = ast.parse((REPO_ROOT / "src" / "hapkit" / "cli.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    modules = {alias.asname or alias.name for node in imports if node.module is None
               for alias in node.names}
    assert {"ConditionVerdict", "Witness"} & (imported | set(_names(tree))) == set()
    private = [name for node in imports for alias in node.names
               if (name := alias.name).startswith("_") and not name.startswith("__")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_json_is_parsed_in_load_json_only():
    """Every input goes through the reader that converts 'blocks' objects as it
    parses: in ``src/hapkit`` only ``serialize.load_json`` calls ``json.loads``
    or ``json.load``, and no module imports either name from ``json``."""
    found = []
    for path in sorted((REPO_ROOT / "src" / "hapkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "json"
                  for alias in node.names if alias.name in ("load", "loads")]
        for node in tree.body:
            found += [(path.stem, getattr(node, "name", None)) for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                      and call.func.attr in ("load", "loads")
                      and isinstance(call.func.value, ast.Name) and call.func.value.id == "json"]
    assert found == [("serialize", "load_json")]


def test_json_text_is_made_in_reports_only():
    """Every JSON text, written file, report and digest alike, comes from
    ``reports.json_pieces``: no module of ``src/hapkit`` calls ``json.dump`` or
    ``json.dumps``, builds a ``json.JSONEncoder``, or imports one of those names
    from ``json``."""
    makers = {"dump", "dumps", "JSONEncoder"}
    found = set()
    for path in sorted((REPO_ROOT / "src" / "hapkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found |= {(path.stem, alias.name) for alias in node.names if alias.name in makers}
            call = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
            if call.startswith("json.") and call.rsplit(".", 1)[1] in makers:
                found.add((path.stem, call))
    assert not found, sorted(found)


# the module-level functions of ``src/hapkit`` that may call ``ConditionVerdict``
# or ``Witness``: the verdict kernels, and the conditions that are no
# per-label threshold (an exceptional set, an evaluation)
_VERDICT_BUILDERS = {
    ("fourier", "_threshold_condition"), ("fourier", "_identity_condition"),
    ("fourier", "_c0_condition"), ("cocycle", "cocycle_report"),
    ("genfun", "semigroup_report"),
}

# the functions of ``src/hapkit`` that read each spectral scan of ``_linalg``:
# ``hermitian_eigh`` only the one eigendecomposition of a generator, which its
# positivity, semigroup, cocycle root and properness all read (a cocycle's
# (c*)c through its Gram generator); ``min_eigenvalues`` only the Schoenberg
# Gram and the single-matrix form the benchmark traces
_SPECTRUM_READERS = {
    "hermitian_eigh": {("genfun", "GeneratingFunctional._spectra")},
    "min_eigenvalues": {("classical", "schoenberg_check"), ("_linalg", "min_eigenvalue")},
}


def test_verdicts_are_built_in_the_kernels_only():
    """Every per-label threshold condition goes through ``_threshold_condition``:
    outside ``_VERDICT_BUILDERS`` no code of ``src/hapkit`` calls
    ``ConditionVerdict`` or ``Witness``, so no verdict compares inline; and
    every entry of the list is a module-level function that does, so no stale
    entry stays."""
    found, functions = set(), set()
    for path in sorted((REPO_ROOT / "src" / "hapkit").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", None)  # None for a statement at module level
            if isinstance(node, ast.FunctionDef):
                functions.add((path.stem, name))
            found |= {(path.stem, name) for call in ast.walk(node) if isinstance(call, ast.Call)
                      and {"ConditionVerdict", "Witness"} & set(_names(call.func))}
    assert found - _VERDICT_BUILDERS == set()
    assert _VERDICT_BUILDERS - (found & functions) == set()


def _readers(tree, name: str) -> set:
    """The qualified names (``Class.method`` or ``function``; None at module level)
    of the code in ``tree`` that reads ``name``, as a variable or as an attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_smallest_eigenvalues_have_one_source():
    """Every positivity decision reads its smallest eigenvalues from one scan:
    in ``src/hapkit`` only the ``_SPECTRUM_READERS`` of a scan read it, and
    every entry does, so no stale entry stays."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((REPO_ROOT / "src" / "hapkit").glob("*.py"))}
    for name, readers in _SPECTRUM_READERS.items():
        found = {(stem, scope) for stem, tree in trees.items() for scope in _readers(tree, name)}
        assert found == readers, name


def test_traced_runs_record_spans_and_restore(tmp_path):
    # what `perfbench/run.py --trace 1` does to a run: wrap, run, count, unwrap
    tracing = load_perfbench("tracing")
    modules = [m for name, m in sys.modules.items() if name.startswith("hapkit")]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.invocation = 0
        assert run_cli("freeprod", FIXTURES / "freeprod_matrix.json",
                       "--json", tmp_path / "r.json").returncode == 1
        assert run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json").returncode == 0
        tracer.flush_counters()
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    names = {span[0] for span in tracer.spans}
    assert {"cfree.freeprod_hap_pipeline", "cfree.damp_sequence", "serialize.read",
            "fourier.check_hap_sequence", "fourier.convolve", "reports.render"} <= names
    assert tracer.counters["reports.witnesses"] > 0
