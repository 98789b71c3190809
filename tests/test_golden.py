"""Golden CLI runs: every subcommand's output pinned byte for byte.

Each case runs ``hapkit.cli.main`` in a fresh temporary directory that links
the repository's ``fixtures/`` under the same name, so fixture paths are
given relative to the repository root.  The exit code, stdout, stderr, the
``--json`` report and every file the run wrote are compared byte for byte
with ``tests/golden/<case>/``.

Regenerate the golden files (only when a report change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURES, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "certify_hap_pass": ["certify-hap", "fixtures/zdual_hap_pass.json"],
    "certify_hap_fail": ["certify-hap", "fixtures/undamped_fail.json"],
    "certify_hap_malformed": ["certify-hap", "fixtures/malformed.json"],
    "certify_hap_trivial_only": ["certify-hap", "trivial_states.json"],
    "freeprod_zz": ["freeprod", "fixtures/freeprod_zz.json"],
    "freeprod_fail": ["freeprod", "freeprod_fail.json"],
    "freeprod_matrix": ["freeprod", "fixtures/freeprod_matrix.json"],
    "freeprod_word_length_zero": ["freeprod", "freeprod_zz0.json"],
    "schoenberg_f2": ["schoenberg", "--group", "F2", "--radius", "3"],
    "schoenberg_z3z4": ["schoenberg", "--group", "Z3*Z4", "--radius", "4", "--t", "0.5"],
    "schoenberg_z2z3_r10": ["schoenberg", "--group", "Z2*Z3", "--radius", "10", "--t", "0.9"],
    "semigroup": ["semigroup", "fixtures/zdual_length_generator.json", "--t", "0.5,1",
                  "--out", "sg"],
    "cocycle_length": ["cocycle", "fixtures/zdual_length_generator.json", "--M", "8",
                       "--out", "cocycle.json"],
    # c*c = 2|n| at a^n: a^3 is certified at exactly M = 6, whatever the root's rounding
    "cocycle_length_m6": ["cocycle", "fixtures/zdual_length_generator.json", "--M", "6",
                          "--out", "cocycle.json"],
    "cocycle_unit_shift": ["cocycle", "fixtures/unit_shift_generator.json", "--M", "1",
                           "--out", "cocycle.json"],
    "cocycle_nonsymmetric": ["cocycle", "gen_nonsymmetric.json", "--M", "1",
                             "--out", "cocycle.json"],
    "cocycle_negative": ["cocycle", "gen_negative.json", "--M", "1", "--out", "cocycle.json"],
    "cocycle_zero": ["cocycle", "gen_zero.json", "--M", "1", "--out", "cocycle.json"],
    "cocycle_default_out": ["cocycle", "unit_shift.json", "--M", "1"],
    "cocycle_boundary": ["cocycle", "gen_boundary.json", "--M", "1", "--out", "cocycle.json"],
    "buildgen": ["buildgen", "fixtures/buildgen_zdual.json", "--out", "generator.json"],
    "buildgen_counit": ["buildgen", "counit_states.json", "--out", "generator.json"],
    "buildgen_unspecified": ["buildgen", "unspecified_states.json", "--out", "generator.json"],
    "semigroup_overflow": ["semigroup", "gen_overflow.json", "--t", "0.5,1", "--out", "sg"],
}

# inputs the run directory starts with; they are not outputs of the run
_INPUTS = {"fixtures", "freeprod_fail.json", "gen_nonsymmetric.json", "gen_negative.json",
           "gen_zero.json", "gen_overflow.json", "gen_boundary.json", "unit_shift.json",
           "counit_states.json", "unspecified_states.json", "trivial_states.json",
           "freeprod_zz0.json"}


def _pairs(matrix) -> list:
    """A real matrix as the rows of [re, im] pairs a block is read from."""
    return [[[float(x), 0.0] for x in row] for row in matrix]


def _write_inputs(workdir: Path) -> None:
    (workdir / "fixtures").symlink_to(FIXTURES, target_is_directory=True)
    # a FAIL copy of the freeprod fixture: tight tolerances at the late stages,
    # words up to length 2 (85 words) so the witness list stays small
    config = json.loads((FIXTURES / "freeprod_zz.json").read_text())
    config.update(conv_tols=[0.9, 0.5, 0.3, 0.25, 0.25], max_word_length=2)
    (workdir / "freeprod_fail.json").write_text(json.dumps(config, sort_keys=True, indent=2))
    # the same fixture with words of length 0 only: the word table is the trivial word
    # alone, so no condition would compare a row
    config = json.loads((FIXTURES / "freeprod_zz.json").read_text())
    config.update(max_word_length=0)
    (workdir / "freeprod_zz0.json").write_text(json.dumps(config, sort_keys=True, indent=2))
    # a copy of the unit-shift generator, so that cocycle's default output
    # <gen>.cocycle.json lands in the run directory; then generators on its table
    # (labels a and b of sides 2 and 3): a block that is not Hermitian, a negative
    # block, all blocks zero, and a block whose semigroup overflows at t = 1
    text = (FIXTURES / "unit_shift_generator.json").read_text()
    (workdir / "unit_shift.json").write_text(text)
    zero = {"a": [[0, 0], [0, 0]], "b": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}
    for name, blocks in {"nonsymmetric": {"a": [[1, 1], [0, 1]]},
                         "negative": {"a": [[1, 0], [0, -1]]},
                         "zero": zero,
                         "overflow": {"a": [[-1000, 0], [0, 1]]}}.items():
        gen = json.loads(text)
        gen["blocks"].update({key: _pairs(m) for key, m in blocks.items()})
        (workdir / f"gen_{name}.json").write_text(json.dumps(gen, sort_keys=True, indent=2))
    # a counit sequence on the buildgen fixture's table: every deviation is 0
    states = json.loads((FIXTURES / "buildgen_zdual.json").read_text())
    for fam in states["families"]:
        fam["blocks"] = {key: _pairs([[1]]) for key in fam["blocks"]}
    (workdir / "counit_states.json").write_text(json.dumps(states, sort_keys=True, indent=2))
    # two states on the table {e, a, b}, with b = [0] in the first only: b lies
    # outside the common support, so the generator has no block there
    ones = {"e": _pairs([[1]]), "a": _pairs([[1]])}
    states = {"table": {"entries": [{"dim": 1, "id": key, "trivial": key == "e"}
                                    for key in "eab"]},
              "families": [{"blocks": {**ones, "b": _pairs([[0]])}, "normalized": True},
                           {"blocks": ones, "normalized": True}]}
    (workdir / "unspecified_states.json").write_text(json.dumps(states, sort_keys=True, indent=2))
    # a state on the table {e} alone: nothing nontrivial to compare
    states = {"table": {"entries": [{"dim": 1, "id": "e", "trivial": True}]},
              "families": [{"blocks": {"e": _pairs([[1]])}, "normalized": True}]}
    (workdir / "trivial_states.json").write_text(json.dumps(states, sort_keys=True, indent=2))
    # a generator on {e, a, b} whose block a = [-0.75e-9] is within tol = 1e-9 of
    # positive, while a + a* = [-1.5e-9] is not: positive-blocks passes, and the
    # factor clamps a's root to [0]
    gen = {"kind": "generator",
           "table": {"entries": [{"dim": 1, "id": key, "trivial": key == "e"} for key in "eab"]},
           "blocks": {"a": _pairs([[-0.75e-9]]), "b": _pairs([[5]])}}
    (workdir / "gen_boundary.json").write_text(json.dumps(gen, sort_keys=True, indent=2))


def run_case(name: str, workdir: Path) -> dict:
    """Run one case with ``workdir`` as the current directory.

    Returns {relative path: bytes} for the exit code, stdout, stderr and
    every file the run left in ``workdir``.
    """
    _write_inputs(workdir)
    res = run_cli(*CASES[name], "--json", "report.json")
    outputs = {"exit_code": f"{res.returncode}\n".encode(),
               "stdout.txt": res.stdout, "stderr.txt": res.stderr}
    for root, dirs, files in os.walk(workdir):
        rel_root = Path(root).relative_to(workdir)
        dirs[:] = sorted(d for d in dirs if str(rel_root / d) not in _INPUTS)
        for fname in sorted(files):
            rel = rel_root / fname
            if str(rel) not in _INPUTS:
                outputs[rel.as_posix()] = (workdir / rel).read_bytes()
    return outputs


def read_golden(name: str) -> dict:
    case_dir = GOLDEN / name
    return {p.relative_to(case_dir).as_posix(): p.read_bytes()
            for p in sorted(case_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(name, tmp_path)
    want = read_golden(name)
    assert sorted(got) == sorted(want)
    for rel in want:
        assert got[rel] == want[rel], f"{name}: {rel} differs from the golden copy"


def regenerate() -> None:
    for name in sorted(CASES):
        case_dir = GOLDEN / name
        shutil.rmtree(case_dir, ignore_errors=True)
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                outputs = run_case(name, Path(tmp))
            finally:
                os.chdir(cwd)
        for rel, data in outputs.items():
            path = case_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"{name}: {len(outputs)} files")


if __name__ == "__main__":
    regenerate()
