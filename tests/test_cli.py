import ast
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from hapkit import cli
from hapkit import serialize as sz
from conftest import FIXTURES, REPO_ROOT, run_cli, run_cli_subprocess


class TestExitCodes:
    def test_pass_fixture(self):
        res = run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json")
        assert res.returncode == 0
        assert b"overall: PASS" in res.stdout

    def test_fail_fixture(self):
        res = run_cli("certify-hap", FIXTURES / "undamped_fail.json")
        assert res.returncode == 1
        assert b"overall: FAIL" in res.stdout
        assert b"damped-norm-bound: FAIL" in res.stdout
        assert b"witness" in res.stdout

    def test_malformed_fixture(self):
        res = run_cli("certify-hap", FIXTURES / "malformed.json")
        assert res.returncode == 2
        assert b"error" in res.stderr

    def test_missing_file(self):
        res = run_cli("certify-hap", FIXTURES / "no_such_file.json")
        assert res.returncode == 2

    def test_unknown_group(self):
        res = run_cli("schoenberg", "--group", "Q8", "--t", "1", "--radius", "1")
        assert res.returncode == 2

    def test_negative_time(self):
        res = run_cli("semigroup", FIXTURES / "zdual_length_generator.json",
                      "--t", "-1", "--out", "/tmp")
        assert res.returncode == 2

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_json_path_prints_no_verdict(self, where, tmp_path):
        # the report is written before stdout, so a caller never reads a PASS of a run that exits 2
        path = tmp_path / "no" / "r.json" if where == "missing-dir" else tmp_path
        res = run_cli("schoenberg", "--group", "Z", "--radius", "2", "--json", path)
        assert res.returncode == 2 and res.stdout == b""
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestFailClosedOnNaN:
    def test_nan_conv_tols_fail_identity_convergence(self):
        res = run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json",
                      "--conv-tols", "nan,nan,nan,nan")
        assert res.returncode == 1
        assert b"identity-convergence: FAIL" in res.stdout
        assert b"overall: FAIL" in res.stdout

    def test_nan_tol_fails_damped_norm_bound(self):
        res = run_cli("certify-hap", FIXTURES / "undamped_fail.json", "--tol", "nan")
        assert res.returncode == 1
        assert b"damped-norm-bound: FAIL" in res.stdout

    def test_nan_tol_json_report_is_strict(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json", "--tol", "nan",
                      "--json", out)
        assert res.returncode == 1
        obj = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert obj["tolerances"]["tol"] == "nan"

    def test_nan_tol_compares_nothing_where_a_condition_has_no_rows(self, tmp_path):
        # a table of the trivial label alone leaves every condition without a row,
        # so no NaN would be met and every condition would hold vacuously: an input
        # error instead, for the word table of max_word_length 0 and for a states table
        config = {**json.loads((FIXTURES / "freeprod_zz.json").read_text()),
                  "max_word_length": 0}
        path = tmp_path / "zz0.json"
        path.write_text(json.dumps(config))
        res = run_cli("freeprod", path, "--tol", "nan")
        assert (res.returncode, res.stdout) == (2, b"")
        assert res.stderr == b"error: word table: no nontrivial label, " \
                             b"so nothing would be compared\n"
        states = tmp_path / "e.json"
        states.write_text(json.dumps({
            "table": {"entries": [{"id": "e", "dim": 1, "trivial": True}]},
            "families": [{"blocks": {"e": [[[1.0, 0.0]]]}, "normalized": True}]}))
        res = run_cli("certify-hap", states, "--k-values", "1", "--tol", "nan")
        assert (res.returncode, res.stdout) == (2, b"")
        assert res.stderr == b"error: table: no nontrivial label, so nothing would be compared\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_generator_fails_positivity(self, tmp_path):
        # finite blocks whose Hermitian part overflows: eigenvalues come out NaN
        res = run_cli("cocycle", _huge_generator(tmp_path), "--M", "1",
                      "--out", tmp_path / "c.json")
        assert res.returncode == 1
        assert b"positive-blocks: FAIL" in res.stdout
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_semigroup_writes_no_non_finite_file(self, tmp_path):
        res = run_cli("semigroup", _huge_generator(tmp_path), "--t", "0,1",
                      "--out", tmp_path / "sg")
        assert res.returncode == 2
        assert b"semigroup_t" in res.stderr
        for path in (tmp_path / "sg").iterdir():
            assert b"NaN" not in path.read_bytes() and b"Infinity" not in path.read_bytes()


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def _huge_generator(directory) -> Path:
    table = {"entries": [{"id": "e", "dim": 1, "trivial": True}, {"id": "x", "dim": 2}]}
    block = [[[1e308, 0.0]] * 2] * 2
    path = directory / "huge.json"
    sz.dump_json({"kind": "generator", "table": table, "blocks": {"x": block}}, path)
    return path


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("certify-hap", FIXTURES / "zdual_hap_pass.json"),
        ("certify-hap", FIXTURES / "undamped_fail.json"),
        ("certify-hap", FIXTURES / "malformed.json"),
        ("freeprod", FIXTURES / "freeprod_zz.json"),
        ("schoenberg", "--group", "Z3*Z4", "--t", "0.5", "--radius", "2"),
    ])
    def test_byte_identical_runs(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_json_report_stable(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json", "--json", out1)
        run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json", "--json", out2)
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["overall"] == "PASS"
        assert report["input_digest"].startswith("sha256:")

    def test_quiet_suppresses_stdout(self):
        res = run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json", "--quiet")
        assert res.returncode == 0 and res.stdout == b""


class TestOneParserPerProcess:
    def test_subcommands_in_one_process_match_fresh_processes(self, tmp_path):
        """The argparse tree is built once and reused: runs of different
        subcommands in one process print and write what fresh processes do."""
        runs = [("certify-hap", FIXTURES / "zdual_hap_pass.json"),
                ("schoenberg", "--group", "Z3*Z4", "--t", "0.5", "--radius", "2"),
                ("certify-hap", FIXTURES / "undamped_fail.json", "--eps-decay", "0.25")]
        for i, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
            got = run_cli(*argv, "--json", here)
            expected = run_cli_subprocess(*argv, "--json", fresh)
            assert (got.returncode, got.stdout, got.stderr) == (
                expected.returncode, expected.stdout, expected.stderr)
            assert here.read_bytes() == fresh.read_bytes()
        assert cli.build_parser() is cli.build_parser()


def test_runs_leave_numpy_ma_unloaded(tmp_path):
    """No subcommand loads numpy.ma, about a megabyte and 15 ms of import
    (``np.unique`` imports it, so hapkit groups by side without it), OpenSSL's
    ``_hashlib`` or ``_ssl`` (the digests take the interpreter's own SHA-256),
    or ``logging``."""
    runs = [["cocycle", FIXTURES / "zdual_length_generator.json", "--M", "1",
             "--out", tmp_path / "c.json"],
            ["semigroup", FIXTURES / "unit_shift_generator.json", "--t", "1",
             "--out", tmp_path / "sg"],
            ["buildgen", FIXTURES / "buildgen_zdual.json", "--out", tmp_path / "g.json"],
            ["certify-hap", FIXTURES / "zdual_hap_pass.json"],
            ["freeprod", FIXTURES / "freeprod_matrix.json"],
            ["schoenberg", "--group", "Z2*Z3", "--radius", "3"]]
    heavy = ["numpy.ma", "_hashlib", "_ssl", "logging"]
    code = ("import io, sys, contextlib\nfrom hapkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {[list(map(str, r)) for r in runs]!r}]\n"
            f"print(codes, [m for m in {heavy!r} if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         cwd=REPO_ROOT)
    assert res.stdout.strip() == b"[0, 0, 1, 0, 1, 0] []"


class TestSideErrorsNameTheBlock:
    TABLE = {"entries": [{"id": "e", "dim": 1, "trivial": True}, {"id": "a", "dim": 2}]}

    def test_generator(self, tmp_path):
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({"kind": "generator", "table": self.TABLE,
                                   "blocks": {"a": [[[1.0, 0.0]]]}}))
        res = run_cli("cocycle", gen, "--M", "1")
        assert res.returncode == 2
        assert res.stderr == b"error: generator.blocks['a']: block has side 1, expected 2\n"

    def test_family(self, tmp_path):
        states = tmp_path / "states.json"
        states.write_text(json.dumps({"table": self.TABLE, "families": [
            {"blocks": {"e": [[[1.0, 0.0]]]}}, {"blocks": {"a": [[[1.0, 0.0]]]}}]}))
        res = run_cli("certify-hap", states)
        assert res.returncode == 2
        assert res.stderr == b"error: families[1].blocks['a']: block has side 1, expected 2\n"


class TestReadBlocksErrorsMatchTheRawReader:
    """A 'blocks' object that the reader converted while parsing fails with the
    text that ``serialize.blocks_from_obj`` gives for the raw object."""

    TABLE = {"entries": [{"id": "e", "dim": 1, "trivial": True}]
             + [{"id": f"b{i}", "dim": 1 + i % 3} for i in range(9)]}

    def _blocks(self, at, fault):
        blocks = {f"b{i}": [[[0.25, 0.0]] * (1 + i % 3)] * (1 + i % 3) for i in range(9)}
        keys = list(blocks)
        key = keys[at]
        if fault == "unknown":
            blocks = {("zz" if k == key else k): v for k, v in blocks.items()}
        elif fault == "side":  # one row and column more than the label's dim
            side = len(blocks[key]) + 1
            blocks[key] = [[[0.5, 0.0]] * side] * side
        return blocks

    @pytest.mark.parametrize("fault", ["unknown", "side"])
    @pytest.mark.parametrize("at", [0, 4, 8], ids=["first", "middle", "last"])
    def test_generator(self, tmp_path, at, fault):
        blocks = self._blocks(at, fault)
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({"kind": "generator", "table": self.TABLE, "blocks": blocks}))
        assert isinstance(sz.load_json(gen)["blocks"], sz.ReadBlocks)
        table = sz.table_from_obj(self.TABLE)
        with pytest.raises(sz.SchemaError) as raw:
            sz.blocks_from_obj(table, blocks, "generator")
        res = run_cli("cocycle", gen, "--M", "1")
        assert (res.returncode, res.stderr) == (2, f"error: {raw.value}\n".encode())

    @pytest.mark.parametrize("fault", ["unknown", "side"])
    @pytest.mark.parametrize("at", [0, 4, 8], ids=["first", "middle", "last"])
    def test_family(self, tmp_path, at, fault):
        blocks = self._blocks(at, fault)
        states = tmp_path / "states.json"
        states.write_text(json.dumps({"table": self.TABLE, "families": [
            {"blocks": self._blocks(at, None), "normalized": False},
            {"blocks": blocks, "normalized": False}]}))
        assert isinstance(sz.load_json(states)["families"][1]["blocks"], sz.ReadBlocks)
        table = sz.table_from_obj(self.TABLE)
        with pytest.raises(sz.SchemaError) as raw:
            sz.blocks_from_obj(table, blocks, "families[1]")
        for argv in (["certify-hap", states], ["buildgen", states, "--out", tmp_path / "g.json"]):
            res = run_cli(*argv)
            assert (res.returncode, res.stderr) == (2, f"error: {raw.value}\n".encode())


class TestSchoenbergCommand:
    def test_f2(self):
        res = run_cli("schoenberg", "--group", "F2", "--t", "1", "--radius", "2")
        assert res.returncode == 0
        assert b"17 elements (17x17 Gram matrix)" in res.stdout
        assert b"PASS" in res.stdout

    def test_z(self):
        res = run_cli("schoenberg", "--group", "Z", "--t", "0.5", "--radius", "5")
        assert res.returncode == 0


class TestSemigroupCommand:
    def test_unit_shift_value(self, tmp_path):
        res = run_cli("semigroup", FIXTURES / "unit_shift_generator.json",
                      "--t", "0,1", "--out", tmp_path)
        assert res.returncode == 0
        fam0 = oracles.family_from_obj(sz.load_json(tmp_path / "semigroup_t0.0.json"))
        eps = oracles.constant_family(fam0.table, 1.0)
        assert oracles.max_block_deviation(fam0, eps) == 0.0
        fam1 = oracles.family_from_obj(sz.load_json(tmp_path / "semigroup_t1.0.json"))
        lab = fam1.table.decode("a")
        assert abs(fam1.blocks[lab][0, 0] - math.exp(-1.0)) < 1e-12

    def test_deterministic_files(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            run_cli("semigroup", FIXTURES / "zdual_length_generator.json",
                    "--t", "0.5", "--out", d)
        name = "semigroup_t0.5.json"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestCocycleCommand:
    def test_length_generator_threshold(self, tmp_path):
        out = tmp_path / "c.json"
        res = run_cli("cocycle", FIXTURES / "zdual_length_generator.json",
                      "--M", "8", "--out", out)
        assert res.returncode == 0
        text = res.stdout.decode()
        assert "exceptional set at M=8" in text
        for enc in ("a^1", "a^2", "a^3", "a^-1", "a^-2", "a^-3"):
            assert enc in text
        assert "a^4" not in text.split("exceptional set")[1].splitlines()[0]
        c = oracles.cocycle_from_obj(sz.load_json(out))
        lab = c.table.decode("a^2")
        assert abs(c.blocks[lab][0, 0] - 2.0) < 1e-12  # sqrt(2*|2|)

    def test_zero_generator_all_exceptional(self, tmp_path):
        t = hk.make_table([("a", 2), ("b", 1)])
        zero = hk.GeneratingFunctional(t, {lab: [[0.0]] if t.dim(lab) == 1 else
                                           [[0.0, 0.0], [0.0, 0.0]]
                                           for lab in t.nontrivial_labels})
        gen_path = tmp_path / "zero.json"
        sz.dump_json(sz.generator_to_obj(zero), gen_path)
        res = run_cli("cocycle", gen_path, "--M", "1", "--out", tmp_path / "c.json")
        assert res.returncode == 1  # nothing certified above M
        assert b"proper-at-level: FAIL" in res.stdout

    def test_nonsymmetric_generator_exits_1(self, tmp_path):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): [[0.0, 1.0], [0.0, 0.0]]})
        gen_path = tmp_path / "nonsym.json"
        sz.dump_json(sz.generator_to_obj(L), gen_path)
        res = run_cli("cocycle", gen_path, "--M", "1")
        assert res.returncode == 1
        assert b"symmetric: FAIL" in res.stdout

    def test_negative_generator_exits_1(self, tmp_path):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): [[1.0, 0.0], [0.0, -1.0]]})
        gen_path = tmp_path / "neg.json"
        sz.dump_json(sz.generator_to_obj(L), gen_path)
        res = run_cli("cocycle", gen_path, "--M", "1")
        assert res.returncode == 1
        assert b"positive-blocks: FAIL" in res.stdout


class TestBuildgenCommand:
    def test_zdual_default_schedule(self, tmp_path):
        out = tmp_path / "gen.json"
        report_path = tmp_path / "report.json"
        res = run_cli("buildgen", FIXTURES / "buildgen_zdual.json", "--out", out,
                      "--json", report_path)
        # flagged-label witnesses carry non-finite achieved values; the
        # machine report must still be strict JSON
        machine = json.loads(report_path.read_text())
        assert machine["overall"] == "FAIL"
        text = res.stdout.decode()
        # the epsilon certificate cannot be extended for this slow sequence,
        # which the report must say while still writing the generator
        assert res.returncode == 1
        assert "epsilon-certificate: FAIL" in text
        assert "tail bound" in text
        L = sz.generator_from_obj(sz.load_json(out))
        assert hk.check_symmetric(L, 0.0).passed
        assert hk.check_positive_blocks(L, 1e-12).passed

    def test_counit_sequence_passes(self, tmp_path):
        t = hk.make_table([("a", 1)])
        config = tmp_path / "in.json"
        sz.dump_json({
            "table": sz.table_to_obj(t),
            "families": [{"blocks": oracles.constant_family(t, 1.0), "normalized": True}
                         for _ in range(3)],
        }, config)
        res = run_cli("buildgen", config, "--out", tmp_path / "gen.json")
        assert res.returncode == 0
        assert b"epsilon-certificate: PASS" in res.stdout

    @pytest.mark.parametrize("b_first", [False, True], ids=["nowhere", "first-only"])
    def test_label_outside_the_common_support_fails(self, tmp_path, b_first):
        """Two states on {e, a, b}, both [1] at a, and b in neither or as [0] in
        the first only.  The generator sums over the common support {a}, so
        it has no block at b: nothing certifies b, and the one failing row is
        b's, inf against eps_2 = 8^-2 of the default schedule."""
        t = hk.make_table([("a", 1), ("b", 1)], trivial_id="e")
        ones = {"e": [[[1.0, 0.0]]], "a": [[[1.0, 0.0]]]}
        first = {**ones, "b": [[[0.0, 0.0]]]} if b_first else ones
        config = tmp_path / "in.json"
        sz.dump_json({"table": sz.table_to_obj(t),
                      "families": [{"blocks": first, "normalized": True},
                                   {"blocks": ones, "normalized": True}]}, config)
        res = run_cli("buildgen", config, "--out", tmp_path / "gen.json",
                      "--json", tmp_path / "r.json")
        assert res.returncode == 1, res.stderr.decode()
        [cond] = json.loads((tmp_path / "r.json").read_text())["conditions"]
        assert (cond["name"], cond["passed"]) == ("epsilon-certificate", False)
        assert cond["witnesses"] == [{"label": "b", "achieved": "inf", "threshold": 0.015625,
                                      "context": "block unspecified in some state"}]


class TestFreeprodCommand:
    def test_zz_fixture_passes(self):
        res = run_cli("freeprod", FIXTURES / "freeprod_zz.json")
        assert res.returncode == 0
        text = res.stdout.decode()
        assert "word-norm-bound: PASS" in text
        assert "identity-convergence: PASS" in text
        assert "c0-decay: PASS" in text
        assert "517 words" in text

    def test_undamped_explicit_factors_fail(self, tmp_path):
        t = hk.make_table([("x", 1)])
        counit = oracles.constant_family(t, 1.0)
        config = tmp_path / "cfg.json"
        sz.dump_json({
            "factor1": {"table": sz.table_to_obj(t), "families": [{"blocks": counit}]},
            "factor2": {"table": sz.table_to_obj(t), "families": [{"blocks": counit}]},
            "k_values": [1],
            "max_word_length": 2,
            "eps_decay": 0.5,
            "conv_tols": [1.0],
        }, config)
        res = run_cli("freeprod", config)
        assert res.returncode == 1
        assert b"word-norm-bound: FAIL" in res.stdout

    def test_missing_factor_exits_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"factor1": {"group": "Z"}, "k_values": [1]}))
        res = run_cli("freeprod", config)
        assert res.returncode == 2

    @pytest.mark.parametrize("radius, max_word_length", [(1, 0), (0, 3)])
    def test_word_table_of_the_trivial_word_alone_is_an_input_error(
            self, tmp_path, radius, max_word_length):
        """No word of length >= 1, whether none is allowed or the factors have no
        nontrivial label: every condition would PASS on nothing, so exit 2."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "factor1": {"group": "Z", "radius": radius},
            "factor2": {"group": "Z", "radius": radius},
            "k_values": [1], "max_word_length": max_word_length,
            "eps_decay": 0.5, "conv_tols": [0.5],
        }))
        res = run_cli("freeprod", config)
        assert (res.returncode, res.stdout) == (2, b"")
        assert b"word table: no nontrivial label" in res.stderr


class TestReportHygiene:
    def test_proper_always_qualified(self, tmp_path):
        res = run_cli("cocycle", FIXTURES / "zdual_length_generator.json",
                      "--M", "2", "--out", tmp_path / "c.json")
        text = res.stdout.decode()
        for line in text.splitlines():
            if "proper" in line:
                assert "(up to" in line

    def test_defaults_disclosed(self):
        res = run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json")
        text = res.stdout.decode()
        assert "tolerances: tol=1e-09" in text
        assert "truncation:" in text
        assert "conv_tols:" in text


def _fixture_copy(directory, name: str, mutation=None):
    """Write ``fixtures/<name>.json`` to ``directory``.  A ``mutation``
    ``(path, value)`` first replaces the value at ``path``, a sequence of keys
    and list indices (``()`` is the whole document), by ``value``."""
    obj = json.loads((FIXTURES / f"{name}.json").read_text())
    if mutation is not None:
        path, value = mutation
        if not path:
            obj = value
        else:
            target = obj
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
    out = directory / f"{name}.json"
    out.write_text(json.dumps(obj))
    return out


_NESTED_TABLE = {"entries": [{"id": "e", "dim": 1, "trivial": True}, {"id": "a", "dim": 1}]}
_NESTED_BLOCKS = {"e": [[[1.0, 0.0]]], "a": [[[0.5, 0.0]]]}


class TestRejectedInputs:
    """Each of these once exited 0 or 1, or escaped as a traceback."""

    @pytest.mark.parametrize("argv, mutation", [
        (["certify-hap", "zdual_hap_pass", "--eps-decay", "nan"], None),
        (["certify-hap", "zdual_hap_pass", "--eps-decay", "inf"], None),
        (["cocycle", "zdual_length_generator", "--M", "nan"], None),
        (["semigroup", "zdual_length_generator", "--t", "nan"], None),
        (["freeprod", "freeprod_zz"], (("damp",), "false")),
        (["certify-hap", "zdual_hap_pass"], (("families", 0, "normalized"), "false")),
        (["certify-hap", "zdual_hap_pass"], (("k_values", 0), 0)),
        (["freeprod", "freeprod_zz"], (("k_values", 0), True)),
        (["certify-hap", "zdual_hap_pass"], (("conv_tols",), 5)),
        (["freeprod", "freeprod_zz"], (("factor1", "group"), 3)),
    ], ids=["eps-decay-nan", "eps-decay-inf", "M-nan", "semigroup-t-nan", "damp-string",
            "normalized-string", "k-zero", "k-bool", "conv-tols-scalar", "group-not-string"])
    def test_exits_2_and_writes_nothing(self, argv, mutation, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        command, name, *flags = argv
        source = _fixture_copy(tmp_path, name, mutation)
        res = run_cli(command, source, *flags)
        assert res.returncode == 2
        assert res.stderr.startswith(b"error: ")
        assert [p.name for p in tmp_path.iterdir()] == [source.name]

    @pytest.mark.parametrize("argv, mutation", [
        (["certify-hap", "zdual_hap_pass", "--eps-decay", "0"], None),
        (["certify-hap", "zdual_hap_pass", "--eps-decay=-1"], None),
        (["freeprod", "freeprod_zz"], (("eps_decay",), 0)),
        (["certify-hap", "zdual_hap_pass", "--eps-decay", "1"], None),
        (["certify-hap", "zdual_hap_pass", "--eps-decay", "3"], None),
        (["freeprod", "freeprod_zz"], (("eps_decay",), 1)),
    ], ids=["eps-decay-zero", "eps-decay-negative", "freeprod-eps-decay-zero",
            "eps-decay-one", "eps-decay-three", "freeprod-eps-decay-one"])
    def test_nonpositive_eps_decay_names_the_knob(self, argv, mutation, tmp_path):
        """Also 1 or more: a state's blocks have norm <= 1, so that certifies no decay."""
        command, name, *flags = argv
        res = run_cli(command, _fixture_copy(tmp_path, name, mutation), *flags)
        assert res.returncode == 2
        assert b"eps_decay" in res.stderr

    def test_semigroup_repeated_t_writes_no_file(self, tmp_path):
        # 1 and 1.0 are one t: both would be written to semigroup_t1.0.json
        source = _fixture_copy(tmp_path, "zdual_length_generator")
        res = run_cli("semigroup", source, "--t", "1,1.0", "--out", tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith(b"error: --t: ")
        assert [p.name for p in tmp_path.iterdir()] == [source.name]

    def test_semigroup_overflow_writes_no_file(self, tmp_path):
        # exp(-0.1 * -1000) is finite, exp(-1 * -1000) is not: no t may be written,
        # and the error line is all of stderr (no numpy warnings before it)
        source = _fixture_copy(tmp_path, "zdual_length_generator",
                               (("blocks",), {"a^-1": [[[-1000.0, 0.0]]]}))
        res = run_cli_subprocess("semigroup", source, "--t", "0.1,1", "--out", tmp_path)
        assert res.returncode == 2
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "semigroup_t" in lines[0]
        assert [p.name for p in tmp_path.iterdir()] == [source.name]

    def test_location_prefix_appears_once(self, tmp_path):
        source = _fixture_copy(tmp_path, "zdual_hap_pass",
                               (("families", 0, "blocks", "zz"), [[[1.0, 0.0]]]))
        res = run_cli("certify-hap", source)
        assert res.returncode == 2
        assert res.stderr.count(b"families[0]") == 1

    def test_process_exit_code_without_traceback(self, tmp_path):
        # in-process runs cannot see Python's own exit 1 on an uncaught exception
        source = _fixture_copy(tmp_path, "zdual_hap_pass", (("k_values", 0), 0))
        res = run_cli_subprocess("certify-hap", source)
        assert res.returncode == 2
        assert b"Traceback" not in res.stderr

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path):
        # json's int() refuses more than sys.get_int_max_str_digits() digits
        source = tmp_path / "big.json"
        table = {"entries": [{"id": "e", "dim": 1, "trivial": True}, {"id": "a", "dim": 1}]}
        source.write_text(json.dumps({"kind": "generator", "table": table,
                                      "blocks": {"a": [[[0.5, 0.0]]]}}).replace("0.5", "1" * 5001))
        res = run_cli("cocycle", source, "--M", "1")
        assert res.returncode == 2
        assert res.stderr.decode().startswith(
            f"error: {source}: malformed JSON (Exceeds the limit (4300 digits) for integer string")

    @pytest.mark.parametrize("command, obj, error", [
        (["certify-hap"], {"table": _NESTED_TABLE, "families": [[{"blocks": _NESTED_BLOCKS}]]},
         "families: family 0 must be an object with 'blocks'"),
        (["cocycle", "--M", "1"], {"x": [[{"blocks": _NESTED_BLOCKS}]], "kind": "generator"},
         "generator: needs 'table' and 'blocks'"),
    ], ids=["families", "generator"])
    def test_blocks_two_lists_down_meet_the_schema(self, tmp_path, command, obj, error):
        # the digest, taken before the schema is checked, reads the 'blocks' object
        # that load_json converted inside a list of lists
        source = tmp_path / "in.json"
        source.write_text(json.dumps(obj))
        res = run_cli(command[0], source, *command[1:])
        assert (res.returncode, res.stderr.decode()) == (2, f"error: {error}\n")

    @pytest.mark.parametrize("name", ["nested", "huge-dim"])
    def test_unreadable_input_exits_2_without_traceback(self, tmp_path, name):
        # nesting deeper than the parser's recursion limit, and a dim beyond the index range
        source = _fixture_copy(tmp_path, "zdual_hap_pass",
                               (("table", "entries", 1, "dim"), 10 ** 20))
        if name == "nested":
            source.write_text("[" * 100000 + "]" * 100000)
        res = run_cli_subprocess("certify-hap", source)
        lines = res.stderr.decode().splitlines()
        assert res.returncode == 2
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# a UTF-8 locale, and a C locale in which Python neither coerces nor uses UTF-8 mode
_LOCALES = {"utf8": {"PYTHONUTF8": "1"},
            "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}}


class TestInputEncoding:
    """Input files are read as UTF-8, whatever the locale."""

    @pytest.fixture
    def source(self, tmp_path):
        # the block at \u00e9 is not near I, so the report names it as a witness
        obj = {"table": {"entries": [{"id": "1", "dim": 1, "trivial": True},
                                     {"id": "\u00e9", "dim": 1}]},
               "families": [{"blocks": {"1": [[[1.0, 0.0]]], "\u00e9": [[[0.0, 0.0]]]}}]}
        source = tmp_path / "states.json"
        source.write_bytes(json.dumps(obj, ensure_ascii=False).encode("utf-8"))
        return source

    def test_non_ascii_label_gives_the_same_report_in_every_locale(self, source, tmp_path):
        reports = []
        for name, env in _LOCALES.items():
            out = tmp_path / f"{name}.json"
            res = run_cli_subprocess("certify-hap", source, "--json", out, "--quiet", env=env)
            assert (res.returncode, res.stdout, res.stderr) == (1, b"", b""), name
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b'"label": "\\u00e9"' in reports[0]

    def test_stdout_that_cannot_encode_a_label_prints_its_escape(self, source, tmp_path):
        runs = {name: run_cli_subprocess("certify-hap", source, "--json", tmp_path / f"{name}.json",
                                         env=env) for name, env in _LOCALES.items()}
        for name, res in runs.items():
            assert (res.returncode, res.stderr) == (1, b""), name
        assert (tmp_path / "ascii.json").read_bytes() == (tmp_path / "utf8.json").read_bytes()
        assert b"label='\\xe9'" in runs["ascii"].stdout
        assert runs["ascii"].stdout == runs["utf8"].stdout.replace("\u00e9".encode(), b"\\xe9")

    @pytest.mark.parametrize("locale", _LOCALES)
    def test_undecodable_input_names_the_file(self, locale, tmp_path):
        source = tmp_path / "states.json"
        source.write_bytes(bytes(range(128, 256)))
        res = run_cli_subprocess("certify-hap", source, env=_LOCALES[locale])
        assert res.returncode == 2
        assert res.stderr.decode().startswith(f"error: {source}: malformed JSON ('utf-8' codec")


def _json_paths(obj, prefix=(), depth=4):
    """Every path of length <= depth, descending into the first two list items."""
    yield prefix
    if len(prefix) < depth:
        items = obj.items() if isinstance(obj, dict) else \
            enumerate(obj[:2]) if isinstance(obj, list) else ()
        for key, child in items:
            yield from _json_paths(child, prefix + (key,), depth)


_FUZZED = {
    "zdual_hap_pass": lambda src, d: ["certify-hap", src],
    "freeprod_zz": lambda src, d: ["freeprod", src],
    "buildgen_zdual": lambda src, d: ["buildgen", src, "--out", f"{d}/gen.json"],
    "zdual_length_generator": lambda src, d: ["cocycle", src, "--M", "8",
                                              "--out", f"{d}/cocycle.json"],
}
_MUTATION_SITES = [(name, path) for name in _FUZZED
                   for path in _json_paths(json.loads((FIXTURES / f"{name}.json").read_text()))]
_MUTANTS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 0.5, 3]),
    st.sampled_from([[], {}, [1], [[1]], [[[0.5, 0.0]]], [True, 1], {"a": 1}]))


class TestExitCodeProperty:
    @settings(max_examples=200, deadline=None)
    @given(site=st.sampled_from(_MUTATION_SITES), value=_MUTANTS)
    def test_single_field_mutation_keeps_the_exit_contract(self, site, value):
        name, path = site
        with tempfile.TemporaryDirectory() as d:
            source = _fixture_copy(Path(d), name, (path, value))
            res = run_cli(*_FUZZED[name](source, d))
        assert res.returncode in (0, 1, 2)
        if res.returncode == 1:
            assert b"overall: FAIL" in res.stdout


_POISONED_RUNS = [
    ("zdual_length_generator", lambda src, d: ["cocycle", src, "--M", "8",
                                               "--out", f"{d}/cocycle.json"]),
    ("unit_shift_generator", lambda src, d: ["cocycle", src, "--M", "1",
                                             "--out", f"{d}/cocycle.json"]),
    ("zdual_length_generator", lambda src, d: ["semigroup", src, "--t", "0.5,1",
                                               "--out", f"{d}/sg"]),
    ("unit_shift_generator", lambda src, d: ["semigroup", src, "--t", "1", "--out", f"{d}/sg"]),
    ("buildgen_zdual", lambda src, d: ["buildgen", src, "--out", f"{d}/gen.json"]),
    ("zdual_hap_pass", lambda src, d: ["certify-hap", src]),
]
# a number no fixture holds, rendered by json.dumps as written here
_SENTINEL = 271828.18284


class TestPoisonedBlockFailsClosed:
    """One non-finite, overflowing or boolean matrix entry in a generator or
    states file: exit 2 with one error line, and no file written."""

    @settings(max_examples=60, deadline=None)
    @given(run=st.sampled_from(_POISONED_RUNS), literal=st.sampled_from(
               ["NaN", "Infinity", "-Infinity", "1e400", "true"]), data=st.data())
    def test_exits_2_with_one_error_line_and_writes_nothing(self, run, literal, data):
        name, argv = run
        obj = json.loads((FIXTURES / f"{name}.json").read_text())
        maps = [obj["blocks"]] if "blocks" in obj else [f["blocks"] for f in obj["families"]]
        blocks = data.draw(st.sampled_from(maps))
        matrix = blocks[data.draw(st.sampled_from(sorted(blocks)))]
        row = data.draw(st.sampled_from(matrix))
        pair = data.draw(st.sampled_from(row))
        pair[data.draw(st.integers(0, 1))] = _SENTINEL
        text = json.dumps(obj)
        assert text.count(repr(_SENTINEL)) == 1
        with tempfile.TemporaryDirectory() as d:
            source = Path(d) / f"{name}.json"
            source.write_text(text.replace(repr(_SENTINEL), literal))
            res = run_cli(*argv(source, d), "--json", f"{d}/report.json")
            written = sorted(p.name for p in Path(d).iterdir())
        assert res.returncode == 2
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert written == [source.name]


# knob -> its tightened value: tolerances halved, the properness level doubled
_TIGHTER = {"tol": lambda x: x / 2, "conv_tols": lambda xs: [x / 2 for x in xs],
            "eps_decay": lambda x: x / 2, "M": lambda x: 2 * x}
# fixture -> its command; cocycle reads --tol and --M, the others --tol and
# the conv_tols and eps_decay of their input file
_TIGHTENED = {"zdual_hap_pass": "certify-hap", "undamped_fail": "certify-hap",
              "freeprod_zz": "freeprod", "zdual_length_generator": "cocycle"}
_CHAINS = [(name, knob) for name, command in _TIGHTENED.items()
           for knob in (("tol", "M") if command == "cocycle"
                        else ("tol", "conv_tols", "eps_decay"))]


class TestTightening:
    """Tightening one tolerance never turns a FAIL into a PASS, condition by
    condition: ``--tol``, ``conv_tols`` or ``eps_decay`` halved, or ``--M``
    doubled.  Each example tightens one knob sixteen times in a row from a
    loose base (``--tol`` 1-64, ``conv_tols`` 1-2 times the fixture's,
    ``eps_decay`` 0.5-0.99, ``--M`` 0.25-2), so that every chain crosses the
    values where the fixtures' verdicts flip."""

    @staticmethod
    def _verdicts(workdir: Path, name: str, knobs: dict) -> tuple:
        """(exit code, condition name -> passed) of the fixture's run at ``knobs``."""
        command, source = _TIGHTENED[name], FIXTURES / f"{name}.json"
        argv = ["--tol", repr(knobs["tol"]), "--json", workdir / "r.json"]
        if command == "cocycle":
            argv += ["--M", repr(knobs["M"]), "--out", workdir / "c.json"]
        else:
            obj = json.loads(source.read_text())
            obj.update(conv_tols=knobs["conv_tols"], eps_decay=knobs["eps_decay"])
            source = workdir / source.name
            source.write_text(json.dumps(obj))
        res = run_cli(command, source, *argv)
        assert res.returncode in (0, 1), res.stderr.decode()
        report = json.loads((workdir / "r.json").read_text())
        return res.returncode, {c["name"]: c["passed"] for c in report["conditions"]}

    @pytest.mark.parametrize("name, knob", _CHAINS, ids=[f"{n}-{k}" for n, k in _CHAINS])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(tol=st.floats(1.0, 64.0), scale=st.floats(1.0, 2.0),
           eps_decay=st.floats(0.5, 0.99), M=st.floats(0.25, 2.0))
    def test_never_turns_fail_into_pass(self, name, knob, tol, scale, eps_decay, M):
        conv_tols = json.loads((FIXTURES / f"{name}.json").read_text()).get("conv_tols", [])
        chain = [{"tol": tol, "conv_tols": [scale * x for x in conv_tols],
                  "eps_decay": eps_decay, "M": M}]
        for _ in range(16):
            chain.append({**chain[-1], knob: _TIGHTER[knob](chain[-1][knob])})
        with tempfile.TemporaryDirectory() as d:
            runs = [self._verdicts(Path(d), name, knobs) for knobs in chain]
        for (code, loose), (tight_code, strict) in zip(runs, runs[1:]):
            assert code <= tight_code
            assert [c for c, passed in strict.items() if passed and not loose.get(c, False)] == []


_HAP_PASS = json.loads((FIXTURES / "zdual_hap_pass.json").read_text())
_HAP_IDS = [e["id"] for e in _HAP_PASS["table"]["entries"] if not e["trivial"]]


def _missing_blocks(obj):
    """``obj`` with family 1 lacking its trivial block and a nontrivial one."""
    family = obj["families"][1]
    family["normalized"] = False
    del family["blocks"]["e"], family["blocks"]["a^3"]
    return obj


class TestRelabelling:
    """Renaming the nontrivial label ids of a ``certify-hap`` input in a way that
    keeps their sort order changes only the ``input:`` digest and the witness
    labels (ROADMAP item 9).  The new ids are drawn, sorted, and matched to the
    old ones in order; prefixing every id with ``q`` is one such renaming, and
    it moves every nontrivial id past the trivial one, ``e``."""

    @staticmethod
    def _run(workdir: Path, obj, name: str) -> tuple:
        source, report = workdir / f"{name}.json", workdir / f"{name}.report.json"
        source.write_text(json.dumps(obj))
        res = run_cli("certify-hap", source, "--json", report)
        return res.returncode, res.stdout.decode(), json.loads(report.read_text())

    @pytest.mark.parametrize("case", [lambda obj: obj, _missing_blocks], ids=["pass", "missing"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(ids=st.lists(st.text(alphabet="afqz^-1", min_size=1, max_size=4)
                        .filter(lambda s: s != "e"), min_size=len(_HAP_IDS),
                        max_size=len(_HAP_IDS), unique=True).map(sorted))
    @example(ids=["q" + i for i in _HAP_IDS])
    def test_only_the_digest_and_the_witness_labels_change(self, case, ids):
        rename = dict(zip(_HAP_IDS, ids))
        old = case(json.loads(json.dumps(_HAP_PASS)))
        new = {**old, "table": {"entries": [{**e, "id": rename.get(e["id"], e["id"])}
                                            for e in old["table"]["entries"]]},
               "families": [{**f, "blocks": {rename.get(k, k): v for k, v in f["blocks"].items()}}
                            for f in old["families"]]}
        with tempfile.TemporaryDirectory() as d:
            code, text, report = self._run(Path(d), old, "old")
            new_code, new_text, new_report = self._run(Path(d), new, "new")
        assert new_code == code
        for w in (w for condition in report["conditions"] for w in condition["witnesses"]):
            w["label"] = rename.get(w["label"], w["label"])
        assert new_report == {**report, "input_digest": new_report["input_digest"]}
        label = ast.literal_eval
        text = re.sub(r"label=('[^']*')",
                      lambda m: f"label={rename.get(label(m[1]), label(m[1]))!r}", text)
        digest = re.compile(r"^input: .*$", re.M)
        assert digest.sub("", new_text) == digest.sub("", text)
