import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
from hapkit import serialize as sz
from conftest import FIXTURES, run_cli, run_cli_subprocess


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
        fam0 = sz.family_from_obj(sz.load_json(tmp_path / "semigroup_t0.0.json"))
        eps = hk.counit_family(fam0.table)
        assert hk.max_block_deviation(fam0, eps) == 0.0
        fam1 = sz.family_from_obj(sz.load_json(tmp_path / "semigroup_t1.0.json"))
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
        c = sz.cocycle_from_obj(sz.load_json(out))
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
        assert hk.check_symmetric(L, 0.0).ok
        assert hk.check_positive_blocks(L, 1e-12).ok

    def test_counit_sequence_passes(self, tmp_path):
        t = hk.make_table([("a", 1)])
        eps_fam = hk.counit_family(t)
        config = tmp_path / "in.json"
        sz.dump_json({
            "table": sz.table_to_obj(t),
            "families": [{"blocks": sz.blocks_to_obj(t, eps_fam.blocks),
                          "normalized": True} for _ in range(3)],
        }, config)
        res = run_cli("buildgen", config, "--out", tmp_path / "gen.json")
        assert res.returncode == 0
        assert b"epsilon-certificate: PASS" in res.stdout


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
        eps_fam = hk.counit_family(t)
        config = tmp_path / "cfg.json"
        sz.dump_json({
            "factor1": {"table": sz.table_to_obj(t),
                        "families": [{"blocks": sz.blocks_to_obj(t, eps_fam.blocks)}]},
            "factor2": {"table": sz.table_to_obj(t),
                        "families": [{"blocks": sz.blocks_to_obj(t, eps_fam.blocks)}]},
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

    def test_word_length_zero_passes_trivially(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "factor1": {"group": "Z", "radius": 1},
            "factor2": {"group": "Z", "radius": 1},
            "k_values": [1], "max_word_length": 0,
            "eps_decay": 0.5, "conv_tols": [0.5],
        }))
        res = run_cli("freeprod", config)
        assert res.returncode == 0


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
