"""The report writer, and witnesses kept as arrays.

``reports.json_pieces`` writes json's ``sort_keys=True, indent=2`` text, and
with ``depth=None`` the canonical compact text the digest hashes, from one
template per record shape; ``json.dumps`` is its oracle in both layouts.  A condition
keeps its failing rows as arrays (``WitnessRows``): its witnesses equal the
closure path in ``oracles``, and ``Witness`` objects are made only for the
rows a report prints.
"""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from conftest import FIXTURES, random_psd_generator, random_table, run_cli
from hapkit import cfree, cli, fourier, reports
from hapkit import serialize as sz
from test_golden import CASES, _write_inputs

_EDGE_FLOATS = [0.0, -0.0, 1e16, -1e16, 5e-324, -5e-324, 1.7976931348623157e308, 1e-05,
                0.1, 9999999999999998.0, 1e22, 2.5]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_TEXT = st.text(max_size=4) | st.sampled_from(
    ['"', "\\", 'a"\\b', "é", "☃", "\n", "\x7f", "%s", "%%", "\ud800", "1:a|2:b"])
_NUMBERS = st.integers() | _FLOATS | _FLOATS.map(np.float64)
_LEAVES = st.none() | st.booleans() | _NUMBERS | _TEXT


def _nested(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=24)


_WITNESS = st.fixed_dictionaries({"label": _TEXT, "achieved": _NUMBERS | _TEXT,
                                  "threshold": _NUMBERS | _TEXT, "context": _TEXT})
_REPORT = st.fixed_dictionaries({
    "tool": st.just("hapkit"), "version": _TEXT, "command": _TEXT, "input_digest": _TEXT,
    "truncation": _TEXT, "tolerances": st.dictionaries(_TEXT, _NUMBERS | _TEXT, max_size=3),
    "conditions": st.lists(st.fixed_dictionaries({
        "name": _TEXT, "passed": st.booleans(), "summary": _TEXT,
        "witnesses": st.lists(_WITNESS, max_size=4)}), max_size=3),
    "notes": st.lists(_TEXT, max_size=3), "overall": st.sampled_from(["PASS", "FAIL"])})
_PLAIN_TABLE = st.fixed_dictionaries({"entries": st.lists(st.fixed_dictionaries(
    {"id": _TEXT, "dim": st.integers(1, 10 ** 6), "trivial": st.booleans()}), max_size=5)})
_TABLE = _PLAIN_TABLE | st.fixed_dictionaries(
    {"factor1": _PLAIN_TABLE, "factor2": _PLAIN_TABLE, "max_word_length": st.integers(0, 5)})


def written(obj, allow_nan=True) -> str:
    return "".join(reports.json_pieces(obj, allow_nan=allow_nan))


def compact(obj) -> str:
    return "".join(reports.json_pieces(obj, depth=None))


class TestWriterOracle:
    @settings(max_examples=300, deadline=None)
    @given(_REPORT | _TABLE | _nested(_LEAVES) | st.lists(_TABLE, max_size=2))
    def test_bytes_equal_json_dumps(self, obj):
        assert written(obj) == json.dumps(obj, sort_keys=True, indent=2)
        assert compact(obj) == oracles.canonical_json(obj)

    @settings(max_examples=200, deadline=None)
    @given(obj=_nested(_LEAVES | _NON_FINITE | _NON_FINITE.map(np.float64)))
    def test_non_finite_values(self, obj, tmp_path_factory):
        # reports write NaN as json does; a written file refuses it with json's message
        assert written(obj) == json.dumps(obj, sort_keys=True, indent=2)
        assert compact(obj) == oracles.canonical_json(obj)
        path = tmp_path_factory.mktemp("w") / "out.json"
        try:
            expected = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                sz.dump_json(obj, path)
            assert str(got.value) == f"{path}: {exc}" and not path.exists()
        else:
            sz.dump_json(obj, path)
            assert path.read_text() == expected

    def test_what_json_cannot_write(self):
        for obj in [{"a": np.float32(1.0)}, [np.int64(3)], {"x": {1, 2}}]:
            with pytest.raises(TypeError):
                json.dumps(obj, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                written(obj)
            with pytest.raises(TypeError):
                compact(obj)


# equal floats with different bits (the zeros, the NaNs) must keep their own texts
_REPEATED = [0.0, -0.0, math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf, 0.1]
_CONTEXTS = ['"', "\\", 'k=1 "a\\b"', "é", "☃ k=2", ""]


def _tables():
    plain = hk.make_table([("a", 1), ("é\"", 2), ("b\\c", 1)])
    return [plain, hk.free_product_table(plain, hk.make_table([("x", 1), ("y", 3)]), 3)]


@st.composite
def reports_from_rows(draw):
    """A report whose conditions keep drawn rows, and up-front witnesses, as arrays."""
    table = draw(st.sampled_from(_TABLES))
    conditions = []
    for n in range(draw(st.integers(0, 3))):
        rows = draw(st.integers(0, 12))
        repeats = draw(st.booleans())  # few distinct numbers and contexts, each seen often
        numbers = st.sampled_from(_REPEATED) if repeats else _FLOATS | _NON_FINITE
        values = st.lists(numbers, min_size=rows, max_size=rows)
        contexts = st.sampled_from(_CONTEXTS) if repeats else _TEXT
        head = tuple(hk.Witness(*w) for w in draw(st.lists(st.tuples(
            _TEXT, _NUMBERS | _NON_FINITE, _NUMBERS | _NON_FINITE, _TEXT), max_size=2)))
        witnesses = reports.WitnessRows(
            head, table,
            np.array(draw(st.lists(st.integers(0, len(table) - 1), min_size=rows,
                                   max_size=rows)), dtype=np.intp),
            np.array(draw(values)), np.array(draw(values)),
            np.array(draw(st.lists(contexts, min_size=rows, max_size=rows)) + [""],
                     dtype=object)[:rows])
        conditions.append(hk.ConditionVerdict(f"c{n}", draw(st.booleans()), witnesses,
                                              draw(_TEXT)))
    return hk.CertificationReport("cmd", "sha256:0", "t", (("tol", draw(_FLOATS)),),
                                  tuple(conditions))


_TABLES = _tables()


class TestReportsFromRows:
    @settings(max_examples=150, deadline=None)
    @given(reports_from_rows())
    def test_json_and_text_equal_those_of_the_witness_tuples(self, report):
        assert "".join(report.json_pieces()) == json.dumps(
            report.to_obj(), sort_keys=True, indent=2) + "\n"
        tuples = hk.CertificationReport(
            report.command, report.input_digest, report.truncation, report.tolerances,
            tuple(hk.ConditionVerdict(c.name, c.passed, c.witnesses, c.summary)
                  for c in report.conditions))
        assert report.to_text() == tuples.to_text()
        assert report.to_obj() == json.loads(json.dumps(tuples.to_obj()))
        for c in report.conditions:
            labels = [oracles.label_key(c.rows.table, j) for j in c.rows.positions.tolist()]
            assert [w.label for w in c.witnesses] == [w.label for w in c.rows.head] + labels


# freeprod configurations beyond the golden cases: (config changes, extra flags)
_FREEPROD = {
    "zz-pass": ("freeprod_zz.json", {}, []),
    "zz-tol0": ("freeprod_zz.json", {}, ["--tol", "0"]),
    "zz-tight": ("freeprod_zz.json", {"conv_tols": [0.9, 0.5, 0.3, 0.25, 0.2]}, []),
    "matrix-tight": ("freeprod_matrix.json", {"conv_tols": [0.5, 0.1], "eps_decay": 0.05},
                     []),
}


def _freeprod_argv(name, directory):
    fixture, changes, flags = _FREEPROD[name]
    config = {**json.loads((FIXTURES / fixture).read_text()), **changes}
    if "conv_tols" in changes:
        config["conv_tols"] = changes["conv_tols"][:len(config["k_values"])]
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config))
    return ["freeprod", str(path), *flags]


def _reports(argv, monkeypatch) -> list:
    """The reports ``argv`` renders, in order."""
    seen = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, args: seen.append(report)
                        or emit(report, args))
    run_cli(*argv)
    monkeypatch.setattr(cli, "_emit", emit)
    return seen


def _closure_path(monkeypatch):
    for module in (fourier, cfree):
        monkeypatch.setattr(module, "_identity_condition", oracles.closure_identity_condition)
        monkeypatch.setattr(module, "_norm_bound_condition",
                            oracles.closure_norm_bound_condition)


class TestWitnessRowsAgainstTheClosurePath:
    def check(self, argv, monkeypatch):
        got = _reports(argv, monkeypatch)
        with monkeypatch.context() as patched:
            _closure_path(patched)
            want = _reports(argv, patched)
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert [(c.name, c.passed, c.summary, repr(c.witnesses)) for c in mine.conditions] \
                == [(c.name, c.passed, c.summary, repr(c.witnesses)) for c in theirs.conditions]
            assert "".join(mine.json_pieces()) == "".join(theirs.json_pieces())
            assert mine.to_text() == theirs.to_text()
        return got

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_golden_case(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_inputs(tmp_path)
        self.check(CASES[case] + ["--json", "report.json"], monkeypatch)

    @pytest.mark.parametrize("name", sorted(_FREEPROD))
    def test_freeprod_config(self, name, tmp_path, monkeypatch):
        reports_ = self.check(_freeprod_argv(name, tmp_path), monkeypatch)
        assert [r.overall for r in reports_] == [name == "zz-pass"]


class TestWitnessesMadeOnlyWhenShown:
    @pytest.mark.parametrize("flags", [[], ["--json", "r.json"], ["--json", "r.json", "--quiet"]])
    def test_failing_freeprod_makes_at_most_eight_per_condition(self, flags, tmp_path,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = _freeprod_argv("zz-tight", tmp_path) + flags
        made = [0]
        init = hk.Witness.__init__

        def counted(self, *args, **kwargs):
            made[0] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(hk.Witness, "__init__", counted)
        res = run_cli(*argv)
        assert res.returncode == 1
        assert made[0] <= 8 * 3
        if flags:
            shown = sum(len(c["witnesses"]) for c in json.loads(
                (tmp_path / "r.json").read_text())["conditions"])
            assert shown > 8 * 3  # every failing row is in the file, none made a Witness


class TestNoReferenceCycles:
    def test_writers_leave_nothing_for_the_collector(self, rng, tmp_path, monkeypatch):
        report = _reports(_freeprod_argv("zz-tight", tmp_path), monkeypatch)[0]
        generator = sz.generator_to_obj(random_psd_generator(rng, random_table(rng, 6, 2), 2.0))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with open(tmp_path / "r.json", "w") as fh:
                fh.writelines(report.json_pieces())
            sz.dump_json(generator, tmp_path / "g.json")
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
