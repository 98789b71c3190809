import gc
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from hapkit import _linalg
from hapkit import cli
from hapkit import reports
from hapkit import serialize as sz
from conftest import FIXTURES, REPO_ROOT, random_psd_generator, random_table, zdual_table


def through_file(obj, path):
    """``obj`` written by ``dump_json`` and read back as JSON."""
    sz.dump_json(obj, path)
    return sz.load_json(path)


class TestTableRoundtrip:
    def test_plain_table(self):
        t = hk.make_table([("a", 2), ("b", 3)])
        obj = sz.table_to_obj(t)
        assert obj == {"entries": [
            {"id": "1", "dim": 1, "trivial": True},
            {"id": "a", "dim": 2, "trivial": False},
            {"id": "b", "dim": 3, "trivial": False},
        ]}
        assert sz.table_from_obj(obj) == t

    def test_nonstandard_trivial_id(self):
        t = zdual_table(2)
        assert sz.table_from_obj(sz.table_to_obj(t)) == t

    def test_free_product_words_recomputed(self):
        t1 = hk.make_table([("a", 2)])
        t2 = hk.make_table([("X", 3)])
        wp = hk.free_product_table(t1, t2, 2)
        obj = sz.table_to_obj(wp)
        assert set(obj) == {"factor1", "factor2", "max_word_length"}
        back = sz.table_from_obj(obj)
        assert back == wp
        assert [w.encode() for w, _ in back] == [w.encode() for w, _ in wp]

    def test_missing_trivial_rejected(self):
        with pytest.raises(sz.SchemaError, match="trivial"):
            sz.table_from_obj({"entries": [{"id": "a", "dim": 2, "trivial": False}]})

    def test_two_trivials_rejected(self):
        with pytest.raises(sz.SchemaError, match="trivial"):
            sz.table_from_obj({"entries": [
                {"id": "a", "dim": 1, "trivial": True},
                {"id": "b", "dim": 1, "trivial": True},
            ]})


class TestFamilyRoundtrip:
    def test_plain(self, rng, tmp_path):
        table = random_table(rng, 4, 3)
        blocks = {lab: rng.standard_normal((table.dim(lab),) * 2)
                  + 1j * rng.standard_normal((table.dim(lab),) * 2)
                  for lab in table.labels}
        blocks[table.trivial] = [[1.0]]
        F = hk.MatrixFamily(table, blocks, normalized=True)
        path = tmp_path / "fam.json"
        sz.dump_json(sz.family_to_obj(F), path)
        back = oracles.family_from_obj(sz.load_json(path))
        assert back.table == table and back.normalized
        for lab in F.labels:
            assert np.array_equal(back.blocks[lab], F.blocks[lab])

    def test_word_table_family(self, rng, tmp_path):
        t1 = hk.make_table([("a", 2)])
        t2 = hk.make_table([("X", 1)])
        wp = hk.free_product_table(t1, t2, 2)
        state = hk.cfree_state(oracles.constant_family(t1, 1.0),
                               oracles.constant_family(t2, 1.0), wp)
        back = oracles.family_from_obj(through_file(sz.family_to_obj(state), tmp_path / "f.json"))
        for w in state.labels:
            assert np.array_equal(back.blocks[back.table.decode(w.encode())],
                                  state.blocks[w])

    def test_unknown_block_key_rejected(self):
        t = hk.make_table([("a", 1)])
        obj = {"table": sz.table_to_obj(t), "blocks": {"zz": [[[1.0, 0.0]]]},
               "normalized": False}
        with pytest.raises(sz.SchemaError, match="unknown block key"):
            oracles.family_from_obj(obj)

    @pytest.mark.parametrize("key", ["1:zz", "1:a|1:a", "3:a", "1:a|2:X|1:a"])
    def test_unknown_word_key_rejected(self, key):
        # malformed, non-alternating, bad factor index, longer than the table
        wp = hk.free_product_table(hk.make_table([("a", 2)]), hk.make_table([("X", 1)]), 2)
        obj = {"table": sz.table_to_obj(wp), "blocks": {key: [[[1.0, 0.0]]]}}
        with pytest.raises(sz.SchemaError, match="unknown block key"):
            oracles.family_from_obj(obj)

    def test_ragged_matrix_rejected(self):
        t = hk.make_table([("a", 2)])
        obj = {"table": sz.table_to_obj(t),
               "blocks": {"a": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
               "normalized": False}
        with pytest.raises(sz.SchemaError):
            oracles.family_from_obj(obj)


class TestGeneratorRoundtrip:
    def test_roundtrip(self, rng, tmp_path):
        table = random_table(rng, 5, 3)
        L = random_psd_generator(rng, table, 4.0)
        back = sz.generator_from_obj(through_file(sz.generator_to_obj(L), tmp_path / "g.json"))
        for lab in L.labels:
            assert np.array_equal(back.blocks[lab], L.blocks[lab])

    def test_kind_enforced(self, rng):
        table = random_table(rng, 3, 2)
        obj = sz.generator_to_obj(random_psd_generator(rng, table, 1.0))
        obj["kind"] = "state"
        with pytest.raises(sz.SchemaError, match="kind"):
            sz.generator_from_obj(obj)

    def test_nonzero_trivial_rejected_on_load(self):
        t = hk.make_table([("a", 1)])
        obj = {"kind": "generator", "table": sz.table_to_obj(t),
               "blocks": {"1": [[[0.5, 0.0]]]}}
        with pytest.raises(sz.SchemaError, match="vanish"):
            sz.generator_from_obj(obj)


class TestCocycleRoundtrip:
    def test_roundtrip(self, rng, tmp_path):
        table = random_table(rng, 5, 3)
        c = hk.factor_from_generator(random_psd_generator(rng, table, 4.0))
        back = oracles.cocycle_from_obj(through_file(sz.cocycle_to_obj(c), tmp_path / "c.json"))
        for lab in c.labels:
            assert np.array_equal(back.blocks[lab], c.blocks[lab])

    def test_trivial_block_rejected_on_load(self):
        t = hk.make_table([("a", 1)])
        obj = {"kind": "cocycle", "table": sz.table_to_obj(t),
               "blocks": {"1": [[[1.0, 0.0]]]}}
        with pytest.raises(sz.SchemaError, match="trivial"):
            oracles.cocycle_from_obj(obj)


class TestJsonHygiene:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"entries": [')
        with pytest.raises(sz.SchemaError, match="malformed"):
            sz.load_json(path)

    def test_dump_deterministic(self, rng, tmp_path):
        table = random_table(rng, 4, 2)
        L = random_psd_generator(rng, table, 2.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        sz.dump_json(sz.generator_to_obj(L), p1)
        sz.dump_json(sz.generator_to_obj(L), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float_exact_roundtrip(self, tmp_path):
        t = hk.make_table([("a", 1)])
        value = 0.1234567890123456789
        F = hk.MatrixFamily(t, {t.decode("a"): [[value]]})
        path = tmp_path / "f.json"
        sz.dump_json(sz.family_to_obj(F), path)
        back = oracles.family_from_obj(json.loads(path.read_text()))
        assert back.blocks[t.decode("a")][0, 0] == complex(value)

    def test_dump_leaves_no_reference_cycle(self, tmp_path):
        # the writer makes no reference cycle, so nothing keeps the written
        # object alive until a collection
        path = FIXTURES / "zdual_length_generator.json"
        obj = sz.generator_to_obj(sz.generator_from_obj(sz.load_json(path)))
        written = weakref.ref(obj["blocks"])
        gc.collect()
        gc.disable()
        try:
            sz.dump_json(obj, tmp_path / "g.json")
            del obj
            assert written() is None
        finally:
            gc.enable()
        assert (tmp_path / "g.json").read_bytes() == path.read_bytes()


class TestScalarKinds:
    """JSON booleans are not numbers, numbers and strings are not booleans,
    and matrix entries are finite."""

    @pytest.mark.parametrize("entry", [{"id": "a", "dim": True},
                                       {"id": "a", "dim": 2, "trivial": "false"},
                                       {"id": "a", "dim": 2, "trivial": 0}])
    def test_plain_table_entry_rejected(self, entry):
        obj = {"entries": [{"id": "1", "dim": 1, "trivial": True}, entry]}
        with pytest.raises(sz.SchemaError, match="entry 1"):
            sz.table_from_obj(obj)

    def test_boolean_max_word_length_rejected(self):
        wp = hk.free_product_table(hk.make_table([("a", 1)]), hk.make_table([("X", 1)]), 1)
        obj = sz.table_to_obj(wp)
        obj["max_word_length"] = True
        with pytest.raises(sz.SchemaError, match="max_word_length"):
            sz.table_from_obj(obj)

    @pytest.mark.parametrize("entry", [[True, 0.0], [1.0, False]])
    def test_boolean_matrix_entry_rejected(self, entry):
        with pytest.raises(sz.SchemaError, match="pair of numbers"):
            sz.blocks_from_obj(hk.make_table([("a", 1)]), {"a": [[entry]]}, "m")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400])
    def test_nonfinite_matrix_entry_rejected(self, value, tmp_path):
        # Python's json reads NaN and Infinity, so a file can carry them
        t = hk.make_table([("a", 2)])
        obj = {"table": sz.table_to_obj(t),
               "blocks": {"a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, value], [1.0, 0.0]]]}}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(sz.SchemaError, match="finite"):
            oracles.family_from_obj(sz.load_json(path))


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, -2.0, 3.0e15,
                9999999999999998.0, 1e16, -1.0000000000000002e16, 1e22,
                0.0001, 9.999999999999999e-05, 0.00010000000000000002, -1e-05,
                1.7976931348623157e308]
_NUMBERS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-10 ** 6, 10 ** 6).map(float),
                     st.floats(1e-5, 1e-3), st.floats(1e15, 1e17))
_IDS = st.one_of(st.text(st.characters(exclude_characters="|:"), min_size=1, max_size=3),
                 st.sampled_from(['"', "\\", 'a"\\b', "é", "☃", "\n", "\x7f"]))


@st.composite
def block_maps(draw):
    """(table, blocks): a plain table with sides 1-6 or a free-product table,
    and blocks of drawn values at a drawn subset of its labels (maybe none)."""
    def plain(max_labels, max_dim):
        ids = draw(st.lists(_IDS.filter(lambda i: i != "1"), max_size=max_labels, unique=True))
        return hk.make_table([(i, draw(st.integers(1, max_dim))) for i in ids])

    if draw(st.booleans()):
        table = plain(5, 6)
    else:
        table = hk.free_product_table(plain(2, 2), plain(2, 2), draw(st.integers(0, 2)))
    labels = draw(st.lists(st.sampled_from(table.labels), unique=True))
    blocks = {}
    for lab in labels:
        d = table.dim(lab)
        numbers = draw(st.lists(_NUMBERS, min_size=2 * d * d, max_size=2 * d * d))
        blocks[lab] = np.array(numbers).view(np.complex128).reshape(d, d)
    return table, blocks


def _as_written(table, blocks, layout):
    """A block map in one of the layouts hapkit writes: a family file, or a
    states file that nests the blocks two levels deeper."""
    if layout == "family":
        return sz.family_to_obj(hk.MatrixFamily(table, blocks))
    return {"table": sz.table_to_obj(table),
            "families": [{"blocks": hk.MatrixFamily(table, blocks), "normalized": False}]}


class TestWriterBytes:
    """``dump_json`` writes arrays from templates; the bytes are those of the
    nested-list writer, ``json.dumps(..., indent=2)``."""

    @settings(max_examples=80, deadline=None)
    @given(drawn=block_maps(), layout=st.sampled_from(["family", "states"]))
    def test_bytes_equal_the_nested_list_writer(self, drawn, layout, tmp_path_factory):
        obj = _as_written(*drawn, layout)
        path = tmp_path_factory.mktemp("w") / "out.json"
        sz.dump_json(obj, path)
        assert path.read_bytes() == oracles.nested_json_text(obj).encode()

    @settings(max_examples=60, deadline=None)
    @given(drawn=block_maps().filter(lambda drawn: drawn[1]),
           layout=st.sampled_from(["family", "states"]), data=st.data())
    def test_non_finite_value_gives_the_oracle_message_and_no_file(
            self, drawn, layout, data, tmp_path_factory):
        table, blocks = drawn
        for lab in data.draw(st.lists(st.sampled_from(list(blocks)), min_size=1, max_size=2)):
            numbers = blocks[lab].copy().view(np.float64).reshape(-1)
            numbers[data.draw(st.integers(0, numbers.size - 1))] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
            blocks[lab] = numbers.view(np.complex128).reshape(blocks[lab].shape)
        obj = _as_written(table, blocks, layout)
        path = tmp_path_factory.mktemp("w") / "out.json"
        with pytest.raises(ValueError) as expected:
            oracles.nested_json_text(obj)
        with pytest.raises(ValueError) as got:
            sz.dump_json(obj, path)
        assert str(got.value) == f"{path}: {expected.value}"
        assert not path.exists()

    def test_peak_memory_is_a_small_multiple_of_the_file(self, rng, tmp_path):
        L = random_psd_generator(rng, random_table(rng, 1000, 5), 4.0)
        path = tmp_path / "generator.json"
        tracemalloc.start()
        try:
            sz.dump_json(sz.generator_to_obj(L), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * path.stat().st_size


_TABLE = hk.make_table([("a", 2), ("b", 1), ("c", 1)])
_A = [[[1.0, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.0, 0.0]]]
_B = [[[0.5, 0.0]]]


def _with_entry(value, i=0, j=1, matrix=_A):
    """``matrix`` with entry (i, j) replaced by ``value``."""
    out = json.loads(json.dumps(matrix))
    out[i][j] = value
    return out


_MALFORMED = {
    "bool": {"a": _with_entry([True, 0.0]), "b": _B},
    "str": {"a": _with_entry([1.0, "0.5"]), "b": _B},
    "none": {"a": _with_entry([None, 0.0]), "b": _B},
    "nested-list-number": {"a": _with_entry([[1.0], 0.0]), "b": _B},
    "one-element-pair": {"a": _with_entry([1.0]), "b": _B},
    "three-element-pair": {"a": _with_entry([1.0, 0.0, 0.0]), "b": _B},
    "pair-is-number": {"a": _with_entry(1.0), "b": _B},
    "ragged-row": {"a": [_A[0], _A[1][:1]], "b": _B},
    "empty-matrix": {"a": [], "b": _B},
    "matrix-is-number": {"b": 0.5},
    "non-list-row": {"a": [_A[0], 5], "b": _B},
    "string-row": {"a": [_A[0], "ab"], "b": _B},
    "overflowing-integer": {"a": _with_entry([10 ** 400, 0.0]), "b": _B},
    "overflowing-imaginary": {"b": [[[0.5, -10 ** 400]]]},
    "nan": {"a": _with_entry([math.nan, 0.0]), "b": _B},
    "infinity": {"a": _A, "b": [[[0.5, math.inf]]]},
    "minus-infinity": {"a": _with_entry([-math.inf, 0.0], 1, 1), "b": _B},
    "side-not-dim": {"a": _B, "b": _B},
    "two-errors-first-of-two-sides": {"b": [[[math.nan, 0.0]]], "a": _with_entry([True, 0.0])},
    "two-errors-first-of-two-sides-reversed": {"a": _with_entry([True, 0.0]),
                                               "b": [[[math.nan, 0.0]]]},
    "type-after-non-finite-in-one-matrix": {"a": _with_entry([True, 0.0], 1, 0,
                                                             _with_entry([math.nan, 0.0]))},
    "overflow-after-non-finite-in-one-matrix": {
        "a": _with_entry([10 ** 400, 0.0], 1, 0, _with_entry([math.nan, 0.0]))},
    # side 1 (b, c) is converted before side 2 (a), but a comes first in the file
    "first-fault-in-a-side-checked-later": {"b": _B, "a": _with_entry([True, 0.0]),
                                             "c": [[[math.nan, 0.0]]]},
    "unknown-key-after-bad-matrix": {"a": _with_entry([True, 0.0]), "zz": _B},
    "bad-matrix-after-unknown-key": {"zz": _B, "a": _with_entry([True, 0.0])},
    "blocks-not-object": [_A],
}
_ACCEPTED = {
    "mixed": {"a": _A, "b": _B},
    "integers-and-edges": {"a": [[[1, -0.0], [2 ** 70 + 1, 5e-324]],
                                 [[-(2 ** 1023), 0], [1.7976931348623157e308, -1]]],
                           "b": [[[0, 0]]]},
    "file-order-not-table-order": {"b": _B, "a": _A},
    "empty": {},
}


def _read(blocks, reader):
    """A family file with these blocks, as written to disk, read with ``reader`` as
    ``serialize.blocks_from_obj``: the family, or the error text."""
    obj = json.loads(json.dumps({"table": sz.table_to_obj(_TABLE), "blocks": blocks}))
    with mock.patch.object(sz, "blocks_from_obj", reader):
        try:
            return oracles.family_from_obj(obj)
        except ValueError as exc:
            return exc


class TestReaderParity:
    """One bulk conversion per side accepts exactly what the per-entry loop
    accepts, with its values, and rejects the rest with its message."""

    @pytest.mark.parametrize("blocks", _MALFORMED.values(), ids=_MALFORMED)
    def test_rejects_with_the_oracle_text(self, blocks):
        got = _read(blocks, sz.blocks_from_obj)
        expected = _read(blocks, oracles.blocks_from_obj)
        assert isinstance(got, sz.SchemaError) and isinstance(expected, ValueError)
        assert str(got) == str(expected)
        if blocks is _MALFORMED["side-not-dim"]:
            assert str(got) == "family.blocks['a']: block has side 1, expected 2"

    @pytest.mark.parametrize("blocks", _ACCEPTED.values(), ids=_ACCEPTED)
    def test_accepts_the_oracle_values_without_copies(self, blocks):
        got = _read(blocks, sz.blocks_from_obj)
        expected = _read(blocks, oracles.blocks_from_obj)
        assert got.labels == expected.labels
        for lab in got.labels:
            assert got.blocks[lab].tobytes() == expected.blocks[lab].tobytes()
        read = sz.blocks_from_obj(_TABLE, json.loads(json.dumps(blocks)), "x")
        assert all(_linalg._frozen(blk) for blk in read.values())
        adopted = hk.MatrixFamily(_TABLE, read)
        assert adopted.stacks.keys() == read.stacks.keys()
        assert all(np.shares_memory(adopted.stacks[d], stack) for d, stack in read.stacks.items())


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
# flat members: scalars, lists without objects and objects of scalars (one template each)
_FLAT = (_SCALARS | st.lists(_SCALARS | st.lists(_SCALARS, max_size=2), max_size=3)
         | st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3))
_KEY_CHARS = 'ab\u00e9\u2603\U0001f600"\\\n'  # escapes, and beyond ASCII and the BMP
_FINITE = st.sampled_from([-0.0, 5e-324, 1e308]) | st.floats(allow_nan=False, allow_infinity=False)
# a 'blocks' object of floats, which load_json reads into stacks
_BLOCKS = st.fixed_dictionaries({"blocks": st.dictionaries(
    st.text(max_size=3), st.integers(1, 2).flatmap(lambda d: st.lists(st.lists(
        st.lists(_FINITE, min_size=2, max_size=2), min_size=d, max_size=d), min_size=d,
        max_size=d)), min_size=1, max_size=3)})


def _key(n: int) -> str:
    return "".join(_KEY_CHARS[int(digit)] for digit in f"{n:o}")


def _containers(inner):
    """Lists and objects of up to 9 members, with keys that sort out of order."""
    values = st.lists(inner, max_size=9)
    return (values | st.dictionaries(st.text(max_size=3), inner, max_size=3)
            | values.map(lambda vs: {_key(i): v for i, v in enumerate(vs)}))


# flat members beside walked ones, and 'blocks' objects, at every depth
_JSON = st.recursive(_FLAT | _BLOCKS, _containers, max_leaves=40)


@settings(max_examples=100, deadline=None)
@given(obj=_JSON, run=st.integers(1, 4))
def test_content_digest_hashes_the_canonical_text(obj, run, tmp_path_factory):
    """The digest of an object, and of that object as ``load_json`` reads it back
    from a file, with its 'blocks' objects in stacks, is that of its canonical text.
    Block texts made ``run`` at a time put several batches in each 'blocks' object."""
    expected = "sha256:" + hashlib.sha256(oracles.canonical_json(obj).encode()).hexdigest()
    assert reports.content_digest(obj) == expected
    path = tmp_path_factory.mktemp("digest") / "in.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with mock.patch.object(hk.fourier, "_RUN", run):
        assert reports.content_digest(sz.load_json(path)) == expected


def test_digests_fall_back_to_hashlib():
    """Without the interpreter's own SHA-256 modules both digests come from
    hashlib, with the same text."""
    path = FIXTURES / "zdual_hap_pass.json"
    code = ("import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\nimport hapkit as hk\nfrom hapkit import reports, serialize\n"
            "t = hk.dual_irrep_table(hk.GroupSpec((0,)), 3)\n"
            "family = hk.MatrixFamily(t, {lab: [[1.0]] for lab in t.labels})\n"
            "print(reports.sha256 is hashlib.sha256,"
            f" reports.content_digest(serialize.load_json({str(path)!r})),"
            " hk.fourier.family_content_digest([family]))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         cwd=REPO_ROOT)
    canonical = oracles.canonical_json(json.loads(path.read_text())).encode()
    t = hk.dual_irrep_table(hk.GroupSpec((0,)), 3)
    family = hk.MatrixFamily(t, {lab: [[1.0]] for lab in t.labels})
    assert res.stdout.decode().split() == [
        "True", "sha256:" + hashlib.sha256(canonical).hexdigest(),
        hk.fourier.family_content_digest([family])]


# number tokens as a file may spell them: floats (edges among them), ints, bools,
# non-finite tokens, and a float past the range that json reads as inf
_NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "-5e-324", "1e308", "1.7976931348623157e308", "1E-7",
                     "2.50", "1.0e2", "0.1", "-3.0", "0", "-7", "12345678901234567890",
                     "true", "false", "NaN", "Infinity", "-Infinity", "1e400"]))
_PLAIN_TOKENS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_DOC_IDS = ["a", "b", "é", "☃", 'q"', "s\\", "n\n", "\U0001f600"]


@st.composite
def _block_documents(draw):
    """(kind, text): a generator, states or freeprod-config document written by
    hand, so that keys may repeat, come in any order and be escaped or not."""
    space = draw(st.sampled_from(["", " ", "\n  "]))

    def key_text(key):
        return json.dumps(key, ensure_ascii=draw(st.booleans()))

    def obj_text(members):
        members = draw(st.permutations(members))
        return "{" + ("," + space).join(key_text(k) + ":" + space + v for k, v in members) + "}"

    ids = draw(st.lists(st.sampled_from(_DOC_IDS), min_size=1, max_size=4, unique=True))
    dims = {i: draw(st.integers(1, 3)) for i in ids}
    table = obj_text([("entries", "[" + ",".join(
        obj_text([("id", key_text(i)), ("dim", str(dims.get(i, 1))),
                  ("trivial", "true" if i == "1" else "false")])
        for i in ["1"] + ids) + "]")])
    # mostly plain floats, so that most documents are read; sometimes any token
    tokens = draw(st.sampled_from([_PLAIN_TOKENS, _NUMBER_TOKENS]))

    def matrix_text(side):
        return "[" + ",".join("[" + ",".join(
            f"[{draw(tokens)},{draw(tokens)}]" for _ in range(side)) + "]"
            for _ in range(side)) + "]"

    def blocks_text():
        keys = draw(st.lists(st.sampled_from(["1"] + ids + ["zz"] * draw(st.booleans())),
                             max_size=6))  # repeats allowed: json keeps the last value
        wrong = draw(st.booleans()) and draw(st.booleans())
        return obj_text([(k, matrix_text(dims.get(k, 1) + (wrong and k != "1")))
                         for k in keys])

    def families_text():
        return "[" + ",".join(obj_text(
            [("blocks", blocks_text()), ("normalized", "false")]
            + [("blocks", blocks_text())] * draw(st.booleans()))
            for _ in range(draw(st.integers(1, 3)))) + "]"

    kind = draw(st.sampled_from(["generator", "states", "freeprod"]))
    if kind == "generator":
        return kind, obj_text([("kind", '"generator"'), ("table", table),
                               ("blocks", blocks_text())])
    if kind == "states":
        return kind, obj_text([("table", table), ("families", families_text()),
                               ("eps_decay", draw(_PLAIN_TOKENS))])
    return kind, obj_text([("k_values", "[1]"), ("factor2", '{"group": "Z2"}'),
                           ("factor1", obj_text([("table", table),
                                                 ("families", families_text())]))])


def _outcome(build):
    """What ``build()`` gives: its block maps, or the text of its input error."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def _assert_same_maps(got, expected):
    assert type(got) is type(expected)
    if isinstance(got, str):
        assert got == expected
        return
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert type(mine) is type(theirs) and mine.table == theirs.table
        assert mine.rows.tobytes() == theirs.rows.tobytes()
        assert list(mine.stacks) == list(theirs.stacks)
        for d, stack in mine.stacks.items():
            assert stack.tobytes() == theirs.stacks[d].tobytes()
        assert getattr(mine, "normalized", None) == getattr(theirs, "normalized", None)


class TestCliReaderMatchesTheUnhookedParse:
    """The CLI's reader gives the digest of the canonical text of json.loads
    and the maps that the raw objects give, for any document a file may hold."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(document=_block_documents())
    def test_digest_and_maps(self, document, tmp_path_factory):
        kind, text = document
        path = tmp_path_factory.mktemp("doc") / "input.json"
        path.write_text(text, encoding="utf-8")
        raw = json.loads(text)
        expected = hashlib.sha256(oracles.canonical_json(raw).encode()).hexdigest()
        assert cli._load(str(path))[1] == "sha256:" + expected
        if kind == "generator":
            got = _outcome(lambda: [cli._load_generator(str(path))[1]])
            want = _outcome(lambda: [sz.generator_from_obj(json.loads(text))])
        elif kind == "states":
            got = _outcome(lambda: cli._load_states(str(path))[2])
            want = _outcome(lambda: cli._family_sequence(
                sz.table_from_obj(raw["table"], "table"), raw["families"], "families"))
        else:
            got = _outcome(lambda: cli._factor_sequence(
                cli._load(str(path))[0]["factor1"], "factor1", [1])[1])
            want = _outcome(lambda: cli._factor_sequence(
                json.loads(text)["factor1"], "factor1", [1])[1])
        _assert_same_maps(got, want)
