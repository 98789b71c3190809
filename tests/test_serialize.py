import json

import numpy as np
import pytest

import hapkit as hk
from hapkit import serialize as sz
from conftest import random_psd_generator, random_table, zdual_table


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
        back = sz.family_from_obj(sz.load_json(path))
        assert back.table == table and back.normalized
        for lab in F.labels:
            assert np.array_equal(back.blocks[lab], F.blocks[lab])

    def test_word_table_family(self, rng):
        t1 = hk.make_table([("a", 2)])
        t2 = hk.make_table([("X", 1)])
        wp = hk.free_product_table(t1, t2, 2)
        st = hk.cfree_state(hk.counit_family(t1), hk.counit_family(t2), wp)
        back = sz.family_from_obj(sz.family_to_obj(st))
        for w in st.labels:
            assert np.array_equal(back.blocks[back.table.decode(w.encode())],
                                  st.blocks[w])

    def test_unknown_block_key_rejected(self):
        t = hk.make_table([("a", 1)])
        obj = {"table": sz.table_to_obj(t), "blocks": {"zz": [[[1.0, 0.0]]]},
               "normalized": False}
        with pytest.raises(sz.SchemaError, match="unknown block key"):
            sz.family_from_obj(obj)

    @pytest.mark.parametrize("key", ["1:zz", "1:a|1:a", "3:a", "1:a|2:X|1:a"])
    def test_unknown_word_key_rejected(self, key):
        # malformed, non-alternating, bad factor index, longer than the table
        wp = hk.free_product_table(hk.make_table([("a", 2)]), hk.make_table([("X", 1)]), 2)
        obj = {"table": sz.table_to_obj(wp), "blocks": {key: [[[1.0, 0.0]]]}}
        with pytest.raises(sz.SchemaError, match="unknown block key"):
            sz.family_from_obj(obj)

    def test_ragged_matrix_rejected(self):
        t = hk.make_table([("a", 2)])
        obj = {"table": sz.table_to_obj(t),
               "blocks": {"a": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
               "normalized": False}
        with pytest.raises(sz.SchemaError):
            sz.family_from_obj(obj)


class TestGeneratorRoundtrip:
    def test_roundtrip(self, rng):
        table = random_table(rng, 5, 3)
        L = random_psd_generator(rng, table, 4.0)
        back = sz.generator_from_obj(sz.generator_to_obj(L))
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
    def test_roundtrip(self, rng):
        table = random_table(rng, 5, 3)
        c = hk.factor_from_generator(random_psd_generator(rng, table, 4.0))
        back = sz.cocycle_from_obj(sz.cocycle_to_obj(c))
        for lab in c.labels:
            assert np.array_equal(back.blocks[lab], c.blocks[lab])

    def test_trivial_block_rejected_on_load(self):
        t = hk.make_table([("a", 1)])
        obj = {"kind": "cocycle", "table": sz.table_to_obj(t),
               "blocks": {"1": [[[1.0, 0.0]]]}}
        with pytest.raises(sz.SchemaError, match="trivial"):
            sz.cocycle_from_obj(obj)


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
        back = sz.family_from_obj(json.loads(path.read_text()))
        assert back.blocks[t.decode("a")][0, 0] == complex(value)


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
            sz.matrix_from_obj([[entry]], "m")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400])
    def test_nonfinite_matrix_entry_rejected(self, value, tmp_path):
        # Python's json reads NaN and Infinity, so a file can carry them
        t = hk.make_table([("a", 2)])
        obj = {"table": sz.table_to_obj(t),
               "blocks": {"a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, value], [1.0, 0.0]]]}}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(sz.SchemaError, match="finite"):
            sz.family_from_obj(sz.load_json(path))
