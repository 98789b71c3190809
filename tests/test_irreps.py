import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
from hapkit import serialize as sz
from oracles import alternating_count, alternating_words, parse_word


def ids(n, upper=False):
    base = "ABCDEFG" if upper else "abcdefg"
    return [base[i] for i in range(n)]


def table_with(n_nontrivial, upper=False):
    return hk.make_table([(x, 1) for x in ids(n_nontrivial, upper)])


class TestMakeTable:
    def test_trivial_only(self):
        t = hk.make_table([("1", 1)])
        assert len(t) == 1
        assert t.trivial.is_trivial and t.dim(t.trivial) == 1

    def test_canonical_order(self):
        t = hk.make_table([("b", 3), ("1", 1), ("a", 2)])
        assert [lab.id for lab in t.labels] == ["1", "a", "b"]
        assert [t.dim(lab) for lab in t.labels] == [1, 2, 3]

    def test_trivial_autoinserted(self):
        t = hk.make_table([("a", 2)])
        assert [lab.id for lab in t.labels] == ["1", "a"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            hk.make_table([("a", 2), ("a", 3)])

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            hk.make_table([("a", 0)])

    def test_nontrivial_dim_for_trivial_rejected(self):
        with pytest.raises(ValueError, match="dimension 1"):
            hk.make_table([("1", 2)])

    def test_two_trivials_rejected(self):
        lab = hk.IrrepLabel("1", is_trivial=True)
        lab2 = hk.IrrepLabel("x", is_trivial=True)
        with pytest.raises(ValueError, match="trivial"):
            hk.IrrepTable([(lab, 1), (lab2, 1)])

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            hk.make_table([("a|b", 1)])

    @pytest.mark.parametrize("id_, text", [
        ("a|2:x", "label id 'a|2:x' contains reserved character '|'"),
        ("", "label ids must be nonempty"),
    ], ids=["reserved", "empty"])
    def test_direct_construction_rejects_ids_make_table_rejects(self, id_, text):
        # with factor ids {a, a|2:x} and {x}, the one-letter word 1:a|2:x and the
        # two-letter word (1:a, 2:x) would share the key '1:a|2:x'
        with pytest.raises(ValueError) as made:
            hk.make_table([("a", 1), (id_, 1)])
        with pytest.raises(ValueError) as built:
            hk.IrrepTable([(hk.IrrepLabel("1", is_trivial=True), 1),
                           (hk.IrrepLabel("a"), 1), (hk.IrrepLabel(id_), 1)])
        assert made.value.args == built.value.args == (text,)

    def test_direct_construction_rejects_ids_out_of_order(self):
        # the JSON reader sorts by id, so an unsorted table would read back unequal
        with pytest.raises(ValueError) as built:
            hk.IrrepTable([(hk.IrrepLabel("1", is_trivial=True), 1),
                           (hk.IrrepLabel("b"), 1), (hk.IrrepLabel("a"), 1)])
        assert built.value.args == (
            "label ids must increase after the trivial label: 'a' follows 'b'",)
        t = hk.make_table([("b", 1), ("a", 1)])
        assert sz.table_from_obj(sz.table_to_obj(t)) == t


def _entry(id_, dim=1, trivial=False):
    return {"id": id_, "dim": dim, "trivial": trivial}


TRIVIAL = _entry("1", trivial=True)

# one fault per table: its JSON entries, then the error text of make_table on
# their (id, dim) pairs (None where make_table takes no such input) and of
# table_from_obj, which names the entry index where it checks the JSON shape
TABLE_FAULTS = {
    "repeated id": ([TRIVIAL, _entry("a"), _entry("b"), _entry("a", 2)],
                    "duplicate label id 'a'", "table: duplicate label id 'a'"),
    "repeated trivial id": ([TRIVIAL, _entry("a"), _entry("1")],
                            "duplicate label id '1'", "table: duplicate label id '1'"),
    "empty id": ([TRIVIAL, _entry("")],
                 "label ids must be nonempty", "table: label ids must be nonempty"),
    "bar in id": ([TRIVIAL, _entry("a|b")],
                  "label id 'a|b' contains reserved character '|'",
                  "table: label id 'a|b' contains reserved character '|'"),
    "colon in id": ([TRIVIAL, _entry("2:x")],
                    "label id '2:x' contains reserved character ':'",
                    "table: label id '2:x' contains reserved character ':'"),
    "dim 0": ([TRIVIAL, _entry("a", 0)],
              "label 'a' has nonpositive dimension 0",
              "table: entry 1 needs a positive integer dim"),
    "trivial of dim 2": ([_entry("e", 2, trivial=True), _entry("a")],
                         "trivial label 'e' must have dimension 1",
                         "table: trivial label 'e' must have dimension 1"),
    "two trivial flags": ([TRIVIAL, _entry("a", trivial=True)],
                          None, "table: more than one trivial entry"),
    "no trivial flag": ([_entry("a"), _entry("b")], None, "table: no trivial entry"),
    "non-integer dim": ([TRIVIAL, _entry("a", 1.5)],
                        None, "table: entry 1 needs a positive integer dim"),
}


@pytest.mark.parametrize("fault", TABLE_FAULTS)
def test_table_error_texts(fault):
    entries, made, read = TABLE_FAULTS[fault]
    if made is not None:
        trivial_id = next(e["id"] for e in entries if e["trivial"])
        with pytest.raises(ValueError) as exc:
            hk.make_table([(e["id"], e["dim"]) for e in entries], trivial_id=trivial_id)
        assert exc.value.args == (made,)
    with pytest.raises(sz.SchemaError) as exc:
        sz.table_from_obj({"entries": entries})
    assert exc.value.args == (read,)


class TestFreeProductTable:
    def test_counts_2_1(self):
        wp = hk.free_product_table(table_with(2), table_with(1, upper=True), 2)
        by_len = {}
        for w, _ in wp:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {0: 1, 1: 3, 2: 4}
        assert len(wp) == 8

    def test_counts_2_2(self):
        wp = hk.free_product_table(table_with(2), table_with(2, upper=True), 2)
        assert len(wp) == 13

    def test_word_length_zero(self):
        wp = hk.free_product_table(table_with(3), table_with(2, upper=True), 0)
        assert len(wp) == 1 and wp.labels[0].is_trivial

    def test_matches_bruteforce_enumerator(self):
        for p, q, k in [(1, 1, 3), (2, 1, 3), (2, 3, 2), (3, 3, 2)]:
            wp = hk.free_product_table(table_with(p), table_with(q, upper=True), k)
            expected = alternating_words(ids(p), ids(q, upper=True), k)
            got = {tuple((fi, lab.id) for fi, lab in w.letters) for w, _ in wp}
            assert got == {tuple(w) for w in expected}
            assert len(wp) == len(expected)

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(1, 3), q=st.integers(1, 3), k=st.integers(1, 4))
    def test_sphere_counts_closed_form(self, p, q, k):
        wp = hk.free_product_table(table_with(p), table_with(q, upper=True), k)
        exact = sum(1 for w, _ in wp if len(w) == k)
        assert exact == alternating_count(p, q, k)

    def test_word_dims_multiply(self):
        t1 = hk.make_table([("a", 2), ("b", 3)])
        t2 = hk.make_table([("X", 4)])
        wp = hk.free_product_table(t1, t2, 3)
        for w, dim in wp:
            expected = 1
            for fi, lab in w.letters:
                expected *= (t1 if fi == 1 else t2).dim(lab)
            assert dim == expected

    def test_concatenation_dim_multiplicative(self):
        t1 = hk.make_table([("a", 2), ("b", 3)])
        t2 = hk.make_table([("X", 4), ("Y", 5)])
        wp = hk.free_product_table(t1, t2, 4)
        words = wp.labels
        for w1 in words:
            for w2 in words:
                if w1.is_trivial or w2.is_trivial:
                    continue
                if w1.letters[-1][0] == w2.letters[0][0]:
                    continue  # concatenation would break alternation
                joined = hk.Word(w1.letters + w2.letters)
                if len(joined) > wp.max_word_length:
                    continue
                assert wp.dim(joined) == wp.dim(w1) * wp.dim(w2)

    def test_deterministic_reconstruction(self):
        t1 = hk.make_table([("a", 2), ("b", 1)])
        t2 = hk.make_table([("X", 3)])
        wp1 = hk.free_product_table(t1, t2, 3)
        wp2 = hk.free_product_table(t1, t2, 3)
        assert [w.encode() for w, _ in wp1] == [w.encode() for w, _ in wp2]
        assert [d for _, d in wp1] == [d for _, d in wp2]

    def test_order_by_length_pattern_ids(self):
        wp = hk.free_product_table(table_with(2), table_with(1, upper=True), 2)
        assert [w.encode() for w, _ in wp] == [
            "", "1:a", "1:b", "2:A",
            "1:a|2:A", "1:b|2:A", "2:A|1:a", "2:A|1:b",
        ]

    def test_factor_tables_referenced(self):
        t1, t2 = table_with(1), table_with(1, upper=True)
        wp = hk.free_product_table(t1, t2, 1)
        assert wp.factor1 is t1 and wp.factor2 is t2

    def test_encode_decode_roundtrip(self):
        t1 = hk.make_table([("a", 2), ("b", 1)])
        t2 = hk.make_table([("X", 3)])
        wp = hk.free_product_table(t1, t2, 3)
        for w, _ in wp:
            assert wp.decode(w.encode()) == w
            assert parse_word(w.encode(), t1, t2) == w


class TestWordInvariants:
    def test_adjacent_same_factor_rejected(self):
        a = hk.IrrepLabel("a")
        with pytest.raises(ValueError, match="distinct factors"):
            hk.Word(((1, a), (1, a)))

    def test_trivial_letters_rejected(self):
        triv = hk.IrrepLabel("1", is_trivial=True)
        with pytest.raises(ValueError, match="trivial"):
            hk.Word(((1, triv),))
