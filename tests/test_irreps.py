import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
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
