"""Index-native word tables: enumeration, keys and grouping against the
per-word loops in ``oracles``, and the limits of enumeration."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from conftest import run_cli, run_cli_subprocess
from hapkit import cfree


@st.composite
def factor_tables(draw):
    """Two factor tables of 0-4 nontrivial labels with dims 1-3."""
    tables = []
    for prefix in "ab":
        dims = draw(st.lists(st.integers(1, 3), max_size=4))
        tables.append(hk.make_table([(f"{prefix}{i}", d) for i, d in enumerate(dims)]))
    return tables


def ids(table):
    return [lab.id for lab in table.labels[1:]]


class TestEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(factor_tables(), st.integers(0, 4))
    def test_entries_match_the_word_loop(self, tables, length):
        wp = hk.free_product_table(*tables, length)
        want = oracles.product_words(*tables, length)
        assert len(wp) == len(want)
        assert [(w.encode(), d) for w, d in wp] == [(w.encode(), d) for w, d in want]
        assert wp.entries == tuple(want)
        assert wp.dims.tolist() == [d for _, d in want]
        assert wp.lengths.tolist() == [len(w) for w, _ in want]
        # letters are numbered across both factors, factor 1's first
        pool = [*tables[0].nontrivial_labels, *tables[1].nontrivial_labels]
        for j, (word, _) in enumerate(want):
            numbers = wp.letters[j, :len(word)].tolist()
            assert [pool[x] for x in numbers] == [lab for _, lab in word.letters]
            assert [1 + (x >= len(tables[0]) - 1) for x in numbers] == [
                fi for fi, _ in word.letters]
        brute = oracles.alternating_words(ids(tables[0]), ids(tables[1]), length)
        assert {w.encode() for w, _ in want} == {
            "|".join(f"{fi}:{id_}" for fi, id_ in w) for w in brute}

    @settings(max_examples=80, deadline=None)
    @given(factor_tables(), st.integers(0, 4))
    def test_keys_round_trip(self, tables, length):
        wp = hk.free_product_table(*tables, length)
        for j, word in enumerate(wp.labels):
            key = wp.key_at(j)
            assert key == wp.encode(word) == word.encode()
            assert wp.locate(key) == j
            decoded = wp.decode(key)
            parsed = oracles.parse_word(key, *tables)
            assert decoded == parsed == word
            assert hash(decoded) == hash(parsed) == hash(word)
            assert wp.dim(word) == wp.dims[j]
        # a stray key, and a word one letter too long by label and by key
        cases = [(wp.locate, "1:zz", "no word encoded as '1:zz'")]
        pools = [[(fi, lab) for lab in t.labels[1:]] for fi, t in ((1, tables[0]), (2, tables[1]))]
        if all(pools):
            over = hk.Word(tuple(pools[i % 2][0] for i in range(length + 1)))
            cases += [(wp.dim, over, f"word {over!r} not in table"),
                      (wp.locate, over.encode(), f"no word encoded as {over.encode()!r}")]
        for lookup, arg, text in cases:
            with pytest.raises(KeyError) as exc:
                lookup(arg)
            assert exc.value.args == (text,)

    @settings(max_examples=80, deadline=None)
    @given(factor_tables(), st.integers(0, 4), st.data())
    def test_batched_keys_equal_the_word_encoding(self, tables, length, data):
        wp = hk.free_product_table(*tables, length)
        want = [word.encode() for word in wp.labels]
        assert wp.keys_at(np.arange(len(wp))) == want
        positions = data.draw(st.lists(st.integers(0, len(wp) - 1), max_size=20))
        assert wp.keys_at(positions) == [want[j] for j in positions]  # any order, repeats
        assert [wp.key_at(j) for j in positions] == [want[j] for j in positions]
        plain = tables[0]
        assert plain.keys_at(np.arange(len(plain))) == [lab.id for lab in plain.labels]

    def test_words_survive_pickle(self):
        t = hk.make_table([("a", 1), ("b", 2)])
        word = hk.free_product_table(t, t, 3).labels[-1]
        back = pickle.loads(pickle.dumps(word))
        assert back == word and hash(back) == hash(word) and back is not word

    def test_irrep_table_keys_by_position(self):
        t = hk.make_table([("b", 2), ("a", 1)])
        assert [t.key_at(j) for j in range(len(t))] == [t.encode(lab) for lab in t.labels]

    def test_long_words_past_the_array_dimension_limit(self):
        t1, t2 = hk.make_table([("a", 1)]), hk.make_table([("b", 2)])
        wp = hk.free_product_table(t1, t2, 80)
        assert len(wp) == 161
        assert wp.key_at(160) == "|".join(["2:b", "1:a"] * 40)
        assert wp.dim(wp.decode(wp.key_at(160))) == 2 ** 40

    def test_dims_beyond_int64_stay_exact(self):
        t = hk.make_table([("a", 3)])
        wp = hk.free_product_table(t, t, 45)
        assert wp.dims[-1] == 3 ** 45
        assert wp.entries[-1][1] == 3 ** 45

    def test_labels_and_nontrivial_labels_built_once(self):
        t = hk.make_table([("a", 1), ("b", 2)])
        wp = hk.free_product_table(t, t, 2)
        for table in (t, wp):
            assert table.labels is table.labels
            assert table.nontrivial_labels is table.nontrivial_labels
            assert table.nontrivial_labels == table.labels[1:]


class TestDecodeRejects:
    @pytest.fixture
    def wp(self):
        return hk.free_product_table(hk.make_table([("a", 1), ("b", 2)]),
                                     hk.make_table([("x", 1)]), 2)

    @pytest.mark.parametrize("key", [
        "1:a|2:x|1:b",  # longer than max_word_length
        "1:a|1:b",  # adjacent letters from the same factor
        "1:zz",  # unknown id
        "2:1",  # the trivial letter
        "1:a|",  # malformed
        "3:a",
    ])
    def test_keys_outside_the_table(self, wp, key):
        with pytest.raises(KeyError, match=f"no word encoded as {key!r}".replace("|", r"\|")):
            wp.decode(key)

    def test_words_outside_the_table(self, wp):
        other = hk.make_table([("a", 1), ("c", 1)])
        for word in (hk.Word(((1, other.decode("c")),)),
                     oracles.parse_word("1:a|2:x|1:b", wp.factor1, wp.factor2)):
            with pytest.raises(KeyError, match="not in table"):
                wp.encode(word)
            with pytest.raises(KeyError, match="not in table"):
                wp.dim(word)


class TestGroups:
    @settings(max_examples=80, deadline=None)
    @given(factor_tables(), st.integers(0, 4), st.data())
    def test_groups_match_the_word_loop(self, tables, length, data):
        letters = [(table, lab) for table in tables for lab in table.labels[1:]]
        drop = data.draw(st.lists(st.sampled_from(letters), max_size=2) if letters
                         else st.just([]))
        families = [hk.MatrixFamily(table, {table.trivial: [[1.0]], **{
            lab: np.eye(table.dim(lab)) / 2 for lab in table.labels[1:]
            if (table, lab) not in drop}}, normalized=True) for table in tables]
        wp = hk.free_product_table(*tables, length)
        try:
            want = oracles.word_groups(wp, *families)
        except KeyError as exc:
            with pytest.raises(KeyError) as got:
                cfree._letter_stacks(*families, wp)
            assert got.value.args == exc.args
            return
        cfree._letter_stacks(*families, wp)
        words = np.arange(1, len(wp))
        got = list(cfree._word_groups(wp, words))
        assert len(got) == len(want)
        for key, at, index in got:
            assert np.array_equal(words[at], want[key][0])
            assert np.array_equal(index, want[key][1].reshape(index.shape))
        # any rows, in any order and with repeats: each group keeps their order
        rows = np.array(data.draw(st.lists(st.sampled_from(words.tolist()), max_size=12)
                                  if len(words) else st.just([])), dtype=np.intp)
        seen = []
        for key, at, index in cfree._word_groups(wp, rows):
            assert np.array_equal(np.sort(at), at)
            spot = np.searchsorted(want[key][0], rows[at])
            assert np.array_equal(want[key][0][spot], rows[at])
            assert np.array_equal(index, want[key][1][spot].reshape(index.shape))
            seen.extend(at.tolist())
        assert sorted(seen) == list(range(len(rows)))

    def test_missing_letter_block(self):
        t1, t2 = hk.make_table([("a", 1), ("b", 1)]), hk.make_table([("x", 1)])
        wp = hk.free_product_table(t1, t2, 2)
        f1 = hk.MatrixFamily(t1, {t1.trivial: [[1.0]], t1.decode("a"): [[0.5]]},
                             normalized=True)
        with pytest.raises(KeyError, match="missing letter block: factor 1, label 'b'"):
            cfree.cfree_state(f1, oracles.constant_family(t2, 1.0), wp)

    def test_missing_letter_block_in_factor_2(self):
        # factor 1 is complete, so the first missing label of factor 2 is named
        t1, t2 = hk.make_table([("a", 2)]), hk.make_table([("x", 1), ("y", 3), ("z", 1)])
        wp = hk.free_product_table(t1, t2, 3)
        f2 = hk.MatrixFamily(t2, {t2.trivial: [[1.0]], t2.decode("x"): [[0.5]]},
                             normalized=True)
        for call in (lambda: cfree.cfree_state(oracles.constant_family(t1, 1.0), f2, wp),
                     lambda: hk.freeprod_hap_pipeline([oracles.constant_family(t1, 1.0)], [f2], wp,
                                                      0.5, [1.0], [1])):
            with pytest.raises(KeyError, match="missing letter block: factor 2, label 'y'"):
                call()

    def test_missing_letter_blocks_without_words(self):
        # at max_word_length 0 the table holds only the trivial word: no letter is read
        t1, t2 = hk.make_table([("a", 1), ("b", 2)]), hk.make_table([("x", 1)])
        wp = hk.free_product_table(t1, t2, 0)
        f1, f2 = (hk.MatrixFamily(t, {t.trivial: [[1.0]]}, normalized=True) for t in (t1, t2))
        assert len(hk.cfree_state(f1, f2, wp)) == 1
        report = hk.freeprod_hap_pipeline([f1], [f2], wp, 0.5, [1.0], [1])
        # no word to bound and none to decay: only identity-convergence compares a row
        assert [c.passed for c in report.conditions] == [False, True, False]


class TestOversizedTables:
    CONFIG = {"factor1": {"group": "Z", "radius": 3}, "factor2": {"group": "Z", "radius": 3},
              "k_values": [4], "max_word_length": 100}

    def test_library_error_names_max_word_length(self):
        t = hk.make_table([(f"a{i}", 1) for i in range(6)])
        with pytest.raises(ValueError, match="max_word_length 100 .*too large"):
            hk.free_product_table(t, t, 100)

    def test_cli_exits_2_when_the_table_cannot_be_allocated(self, tmp_path):
        # indexable, but its letter array alone would need 6.50 EiB
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**self.CONFIG, "max_word_length": 52,
                                    "factor1": {"group": "Z", "radius": 1},
                                    "factor2": {"group": "Z", "radius": 1}}))
        res = run_cli_subprocess("freeprod", path)
        lines = res.stderr.decode().splitlines()
        assert res.returncode == 2
        assert len(lines) == 1 and lines[0].startswith("error: out of memory")

    def test_cli_exits_2_before_enumerating(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self.CONFIG))
        res = run_cli_subprocess("freeprod", path)
        err = res.stderr.decode()
        assert res.returncode == 2
        assert err.startswith("error: ") and "max_word_length 100" in err
        assert "Traceback" not in err


class TestLaziness:
    @pytest.fixture
    def made(self, monkeypatch):
        """Counts ``Word`` constructions while the test runs."""
        count = [0]
        post_init = hk.Word.__post_init__

        def counted(self):
            count[0] += 1
            post_init(self)
        monkeypatch.setattr(hk.Word, "__post_init__", counted)
        return count

    def test_table_build_makes_no_words(self, made):
        t = hk.dual_irrep_table(hk.GroupSpec((0,)), 3)
        wp = hk.free_product_table(t, t, 5)
        assert len(wp) == 18661 and made[0] == 0
        wp.key_at(18660)
        assert made[0] == 0
        assert len(wp.labels) == 18661 and made[0] == 18661

    @pytest.mark.parametrize("k_values, conv_tols, code", [([4], [1.0], 0), ([4], [0.1], 1)])
    def test_freeprod_makes_words_only_for_rendered_rows(self, made, tmp_path, k_values,
                                                         conv_tols, code):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "factor1": {"group": "Z", "radius": 2}, "factor2": {"group": "Z3", "radius": 1},
            "k_values": k_values, "conv_tols": conv_tols, "eps_decay": 0.9,
            "max_word_length": 3}))
        res = run_cli("freeprod", path)
        assert res.returncode == code
        rendered = res.stdout.decode().count("label='") - res.stdout.decode().count("label='*'")
        assert rendered >= 2
        # at most one Word per rendered row; the keys come from the letter arrays, so none
        assert made[0] <= rendered and made[0] == 0
