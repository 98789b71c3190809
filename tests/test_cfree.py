import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from conftest import (FIXTURES, diam3_residual, label_value, load_perfbench, norm_at,
                      random_hermitian, run_cli, zdual_family, zdual_table)
from hapkit import serialize as sz
from oracles import constant_family, zdual_word_norm


def scalar_table(ids):
    return hk.make_table([(x, 1) for x in ids])


def mixed_table(prefix):
    return hk.make_table([(prefix + "1", 1), (prefix + "2", 2)])


def random_normalized(rng, table, scale=1.0):
    blocks = {table.trivial: [[1.0]]}
    for lab in table.nontrivial_labels:
        d = table.dim(lab)
        blocks[lab] = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return hk.MatrixFamily(table, blocks, normalized=True)


class TestCfreeState:
    def test_length_one_passthrough(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 2)
        f1 = random_normalized(rng, t1)
        f2 = random_normalized(rng, t2)
        st = hk.cfree_state(f1, f2, wp)
        for w in wp.labels:
            if len(w) == 1:
                fi, lab = w.letters[0]
                src = f1 if fi == 1 else f2
                assert np.array_equal(st.blocks[w], src.blocks[lab])

    def test_scalar_product(self):
        t1, t2 = scalar_table(["x"]), scalar_table(["y"])
        wp = hk.free_product_table(t1, t2, 2)
        f1 = hk.MatrixFamily(t1, {t1.trivial: [[1.0]], t1.decode("x"): [[0.5]]}, normalized=True)
        f2 = hk.MatrixFamily(t2, {t2.trivial: [[1.0]], t2.decode("y"): [[0.25]]}, normalized=True)
        st = hk.cfree_state(f1, f2, wp)
        w = wp.decode("1:x|2:y")
        assert st.blocks[w][0, 0] == pytest.approx(0.125, abs=1e-15)

    def test_counit_times_counit_is_counit(self):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)
        st = hk.cfree_state(constant_family(t1, 1.0), constant_family(t2, 1.0), wp)
        eps = constant_family(wp, 1.0)
        assert oracles.max_block_deviation(st, eps) == 0.0

    def test_haar_times_haar_is_haar(self):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)
        st = hk.cfree_state(constant_family(t1, 0.0), constant_family(t2, 0.0), wp)
        h = constant_family(wp, 0.0)
        for w in wp.labels:
            assert np.array_equal(st.blocks[w], h.blocks[w])

    def test_missing_letter_block_rejected(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 2)
        f1 = hk.MatrixFamily(t1, {t1.trivial: [[1.0]]}, normalized=True)
        with pytest.raises(KeyError, match="missing letter block"):
            hk.cfree_state(f1, random_normalized(rng, t2), wp)

    def test_factor_table_mismatch_rejected(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 1)
        wrong = random_normalized(rng, mixed_table("c"))
        with pytest.raises(ValueError, match="does not match"):
            hk.cfree_state(wrong, random_normalized(rng, t2), wp)

    def test_tensor_norm_multiplicative(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)
        f1, f2 = random_normalized(rng, t1), random_normalized(rng, t2)
        st = hk.cfree_state(f1, f2, wp)
        fams = {1: f1, 2: f2}
        for w in wp.labels:
            if w.is_trivial:
                continue
            expected = 1.0
            for fi, lab in w.letters:
                expected *= np.linalg.norm(np.asarray(fams[fi].blocks[lab]), 2)
            got = norm_at(st, w)
            assert got == pytest.approx(expected, rel=1e-12)


class TestCfreeGenerator:
    def test_length_one_passthrough(self):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 2)
        L1 = hk.GeneratingFunctional(t1, {t1.decode("a2"): np.diag([1.0, 3.0]),
                                          t1.decode("a1"): [[2.0]]})
        L2 = hk.GeneratingFunctional(t2, {t2.decode("b2"): np.diag([4.0, 5.0]),
                                          t2.decode("b1"): [[6.0]]})
        G = hk.cfree_generator(L1, L2, wp)
        assert np.array_equal(G.blocks[wp.decode("1:a2")], np.diag([1.0, 3.0]))
        assert np.array_equal(G.blocks[wp.decode("2:b1")], [[6.0]])

    def test_scalar_kronecker_sum(self):
        t1, t2 = scalar_table(["x"]), scalar_table(["y"])
        wp = hk.free_product_table(t1, t2, 2)
        L1 = hk.GeneratingFunctional(t1, {t1.decode("x"): [[1.0]]})
        L2 = hk.GeneratingFunctional(t2, {t2.decode("y"): [[2.0]]})
        G = hk.cfree_generator(L1, L2, wp)
        assert G.blocks[wp.decode("1:x|2:y")][0, 0] == pytest.approx(3.0, abs=1e-15)

    def test_symmetric_inputs_give_symmetric_output(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)
        L1 = hk.GeneratingFunctional(
            t1, {lab: random_hermitian(rng, t1.dim(lab), 2.0) for lab in t1.nontrivial_labels})
        L2 = hk.GeneratingFunctional(
            t2, {lab: random_hermitian(rng, t2.dim(lab), 2.0) for lab in t2.nontrivial_labels})
        G = hk.cfree_generator(L1, L2, wp)
        assert hk.check_symmetric(G, 0.0).passed

    def test_semigroup_compatibility(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)
        L1 = hk.GeneratingFunctional(
            t1, {lab: random_hermitian(rng, t1.dim(lab), 3.0) for lab in t1.nontrivial_labels})
        L2 = hk.GeneratingFunctional(
            t2, {lab: random_hermitian(rng, t2.dim(lab), 3.0) for lab in t2.nontrivial_labels})
        for t in (0.5, 1.0):
            lhs = hk.semigroup_at(hk.cfree_generator(L1, L2, wp), t)
            rhs = hk.cfree_state(hk.semigroup_at(L1, t), hk.semigroup_at(L2, t), wp)
            assert oracles.max_block_deviation(lhs, rhs) <= 1e-9

    def test_properness_transfer_unit_shifted_letters(self, rng):
        # letters with blocks >= I give word blocks >= (word length) * I
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)

        def shifted(table):
            blocks = {lab: random_hermitian(rng, table.dim(lab), 1.0)
                      + 2.0 * np.eye(table.dim(lab)) for lab in table.nontrivial_labels}
            L = hk.GeneratingFunctional(table, blocks)
            for lab in table.nontrivial_labels:
                assert np.linalg.eigvalsh(L.blocks[lab])[0] >= 1.0
            return L

        G = hk.cfree_generator(shifted(t1), shifted(t2), wp)
        for w in wp.labels:
            if w.is_trivial:
                continue
            assert np.linalg.eigvalsh(G.blocks[w])[0] >= len(w) - 1e-9


class TestDiam3:
    def test_counits_exact(self):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 2)
        eps1, eps2 = constant_family(t1, 1.0), constant_family(t2, 1.0)
        assert diam3_residual(eps1, eps2, eps1, eps2, wp) == 0.0

    def test_random_families(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)
        assert diam3_residual(random_normalized(rng, t1), random_normalized(rng, t2),
                              random_normalized(rng, t1), random_normalized(rng, t2), wp) <= 1e-12

    def test_semigroup_families_combine(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 3)
        L1 = hk.GeneratingFunctional(
            t1, {lab: random_hermitian(rng, t1.dim(lab), 2.0) for lab in t1.nontrivial_labels})
        L2 = hk.GeneratingFunctional(
            t2, {lab: random_hermitian(rng, t2.dim(lab), 2.0) for lab in t2.nontrivial_labels})
        s, t = 0.4, 0.9
        phi = hk.convolve(hk.cfree_state(hk.semigroup_at(L1, s), hk.semigroup_at(L2, s), wp),
                          hk.cfree_state(hk.semigroup_at(L1, t), hk.semigroup_at(L2, t), wp))
        target = hk.cfree_state(hk.semigroup_at(L1, s + t), hk.semigroup_at(L2, s + t), wp)
        assert oracles.max_block_deviation(phi, target) <= 1e-9


class TestDamping:
    def test_counit_damped(self):
        t = mixed_table("a")
        out = hk.damp_sequence([constant_family(t, 1.0)], [1])
        blk = out[0].blocks[t.decode("a2")]
        assert np.allclose(blk, math.exp(-1.0) * np.eye(2), atol=1e-15, rtol=0)
        assert blk[0, 0].real == pytest.approx(0.3678794412, abs=1e-10)

    def test_haar_unchanged(self):
        t = mixed_table("a")
        out = hk.damp_sequence([constant_family(t, 0.0)], [3])
        h = constant_family(t, 0.0)
        for lab in t.labels:
            assert np.array_equal(out[0].blocks[lab], h.blocks[lab])

    def test_norm_bound_with_equality_iff_unit_norm(self, rng):
        t = mixed_table("a")
        blocks = {t.trivial: [[1.0]],
                  t.decode("a1"): [[1.0]],          # norm exactly 1
                  t.decode("a2"): 0.5 * np.eye(2)}  # norm 1/2
        F = hk.MatrixFamily(t, blocks, normalized=True)
        out = hk.damp_sequence([F], [4])[0]
        bound = math.exp(-0.25)
        assert norm_at(out, t.decode("a1")) == pytest.approx(bound, abs=1e-12)
        assert norm_at(out, t.decode("a2")) == pytest.approx(bound / 2, abs=1e-12)
        for lab in t.nontrivial_labels:
            assert norm_at(out, lab) <= bound + 1e-12

    def test_overnormed_input_rejected(self):
        t = mixed_table("a")
        F = hk.MatrixFamily(t, {t.trivial: [[1.0]], t.decode("a1"): [[1.5]]},
                            normalized=True)
        with pytest.raises(ValueError, match="norm"):
            hk.damp_sequence([F], [1])


class TestPipeline:
    def zdual_pipeline_inputs(self, radius, word_len, ks):
        table = zdual_table(radius)
        wp = hk.free_product_table(table, table, word_len)
        seqs = [[zdual_family(table, lambda n, k=k: math.exp(-abs(n) / k)) for k in ks]
                for _ in range(2)]
        return table, wp, seqs

    def test_zdual_pipeline_passes(self):
        ks = [1, 2, 4, 8, 16]
        table, wp, (seq1, seq2) = self.zdual_pipeline_inputs(3, 3, ks)
        conv = [1 - math.exp(-9 / k) + 1e-12 for k in ks]
        rep = hk.freeprod_hap_pipeline(seq1, seq2, wp, eps_decay=0.9,
                                       conv_tols=conv, k_values=ks)
        assert rep.overall, rep.to_text()

    def test_word_norms_match_scalar_oracle(self):
        ks = [1, 2, 4]
        table, wp, (seq1, seq2) = self.zdual_pipeline_inputs(2, 3, ks)
        for k, f1, f2 in zip(ks, seq1, seq2):
            st = hk.cfree_state(f1, f2, wp)
            for w in wp.labels:
                letters = [label_value(table, lab) for _, lab in w.letters]
                assert norm_at(st, w) == pytest.approx(
                    zdual_word_norm(letters, k), rel=1e-12)

    def test_two_letter_word_exact_exponent(self):
        # letters at norm exactly exp(-1/k) give word norm exactly exp(-2/k)
        k = 4
        t = scalar_table(["x"])
        wp = hk.free_product_table(t, t, 2)
        damped = hk.damp_sequence([constant_family(t, 1.0)], [k])[0]
        st = hk.cfree_state(damped, damped, wp)
        w = wp.decode("1:x|2:x")
        assert norm_at(st, w) == pytest.approx(math.exp(-2.0 / k), rel=1e-13)

    def test_undamped_letter_fails_with_witness(self):
        ks = [2]
        t = scalar_table(["x"])
        wp = hk.free_product_table(t, t, 2)
        undamped = constant_family(t, 1.0)  # nontrivial block norm 1
        rep = hk.freeprod_hap_pipeline([undamped], [undamped], wp, eps_decay=0.9,
                                       conv_tols=[1.0], k_values=ks)
        cond = {c.name: c for c in rep.conditions}["word-norm-bound"]
        assert not cond.passed
        assert cond.witnesses and all(w.achieved > w.threshold for w in cond.witnesses)

    def test_word_length_zero_config(self):
        # only the trivial word exists: the norm bound compares no word and no
        # nontrivial word can decay, so both fail; the trivial word is the identity
        ks = [1, 2]
        table = zdual_table(2)
        wp = hk.free_product_table(table, table, 0)
        seq = [zdual_family(table, lambda n, k=k: math.exp(-abs(n) / k)) for k in ks]
        rep = hk.freeprod_hap_pipeline(seq, seq, wp, eps_decay=0.5,
                                       conv_tols=[0.5, 0.5], k_values=ks)
        assert not rep.overall
        assert [c.passed for c in rep.conditions] == [False, True, False]
        norm, _, c0 = rep.conditions
        assert [(w.label, w.achieved, w.threshold, w.context) for w in norm.witnesses] == [
            ("*", 0.0, 1.0, "no rows compared")]
        assert [w.context for w in c0.witnesses] == [
            f"k={k}: no nontrivial label decayed below eps" for k in ks]

    def test_nothing_decays_fails_c0(self):
        # counit letters never decay: the c0 condition must fail
        t = scalar_table(["x"])
        wp = hk.free_product_table(t, t, 2)
        eps = constant_family(t, 1.0)
        rep = hk.freeprod_hap_pipeline([eps], [eps], wp, eps_decay=0.5,
                                       conv_tols=[0.0], k_values=[1])
        by_name = {c.name: c for c in rep.conditions}
        assert not by_name["c0-decay"].passed
        assert by_name["identity-convergence"].passed

    def test_input_checks_keep_their_order(self):
        # stage by stage: factor tables, then factor 1 and factor 2 normalized, then letters
        t1, t2 = scalar_table(["a", "b"]), scalar_table(["x"])
        wp = hk.free_product_table(t1, t2, 2)

        def family(table, trivial, ids):
            return hk.MatrixFamily(table, {table.trivial: [[trivial]],
                                           **{table.decode(i): [[0.5]] for i in ids}})
        ok2, missing = family(t2, 1.0, ["x"]), family(t1, 1.0, ["a"])
        cases = [([family(t2, 2.0, [])], [ok2], ValueError, "factor data does not match"),
                 ([family(t1, 2.0, ["a"])], [ok2], ValueError, "factor 1 family must be"),
                 ([missing], [family(t2, 3.0, [])], ValueError, "factor 2 family must be"),
                 ([missing, family(t2, 1.0, [])], [ok2, ok2], KeyError,
                  "missing letter block: factor 1, label 'b'")]
        for seq1, seq2, error, text in cases:
            with pytest.raises(error, match=text):
                hk.freeprod_hap_pipeline(seq1, seq2, wp, 0.5, [1.0] * len(seq1), [1] * len(seq1))

    def test_empty_stage_sequence_raises(self):
        # no stage certifies nothing, as check_hap_sequence([]) already says
        t = scalar_table(["x"])
        wp = hk.free_product_table(t, t, 2)
        with pytest.raises(ValueError, match="^empty family sequence$"):
            hk.freeprod_hap_pipeline([], [], wp, 0.5, [], [])


class TestKroneckerOrder:
    """Row-major flattening over the letters: kron(A, B) at the word (a, b)."""

    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[0.0, 1.0j], [1.0, 0.0]])

    def tables(self):
        t1, t2 = hk.make_table([("a", 2)]), hk.make_table([("b", 2)])
        return t1, t2, hk.free_product_table(t1, t2, 2)

    def test_letters_do_not_commute(self):
        assert not np.array_equal(np.kron(self.A, self.B), np.kron(self.B, self.A))

    def test_state_block_is_kron_in_letter_order(self):
        t1, t2, wp = self.tables()
        st = hk.cfree_state(
            hk.MatrixFamily(t1, {t1.trivial: [[1.0]], t1.decode("a"): self.A}, normalized=True),
            hk.MatrixFamily(t2, {t2.trivial: [[1.0]], t2.decode("b"): self.B}, normalized=True),
            wp)
        assert np.array_equal(st.blocks[wp.decode("1:a|2:b")], np.kron(self.A, self.B))
        assert np.array_equal(st.blocks[wp.decode("2:b|1:a")], np.kron(self.B, self.A))

    def test_generator_block_is_kron_sum_in_letter_order(self):
        t1, t2, wp = self.tables()
        G = hk.cfree_generator(hk.GeneratingFunctional(t1, {t1.decode("a"): self.A}),
                               hk.GeneratingFunctional(t2, {t2.decode("b"): self.B}), wp)
        eye = np.eye(2)
        assert np.array_equal(G.blocks[wp.decode("1:a|2:b")],
                              np.kron(self.A, eye) + np.kron(eye, self.B))
        assert np.array_equal(G.blocks[wp.decode("2:b|1:a")],
                              np.kron(self.B, eye) + np.kron(eye, self.A))


@st.composite
def factor_pair(draw):
    """Two drawn factor tables (letter dims 1-4), a word length <= 3 and a seed."""
    def table(prefix):
        dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        return hk.make_table([(f"{prefix}{i}", d) for i, d in enumerate(dims)])
    return table("a"), table("b"), draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


def random_generator(rng, table):
    return hk.GeneratingFunctional(table, {
        lab: rng.standard_normal((table.dim(lab),) * 2)
        + 1j * rng.standard_normal((table.dim(lab),) * 2) for lab in table.nontrivial_labels})


class TestStackedEvaluation:
    """The stacked word-table path against the per-word oracles, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(factor_pair())
    def test_state_blocks_and_norms_match_oracle(self, drawn):
        t1, t2, length, seed = drawn
        rng = np.random.default_rng(seed)
        wp = hk.free_product_table(t1, t2, length)
        f1, f2 = random_normalized(rng, t1), random_normalized(rng, t2)
        fam = hk.cfree_state(f1, f2, wp)
        expected = oracles.kron_word_blocks(f1, f2, wp)
        assert fam.labels == wp.labels
        for word, blk in expected.items():
            assert np.array_equal(fam.blocks[word], blk)
        blocks = list(fam.blocks.values())
        assert fam.norms.tolist() == oracles.block_norms(blocks)
        assert fam.deviations.tolist() == oracles.block_norms(blocks, minus_identity=True)
        for blk in fam.blocks.values():
            assert not blk.flags.writeable
            with pytest.raises(ValueError):
                blk.setflags(write=True)

    @settings(max_examples=20, deadline=None)
    @given(factor_pair())
    def test_generator_blocks_match_oracle(self, drawn):
        t1, t2, length, seed = drawn
        rng = np.random.default_rng(seed)
        wp = hk.free_product_table(t1, t2, length)
        L1, L2 = random_generator(rng, t1), random_generator(rng, t2)
        G = hk.cfree_generator(L1, L2, wp)
        for word, blk in oracles.kron_sum_word_blocks(L1, L2, wp).items():
            assert np.array_equal(G.blocks[word], blk)

    def test_family_does_not_alias_a_writable_array(self):
        t = scalar_table(["x"])
        mat = np.array([[0.5]], dtype=np.complex128)
        view = mat.view()
        view.setflags(write=False)  # read-only, but its base is not
        F = hk.MatrixFamily(t, {t.trivial: [[1.0]], t.decode("x"): view}, normalized=True)
        norms = F.norms.copy()
        mat[0, 0] = 9.0
        assert F.blocks[t.decode("x")][0, 0] == 0.5
        assert np.array_equal(F.norms, norms) and not F.norms.flags.writeable

    def test_frozen_word_blocks_are_adopted(self, rng):
        t1, t2 = mixed_table("a"), mixed_table("b")
        wp = hk.free_product_table(t1, t2, 2)
        fam = hk.cfree_state(random_normalized(rng, t1), random_normalized(rng, t2), wp)
        again = hk.MatrixFamily(wp, fam.blocks, normalized=True)
        assert again.stacks.keys() == fam.stacks.keys()
        assert all(np.shares_memory(again.stacks[d], stack) for d, stack in fam.stacks.items())


def _matrix_factor(rng, entries, n_stages):
    """An explicit factor: Hermitian contractions of drawn norms, one family per stage."""
    t = hk.make_table(entries)
    families = []
    for _ in range(n_stages):
        blocks = {t.trivial: [[1.0]]}
        for lab in t.nontrivial_labels:
            blocks[lab] = random_hermitian(rng, t.dim(lab), float(rng.uniform(0.3, 1.0)))
        families.append({"blocks": hk.MatrixFamily(t, blocks)})
    return {"table": sz.table_to_obj(t), "families": families}


@functools.lru_cache(maxsize=1)
def _freeprod_configs():
    zz = json.loads((FIXTURES / "freeprod_zz.json").read_text())
    rng = np.random.default_rng(11)
    configs = {
        "freeprod_zz": zz,
        "freeprod_matrix": json.loads((FIXTURES / "freeprod_matrix.json").read_text()),
        # unequal factors, and a schedule tight enough for many failing witnesses
        "z-z2z3": {**zz, "factor2": {"group": "Z2*Z3", "radius": 2},
                   "conv_tols": [1.0, 0.9, 0.6, 0.4, 0.2]},
        "matrix-2x2": {"factor1": _matrix_factor(rng, [("x", 2), ("y", 1)], 3),
                       "factor2": _matrix_factor(rng, [("u", 2)], 3),
                       "k_values": [1, 2, 4], "max_word_length": 3, "eps_decay": 0.5,
                       "conv_tols": [1.5, 1.2, 1.0], "damp": True},
    }
    # two benchmark inputs: unequal group factors, and a failing matrix config
    with tempfile.TemporaryDirectory() as tmp:
        load_perfbench("workloads").build("freeprod", 1, 0, "tiny", Path(tmp))
        for name in ("pass-z3z4-len3", "fail-d2x23"):
            configs[name] = json.loads((Path(tmp) / f"{name}.json").read_text())
    return configs


def _swap_prefixes(label: str) -> str:
    """A word label with the factor prefixes 1: and 2: of its letters exchanged."""
    if ":" not in label:
        return label  # the trivial word, or a whole-table witness
    return "|".join(f"{3 - int(letter[0])}{letter[1:]}" for letter in label.split("|"))


class TestFactorSwap:
    """Swapping factor1 and factor2 renames every word, exchanging the factor
    prefixes of its letters, and keeps its letter blocks in order, so the
    verdicts, the failing witnesses (renamed) and the worst passing rows must
    not move."""

    @staticmethod
    def _conditions(config, path):
        sz.dump_json(config, path)
        res = run_cli("freeprod", path, "--json", path.with_suffix(".report.json"))
        assert res.returncode in (0, 1), res.stderr
        return json.loads(path.with_suffix(".report.json").read_text())["conditions"]

    @pytest.mark.parametrize("name", sorted(_freeprod_configs()))
    def test_verdicts_and_witness_values_unchanged(self, name, tmp_path):
        config = _freeprod_configs()[name]
        swapped = {**config, "factor1": config["factor2"], "factor2": config["factor1"]}
        before = self._conditions(config, tmp_path / "config.json")
        after = self._conditions(swapped, tmp_path / "swapped.json")
        assert [(c["name"], c["passed"]) for c in after] == [
            (c["name"], c["passed"]) for c in before]
        for got, expected in zip(after, before):
            if got["passed"]:  # the worst rows; among tied rows the label may differ
                assert [(w["achieved"], w["threshold"]) for w in got["witnesses"]] == [
                    (w["achieved"], w["threshold"]) for w in expected["witnesses"]]
            else:
                assert sorted((_swap_prefixes(w["label"]), w["achieved"], w["threshold"],
                               w["context"]) for w in got["witnesses"]) == sorted(
                    (w["label"], w["achieved"], w["threshold"], w["context"])
                    for w in expected["witnesses"])
