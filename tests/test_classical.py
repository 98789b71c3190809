import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
from conftest import load_perfbench
from oracles import (alternating_count, ball_words, encode_word, free_group_ball_size,
                     inverse_word, multiply_words, reduce_word, word_length_gram)

F2 = hk.GroupSpec((0, 0))
Z = hk.GroupSpec((0,))
Z3 = hk.GroupSpec((3,))
Z5 = hk.GroupSpec((5,))


class TestGroupArithmetic:
    """The oracle's multiply-and-reduce, which the ball and Gram oracles run on."""

    def test_inverse_law(self):
        g = reduce_word(F2.orders, [(0, 2), (1, -1), (0, 3)])
        assert multiply_words(F2.orders, g, inverse_word(F2.orders, g)) == ()
        assert multiply_words(F2.orders, inverse_word(F2.orders, g), g) == ()

    def test_exponent_merge(self):
        a = ((0, 1),)
        assert encode_word(multiply_words(F2.orders, a, a)) == "a^2"

    def test_cyclic_wraparound(self):
        # modular oracle: 2 + 2 = 4 = 1 (mod 3)
        g = reduce_word(Z3.orders, [(0, 2)])
        assert encode_word(multiply_words(Z3.orders, g, g)) == "a^1"

    def test_associativity_sampled(self):
        orders = (2, 3)
        elems = ball_words(orders, 2)
        for g, h, k in itertools.islice(itertools.product(elems, repeat=3), 300):
            assert (multiply_words(orders, multiply_words(orders, g, h), k)
                    == multiply_words(orders, g, multiply_words(orders, h, k)))


class TestGroupSpec:
    @pytest.mark.parametrize("order", [3.0, 2.5, "3", None, True, False])
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(ValueError, match=re.escape(f"integer, got {order!r}")):
            hk.GroupSpec((0, order))

    def test_index_orders_become_ints(self):
        spec = hk.GroupSpec((np.int64(3), 0))
        assert spec.orders == (3, 0) and all(type(m) is int for m in spec.orders)
        assert spec == hk.GroupSpec((3, 0))


class TestLength:
    def test_identity(self):
        assert hk.length(hk.GroupElement(F2, ())) == 0

    def test_letter_costs_sum(self):
        # a^2 b^-1 costs 2 + 1
        assert hk.length(hk.GroupElement(F2, ((0, 2), (1, -1)))) == 3

    def test_cyclic_inverse_cost(self):
        # in Z5, a^4 = a^-1 costs min(4, 1) = 1
        assert hk.length(hk.GroupElement(Z5, ((0, 4),))) == 1

    @pytest.mark.parametrize("spec,radius", [(F2, 3), (hk.GroupSpec((3, 4)), 3)])
    def test_inverse_and_subadditive(self, spec, radius):
        def length(word):
            return hk.length(hk.GroupElement(spec, word))

        words = [g.word for g in hk.ball(spec, radius)]
        for g in words:
            assert length(inverse_word(spec.orders, g)) == length(g)
        for g in words:
            for h in words:
                assert length(multiply_words(spec.orders, g, h)) <= length(g) + length(h)


@st.composite
def ball_specs(draw):
    """(spec, radius): 1-3 generators of orders in {0, 2, 3, 4, 5, 7}, radius
    0-4, lowered until the ball has at most 200 elements."""
    spec = hk.GroupSpec(tuple(draw(st.lists(st.sampled_from([0, 2, 3, 4, 5, 7]),
                                            min_size=1, max_size=3))))
    radius = draw(st.integers(0, 4))
    while len(hk.ball(spec, radius)) > 200:
        radius -= 1
    return spec, radius


class TestBall:
    def test_radius_zero(self):
        assert [g.encode() for g in hk.ball(F2, 0)] == ["e"]

    def test_f2_sphere_sizes(self):
        assert len(hk.ball(F2, 1)) == 5
        assert len(hk.ball(F2, 3)) == 53
        for r in range(4):
            assert len(hk.ball(F2, r)) == free_group_ball_size(2, r)

    def test_z_ball(self):
        assert len(hk.ball(Z, 2)) == 5

    def test_z2z2_ball(self):
        got = {g.encode() for g in hk.ball(hk.GroupSpec((2, 2)), 2)}
        assert got == {"e", "a^1", "b^1", "a^1.b^1", "b^1.a^1"}

    def test_deterministic_order(self):
        b1 = [g.encode() for g in hk.ball(F2, 3)]
        b2 = [g.encode() for g in hk.ball(F2, 3)]
        assert b1 == b2
        lengths = [hk.length(g) for g in hk.ball(F2, 3)]
        assert lengths == sorted(lengths)

    @settings(max_examples=80, deadline=None)
    @given(ball_specs())
    def test_matches_the_oracle_in_order(self, drawn):
        spec, radius = drawn
        got = hk.ball(spec, radius)
        want = ball_words(spec.orders, radius)
        assert [g.word for g in got] == want
        assert [g.encode() for g in got] == [encode_word(g) for g in want]

    def test_sizes_match_the_benchmark_count(self):
        workloads = load_perfbench("workloads")
        configs = {(orders, radius) for runs in workloads._SCHOENBERG_CONFIGS.values()
                   for _, orders, radius in runs}
        for orders, radius in sorted(configs):
            assert len(hk.ball(hk.GroupSpec(orders), radius)) == workloads.ball_size(orders, radius)


class TestDualTable:
    def test_radius_zero_trivial_only(self):
        t = hk.dual_irrep_table(Z, 0)
        assert len(t) == 1 and t.trivial.id == "e"

    def test_z_radius_2(self):
        t = hk.dual_irrep_table(Z, 2)
        assert {lab.id for lab in t.labels} == {"e", "a^1", "a^-1", "a^2", "a^-2"}
        assert all(t.dim(lab) == 1 for lab in t.labels)

    def test_bijection_with_fusion_words(self):
        # Z2 * Z3: every generator letter costs 1, so the radius-R ball is in
        # label-preserving bijection with alternating words of length <= R
        # over the factors' dual tables.
        spec = hk.GroupSpec((2, 3))
        radius = 3
        f1 = hk.dual_irrep_table(hk.GroupSpec((2,)), 1)
        f2 = hk.dual_irrep_table(hk.GroupSpec((3,)), 1)
        wp = hk.free_product_table(f1, f2, radius)

        def word_to_element(word):
            letters = []
            for fi, lab in word.letters:
                exp = int(lab.id.split("^")[1])
                letters.append((fi - 1, exp))
            return encode_word(reduce_word(spec.orders, letters))

        mapped = {word_to_element(w) for w, _ in wp}
        ball_encodings = {g.encode() for g in hk.ball(spec, radius)}
        assert mapped == ball_encodings
        assert len(wp) == len(ball_encodings)
        assert len(wp) == 1 + sum(alternating_count(1, 2, k) for k in range(1, radius + 1))


class TestSchoenberg:
    def test_all_ones_limit(self):
        # kernel at t ~ 0 degenerates to the rank-one all-ones matrix
        min_eig = hk.schoenberg_check(hk.GroupSpec((2, 2)), 1e-12, 2)
        assert abs(min_eig) < 1e-8

    def test_z_line_kernel(self):
        assert hk.schoenberg_check(Z, 1.0, 4) > 0

    def test_f2_radius_2(self):
        # ball has 1 + 4 + 12 = 17 elements
        gram = hk.length_gram(F2, 1.0, 2)
        assert gram.shape == (17, 17)
        assert hk.schoenberg_check(F2, 1.0, 2) > 0

    def test_gram_against_direct_assembly(self):
        spec = hk.GroupSpec((2, 3))
        elems = hk.ball(spec, 2)
        gram = hk.length_gram(spec, 0.7, 2)
        for i, g in enumerate(elems):
            for j, h in enumerate(elems):
                d = hk.length(hk.GroupElement(spec, multiply_words(
                    spec.orders, inverse_word(spec.orders, g.word), h.word)))
                assert gram[i, j] == pytest.approx(math.exp(-0.7 * d), abs=1e-15)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_t_grid_f2_and_z2z3(self, t):
        for spec, radii in ((F2, range(4)), (hk.GroupSpec((2, 3)), range(5))):
            for radius in radii:
                # the check's former default tolerance: 1e-8 per Gram row
                assert hk.schoenberg_check(spec, t, radius) >= -1e-8 * len(hk.ball(spec, radius))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            hk.schoenberg_check(F2, 0.0, 1)

    @pytest.mark.parametrize("low,passed", [(-1e-9, True), (-1.5e-9, False), (0.0, True)])
    def test_report_decides_the_smallest_eigenvalue_against_tol(self, monkeypatch, low, passed):
        from hapkit import classical
        monkeypatch.setattr(classical, "length_gram",
                            lambda spec, t, radius: np.diag([1.0, low, 2.0]))
        (verdict,) = classical.schoenberg_report(F2, 1.0, 1, 1e-9, group="F2",
                                                 input_digest="").conditions
        assert verdict.passed == passed
        assert [(w.label, w.achieved, w.threshold, w.context) for w in verdict.witnesses] == [
            ("*", 0.0 - low, 1e-9, "minus the smallest eigenvalue")]


class TestLengthGram:
    """``length_gram`` reads distances off syllable words; the oracle multiplies."""

    @settings(max_examples=80, deadline=None)
    @given(ball_specs(), st.floats(0.0, 5.0, exclude_min=True))
    def test_matches_group_arithmetic(self, drawn, t):
        spec, radius = drawn
        want = word_length_gram(spec.orders, ball_words(spec.orders, radius), t)
        assert hk.length_gram(spec, t, radius).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(ball_specs())
    def test_distances_are_a_metric(self, drawn):
        spec, radius = drawn
        # exp(-d) for d <= 8 gives every integer distance back exactly
        d = np.rint(-np.log(hk.length_gram(spec, 1.0, radius))).astype(int)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all() and (d[~np.eye(len(d), dtype=bool)] > 0).all()
        for j in range(len(d)):
            assert (d <= d[:, [j]] + d[[j], :]).all()

    @pytest.mark.parametrize("orders,radius,t", [((3, 4), 6, 0.7), ((2, 3), 10, 0.9)])
    def test_workload_scale(self, orders, radius, t):
        spec = hk.GroupSpec(orders)
        want = word_length_gram(orders, ball_words(orders, radius), t)
        assert hk.length_gram(spec, t, radius).tobytes() == want.tobytes()

    def test_temporaries_stay_small(self):
        # the distances are built one syllable position at a time in compact
        # integers; an n x n x S int64 broadcast would need far more
        spec = hk.GroupSpec((3, 4))
        tracemalloc.start()
        try:
            gram = hk.length_gram(spec, 0.5, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gram.shape == (392, 392)
        assert peak <= 6 * gram.nbytes

    @pytest.mark.parametrize("orders,radius,t", [
        ((0, 0), 3, 1.0), ((3, 4), 4, 0.5), ((3, 4), 6, 0.5), ((2, 3), 10, 0.9),
        ((2, 2), 2, 1e-12), ((0,), 5, 1.0)])
    def test_min_eigenvalue_is_the_gram_eigvalsh(self, orders, radius, t):
        spec = hk.GroupSpec(orders)
        gram = hk.length_gram(spec, t, radius)
        got = hk.schoenberg_check(spec, t, radius)
        assert got == float(np.linalg.eigvalsh(gram)[0])

    def test_non_finite_gram_fails_closed(self, monkeypatch):
        from hapkit import classical
        monkeypatch.setattr(classical, "length_gram",
                            lambda spec, t, radius: np.full((3, 3), np.nan))
        assert math.isnan(hk.schoenberg_check(F2, 1.0, 1))
        (verdict,) = classical.schoenberg_report(F2, 1.0, 1, 1e-9, group="F2",
                                                 input_digest="").conditions
        assert not verdict.passed and math.isnan(verdict.witnesses[0].achieved)


class TestParseGroup:
    @pytest.mark.parametrize("text,orders", [
        ("Z", (0,)), ("F2", (0, 0)), ("Z3*Z4", (3, 4)),
        ("F1", (0,)), ("Z2*Z2*Z2", (2, 2, 2)), ("Z*Z3", (0, 3)),
    ])
    def test_accepted(self, text, orders):
        assert hk.parse_group(text).orders == orders

    @pytest.mark.parametrize("text", ["Q8", "Z1", "F0", "", "Z3*", "SU2"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            hk.parse_group(text)


class TestLengthFunctional:
    def test_blocks_are_lengths(self):
        L = hk.length_functional(Z, 3)
        t = L.table
        for g in hk.ball(Z, 3):
            lab = t.decode(g.encode())
            assert L.blocks[lab][0, 0] == hk.length(g)

    def test_semigroup_matches_gram_diagonal_row(self):
        # semigroup blocks exp(-t*length) agree with the Gram row at the identity
        L = hk.length_functional(F2, 2)
        fam = hk.semigroup_at(L, 0.5)
        elems = hk.ball(F2, 2)
        gram = hk.length_gram(F2, 0.5, 2)
        idx = next(i for i, g in enumerate(elems) if g.is_identity)
        for j, g in enumerate(elems):
            lab = L.table.decode(g.encode())
            assert fam.blocks[lab][0, 0] == pytest.approx(gram[idx, j], abs=1e-15)
