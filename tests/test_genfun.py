import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from conftest import (label_value, norm_at, random_hermitian, random_psd, random_psd_generator,
                      random_table, zdual_family, zdual_label, zdual_table)
from oracles import constant_family, scalar_quotient_extrapolation, unit_shift


def zdual_length_gf(radius):
    t = zdual_table(radius)
    blocks = {lab: [[float(abs(label_value(t, lab)))]]
              for lab in t.labels if lab != t.trivial}
    return hk.GeneratingFunctional(t, blocks)


class TestConstruction:
    def test_trivial_block_auto_zero(self):
        t = zdual_table(1)
        L = hk.GeneratingFunctional(t, {})
        assert np.array_equal(L.blocks[t.trivial], np.zeros((1, 1)))

    def test_nonzero_trivial_rejected(self):
        t = zdual_table(1)
        with pytest.raises(ValueError, match="vanish"):
            hk.GeneratingFunctional(t, {t.trivial: [[1.0]]})

    def test_shape_validated(self):
        t = hk.make_table([("a", 2)])
        with pytest.raises(ValueError, match="side"):
            hk.GeneratingFunctional(t, {t.decode("a"): np.eye(3)})


class TestSymmetryAndPositivity:
    def test_real_diagonal_symmetric(self):
        L = zdual_length_gf(3)
        sym = hk.check_symmetric(L)
        assert sym.passed and sym.witnesses[0].achieved == 0.0

    def test_jordan_block_not_symmetric(self):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): [[0, 1], [0, 0]]})
        sym = hk.check_symmetric(L)
        assert not sym.passed
        assert [w.label for w in sym.witnesses] == ["a"]
        assert sym.witnesses[0].achieved == pytest.approx(1.0, abs=1e-12)

    def test_zero_functional_positive(self):
        t = zdual_table(2)
        pos = hk.check_positive_blocks(hk.GeneratingFunctional(t, {}))
        assert pos.passed and 0.0 - pos.witnesses[0].achieved == 0.0

    def test_positive_diagonal(self):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): np.diag([2.0, 8.0])})
        assert hk.check_positive_blocks(L).passed

    def test_negative_eigenvalue_detected(self):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): np.diag([1.0, -0.5])})
        pos = hk.check_positive_blocks(L)
        assert not pos.passed
        assert [w.label for w in pos.witnesses] == ["a"]
        assert 0.0 - pos.witnesses[0].achieved == pytest.approx(-0.5, abs=1e-12)

    def test_zero_tol_demands_exact_symmetry(self):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): [[1.0, 1e-12], [0.0, 1.0]]})
        assert hk.check_positive_blocks(L).passed
        with pytest.raises(ValueError, match="symmetric"):
            hk.check_positive_blocks(L, 0.0)

    def test_positivity_requires_symmetry(self):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): [[0, 1], [0, 0]]})
        with pytest.raises(ValueError, match="symmetric"):
            hk.check_positive_blocks(L)


class TestProper:
    def test_zdual_length_at_5(self):
        L = zdual_length_gf(10)
        exceptional = oracles.exceptional(L, L.lows, L.lows >= 5.0)
        values = sorted(label_value(L.table, lab) for lab, _ in exceptional)
        assert values == list(range(-4, 5))
        assert len(exceptional) == 9
        assert (L.lows >= 5.0).any()  # proper at level 5 within the truncation

    def test_dominating_blocks_empty_set(self):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): 7.0 * np.eye(2)})
        exceptional = oracles.exceptional(L, L.lows, L.lows >= 5.0)
        assert [lab for lab, _ in exceptional] == [t.trivial]  # trivial block is 0
        assert (L.lows >= 5.0).any()

    def test_zero_functional_all_exceptional(self):
        t = zdual_table(2)
        zero = hk.GeneratingFunctional(t, {lab: [[0.0]] for lab in t.nontrivial_labels})
        exceptional = oracles.exceptional(zero, zero.lows, zero.lows >= 0.5)
        assert {lab for lab, _ in exceptional} == set(t.labels)
        assert not (zero.lows >= 0.5).any()


class TestSemigroup:
    def test_time_zero_is_counit(self):
        L = zdual_length_gf(3)
        fam = hk.semigroup_at(L, 0.0)
        eps = constant_family(L.table, 1.0)
        assert oracles.max_block_deviation(fam, eps) == 0.0

    def test_unit_shift_scalar(self):
        t = hk.make_table([("a", 2), ("b", 3)])
        fam = hk.semigroup_at(unit_shift(t), 1.0)
        blk = fam.blocks[t.decode("a")]
        assert np.allclose(blk, math.exp(-1.0) * np.eye(2), atol=1e-15, rtol=0)
        assert blk[0, 0].real == pytest.approx(0.3678794412, abs=1e-10)

    def test_scalar_block(self):
        t = zdual_table(1)
        L = hk.GeneratingFunctional(t, {zdual_label(t, 1): [[2.0]],
                                        zdual_label(t, -1): [[2.0]]})
        fam = hk.semigroup_at(L, 0.5)
        assert fam.blocks[zdual_label(t, 1)][0, 0] == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            hk.semigroup_at(zdual_length_gf(1), -0.1)

    def test_semigroup_law_random_psd(self, rng):
        table = random_table(rng, 8, 6)
        for _ in range(5):
            blocks = {lab: random_psd(rng, table.dim(lab), 10.0)
                      for lab in table.nontrivial_labels}
            L = hk.GeneratingFunctional(table, blocks)
            for s, t in [(0.3, 0.7), (1.0, 1.0)]:
                lhs = hk.convolve(hk.semigroup_at(L, s), hk.semigroup_at(L, t))
                rhs = hk.semigroup_at(L, s + t)
                assert oracles.max_block_deviation(lhs, rhs) <= 1e-9

    def test_contractive_for_positive_generator(self, rng):
        table = random_table(rng, 6, 4)
        L = random_psd_generator(rng, table, 8.0)
        fam = hk.semigroup_at(L, 1.3)
        for lab in fam.labels:
            assert norm_at(fam, lab) <= 1.0 + 1e-12

    def test_continuity_at_zero_bound(self, rng):
        table = random_table(rng, 5, 4)
        L = random_psd_generator(rng, table, 6.0)
        for t in (0.1, 1.0):
            fam = hk.semigroup_at(L, t)
            for lab in table.nontrivial_labels:
                norm_l = np.linalg.norm(np.asarray(L.blocks[lab]), 2)
                dev = np.linalg.norm(fam.blocks[lab] - np.eye(table.dim(lab)), 2)
                assert dev <= t * norm_l * math.exp(t * norm_l) + 1e-12

    def test_c0_linkage_with_properness(self):
        # outside the exceptional set at level M, semigroup norms are <= exp(-s*M)
        L = zdual_length_gf(8)
        M, s = 3.0, 0.7
        exceptional = {lab for lab, _ in oracles.exceptional(L, L.lows, L.lows >= M)}
        fam = hk.semigroup_at(L, s)
        for lab in fam.labels:
            if lab not in exceptional:
                assert norm_at(fam, lab) <= math.exp(-s * M) + 1e-12

    def test_non_hermitian_generator_uses_expm(self):
        t = hk.make_table([("a", 2)])
        blk = np.array([[1.0, 1.0], [0.0, 1.0]])
        L = hk.GeneratingFunctional(t, {t.decode("a"): blk})
        fam = hk.semigroup_at(L, 1.0)
        import scipy.linalg
        assert np.allclose(fam.blocks[t.decode("a")], scipy.linalg.expm(-blk),
                           atol=1e-13, rtol=0)


class TestShiftUnit:
    def test_zero_becomes_unit_shift(self):
        t = zdual_table(2)
        zero = hk.GeneratingFunctional(t, {lab: [[0.0]] for lab in t.nontrivial_labels})
        shifted = oracles.shift_unit(zero)
        ref = unit_shift(t)
        for lab in t.nontrivial_labels:
            assert np.array_equal(shifted.blocks[lab], ref.blocks[lab])

    def test_scalar_lengths_shift(self):
        L = zdual_length_gf(3)
        shifted = oracles.shift_unit(L)
        for lab in L.table.nontrivial_labels:
            n = label_value(L.table, lab)
            assert shifted.blocks[lab][0, 0] == abs(n) + 1

    def test_min_eigenvalue_at_least_one(self, rng):
        table = random_table(rng, 6, 4)
        L = random_psd_generator(rng, table, 5.0)
        shifted = oracles.shift_unit(L)
        for lab in table.nontrivial_labels:
            w = np.linalg.eigvalsh(shifted.blocks[lab])
            assert w[0] >= 1.0 - 1e-12


class TestBuildFromStates:
    def test_counit_sequence_gives_zero(self):
        t = zdual_table(3)
        seq = [constant_family(t, 1.0)] * 4
        L, report = hk.build_from_states(seq)
        for lab in L.labels:
            assert np.array_equal(L.blocks[lab], np.zeros((1, 1)))
        assert not report.flagged
        assert all(report.first_certified[lab] == 1 for lab in t.nontrivial_labels)

    def test_single_haar_term_gives_unit_shift(self):
        t = zdual_table(2)
        L, _ = hk.build_from_states([constant_family(t, 0.0)], betas=[1.0], eps=[0.5])
        ref = unit_shift(t)
        for lab in t.nontrivial_labels:
            assert np.array_equal(L.blocks[lab], ref.blocks[lab])

    def test_zdual_sequence_properties(self):
        t = zdual_table(4)
        n_terms = 6
        seq = [zdual_family(t, lambda m, n=n: math.exp(-abs(m) / n))
               for n in range(1, n_terms + 1)]
        L, report = hk.build_from_states(seq)
        assert hk.check_symmetric(L, 0.0).passed
        values = {label_value(t, lab): float(L.blocks[lab][0, 0].real)
                  for lab in t.nontrivial_labels}
        # strictly increasing in |m|, symmetric under m -> -m
        assert values[1] == values[-1] and values[3] == values[-3]
        assert values[1] < values[2] < values[3] < values[4]
        # direct summation oracle
        betas = [2.0 ** n for n in range(1, n_terms + 1)]
        for m, got in values.items():
            expected = sum(b * (1 - math.exp(-abs(m) / n))
                           for b, n in zip(betas, range(1, n_terms + 1)))
            assert got == pytest.approx(expected, rel=1e-13)
        assert report.tail_bound == pytest.approx(4.0 ** -6 / 3.0, rel=1e-12)

    def test_schedule_validation(self):
        t = zdual_table(1)
        seq = [constant_family(t, 1.0)] * 2
        with pytest.raises(ValueError, match="increasing"):
            hk.build_from_states(seq, betas=[2.0, 2.0], eps=[0.5, 0.25])
        with pytest.raises(ValueError, match="decreasing"):
            hk.build_from_states(seq, betas=[2.0, 4.0], eps=[0.5, 0.5])

    def test_unnormalized_rejected(self):
        t = zdual_table(1)
        bad = hk.MatrixFamily(t, {t.trivial: [[0.5]]})
        with pytest.raises(ValueError, match="normalized"):
            hk.build_from_states([bad], betas=[1.0], eps=[0.5])

    def test_certificate_flags(self):
        # deviations stay at 0.6 > eps_n for every n: certificate impossible
        t = zdual_table(1)
        seq = [zdual_family(t, lambda n: 1.0 if n == 0 else 0.4) for _ in range(3)]
        L, report = hk.build_from_states(seq, betas=[1.0, 2.0, 4.0], eps=[0.5, 0.25, 0.125])
        assert set(report.flagged) == set(t.nontrivial_labels)
        assert all(report.first_certified[lab] is None for lab in t.nontrivial_labels)

    def test_f_sets_adaptive(self):
        t = zdual_table(2)
        # first family: only |n| <= 1 within 0.5; second: everything within 0.9
        seq = [
            zdual_family(t, lambda n: 1.0 if abs(n) <= 1 else 0.4),
            zdual_family(t, lambda n: 1.0 if abs(n) <= 2 else 0.4),
        ]
        _, report = hk.build_from_states(seq, betas=[1.0, 2.0], eps=[0.5, 0.25])
        f1 = {label_value(t, lab) for lab in report.f_sets[0]}
        f2 = {label_value(t, lab) for lab in report.f_sets[1]}
        assert f1 == {-1, 1} and f2 == {-2, -1, 1, 2}

    def test_hermitian_blocks_exact(self, rng):
        table = random_table(rng, 5, 3)
        seq = []
        for _ in range(3):
            blocks = {table.trivial: [[1.0]]}
            for lab in table.nontrivial_labels:
                h = random_hermitian(rng, table.dim(lab), 0.9)
                blocks[lab] = h
            seq.append(hk.MatrixFamily(table, blocks, normalized=True))
        L, _ = hk.build_from_states(seq, betas=[1.0, 2.0, 4.0], eps=[0.5, 0.25, 0.125])
        for lab in L.labels:
            blk = L.blocks[lab]
            assert np.array_equal(blk, blk.conj().T)


# block values whose deviations 1 - b cross the default eps_n = 8^-n, and NaN
_STATE_VALUES = st.sampled_from([1.0, 0.9, 0.99, 0.999, 0.9999, 0.5, math.nan])


class TestBuildCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(_STATE_VALUES, min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_matches_the_per_label_oracle(self, rows):
        """rows[j][n] is the 1x1 block of state n at label j."""
        t = hk.make_table([(f"x{j}", 1) for j in range(len(rows))])
        labels = t.nontrivial_labels
        seq = [hk.MatrixFamily(t, {t.trivial: [[1.0]], **{lab: [[row[n]]]
                                                         for lab, row in zip(labels, rows)}},
                               normalized=True) for n in range(len(rows[0]))]
        with np.errstate(all="ignore"):
            _, report = hk.build_from_states(seq)
        _, eps = hk.default_schedule(len(seq))
        devs = [[F.deviations[j + 1] for F in seq] for j in range(len(rows))]
        expected = oracles.first_certified(devs, eps)
        assert [report.first_certified[lab] for lab in labels] == expected
        assert report.flagged == tuple(lab for lab, n in zip(labels, expected) if n is None)
        assert report.f_sets == tuple(
            frozenset(lab for lab, row in zip(labels, devs) if row[n] <= eps[n])
            for n in range(len(seq)))


class TestGeneratorRecovery:
    def test_scalar_closed_form(self):
        t = zdual_table(1)
        L = hk.GeneratingFunctional(t, {zdual_label(t, 1): [[2.0]],
                                        zdual_label(t, -1): [[2.0]]})
        ts = [1e-3, 5e-4]
        est, errors = hk.generator_from_semigroup(lambda s: hk.semigroup_at(L, s), ts)
        got = float(est.blocks[zdual_label(t, 1)][0, 0].real)
        assert got == pytest.approx(2.0, rel=1e-5)
        assert got == pytest.approx(scalar_quotient_extrapolation(2.0, ts), rel=1e-13)

    def test_counit_sampler_gives_zero(self):
        t = zdual_table(2)
        est, errors = hk.generator_from_semigroup(lambda s: constant_family(t, 1.0), [1e-2, 5e-3])
        for lab in t.nontrivial_labels:
            assert np.array_equal(est.blocks[lab], np.zeros((1, 1)))
            assert errors[lab] == 0.0

    def test_roundtrip_random_hermitian(self, rng):
        table = random_table(rng, 5, 4)
        blocks = {lab: random_hermitian(rng, table.dim(lab), 5.0)
                  for lab in table.nontrivial_labels}
        L = hk.GeneratingFunctional(table, blocks)
        est, _ = hk.generator_from_semigroup(lambda s: hk.semigroup_at(L, s), [1e-3, 5e-4])
        for lab in table.nontrivial_labels:
            err = np.linalg.norm(est.blocks[lab] - L.blocks[lab], 2)
            assert err <= 1e-5 * max(1.0, np.linalg.norm(np.asarray(L.blocks[lab]), 2))

    def test_needs_two_samples(self):
        t = zdual_table(1)
        with pytest.raises(ValueError):
            hk.generator_from_semigroup(lambda s: constant_family(t, 1.0), [1e-3])
