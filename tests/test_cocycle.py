import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from conftest import (FIXTURES, label_value, random_psd_generator, random_table, run_cli,
                      sup_norm, zdual_table)
from hapkit import _linalg
from hapkit.cocycle import cocycle_report
from hapkit.fourier import DEFAULT_TOL


def zdual_length_gf(radius):
    t = zdual_table(radius)
    blocks = {lab: [[float(abs(label_value(t, lab)))]]
              for lab in t.labels if lab != t.trivial}
    return hk.GeneratingFunctional(t, blocks)


class TestFactorization:
    def test_zero_generator(self):
        t = zdual_table(2)
        zero = hk.GeneratingFunctional(t, {lab: [[0.0]] for lab in t.nontrivial_labels})
        c = hk.factor_from_generator(zero)
        for lab in t.nontrivial_labels:
            assert np.array_equal(c.blocks[lab], np.zeros((1, 1)))
        assert t.trivial not in c.blocks

    def test_diagonal_example(self):
        # 2L = diag(4, 16), principal root diag(2, 4)
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): np.diag([2.0, 8.0])})
        c = hk.factor_from_generator(L)
        assert np.allclose(c.blocks[t.decode("a")], np.diag([2.0, 4.0]), atol=1e-14, rtol=0)

    def test_gram_identity_random(self, rng):
        table = random_table(rng, 8, 5)
        for _ in range(10):
            L = random_psd_generator(rng, table, 7.0)
            c = hk.factor_from_generator(L)
            for lab in table.nontrivial_labels:
                gram = c.blocks[lab].conj().T @ c.blocks[lab]
                target = L.blocks[lab] + L.blocks[lab].conj().T
                assert np.linalg.norm(gram - target, 2) <= 1e-10

    def test_negative_block_rejected(self):
        t = hk.make_table([("a", 2)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): np.diag([1.0, -0.5])})
        with pytest.raises(ValueError, match="positive semidefinite"):
            hk.factor_from_generator(L)

    def test_small_negative_clamped(self):
        t = hk.make_table([("a", 1)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): [[-1e-12]]})
        c = hk.factor_from_generator(L, tol=1e-10)
        assert c.blocks[t.decode("a")][0, 0] == 0.0

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), tol=st.sampled_from([1e-9, 1e-10]))
    def test_factor_raises_exactly_when_positive_blocks_fails(self, data, tol):
        """Hermitian blocks of sides 1-3, each with smallest eigenvalue s * tol
        (up to the rounding of a drawn unitary frame) for s around -1: the
        factor returns exactly when ``check_positive_blocks`` passes."""
        sides = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        table = hk.make_table([(f"b{i}", d) for i, d in enumerate(sides)])
        blocks = {}
        for lab in table.nontrivial_labels:
            d = table.dim(lab)
            scale = data.draw(st.sampled_from([-2.0, -1.5, -1.0, -0.75, -0.5, 0.0, 1.0]))
            w = [scale * tol, *data.draw(st.lists(st.floats(1.0, 4.0), min_size=d - 1,
                                                  max_size=d - 1))]
            q = np.eye(d)
            if data.draw(st.booleans()):
                entries = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d,
                                             max_size=2 * d * d))
                q = np.linalg.qr(np.eye(d) + np.array(entries).view(complex).reshape(d, d))[0]
            b = (q * w) @ q.conj().T
            blocks[lab] = (b + b.conj().T) / 2  # exactly Hermitian
        L = hk.GeneratingFunctional(table, blocks)
        try:
            hk.factor_from_generator(L, tol)
            factored = True
        except ValueError as err:
            assert "positive semidefinite" in str(err)
            factored = False
        assert hk.check_positive_blocks(L, tol).passed == factored

    def test_defaults_agree_with_positive_blocks(self):
        # lambda = -5e-10 lies between -DEFAULT_TOL and 0: both defaults accept it
        t = hk.make_table([("a", 1)])
        L = hk.GeneratingFunctional(t, {t.decode("a"): [[-5e-10]]})
        assert hk.check_positive_blocks(L).passed
        assert hk.factor_from_generator(L).blocks[t.decode("a")].tolist() == [[0j]]

    def test_deterministic_bitwise(self, rng):
        table = random_table(rng, 5, 4)
        L = random_psd_generator(rng, table, 3.0)
        c1 = hk.factor_from_generator(L)
        c2 = hk.factor_from_generator(L)
        for lab in table.nontrivial_labels:
            assert c1.blocks[lab].tobytes() == c2.blocks[lab].tobytes()


class TestGramFromCocycle:
    def test_zero(self):
        t = zdual_table(1)
        c = hk.CocycleMatrices(t, {lab: [[0.0]] for lab in t.nontrivial_labels})
        L = hk.gram_from_cocycle(c)
        for lab in t.nontrivial_labels:
            assert np.array_equal(L.blocks[lab], np.zeros((1, 1)))

    def test_diagonal(self):
        t = hk.make_table([("a", 2)])
        c = hk.CocycleMatrices(t, {t.decode("a"): np.diag([2.0, 4.0])})
        L = hk.gram_from_cocycle(c)
        assert np.allclose(L.blocks[t.decode("a")], np.diag([2.0, 8.0]), atol=1e-14, rtol=0)

    def test_output_exactly_hermitian_and_positive(self, rng):
        table = random_table(rng, 6, 5)
        blocks = {}
        for lab in table.nontrivial_labels:
            d = table.dim(lab)
            blocks[lab] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        c = hk.CocycleMatrices(table, blocks)
        L = hk.gram_from_cocycle(c)
        sym = hk.check_symmetric(L, 0.0)
        assert sym.passed and sym.witnesses[0].achieved == 0.0
        assert hk.check_positive_blocks(L).passed

    def test_roundtrip(self, rng):
        table = random_table(rng, 6, 4)
        L = random_psd_generator(rng, table, 6.0)
        back = hk.gram_from_cocycle(hk.factor_from_generator(L))
        for lab in table.nontrivial_labels:
            assert np.linalg.norm(back.blocks[lab] - L.blocks[lab], 2) <= 1e-10


class TestProperAndBounded:
    def test_zdual_threshold(self):
        # c^n = sqrt(2|n|): (c*)c = 2|n| < 8 iff |n| <= 3
        c = hk.factor_from_generator(zdual_length_gf(6))
        res = hk.check_proper_cocycle(c, 8.0)
        values = sorted(label_value(c.table, c.table.decode(w.label)) for w in res.witnesses)
        assert values == [-3, -2, -1, 1, 2, 3]
        assert res.passed

    def test_zero_cocycle_all_exceptional(self):
        t = zdual_table(2)
        c = hk.CocycleMatrices(t, {lab: [[0.0]] for lab in t.nontrivial_labels})
        res = hk.check_proper_cocycle(c, 1.0)
        assert {t.decode(w.label) for w in res.witnesses} == set(t.nontrivial_labels)
        assert not res.passed

    def test_nan_level_certifies_nothing(self):
        c = hk.factor_from_generator(zdual_length_gf(3))
        res = hk.check_proper_cocycle(c, math.nan)
        assert {c.table.decode(w.label) for w in res.witnesses} == set(c.labels)
        assert not res.passed

    def test_boundary_unitary_scaling(self):
        # all blocks sqrt(M) * unitary: (c*)c = M*I exactly, empty exceptional set
        t = hk.make_table([("a", 2)])
        M = 4.0
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        c = hk.CocycleMatrices(t, {t.decode("a"): math.sqrt(M) * u})
        res = hk.check_proper_cocycle(c, M)
        assert res.witnesses == ()
        assert res.passed

    def test_properness_transfer_factor_two(self, rng):
        table = random_table(rng, 10, 4)
        for _ in range(5):
            L = random_psd_generator(rng, table, 6.0)
            c = hk.factor_from_generator(L)
            # choose M away from all eigenvalues so rounding cannot flip a set
            M = 1.234567
            exc_l = {table.encode(lab) for lab, _ in oracles.exceptional(L, L.lows, L.lows >= M)
                     if lab != table.trivial}
            exc_c = {w.label for w in hk.check_proper_cocycle(c, 2 * M).witnesses}
            assert exc_l == exc_c

    def test_check_bounded(self):
        t = hk.make_table([("a", 2)])
        c = hk.CocycleMatrices(t, {t.decode("a"): np.diag([2.0, 4.0])})
        assert sup_norm(c) == pytest.approx(4.0, abs=1e-14)
        empty = hk.CocycleMatrices(t, {})
        assert sup_norm(empty) == 0.0

    def test_zdual_bound_is_sqrt_2r(self):
        radius = 7
        c = hk.factor_from_generator(zdual_length_gf(radius))
        assert sup_norm(c) == pytest.approx(math.sqrt(2 * radius), rel=1e-12)


@st.composite
def integer_spectrum_generators(draw):
    """(table, blocks, lows): blocks P diag(w) P^T of sides 1-4, with P a
    permutation and w small nonnegative integers, so every eigenvalue is
    exact; ``lows`` maps each label to min(w)."""
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    table = hk.make_table([(f"b{i}", d) for i, d in enumerate(sides)])
    blocks, lows = {}, {}
    for lab in table.nontrivial_labels:
        d = table.dim(lab)
        w = draw(st.lists(st.integers(0, 12), min_size=d, max_size=d))
        p = np.eye(d)[draw(st.permutations(range(d)))]
        blocks[lab], lows[lab] = p @ np.diag(np.array(w, dtype=float)) @ p.T, min(w)
    return table, blocks, lows


# L = [3]: (c*)c = 2L = 6 exactly, though sqrt(6)**2 rounds to 5.999999999999999
_SIX = hk.make_table([("a", 1)])
_SIX_DRAWN = (_SIX, {_SIX.labels[1]: np.array([[3.0]])}, {_SIX.labels[1]: 3})


class TestProperAtLevelReadsOneSpectrum:
    """``cocycle``'s properness is read off the spectrum of L + L*, the one
    eigendecomposition of the generator, and never off its rounded root."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(drawn=integer_spectrum_generators(), M=st.integers(1, 64).map(lambda n: n / 4))
    @example(drawn=_SIX_DRAWN, M=6.0)
    def test_exceptional_labels_are_those_with_twice_the_low_below_M(self, drawn, M):
        table, blocks, lows = drawn
        report, _ = cocycle_report(hk.GeneratingFunctional(table, blocks), M, DEFAULT_TOL,
                                   "sha256:")
        proper = report.conditions[-1]
        want = {table.encode(lab): 2.0 * low for lab, low in lows.items() if 2 * low < M}
        assert proper.name == "proper-at-level"
        assert {w.label: w.achieved for w in proper.witnesses} == want
        assert proper.passed == (len(want) < len(lows))

    def test_a_cocycle_run_decomposes_each_block_side_once(self, monkeypatch, tmp_path):
        sides, eigvalsh_calls = [], []
        eigh, eigvalsh = _linalg.hermitian_eigh, np.linalg.eigvalsh
        monkeypatch.setattr(_linalg, "hermitian_eigh",
                            lambda stack: sides.append(stack.shape[-1]) or eigh(stack))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a, **k: eigvalsh_calls.append(1) or eigvalsh(*a, **k))
        assert run_cli("cocycle", FIXTURES / "unit_shift_generator.json", "--M", "1",
                       "--out", tmp_path / "c.json").returncode == 0
        assert sorted(sides) == [1, 2, 3]  # the fixture's blocks have sides 1, 2 and 3
        assert eigvalsh_calls == []


class TestConstruction:
    def test_trivial_block_rejected(self):
        t = zdual_table(1)
        with pytest.raises(ValueError, match="trivial"):
            hk.CocycleMatrices(t, {t.trivial: [[1.0]]})
