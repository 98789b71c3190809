"""The fail-closed reduction behind every per-label scan, and the scans themselves."""

import math

import numpy as np
import pytest

import hapkit as hk
from hapkit import _linalg


class TestWorst:
    @pytest.mark.parametrize("values", [
        [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]])
    @pytest.mark.parametrize("lower", [False, True])
    def test_nan_anywhere_gives_nan(self, values, lower):
        default = math.inf if lower else 0.0
        assert math.isnan(_linalg.worst(values, default, lower=lower))
        # the builtins this replaces drop a NaN that does not come first
        assert not math.isnan((min if lower else max)([default] + values))

    def test_empty_gives_default(self):
        assert _linalg.worst([]) == 0.0
        assert _linalg.worst([], math.inf, lower=True) == math.inf

    def test_extremes_and_ties(self):
        assert _linalg.worst([1.0, 3.0, 2.0]) == 3.0
        assert _linalg.worst([1.0, -3.0, 2.0], math.inf, lower=True) == -3.0
        pairs = [(1.0, "a"), (3.0, "b"), (3.0, "c"), (math.nan, "d"), (math.nan, "e")]
        key = lambda pair: pair[0]
        assert _linalg.worst(pairs[:3], (0.0, ""), key=key) == (3.0, "b")
        assert _linalg.worst(pairs, (0.0, ""), key=key)[1] == "d"
        assert _linalg.worst([(0.0, "a")], (0.0, ""), key=key) == (0.0, "")


def _table():
    return hk.make_table([("x", 1), ("y", 1), ("z", 2)])


def _inf_family():
    """[1] at the unit and an [[inf]] block at 'y' between two contractions."""
    t = _table()
    return hk.MatrixFamily(t, {t.trivial: [[1.0]], t.decode("x"): [[0.5]],
                               t.decode("y"): [[math.inf]], t.decode("z"): 0.25 * np.eye(2)})


def _inf_cocycle():
    t = _table()
    return hk.CocycleMatrices(t, {t.decode("x"): [[2.0]], t.decode("y"): [[math.inf]]})


def _huge_generator():
    """Finite and self-adjoint, but its Hermitian part overflows to inf."""
    t = _table()
    return hk.GeneratingFunctional(t, {t.decode("z"): np.full((2, 2), 1e308)})


class TestNonFiniteFailsClosed:
    @pytest.mark.parametrize("scan", [
        lambda: (False, hk.check_bounded(_inf_cocycle())),
        lambda: (False, hk.max_block_deviation(_inf_family(), hk.counit_family(_table()))),
        lambda: (lambda res: (res.ok, res.worst_norm))(hk.is_state_candidate(_inf_family())),
        lambda: tuple(hk.check_positive_blocks(_huge_generator())),
    ], ids=["check_bounded", "max_block_deviation", "is_state_candidate",
            "check_positive_blocks-1e308"])
    def test_nan_and_not_ok(self, scan):
        """Each scan gives (ok, worst value); a bare number has no ok of its own."""
        with np.errstate(all="ignore"):
            ok, value = scan()
        assert math.isnan(value) and not ok

    def test_c0_counts_a_nan_block_as_exceptional(self):
        with np.errstate(all="ignore"):
            res = hk.check_c0(_inf_family(), 0.5)
        assert [_table().encode(lab) for lab in res.exceptional] == ["1", "y"]

    def test_state_candidate_names_the_nan_block(self):
        with np.errstate(all="ignore"):
            assert hk.is_state_candidate(_inf_family()).worst_label == "y"

    @pytest.mark.parametrize("call, match", [
        (lambda: hk.damp_sequence([_inf_family()], [1]), "norm"),
        (lambda: hk.factor_from_generator(_huge_generator()), "positive semidefinite"),
        (lambda: hk.check_c0(_inf_family(), math.nan), "eps_decay"),
    ], ids=["damp_sequence", "factor_from_generator-1e308", "check_c0-nan-eps"])
    def test_raises(self, call, match):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=match):
            call()


class TestNonFiniteNorms:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_single_block_gives_nan(self, value):
        assert math.isnan(_linalg.spectral_norm(np.array([[value]], dtype=np.complex128)))

    def test_stack_keeps_the_finite_norms(self, rng):
        blocks = [rng.standard_normal((3, 3)) + 0j for _ in range(4)]
        blocks[2] = blocks[2].copy()
        blocks[2][1, 0] = math.nan
        norms = _linalg.spectral_norms(blocks)
        assert math.isnan(norms[2])
        assert [norms[i] for i in (0, 1, 3)] == [
            float(np.linalg.norm(blocks[i], 2)) for i in (0, 1, 3)]

    def test_check_symmetric_gives_nan_residual(self):
        t = _table()
        L = hk.GeneratingFunctional(t, {t.decode("y"): [[math.inf]]})
        with np.errstate(all="ignore"):
            sym = hk.check_symmetric(L)
        assert math.isnan(sym.residual) and not sym.ok
