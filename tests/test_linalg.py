"""The stacked scans behind every per-label check, and the checks themselves."""

import ast
import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from conftest import REPO_ROOT, sup_norm
from hapkit import _linalg


def test_import_leaves_scipy_unloaded():
    code = "import sys, hapkit; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         cwd=REPO_ROOT)
    assert res.stdout.strip() == b"False"


@st.composite
def poisoned_blocks(draw, general=False):
    """Complex blocks of sides 1-5, and one of them with a NaN or infinite
    entry at a drawn position: (clean, poisoned, its index).  The blocks are
    Hermitian PSD of norm 1/2 unless ``general``."""
    sides = draw(st.lists(st.integers(1, 5), min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clean = []
    for d in sides:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = a @ a.conj().T
        clean.append(a if general else 0.5 * _linalg.hermitize(g) / np.linalg.norm(g, 2))
    bad = draw(st.integers(0, len(sides) - 1))
    row, col = (draw(st.integers(0, sides[bad] - 1)) for _ in range(2))
    poisoned = list(clean)
    poisoned[bad] = clean[bad].copy()
    poisoned[bad][row, col] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return clean, poisoned, bad


def _by_side(blocks):
    """One stack per side of ``blocks``, and where each block went: (stacks, [(side, row)])."""
    stacks, where = {}, []
    for blk in blocks:
        rows = stacks.setdefault(blk.shape[0], [])
        where.append((blk.shape[0], len(rows)))
        rows.append(blk)
    return {d: np.stack(rows) for d, rows in stacks.items()}, where


def _per_block(scan, blocks, *args, **kwargs) -> np.ndarray:
    """``scan`` over each side's stack of ``blocks``, its values back in block order."""
    stacks, where = _by_side(blocks)
    values = {d: scan(stack, *args, **kwargs) for d, stack in stacks.items()}
    return np.array([values[d][r] for d, r in where])


class TestStackedScans:
    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(poisoned_blocks), st.booleans())
    def test_equal_to_one_numpy_call_per_block(self, drawn, real):
        """Chunks split at 128 bytes; every value is the per-block one, bitwise."""
        _, blocks, bad = drawn
        if real:
            blocks = [blk.real + 0j for blk in blocks]
        with mock.patch.object(_linalg, "STACK_BYTES", 128):
            got = {"norms": _per_block(_linalg.spectral_norms, blocks),
                   "deviations": _per_block(_linalg.spectral_norms, blocks, minus_identity=True),
                   "min-eigenvalues": _per_block(_linalg.min_eigenvalues, blocks)}
        expected = {"norms": oracles.block_norms(blocks),
                    "deviations": oracles.block_norms(blocks, minus_identity=True),
                    "min-eigenvalues": oracles.block_min_eigenvalues(blocks)}
        for name, values in got.items():
            assert np.flatnonzero(np.isnan(values)).tolist() == [bad], name
            assert [v for i, v in enumerate(values.tolist()) if i != bad] == [
                v for i, v in enumerate(expected[name]) if i != bad], name


class TestHermitianCalculus:
    @settings(max_examples=60, deadline=None)
    @given(poisoned_blocks(), poisoned_blocks(general=True), st.floats(0.0, 3.0))
    def test_equal_to_the_per_block_oracle(self, hermitian, general, t):
        """Hermitian and general blocks share stacks split at 128 bytes; every
        exponential and root, read off one ``hermitian_eigh`` per stack, is the
        per-block one, bitwise, and the root of the non-finite block is NaN."""
        _, poisoned, bad = hermitian
        blocks = poisoned + general[0]
        stacks, where = _by_side(blocks)
        with mock.patch.object(_linalg, "STACK_BYTES", 128), np.errstate(all="ignore"):
            spectra = {d: _linalg.hermitian_eigh(s) for d, s in stacks.items()}
            hermitian = {d: _linalg.adjoint_residuals(s)
                         <= 1e-12 * np.maximum(1.0, _linalg.spectral_norms(s))
                         for d, s in stacks.items()}
            got = [_linalg.expm_neg(stacks, t, {d: (hermitian[d], *spectra[d]) for d in stacks}),
                   _linalg.psd_sqrt(spectra)]
            got = [[values[d][r] for d, r in where] for values in got]
            expected = oracles.block_expm_neg(blocks, t), oracles.block_psd_sqrt(blocks)
        for name, values, oracle in zip(["expm_neg", "roots"], got, expected):
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(values, oracle)), name
        assert [i for i, root in enumerate(got[1]) if np.isnan(root).any()] == [bad]

    @settings(max_examples=40, deadline=None)
    @given(drawn=poisoned_blocks())
    def test_factor_names_the_non_finite_block(self, drawn):
        _, poisoned, bad = drawn
        L = hk.GeneratingFunctional(*_scan_inputs(poisoned))
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=f"^block 'b{bad:02d}': .* eigenvalue nan$"):
            hk.factor_from_generator(L)


def _linalg_calls(path):
    """(function, dotted name) of every numpy.linalg or scipy call and import in ``path``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        names = []
        if isinstance(node, ast.Call):
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name):
                names.append(".".join([func.id, *reversed(parts)]))
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        found.extend((scope, name) for name in names
                     if name.split(".")[:2] in (["np", "linalg"], ["numpy", "linalg"])
                     or name.split(".")[0] == "scipy")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_linear_algebra_runs_only_in_linalg():
    """One numerics path: no module but ``_linalg`` makes a LAPACK call."""
    calls = {path.name: _linalg_calls(path)
             for path in sorted((REPO_ROOT / "src" / "hapkit").glob("*.py"))
             if path.name != "_linalg.py"}
    assert {name: found for name, found in calls.items() if found} == {}


def _scan_inputs(blocks):
    """A table with one label per block, and the blocks keyed by its labels."""
    table = hk.make_table([(f"b{i:02d}", blk.shape[0]) for i, blk in enumerate(blocks)])
    return table, dict(zip(table.labels[1:], blocks))


def _at_most_one(value):
    return value <= 1.0, value


def _passed_and_largest(verdict):
    """(passed, largest witness value): the worst row's value, NaN if any row's is."""
    return verdict.passed, float(np.max([w.achieved for w in verdict.witnesses]))


def _deviation_from_counit(F) -> float:
    """F's distance from the counit over its own labels: the largest ||F^a - I||."""
    return float(np.max(F.deviations, initial=0.0))


# each scan gives (ok, worst value); a bare number is ok when it is at most 1
_SCANS = {
    "check_symmetric": lambda t, b: _passed_and_largest(
        hk.check_symmetric(hk.GeneratingFunctional(t, b))),
    "check_bounded": lambda t, b: _at_most_one(sup_norm(hk.CocycleMatrices(t, b))),
    "max_block_deviation": lambda t, b: _at_most_one(
        _deviation_from_counit(hk.MatrixFamily(t, b))),
}


class TestNonFiniteEntryNeverPasses:
    """One NaN or infinite entry among finite blocks of mixed sides, anywhere."""

    @pytest.mark.parametrize("scan", sorted(_SCANS))
    @settings(max_examples=40, deadline=None)
    @given(drawn=poisoned_blocks())
    def test_worst_is_nan_and_not_ok(self, scan, drawn):
        clean, poisoned, _ = drawn
        ok, value = _SCANS[scan](*_scan_inputs(clean))
        assert ok and not math.isnan(value)
        with np.errstate(all="ignore"):
            ok, value = _SCANS[scan](*_scan_inputs(poisoned))
        assert math.isnan(value) and not ok

    @settings(max_examples=40, deadline=None)
    @given(drawn=poisoned_blocks())
    def test_properness_scans_fail_closed(self, drawn):
        """The cocycle scan lists the block as exceptional at NaN; the
        generator scans refuse it, since its Hermitian residual is NaN."""
        _, poisoned, bad = drawn
        t, blocks = _scan_inputs(poisoned)
        label = t.labels[bad + 1]
        with np.errstate(all="ignore"):
            res = hk.check_proper_cocycle(hk.CocycleMatrices(t, blocks), 1e-3)
            assert math.isnan(dict(res.exceptional)[label])
            L = hk.GeneratingFunctional(t, blocks)
            for scan in (lambda: hk.check_positive_blocks(L), lambda: hk.check_proper(L, 1.0)):
                with pytest.raises(ValueError, match="residual nan"):
                    scan()




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
        lambda: (False, sup_norm(_inf_cocycle())),
        lambda: (False, _deviation_from_counit(_inf_family())),
        lambda: _passed_and_largest(hk.check_positive_blocks(_huge_generator())),
    ], ids=["check_bounded", "max_block_deviation",
            "check_positive_blocks-1e308"])
    def test_nan_and_not_ok(self, scan):
        """Each scan gives (ok, worst value); a bare number has no ok of its own."""
        with np.errstate(all="ignore"):
            ok, value = scan()
        assert math.isnan(value) and not ok

    def test_c0_counts_a_nan_block_as_exceptional(self):
        with np.errstate(all="ignore"):
            res = hk.check_c0(_inf_family(), 0.5)
        assert [_table().encode(lab) for lab in res.exceptional_labels] == ["1", "y"]

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
        norms = _linalg.spectral_norms(np.stack(blocks))
        assert math.isnan(norms[2])
        assert [norms[i] for i in (0, 1, 3)] == [
            float(np.linalg.norm(blocks[i], 2)) for i in (0, 1, 3)]

    def test_check_symmetric_gives_nan_residual(self):
        t = _table()
        L = hk.GeneratingFunctional(t, {t.decode("y"): [[math.inf]]})
        with np.errstate(all="ignore"):
            sym = hk.check_symmetric(L)
        assert [(w.label, math.isnan(w.achieved)) for w in sym.witnesses] == [("y", True)]
        assert not sym.passed


def test_gram_eigen_scan_copies_the_gram_at_most_once():
    """The only block of its side is not stacked, and the Hermitian part takes
    one temporary: the scan adds at most about one Gram to the peak."""
    gram = hk.length_gram(hk.GroupSpec((3, 4)), 0.5, 7)
    tracemalloc.start()
    try:
        values = _linalg.min_eigenvalues(gram[np.newaxis])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * gram.nbytes
    assert values[:1].tobytes() == np.linalg.eigvalsh(gram)[:1].tobytes()


def test_hermitize_leaves_its_argument_alone(rng):
    for a in (rng.standard_normal((3, 4, 4)), rng.standard_normal((4, 4)) + 1j):
        before = a.copy()
        h = _linalg.hermitize(a)
        assert np.array_equal(a, before)
        assert h.tobytes() == ((before + np.swapaxes(before.conj(), -1, -2)) / 2.0).tobytes()
