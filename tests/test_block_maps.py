"""Stack-native block maps against the per-label oracles of ``oracles.py``.

Blocks of sides 1-5 share stacks split at 128 bytes; supports leave labels
unspecified, the trivial block among them, and entries include NaN, ±inf
and -0.0.  Every view, scan and derived map must be bitwise the per-label one,
and the symmetric, positive-blocks and epsilon-certificate verdicts must
keep the scalar rules of the oracles, as must ``certify-hap``'s c0-decay
verdict.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from hapkit import _linalg
from hapkit.fourier import DEFAULT_TOL

_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                     st.floats(-4.0, 4.0, allow_nan=False))
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])


def _bits(a) -> bytes:
    """The bytes of ``a`` with every NaN made the same NaN."""
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    flat = a.reshape(-1).view(np.float64)
    flat[np.isnan(flat)] = math.nan
    return flat.tobytes()


@st.composite
def block_maps(draw, finite=False):
    """(table, blocks): sides 1-5, a drawn support that may leave out the trivial
    label, and blocks whose entries may be NaN, ±inf or -0.0 unless ``finite``."""
    sides = draw(st.lists(st.integers(1, 5), max_size=7))
    table = hk.make_table([(f"b{i}", d) for i, d in enumerate(sides)])
    labels = draw(st.lists(st.sampled_from(table.labels), unique=True))
    blocks = {}
    for lab in sorted(labels, key=table.labels.index):
        n = table.dim(lab) ** 2
        values = draw(st.lists(_ENTRIES, min_size=2 * n, max_size=2 * n))
        if not finite and draw(st.booleans()):
            values[draw(st.integers(0, 2 * n - 1))] = draw(_SPECIAL)
        blocks[lab] = np.array(values).view(np.complex128).reshape(table.dim(lab), -1)
    return table, blocks


def _assert_same_map(got, expected):
    assert got.labels == expected.labels
    assert set(got) == set(expected.blocks)
    assert list(got.blocks) == list(expected.blocks)
    for lab, blk in expected.blocks.items():
        assert got.blocks[lab].tobytes() == blk.tobytes()
        assert not got.blocks[lab].flags.writeable
    for name in ("norms", "deviations", "residuals"):
        assert _bits(getattr(got, name)) == _bits(getattr(expected, name)), name


def _small_stacks():
    return mock.patch.object(_linalg, "STACK_BYTES", 128)


class TestMapOracle:
    @settings(max_examples=80, deadline=None)
    @given(drawn=block_maps())
    def test_views_and_scans(self, drawn):
        table, blocks = drawn
        with _small_stacks(), np.errstate(all="ignore"):
            _assert_same_map(hk.MatrixFamily(table, blocks), oracles.LabelBlockMap(table, blocks))

    @settings(max_examples=60, deadline=None)
    @given(drawn=block_maps())
    def test_generator_completes_the_trivial_block(self, drawn):
        table, blocks = drawn
        blocks.pop(table.trivial, None)
        with _small_stacks(), np.errstate(all="ignore"):
            _assert_same_map(hk.GeneratingFunctional(table, blocks),
                             oracles.LabelBlockMap(table, blocks, generator=True))

    @settings(max_examples=60, deadline=None)
    @given(drawn=block_maps(), data=st.data())
    def test_errors_match(self, drawn, data):
        """A label outside the table, or a block of the wrong side, gives the
        oracle's error type and text."""
        table, blocks = drawn
        if data.draw(st.booleans()) or not blocks:
            outside = [hk.IrrepLabel("zz"), hk.IrrepLabel("1"), hk.IrrepLabel("b0", True)]
            blocks[data.draw(st.sampled_from(outside))] = [[1.0]]
        else:
            lab = data.draw(st.sampled_from(sorted(blocks, key=table.labels.index)))
            side = data.draw(st.integers(1, 6).filter(lambda d: d != table.dim(lab)))
            blocks[lab] = np.zeros((side, side))
        with pytest.raises((KeyError, ValueError)) as expected:
            oracles.LabelBlockMap(table, blocks)
        with pytest.raises(expected.type) as got:
            hk.MatrixFamily(table, blocks)
        assert str(got.value) == str(expected.value)


class TestDerivedMapsOracle:
    @settings(max_examples=60, deadline=None)
    @given(drawn=block_maps(), t=st.sampled_from([0.0, 0.25, 1.0, 3.0]))
    def test_semigroup(self, drawn, t):
        table, blocks = drawn
        blocks.pop(table.trivial, None)
        with _small_stacks(), np.errstate(all="ignore"):
            got = hk.semigroup_at(hk.GeneratingFunctional(table, blocks), t)
            expected = oracles.label_semigroup(
                oracles.LabelBlockMap(table, blocks, generator=True), t)
        assert list(got.blocks) == list(expected)
        for lab, blk in expected.items():
            assert _bits(got.blocks[lab]) == _bits(blk)

    @settings(max_examples=60, deadline=None)
    @given(drawn=block_maps(finite=True), square=st.booleans())
    def test_factor(self, drawn, square):
        """Raw blocks mostly fail, A A* blocks pass: either way as the oracle does."""
        table, blocks = drawn
        blocks.pop(table.trivial, None)
        if square:
            blocks = {lab: blk @ blk.conj().T for lab, blk in blocks.items()}
        L = hk.GeneratingFunctional(table, blocks)
        with _small_stacks():
            expected = oracles.label_factor(oracles.LabelBlockMap(table, blocks), DEFAULT_TOL)
            if isinstance(expected, str):
                with pytest.raises(ValueError) as got:
                    hk.factor_from_generator(L)
                assert str(got.value) == expected
                return
            got = hk.factor_from_generator(L)
        assert list(got.blocks) == list(expected)
        for lab, blk in expected.items():
            assert got.blocks[lab].tobytes() == blk.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(drawn=block_maps(), M=st.sampled_from([1e-3, 1.0, 4.0]),
           eps=st.sampled_from([1e-3, 0.5, 0.99]), hermitian=st.booleans())
    def test_proper_cocycle(self, drawn, M, eps, hermitian):
        """Every c0 and properness scan as the oracle's: the verdicts of
        ``check_c0`` on the drawn blocks and of ``check_proper_cocycle`` on them
        without the trivial one, the same PASS flag, witness labels and value
        bits; and the exceptional (label, low) pairs of ``L.lows`` on those or,
        if ``hermitian``, on each b + b*, with the same value bits and
        unspecified labels, or a failed ``symmetric`` check where properness
        is undefined."""
        table, blocks = drawn
        nontrivial = {lab: blk for lab, blk in blocks.items() if lab != table.trivial}
        with _small_stacks(), np.errstate(all="ignore"):
            generator = ({lab: blk + blk.conj().T for lab, blk in nontrivial.items()}
                         if hermitian else nontrivial)
            for scan, B, level, (passed, witnesses) in [
                    (hk.check_c0, hk.MatrixFamily(table, blocks), eps,
                     oracles.label_c0(table, blocks, eps)),
                    (hk.check_proper_cocycle, hk.CocycleMatrices(table, nontrivial), M,
                     oracles.label_proper_cocycle(table, nontrivial, M))]:
                got = scan(B, level)
                assert got.passed == passed
                assert [(w.label, w.context) for w in got.witnesses] == [
                    (label, context) for label, _, _, context in witnesses]
                assert all(type(w.achieved) is float for w in got.witnesses)
                assert _bits([(w.achieved, w.threshold) for w in got.witnesses]) == _bits(
                    [(achieved, threshold) for _, achieved, threshold, _ in witnesses])
            L, expected = (hk.GeneratingFunctional(table, generator),
                           oracles.label_proper(table, generator, M))
            assert hk.check_symmetric(L).passed == (expected is not None)
            if expected is not None:
                got = oracles.exceptional(L, L.lows, L.lows >= M)
                assert tuple(lab for lab, _ in got) == tuple(lab for lab, _ in expected[0])
                assert _bits([low for _, low in got]) == _bits([low for _, low in expected[0]])
                assert tuple(lab for lab in table.labels if lab not in L) == expected[1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_build_from_states(self, data, n):
        """Blocks, first_certified and f_sets are the per-label oracle's, bit for
        bit; both sum with Python's ``sum``, which starts from the integer 0."""
        table, _ = data.draw(block_maps())
        states = []
        for _ in range(n):
            blocks = {}
            for lab in table.labels[1:]:
                if data.draw(st.booleans()):
                    d = table.dim(lab)
                    blocks[lab] = np.array(data.draw(st.lists(
                        _ENTRIES | _SPECIAL, min_size=2 * d * d, max_size=2 * d * d))).view(
                        np.complex128).reshape(d, d)
            blocks[table.trivial] = np.ones((1, 1), dtype=np.complex128)
            states.append(blocks)
        betas, eps = hk.default_schedule(n)
        with _small_stacks(), np.errstate(all="ignore"):
            L, report = hk.build_from_states([hk.MatrixFamily(table, b, normalized=True)
                                              for b in states])
            blocks, first, f_sets = oracles.label_build_from_states(table, states, betas, eps)
        assert list(L.blocks) == [table.trivial, *blocks]
        for lab, blk in blocks.items():
            assert _bits(L.blocks[lab]) == _bits(blk)
        assert dict(report.first_certified) == first
        assert report.f_sets == f_sets


_TOLS = st.sampled_from([0.0, 1e-9, -1e-9, -1.0])
# a residual of 4.45e-309 beside the trivial 0: their slacks a - 1e-9 round
# to one value, so only the achieved values themselves rank the two rows
_SUBNORMAL = hk.make_table([("b0", 1)])
_SUBNORMAL_BLOCKS = {_SUBNORMAL.labels[1]: np.array([[-2.2250738585072014e-309j]])}


@st.composite
def _generators(draw):
    """(table, blocks) of a generating functional: no trivial block, and on two
    draws in three every block Hermitian, B + B* or B B*, so that the
    positivity scan runs on indefinite and on semidefinite blocks."""
    table, blocks = draw(block_maps())
    blocks.pop(table.trivial, None)
    make = draw(st.sampled_from([lambda b: b, lambda b: b + b.conj().T,
                                 lambda b: b @ b.conj().T]))
    with np.errstate(all="ignore"):
        return table, {lab: make(b) for lab, b in blocks.items()}


def _assert_rule(verdict, rule, table, value=lambda v: v):
    """``verdict`` keeps the oracle's ``rule``: its pass or fail; a FAIL's
    witnesses are exactly the failing rows, a PASS's the extreme row, each
    with ``value`` of the oracle's number, bit for bit."""
    passed, failing, extreme = rule
    assert verdict.passed == passed
    rows = failing if not passed else [extreme] if extreme else []
    assert [w.label for w in verdict.witnesses] == [lab if lab == "*" else table.encode(lab)
                                                    for lab, _ in rows]
    assert _bits([w.achieved for w in verdict.witnesses]) == _bits(
        [value(v) for _, v in rows])


class TestVerdictsKeepTheScalarRules:
    """``check_symmetric``, ``check_positive_blocks`` and ``buildgen``'s
    epsilon certificate decide as the scalar rules of ``oracles.py`` do, over
    non-Hermitian, negative, NaN and infinite blocks and tolerances down to
    negative ones."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(drawn=_generators(), tol=_TOLS)
    @example(drawn=(_SUBNORMAL, _SUBNORMAL_BLOCKS), tol=1e-9)
    def test_symmetric_and_positive_blocks(self, drawn, tol):
        table, blocks = drawn
        with _small_stacks(), np.errstate(all="ignore"):
            L = hk.GeneratingFunctional(table, blocks)
            ref = oracles.LabelBlockMap(table, blocks, generator=True)
            sym = oracles.symmetric_rule(ref, tol)
            _assert_rule(hk.check_symmetric(L, tol), sym, table)
            if not sym[0]:
                worst = max(ref.residuals.tolist(), key=lambda x: (math.isnan(x), x))
                with pytest.raises(ValueError) as err:
                    hk.check_positive_blocks(L, tol)
                assert str(err.value) == ("positivity check needs symmetric blocks "
                                          f"(Hermitian residual {worst:g})")
                return
            _assert_rule(hk.check_positive_blocks(L, tol), oracles.positive_rule(ref, tol),
                         table, lambda low: 0.0 - low)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_epsilon_certificate(self, data, n):
        """Blocks I + s * B with s in {0, 1e-4, 1}, so that labels are certified
        as well as flagged; a state lacks a label's block one time in eight,
        and a block has a NaN or infinite entry one time in eight."""
        table, _ = data.draw(block_maps())
        states = []
        for _ in range(n):
            blocks = {table.trivial: np.ones((1, 1), dtype=np.complex128)}
            for lab in table.labels[1:]:
                if data.draw(st.integers(0, 7)):
                    d = table.dim(lab)
                    b = np.array(data.draw(st.lists(
                        _ENTRIES, min_size=2 * d * d, max_size=2 * d * d))).view(
                        np.complex128).reshape(d, d)
                    if not data.draw(st.integers(0, 7)):
                        b[0, 0] = data.draw(_SPECIAL)
                    with np.errstate(all="ignore"):
                        blocks[lab] = np.eye(d) + data.draw(st.sampled_from([0.0, 1e-4, 1.0])) * b
            states.append(blocks)
        _, eps = hk.default_schedule(n)
        with _small_stacks(), np.errstate(all="ignore"):
            report, _ = hk.genfun.buildgen_report(
                [hk.MatrixFamily(table, b, normalized=True) for b in states], None, None,
                "sha256:")
            _assert_rule(report.conditions[0], oracles.epsilon_rule(table, states, eps), table)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 3), eps=st.sampled_from([0.25, 0.5, 0.9]))
    def test_c0_decay(self, data, n, eps):
        """Tables of sides 1-3, trivial-only ones included; a family lacks blocks
        one time in three, and its blocks are eps * I (norm at eps), small, drawn
        or with a NaN entry.  Same ``passed`` and witnesses as ``c0_rule``."""
        sides = data.draw(st.lists(st.integers(1, 3), max_size=4))
        table = hk.make_table([(f"b{i}", d) for i, d in enumerate(sides)])
        seq = []
        for _ in range(n):
            gaps = not data.draw(st.integers(0, 2))
            blocks = {}
            for lab in table.labels:
                d = table.dim(lab)
                kind = data.draw(st.sampled_from(["gap", "eps", "small", "drawn", "nan"]
                                                 if gaps else ["eps", "small", "drawn", "nan"]))
                if kind == "gap":
                    continue
                b = np.array(data.draw(st.lists(_ENTRIES, min_size=2 * d * d, max_size=2 * d * d))
                             ).view(np.complex128).reshape(d, d)
                if kind == "nan":
                    b[0, -1] = math.nan
                blocks[lab] = {"eps": eps * np.eye(d), "small": b / 64}.get(kind, b)
            seq.append(blocks)
        with _small_stacks(), np.errstate(all="ignore"):
            report = hk.check_hap_sequence([hk.MatrixFamily(table, b) for b in seq], eps,
                                           [1.0] * n)
            norms = [[oracles.block_norms([b[lab]])[0] if lab in b else None
                      for lab in table.labels] for b in seq]
        c0 = report.conditions[0]
        assert c0.name == "c0-decay"
        assert (c0.passed, tuple((w.label, w.achieved, w.threshold, w.context)
                                 for w in c0.witnesses)) == oracles.c0_rule(
            [table.encode(lab) for lab in table.labels], norms, eps,
            [f"family #{i}" for i in range(n)])


class TestAdoption:
    """A map made from a block map over an equal table takes its stacks and index
    arrays as they are: nothing is copied, frozen again or sorted again."""

    @pytest.mark.parametrize("cls", [hk.MatrixFamily, hk.GeneratingFunctional,
                                     hk.CocycleMatrices])
    def test_rebuilt_map_shares_the_source_arrays(self, cls):
        def table():
            return hk.make_table([("a", 2), ("b", 1), ("c", 2)])

        source_table = table()
        blocks = {source_table.decode("a"): np.eye(2), source_table.decode("b"): [[0.5]],
                  source_table.decode("c"): 2 * np.eye(2)}
        if cls is hk.MatrixFamily:
            blocks[source_table.trivial] = [[1.0]]
        source = cls(source_table, blocks)  # a generator's zero trivial block is now present
        equal = table()
        assert equal == source_table and equal is not source_table
        with mock.patch.object(_linalg, "freeze", side_effect=AssertionError("frozen again")), \
                mock.patch.object(np, "sort", side_effect=AssertionError("sorted again")):
            rebuilt = cls(equal, source)
        assert rebuilt.blocks is rebuilt
        assert rebuilt.stacks.keys() == source.stacks.keys()
        assert all(np.shares_memory(rebuilt.stacks[d], stack)
                   for d, stack in source.stacks.items())
        assert rebuilt.rows is source.rows and rebuilt.positions is source.positions
        assert list(rebuilt) == list(source)
