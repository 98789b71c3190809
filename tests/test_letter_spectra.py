"""Free-product verdicts read from the letters' eigenvalues.

``freeprod_hap_pipeline`` estimates every word's ||W|| and ||W - I|| from its
letters and forms a word block only when the margin cannot settle a row or
the report shows it.  These tests pin its reports to the formed-block oracle
(``oracles.freeprod_report``), bound the estimates' gap to the formed blocks'
SVD by an eighth of the margin, and check the paper's last theorem at
truncation on drawn damped factors.
"""

import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapkit as hk
import oracles
from conftest import FIXTURES, random_hermitian, run_cli
from hapkit import _linalg, cfree

DIGEST = "sha256:test"
LETTER_KINDS = ("hermitian", "unit", "repeat", "general", "complex", "nan")


def letter(rng, kind, d, previous):
    """One letter block of side ``d`` of the drawn ``kind``."""
    if kind == "repeat" and d in previous:
        return previous[d]  # equal letters: their words tie in exact arithmetic
    if kind == "unit":  # norm exactly 1: words tie with their thresholds up to rounding
        return np.diag(rng.choice([-1.0, 1.0], d)).astype(complex)
    if kind == "general":
        return 0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    if kind == "complex" and d == 1:
        return np.array([[rng.uniform(0.2, 0.9) * np.exp(1j * rng.uniform(0.1, 3.0))]])
    blk = random_hermitian(rng, d, float(rng.uniform(0.2, 1.0)))
    if kind == "nan":
        blk[rng.integers(d), rng.integers(d)] = math.nan
    return blk


def stages_of(rng, table, kinds, n_stages):
    families = []
    for _ in range(n_stages):
        previous, blocks = {}, {table.trivial: [[1.0]]}
        for lab, kind in zip(table.nontrivial_labels, kinds):
            d = table.dim(lab)
            blocks[lab] = previous[d] = letter(rng, kind, d, previous)
        families.append(hk.MatrixFamily(table, blocks, normalized=True))
    return families


def near(target, mode):
    """A float at ``target`` or one ulp either side."""
    return {"at": target, "below": np.nextafter(target, -math.inf),
            "above": np.nextafter(target, math.inf)}[mode] if math.isfinite(target) else target


def tol_hitting(target, base):
    """A tol with base + tol == target when one is found near target - base."""
    tol = target - base
    for _ in range(8):
        got = base + tol
        if got == target:
            break
        tol = np.nextafter(tol, math.inf if got < target else -math.inf)
    return float(tol)


@st.composite
def freeprod_case(draw):
    """Two factors (letter sides 1-3), words up to length 3, 1-3 stages, and
    thresholds at a formed word value or one ulp away from it."""
    def table(prefix):
        dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        return hk.make_table([(f"{prefix}{i}", d) for i, d in enumerate(dims)])
    t1, t2 = table("a"), table("b")
    wp = hk.free_product_table(t1, t2, draw(st.integers(1, 3)))
    n_stages = draw(st.integers(1, 3))
    kinds = [draw(st.lists(st.sampled_from(LETTER_KINDS), min_size=3, max_size=3))
             for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq1 = stages_of(rng, t1, kinds[0], n_stages)
    seq2 = stages_of(rng, t2, kinds[1], n_stages)
    k_values = draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=n_stages,
                             max_size=n_stages))
    words = [w for w, _ in wp]
    norms, deviations = [], []
    for F1, F2 in zip(seq1, seq2):
        blocks = oracles.kron_word_blocks(F1, F2, wp)
        blocks[wp.trivial] = np.ones((1, 1), dtype=complex)
        norms.append(oracles.block_norms([blocks[w] for w in words]))
        deviations.append(oracles.block_norms([blocks[w] for w in words], minus_identity=True))
    mode = st.sampled_from(["at", "below", "above"])
    pick = st.integers(0, len(words) - 1)

    i, j = draw(st.integers(0, n_stages - 1)), draw(pick)
    if len(words[j]) and math.isfinite(norms[i][j]):
        base = math.exp(-len(words[j]) / k_values[i])
        tol = tol_hitting(near(norms[i][j], draw(mode)), base)
    else:
        tol = draw(st.sampled_from([0.0, 1e-9]))
    if draw(st.booleans()):
        conv_tols = [near(stage[draw(pick)], draw(mode)) for stage in deviations]
    else:
        conv_tols = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.nan]),
                                  min_size=n_stages, max_size=n_stages))
    inside = sorted({n for stage in norms for n in stage if 0 < n < 1})
    eps = near(draw(st.sampled_from(inside)), draw(mode)) if inside else 0.5
    eps = eps if 0 < eps < 1 else 0.5
    return seq1, seq2, wp, eps, conv_tols, k_values, tol


def assert_same_report(seq1, seq2, wp, eps, conv_tols, k_values, tol):
    want = oracles.freeprod_report(seq1, seq2, wp, eps, conv_tols, k_values, tol, DIGEST)
    got = hk.freeprod_hap_pipeline(seq1, seq2, wp, eps, conv_tols, k_values, tol=tol,
                                   input_digest=DIGEST)
    assert got.to_text() == want.to_text()
    assert json.dumps(got.to_obj()) == json.dumps(want.to_obj())


class TestOracleParity:
    """Every report byte equals the formed-block oracle's."""

    @settings(max_examples=150, deadline=None)
    @given(freeprod_case())
    def test_reports_match_formed_blocks(self, case):
        assert_same_report(*case)

    @pytest.mark.parametrize("seed", range(6))
    def test_hermitian_letters_at_ulp_thresholds(self, seed):
        # every threshold of a stage sits at, or one ulp off, a formed value; eps_decay
        # at a non-scalar word's norm makes c0-decay settle that row on its formed block
        rng = np.random.default_rng(seed)
        t1, t2 = hk.make_table([("a", 2), ("b", 3)]), hk.make_table([("c", 2), ("d", 1)])
        wp = hk.free_product_table(t1, t2, 3)
        seq1 = stages_of(rng, t1, ["hermitian", "unit"], 2)
        seq2 = stages_of(rng, t2, ["hermitian", "hermitian"], 2)
        formed = hk.cfree_state(seq1[1], seq2[1], wp)
        for j in range(1, len(wp), 7):
            for mode in ("at", "below", "above"):
                dev = near(formed.deviations[j], mode)
                base = math.exp(-len(wp.labels[j]) / 2)
                tol = tol_hitting(near(formed.norms[j], mode), base)
                eps = near(formed.norms[j], mode) if wp.dims[j] > 1 else 0.5
                eps = eps if 0 < eps < 1 else 0.5
                assert_same_report(seq1, seq2, wp, eps, [dev, dev], [1, 2], tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_worst_rows_far_from_thresholds(self, seed):
        # passing conditions report their worst row, which no margin brings near its threshold
        rng = np.random.default_rng(seed)
        t1, t2 = hk.make_table([("a", 2), ("b", 3)]), hk.make_table([("c", 2), ("d", 3)])
        wp = hk.free_product_table(t1, t2, 3)
        seq1 = stages_of(rng, t1, ["hermitian", "hermitian"], 2)
        seq2 = stages_of(rng, t2, ["hermitian", "repeat"], 2)
        assert_same_report(seq1, seq2, wp, 0.5, [3.0, 3.0], [1, 2], 1.0)

    def test_zz_fixture_at_zero_tol(self):
        # in exact arithmetic these words meet exp(-l/k) with equality
        config = json.loads((FIXTURES / "freeprod_zz.json").read_text())
        L = hk.length_functional(hk.parse_group("Z"), 3)
        ks = config["k_values"]
        seq = [hk.semigroup_at(L, 1.0 / k) for k in ks]
        wp = hk.free_product_table(L.table, L.table, config["max_word_length"])
        assert_same_report(seq, seq, wp, config["eps_decay"], config["conv_tols"], ks, 0.0)
        res = run_cli("freeprod", FIXTURES / "freeprod_zz.json", "--tol", "0")
        want = oracles.freeprod_report(seq, seq, wp, config["eps_decay"], config["conv_tols"],
                                       ks, 0.0, DIGEST)
        assert res.returncode == 1
        assert res.stdout.decode().split("\n", 2)[2] == want.to_text().split("\n", 2)[2]


@st.composite
def hermitian_word(draw):
    """Hermitian letters of sides 1-5 and norms up to 2, up to 4 of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    letters = []
    for d in sides:
        norm = draw(st.sampled_from([1.0, 2.0, float(rng.uniform(0.0, 2.0))]))
        letters.append(random_hermitian(rng, d, norm))
    return letters


class TestMargin:
    @settings(max_examples=100, deadline=None)
    @given(hermitian_word())
    def test_estimates_stay_well_inside_the_margin(self, letters):
        # letters alternate between the factors, so one word uses them all in order
        names = [f"x{j}" for j in range(len(letters))]
        tables, families = [], []
        for fi in (0, 1):
            mine = {name: a for name, a in zip(names[fi::2], letters[fi::2])} or {"y": [[1.0]]}
            table = hk.make_table([(name, len(a)) for name, a in mine.items()])
            tables.append(table)
            families.append(hk.MatrixFamily(table, {table.trivial: [[1.0]], **{
                table.decode(name): a for name, a in mine.items()}}))
        wp = hk.free_product_table(*tables, len(letters))
        at = wp.labels.index(wp.decode("|".join(f"{j % 2 + 1}:{n}" for j, n in enumerate(names))))
        values = cfree._WordValues(*([F] for F in families), wp)
        word = reduce(np.kron, letters)
        norm, deviation = oracles.block_norms([word]) + oracles.block_norms([word], True)
        assert abs(values.norms[at] - norm) <= values.margins[at] / 8
        assert abs(values.deviations[at] - deviation) <= values.margins[at] / 8


class TestAllStages:
    """One ``_WordValues`` holds every stage of a pipeline, stage-major."""

    def test_stage_rows_match_one_stage_objects(self):
        rng = np.random.default_rng(3)
        t1, t2 = hk.make_table([("a", 1), ("b", 3)]), hk.make_table([("c", 2), ("d", 3)])
        wp = hk.free_product_table(t1, t2, 3)
        seq1 = stages_of(rng, t1, ["hermitian", "hermitian"], 3)
        seq2 = stages_of(rng, t2, ["hermitian", "hermitian"], 3)
        values, n = cfree._WordValues(seq1, seq2, wp), len(wp)
        mixed = rng.permutation(3 * n)  # rows of every stage, in no order
        for minus_identity in (False, True):
            exact = np.empty(3 * n)
            exact[mixed] = values.exact(mixed, minus_identity)
            for s, (F1, F2) in enumerate(zip(seq1, seq2)):
                rows = slice(s * n, (s + 1) * n)
                one = cfree._WordValues([F1], [F2], wp)
                for name in ("norms", "deviations", "margins"):
                    assert getattr(values, name)[rows].tobytes() == getattr(one, name).tobytes()
                formed = hk.cfree_state(F1, F2, wp).blocks
                want = [_linalg.spectral_norms(formed.at(j)[np.newaxis], minus_identity)[0]
                        for j in range(n)]
                assert exact[rows].tolist() == want


# eigenvalues whose products overflow (1e200), underflow (1e-200) or vanish (0, -0)
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e200, -1e200, 1e-200, -1e-200, 1e300)


@st.composite
def extreme_letter(draw, d):
    """A letter of side ``d``: diagonal with drawn (often extreme) eigenvalues, a
    dense Hermitian block, one that is not Hermitian or not finite (NaN
    eigenvalues), or one whose eigenvalues are 0 and inf."""
    kind = draw(st.sampled_from(["diagonal", "dense", "nan", "inf"]))
    if kind == "diagonal" or (kind == "inf" and d == 1):
        values = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(-3, 3), min_size=d, max_size=d))
        return np.diag(values).astype(complex)
    if kind == "inf":  # finite, with eigenvalues 0 and +-inf
        return np.pad(np.full((2, 2), draw(st.sampled_from([1e308, -1e308]))), (0, d - 2)) + 0j
    if kind == "dense":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_hermitian(rng, d, draw(st.sampled_from([0.5, 1.0, 1e200])))
    blk = np.zeros((d, d), dtype=complex)
    blk[0, -1] = draw(st.sampled_from([1.0, math.inf]))  # not Hermitian, or not finite
    return blk


@st.composite
def extreme_stages(draw):
    """Factors of 1-2 letters of sides 1-3, 1-3 stages of extreme letters, and a
    word table of length 0-6."""
    tables = [hk.make_table([(f"{prefix}{i}", d) for i, d in enumerate(
        draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))]) for prefix in "ab"]
    n_stages = draw(st.integers(1, 3))
    seqs = [[hk.MatrixFamily(t, {t.trivial: [[1.0]], **{
        lab: draw(extreme_letter(t.dim(lab))) for lab in t.nontrivial_labels}}, normalized=True)
        for _ in range(n_stages)] for t in tables]
    return seqs[0], seqs[1], hk.free_product_table(*tables, draw(st.integers(0, 6)))


class TestGroupLoopOracle:
    """The estimates from each letter's extreme eigenvalues equal, bit for bit,
    those of the loop over word groups that multiplied out every product."""

    @staticmethod
    def assert_bitwise(seq1, seq2, wp):
        values = cfree._WordValues(seq1, seq2, wp)
        want = oracles.group_word_values(seq1, seq2, wp)
        for name, expected in zip(("norms", "deviations", "margins"), want):
            got = getattr(values, name)
            assert got.tobytes() == expected.tobytes(), (name, got, expected)

    @settings(max_examples=150, deadline=None)
    @given(extreme_stages())
    def test_estimates_equal_the_group_loop_bitwise(self, drawn):
        self.assert_bitwise(*drawn)

    @pytest.mark.parametrize("letters1, letters2", [
        ([[-1.0, 0.0, 1.0]], [[[1e308, 1e308], [1e308, 1e308]]]),  # a zero inside, then inf
        ([[-1e200, 0.0, 1e200]], [[-1.0, 0.0, 1.0]]),  # overflow, then a zero inside
        ([[-1e-200, 1.0, 1e-200], [[1.7e308, 1e308], [1e308, 1.7e308]]],
         [[1e-200, 1.0]]),  # a product underflows to 0 inside, then a letter (not 0) has inf
    ])
    def test_nan_from_inside_the_products(self, letters1, letters2):
        # inf * 0 among the products but at none of their ends: NaN all the same
        seqs = []
        for prefix, letters in (("a", letters1), ("b", letters2)):
            blocks = [np.diag(x) if np.ndim(x) == 1 else np.array(x) for x in letters]
            t = hk.make_table([(f"{prefix}{i}", len(b)) for i, b in enumerate(blocks)])
            seqs.append([hk.MatrixFamily(t, {t.trivial: [[1.0]], **dict(
                zip(t.nontrivial_labels, blocks))}, normalized=True)])
        wp = hk.free_product_table(seqs[0][0].table, seqs[1][0].table, 4)
        assert np.isnan(cfree._WordValues(*seqs, wp).deviations).any()
        self.assert_bitwise(*seqs, wp)

    def test_every_nan_is_np_nan(self):
        # in 2:b1|1:a0|2:b0, 0 * inf gives the hardware's NaN and then meets
        # b0's NaN: numpy's in-place and out-of-place loops kept different signs
        t1, t2 = hk.make_table([("a0", 2)]), hk.make_table([("b0", 2), ("b1", 2)])
        odd = np.array([[0, 1], [0, 0]], dtype=complex)  # not Hermitian: NaN eigenvalues
        seqs = [[hk.MatrixFamily(t, {t.trivial: [[1.0]], **dict(zip(t.nontrivial_labels, blocks))},
                                 normalized=True)] * 3
                for t, blocks in ((t1, [np.zeros((2, 2))]), (t2, [odd, np.full((2, 2), 1e308)]))]
        wp = hk.free_product_table(t1, t2, 3)
        values = cfree._WordValues(*seqs, wp)
        for name in ("norms", "deviations", "margins"):
            got = getattr(values, name)
            assert got[np.isnan(got)].tobytes() == np.full(np.isnan(got).sum(), np.nan).tobytes()
        assert np.isnan(values.norms[wp.labels.index(wp.decode("2:b1|1:a0|2:b0"))])
        self.assert_bitwise(*seqs, wp)


class TestMarginArithmetic:
    """A margin is 32 l (D + sum d_j) u max(1, prod ||A_j||) with the integer
    rounded once to float64, however large the word's side D."""

    @pytest.mark.parametrize("side, length", [(500, 6), (100, 9), (10, 19)])
    def test_huge_sides_round_once(self, side, length):
        # 500**6 > 2**53; 32 * 9 * 100**9 wraps int64; 10**19 is past int64 itself
        rng = np.random.default_rng(side)
        tables = [hk.make_table([(name, side)]) for name in "ab"]
        seqs = [[hk.MatrixFamily(t, {t.trivial: [[1.0]], t.nontrivial_labels[0]:
                                     random_hermitian(rng, side, 2.0)}, normalized=True)]
                for t in tables]
        wp = hk.free_product_table(*tables, length)
        values = cfree._WordValues(*seqs, wp)  # estimates only: no block of side 100**9 is formed
        unit = np.finfo(np.float64).eps / 2
        for j, l in enumerate(wp.lengths.tolist()):
            exact = 32 * l * (side ** l + side * l)
            assert values.margins[j] == exact * unit * np.maximum(1.0, values.norms[j])
            assert values.margins[j] == float(exact) * unit * max(1.0, values.norms[j])
        assert values.norms[-1] == pytest.approx(2.0 ** length, rel=1e-12)


# 1x1 letter values: 0, +-1, subnormals, 2**+-400 and one ulp beyond, and values whose
# products overflow (2**300, -2**200) or underflow (2**-300, 2**-200) within a few letters
SCALARS = (0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 5e-324, -2.5e-310, 2.0**-400, -(2.0**400),
           float(np.nextafter(2.0**-400, 0.0)), float(np.nextafter(-(2.0**400), -math.inf)),
           2.0**300, -(2.0**200), 2.0**-300, 2.0**-200)


@st.composite
def scalar_stages(draw):
    """Factors of 1-3 letters of side 1, and at times one dense Hermitian letter of
    side 2, over 1-2 stages, and a word table of length 1-4."""
    tables = [hk.make_table([(f"{prefix}{i}", d) for i, d in enumerate(
        [1] * draw(st.integers(1, 3)) + [2] * draw(st.integers(0, 1)))]) for prefix in "ab"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_stages = draw(st.integers(1, 2))

    def letter(d):
        if d == 2:
            return random_hermitian(rng, 2, draw(st.sampled_from([0.5, 1.0, 3.0])))
        return [[draw(st.sampled_from(SCALARS) | st.floats(-3, 3))]]
    seqs = [[hk.MatrixFamily(t, {t.trivial: [[1.0]], **{
        lab: letter(t.dim(lab)) for lab in t.nontrivial_labels}}, normalized=True)
        for _ in range(n_stages)] for t in tables]
    return seqs[0], seqs[1], hk.free_product_table(*tables, draw(st.integers(1, 4)))


class TestScalarWords:
    """A word of 1x1 letters with plain values has margin 0: its estimates are
    the values of its formed block, and freeprod forms none."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scalar_stages())
    def test_margin_zero_rows_equal_the_formed_blocks_bitwise(self, drawn):
        seq1, seq2, wp = drawn
        values, n = cfree._WordValues(seq1, seq2, wp), len(wp)
        for s, (F1, F2) in enumerate(zip(seq1, seq2)):
            formed = hk.cfree_state(F1, F2, wp).blocks
            for j in np.flatnonzero(values.margins[s * n:(s + 1) * n] == 0).tolist():
                for got, minus_identity in ((values.norms, False), (values.deviations, True)):
                    want = _linalg.spectral_norms(formed.at(j)[np.newaxis], minus_identity)
                    assert got[s * n + j].tobytes() == want.tobytes(), (
                        wp.encode(wp.labels[j]), minus_identity, got[s * n + j], want[0])

    def test_scalar_freeprod_forms_no_word_block(self, monkeypatch):
        formed, kron_fold = [], cfree._kron_fold
        monkeypatch.setattr(cfree, "_kron_fold",
                            lambda stacks: formed.append(len(stacks)) or kron_fold(stacks))
        assert run_cli("freeprod", FIXTURES / "freeprod_zz.json").returncode == 0
        assert formed == []  # the group-form fixture's letters are all 1x1
        assert run_cli("freeprod", FIXTURES / "freeprod_matrix.json").returncode == 1
        assert formed  # the counter sees the matrix fixture's shown words


@st.composite
def damped_factors(draw):
    """Damped factor sequences of Hermitian contractions (sides 1-3) with a
    conv_tols schedule that certify-hap --k-values passes on both factors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_values = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True)))
    seqs = []
    for prefix in "ab":
        dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        table = hk.make_table([(f"{prefix}{i}", d) for i, d in enumerate(dims)])
        states = [hk.MatrixFamily(table, {table.trivial: [[1.0]], **{
            lab: random_hermitian(rng, table.dim(lab), float(rng.uniform(0.0, 1.0)))
            for lab in table.nontrivial_labels}}, normalized=True) for _ in k_values]
        seqs.append(hk.damp_sequence(states, k_values))
    conv_tols = [max(float(np.max(F.deviations)) for F in stage) + 1e-9
                 for stage in zip(*seqs)]
    conv_tols = [max(conv_tols[j:]) for j in range(len(conv_tols))]
    return seqs[0], seqs[1], k_values, conv_tols, draw(st.integers(1, 3))


class TestFreeProductPreservation:
    """The paper's last theorem at truncation: damped factors that pass
    certify-hap give a free product whose words obey the length bound, and
    each word's ||W - I|| is at most the sum of its letters' deviations
    (telescoping, since the letters are contractions)."""

    @settings(max_examples=60, deadline=None)
    @given(damped_factors())
    def test_damped_factors_give_damped_words(self, drawn):
        seq1, seq2, k_values, conv_tols, length = drawn
        for seq in (seq1, seq2):
            assert hk.check_hap_sequence(seq, 0.999, conv_tols, k_values).overall
        wp = hk.free_product_table(seq1[0].table, seq2[0].table, length)
        report = hk.freeprod_hap_pipeline(seq1, seq2, wp, 0.999, conv_tols, k_values)
        assert {c.name: c.passed for c in report.conditions}["word-norm-bound"]
        for F1, F2 in zip(seq1, seq2):
            letters = {1: dict(zip(F1.labels, F1.deviations)),
                       2: dict(zip(F2.labels, F2.deviations))}
            formed = hk.cfree_state(F1, F2, wp)
            for word, dev in zip(formed.labels, formed.deviations):
                bound = sum(letters[fi][lab] for fi, lab in word.letters)
                assert dev <= bound + 1e-12, (word, dev, bound)
