import json
import logging
import math

import numpy as np
import pytest

import hapkit as hk
import oracles
from conftest import FIXTURES, norm_at, run_cli, zdual_family, zdual_label, zdual_table
from hapkit import cfree, cli, cocycle, fourier
from hapkit import serialize as sz
from oracles import constant_family, unit_shift


def random_family(rng, table, normalized=False):
    blocks = {}
    for lab in table.labels:
        d = table.dim(lab)
        blocks[lab] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if normalized:
        blocks[table.trivial] = [[1.0]]
    return hk.MatrixFamily(table, blocks, normalized=normalized)


@pytest.fixture
def table():
    return hk.make_table([("a", 2), ("b", 3), ("c", 1)])


class TestConstruction:
    def test_shape_mismatch_rejected(self, table):
        with pytest.raises(ValueError, match="side"):
            hk.MatrixFamily(table, {table.decode("a"): np.eye(3)})

    def test_unknown_label_rejected(self, table):
        with pytest.raises(KeyError, match="outside the table"):
            hk.MatrixFamily(table, {hk.IrrepLabel("zz"): np.eye(1)})

    def test_normalized_needs_unit_trivial(self, table):
        with pytest.raises(ValueError, match="normalized"):
            hk.MatrixFamily(table, {table.trivial: [[0.5]]}, normalized=True)

    def test_nan_trivial_block_is_not_normalized(self, table):
        with pytest.raises(ValueError, match="normalized"):
            hk.MatrixFamily(table, {table.trivial: [[math.nan]]}, normalized=True)

    def test_subclass_reprs(self, table):
        assert repr(constant_family(table, 1.0)) == "MatrixFamily(4/4 blocks, normalized)"
        assert repr(unit_shift(table)) == "GeneratingFunctional(4/4 blocks)"
        assert repr(hk.CocycleMatrices(table, {})) == "CocycleMatrices(0/4 blocks)"

    def test_blocks_read_only(self, table):
        F = constant_family(table, 1.0)
        with pytest.raises((ValueError, TypeError)):
            F.blocks[table.trivial][0, 0] = 7.0

    def test_canonical_block_order(self, table):
        F = hk.MatrixFamily(table, {table.decode("b"): np.eye(3), table.trivial: [[1.0]]})
        assert [table.encode(lab) for lab in F.labels] == ["1", "b"]


class TestConvolve:
    def test_counit_is_two_sided_identity(self, table, rng):
        F = random_family(rng, table)
        eps = constant_family(table, 1.0)
        left = hk.convolve(eps, F)
        right = hk.convolve(F, eps)
        for lab in F.labels:
            assert np.array_equal(left.blocks[lab], F.blocks[lab])
            assert np.array_equal(right.blocks[lab], F.blocks[lab])

    def test_haar_absorbs_normalized(self, table, rng):
        F = random_family(rng, table, normalized=True)
        h = constant_family(table, 0.0)
        for out in (hk.convolve(h, F), hk.convolve(F, h)):
            for lab in table.labels:
                assert np.array_equal(out.blocks[lab], h.blocks[lab])

    def test_haar_idempotent(self, table):
        h = constant_family(table, 0.0)
        out = hk.convolve(h, h)
        for lab in table.labels:
            assert np.array_equal(out.blocks[lab], h.blocks[lab])

    def test_counit_blocks_are_identities(self, table):
        eps = constant_family(table, 1.0)
        assert np.array_equal(eps.blocks[table.decode("b")], np.eye(3))
        tiny = hk.make_table([("1", 1)])
        assert constant_family(tiny, 1.0).blocks[tiny.trivial][0, 0] == 1.0

    def test_scalar_exponential_semigroup_value(self):
        # e^-s * e^-t = e^-(s+t); frozen value at s = t = 1
        t = zdual_table(2)
        psi1 = zdual_family(t, lambda n: 1.0 if n == 0 else math.exp(-1.0))
        out = hk.convolve(psi1, psi1)
        lab = zdual_label(t, 1)
        assert out.blocks[lab][0, 0] == pytest.approx(0.1353352832366127, abs=1e-12)
        assert out.blocks[lab][0, 0] == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_support_intersection(self, table):
        a = table.decode("a")
        F = hk.MatrixFamily(table, {table.trivial: [[1.0]], a: np.eye(2)})
        G = hk.MatrixFamily(table, {table.trivial: [[1.0]]})
        out = hk.convolve(F, G)
        assert set(out) == {table.trivial}

    def test_dropped_labels_are_logged(self, table, caplog):
        F = hk.MatrixFamily(table, {table.trivial: [[1.0]], table.decode("a"): np.eye(2)})
        G = hk.MatrixFamily(table, {table.trivial: [[1.0]]})
        with caplog.at_level(logging.INFO, logger="hapkit.fourier"):
            hk.convolve(F, G)
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("hapkit.fourier", logging.INFO,
             "convolve: 1 labels outside common support omitted")]

    def test_table_mismatch_rejected(self, table):
        other = hk.make_table([("z", 2)])
        with pytest.raises(ValueError, match="different tables"):
            hk.convolve(constant_family(table, 1.0), constant_family(other, 1.0))

    def test_associative(self, rng):
        table = hk.make_table([("a", 5), ("b", 4), ("c", 2)])
        F, G, H = (random_family(rng, table) for _ in range(3))
        lhs = hk.convolve(hk.convolve(F, G), H)
        rhs = hk.convolve(F, hk.convolve(G, H))
        for lab in table.labels:
            assert np.allclose(lhs.blocks[lab], rhs.blocks[lab], atol=1e-12, rtol=0)

    def test_norm_submultiplicative(self, rng):
        table = hk.make_table([("a", 4), ("b", 3)])
        for _ in range(10):
            F, G = random_family(rng, table), random_family(rng, table)
            out = hk.convolve(F, G)
            for lab in table.labels:
                prod = norm_at(F, lab) * norm_at(G, lab)
                assert norm_at(out, lab) <= prod * (1 + 1e-12)


class TestBlockNorm:
    def test_identity(self, table):
        assert norm_at(constant_family(table, 1.0), table.decode("b")) == 1.0

    def test_diagonal(self, table):
        F = hk.MatrixFamily(table, {table.decode("a"): np.diag([0.5, 0.25])})
        assert norm_at(F, table.decode("a")) == pytest.approx(0.5, abs=1e-15)

    def test_nilpotent_jordan_block(self, table):
        # SVD oracle: singular values of [[0,1],[0,0]] are {1, 0}
        blk = np.array([[0, 1], [0, 0]], dtype=complex)
        assert sorted(np.linalg.svd(blk, compute_uv=False)) == [0.0, 1.0]
        F = hk.MatrixFamily(table, {table.decode("a"): blk})
        assert norm_at(F, table.decode("a")) == pytest.approx(1.0, abs=1e-15)

    def test_absent_label(self, table):
        F = constant_family(table, 0.0)
        with pytest.raises(KeyError, match="nope"):
            F[hk.IrrepLabel("nope")]


def _c0_row(verdict) -> tuple:
    """(passed, (label, achieved, threshold, context) of its one witness)."""
    (w,) = verdict.witnesses
    return verdict.passed, (w.label, w.achieved, w.threshold, w.context)


class TestCheckC0:
    def test_haar(self, table):
        F = constant_family(table, 0.0)
        assert [lab for lab, _ in oracles.exceptional(F, F.norms, F.norms <= 0.5)] == [
            table.trivial]
        assert len(F) == len(F.table)  # tail clean: a block at every label
        assert _c0_row(hk.check_c0(F, 0.5)) == (
            True, ("*", 1.0, 4.0, "family #0: exceptional labels within truncation"))

    def test_counit_all_exceptional(self, table):
        F = constant_family(table, 1.0)
        assert {lab for lab, _ in oracles.exceptional(F, F.norms, F.norms <= 0.5)} == set(
            table.labels)
        assert _c0_row(hk.check_c0(F, 0.5)) == (
            False, ("*", 4.0, 3.0, "family #0: no nontrivial label decayed below eps"))

    def test_zdual_exponential_decay(self):
        t = zdual_table(5)
        F = zdual_family(t, lambda n: math.exp(-abs(n)))
        eps = math.exp(-3) + 1e-12
        got = sorted(t.encode(lab) for lab, _ in oracles.exceptional(F, F.norms, F.norms <= eps))
        assert got == sorted(["e", "a^1", "a^-1", "a^2", "a^-2"])
        assert len(F) == len(F.table)
        # 11 labels, 5 exceptional: 6 certified
        assert _c0_row(hk.check_c0(F, eps)) == (
            True, ("*", 5.0, 11.0, "family #0: exceptional labels within truncation"))

    def test_unspecified_labels_spoil_tail(self, table):
        F = hk.MatrixFamily(table, {table.trivial: [[1.0]]})
        assert len(F) < len(F.table)
        assert _c0_row(hk.check_c0(F, 0.5)) == (
            False, (table.encode(table.labels[1]), 3.0, 0.0,
                    "family #0: labels without blocks"))


class TestOneC0Decision:
    """``certify-hap`` and ``freeprod`` decide c0-decay on their stage x position
    grid, in ``_c0_condition``, and ``cocycle`` decides proper-at-level in
    ``_proper_condition``: no command goes through ``check_c0`` or
    ``check_proper_cocycle``, which are kept only for the benchmark tracer, and
    an ``eps_decay`` outside (0, 1) is refused before any word block is formed."""

    def test_runs_make_no_exceptional_set(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a run went through a scan kept only for the tracer")
        monkeypatch.setattr(fourier, "check_c0", refuse)
        monkeypatch.setattr(cocycle, "check_proper_cocycle", refuse)
        assert run_cli("certify-hap", FIXTURES / "zdual_hap_pass.json").returncode == 0
        assert run_cli("certify-hap", FIXTURES / "undamped_fail.json").returncode == 1
        assert run_cli("freeprod", FIXTURES / "freeprod_zz.json").returncode == 0
        assert run_cli("freeprod", FIXTURES / "freeprod_matrix.json").returncode == 1
        assert run_cli("cocycle", FIXTURES / "zdual_length_generator.json", "--M", "1",
                       "--out", tmp_path / "c.json").returncode == 0

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.5])
    def test_bad_eps_decay_forms_no_word_block(self, eps, tmp_path, monkeypatch):
        formed, kron_fold = [], cfree._kron_fold
        monkeypatch.setattr(cfree, "_kron_fold",
                            lambda stacks: formed.append(len(stacks)) or kron_fold(stacks))
        config = json.loads((FIXTURES / "freeprod_matrix.json").read_text())
        (tmp_path / "cfg.json").write_text(json.dumps({**config, "eps_decay": eps}))
        res = run_cli("freeprod", tmp_path / "cfg.json")
        assert (res.returncode, res.stdout) == (2, b"")
        assert b"eps_decay" in res.stderr
        assert formed == []
        assert run_cli("freeprod", FIXTURES / "freeprod_matrix.json").returncode == 1
        assert formed  # the counter sees the words a valid run forms


class TestKeptScansDecideAsTheCommands:
    """``check_c0`` and ``check_proper_cocycle``, kept for the benchmark tracer,
    return the verdicts the commands build, from the same builders."""

    @pytest.mark.parametrize("eps, passed", [(0.5, True), (1e-3, False)])
    def test_check_c0_is_certify_hap_on_one_family(self, eps, passed):
        F = cli._load_states(str(FIXTURES / "zdual_hap_pass.json"))[2][0]
        got = hk.check_c0(F, eps)
        assert got.passed is passed
        assert got.to_obj() == hk.check_hap_sequence([F], eps, [1.0]).conditions[0].to_obj()

    # (c*)c = 2|n| on this generator: every M lies away from every eigenvalue
    @pytest.mark.parametrize("M", [1.0, 5.5, 100.0])
    def test_check_proper_cocycle_is_the_cocycle_report(self, M, tmp_path):
        gen = FIXTURES / "zdual_length_generator.json"
        L = sz.generator_from_obj(sz.load_json(gen))
        got = hk.check_proper_cocycle(hk.factor_from_generator(L), M)
        run_cli("cocycle", gen, "--M", M, "--out", tmp_path / "c.json",
                "--json", tmp_path / "r.json")
        (want,) = [cond for cond in json.loads((tmp_path / "r.json").read_text())["conditions"]
                   if cond["name"] == "proper-at-level"]
        assert got.passed == want["passed"]
        assert [w.label for w in got.witnesses] == [w["label"] for w in want["witnesses"]]


class TestHapSequence:
    def test_counit_repeated(self, table):
        seq = [constant_family(table, 1.0)] * 3
        rep = hk.check_hap_sequence(seq, eps_decay=0.5, conv_tols=[0.0, 0.0, 0.0])
        by_name = {c.name: c for c in rep.conditions}
        assert by_name["identity-convergence"].passed
        assert not by_name["c0-decay"].passed
        assert not rep.overall

    def test_zdual_sequence_passes(self):
        t = zdual_table(6)
        ks = [1, 2, 4, 8]
        seq = [zdual_family(t, lambda n, k=k: math.exp(-abs(n) / k)) for k in ks]
        conv = [1 - math.exp(-6 / k) + 1e-12 for k in ks]
        rep = hk.check_hap_sequence(seq, eps_decay=0.5, conv_tols=conv, k_values=ks)
        assert rep.overall, rep.to_text()
        names = [c.name for c in rep.conditions]
        assert names == ["c0-decay", "identity-convergence", "damped-norm-bound"]

    def test_damped_bound_equality_at_one(self):
        # |n| = 1 sits exactly on the exp(-1/k) bound
        t = zdual_table(3)
        ks = [2]
        seq = [zdual_family(t, lambda n: math.exp(-abs(n) / 2))]
        rep = hk.check_hap_sequence(seq, eps_decay=0.9, conv_tols=[1.0], k_values=ks)
        cond = {c.name: c for c in rep.conditions}["damped-norm-bound"]
        assert cond.passed

    def test_undamped_block_fails_with_witness(self, table):
        blocks = {lab: np.eye(table.dim(lab)) for lab in table.labels}
        blocks[table.decode("a")] = 1.5 * np.eye(2)
        F = hk.MatrixFamily(table, blocks, normalized=True)
        rep = hk.check_hap_sequence([F], eps_decay=0.5, conv_tols=[1.0], k_values=[1])
        cond = {c.name: c for c in rep.conditions}["damped-norm-bound"]
        assert not cond.passed
        assert any(w.label == "a" for w in cond.witnesses)

    def test_increasing_conv_tols_fail(self, table):
        seq = [constant_family(table, 1.0)] * 2
        rep = hk.check_hap_sequence(seq, eps_decay=0.5, conv_tols=[0.0, 1.0])
        cond = {c.name: c for c in rep.conditions}["identity-convergence"]
        assert not cond.passed
        assert any("nonincreasing" in w.context for w in cond.witnesses)


class TestThresholdKernel:
    LABELS, CONTEXTS = "ABCD", "xyzw"

    def kernel(self, estimate, threshold, failed=(), margin=0.0, exact=None):
        """Row r at label LABELS[r] (table position r + 1), in context CONTEXTS[r]."""
        table = hk.make_table([(label, 1) for label in self.LABELS])
        encoded, keys_at = [], table.keys_at

        def counted(positions):
            keys = keys_at(positions)
            encoded.extend(keys)
            return keys
        table.keys_at = counted
        rows = np.arange(len(estimate))
        cond = hk.fourier._threshold_condition("demo", "s", estimate, threshold, table,
                                               rows + 1, rows, list(self.CONTEXTS), failed, margin,
                                               exact)
        return cond, encoded

    def test_worst_row_reported_when_nothing_fails(self):
        cond, encoded = self.kernel([0.5, 0.9, 0.2], [1.0, 1.0, 1.0])
        assert cond.passed and encoded == []  # no label is encoded before it is asked for
        assert [(w.label, w.achieved, w.context) for w in cond.witnesses] == [("B", 0.9, "y")]
        assert encoded == ["B"]  # only the reported row is encoded

    def test_failing_rows_become_witnesses(self):
        cond, _ = self.kernel([2.0, 0.0, math.nan, 0.0], [1.0, 1.0, 1.0, math.nan])
        assert not cond.passed
        assert [w.label for w in cond.witnesses] == ["A", "C", "D"]

    def test_up_front_witnesses_fail_the_condition(self):
        early = hk.Witness("*", 2.0, 1.0, "schedule")
        cond, _ = self.kernel([0.5, 0.9, 0.2], [1.0, 1.0, 1.0], (early,))
        assert not cond.passed and cond.witnesses == (early,)

    def test_margin_settles_only_unsure_rows(self):
        asked = []
        exact_values = np.array([0.5, 1.01, 0.2, 0.3])

        def exact(rows):
            asked.extend(rows.tolist())
            return exact_values[rows]
        cond, _ = self.kernel([0.5, 0.99, 0.2, math.nan], [1.0] * 4, margin=0.05, exact=exact)
        assert asked == [1, 3]  # the bracket of row 1 reaches 1.0; row 3 has no estimate
        assert [(w.label, w.achieved) for w in cond.witnesses] == [("B", 1.01)]

    def test_worst_row_comes_from_exact_values(self):
        asked = []
        exact_values = np.array([0.5, 0.92, 0.925])

        def exact(rows):
            asked.extend(rows.tolist())
            return exact_values[rows]
        cond, _ = self.kernel([0.5, 0.93, 0.9], [1.0] * 3, margin=0.02, exact=exact)
        assert cond.passed and asked == [1, 2]  # row 0 cannot reach the best sure slack
        assert [(w.label, w.achieved) for w in cond.witnesses] == [("C", 0.925)]


class TestDigest:
    def test_content_digest_stable(self, table, rng):
        F = random_family(rng, table)
        d1 = hk.fourier.family_content_digest([F])
        d2 = hk.fourier.family_content_digest([F])
        assert d1 == d2 and d1.startswith("sha256:")
