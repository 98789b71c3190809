"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Every numeric target is produced or confirmed by an in-repo independent
oracle (tests/oracles.py or inline closed forms) before the library path is
checked against it.
"""

import json
import math
import time

import numpy as np
import pytest

import hapkit as hk
from conftest import (FIXTURES, diam3_residual, label_value, norm_at, random_hermitian,
                      random_psd, run_cli_subprocess, zdual_family, zdual_table)
from oracles import alternating_words, constant_family, max_block_deviation, zdual_word_norm


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


# -- 1: classical desk check -------------------------------------------------

def test_criterion_1_schoenberg_desk_check():
    worst_eig = math.inf
    worst_time = 0.0
    cases = [(hk.GroupSpec((0, 0)), 3, t) for t in (0.1, 0.5, 1.0, 2.0)]
    cases += [(hk.GroupSpec((2, 3)), 4, t) for t in (0.1, 0.5, 1.0, 2.0)]
    sizes = set()
    for spec, radius, t in cases:
        start = time.perf_counter()
        min_eig = hk.schoenberg_check(spec, t, radius)
        elapsed = time.perf_counter() - start
        sizes.add((spec.orders, len(hk.ball(spec, radius))))
        worst_eig = min(worst_eig, min_eig)
        worst_time = max(worst_time, elapsed)
        assert min_eig >= -1e-8
    assert ((0, 0), 53) in sizes  # 53x53 Gram matrix for the rank-2 free group
    ok = worst_eig >= -1e-8 and worst_time < 1.0
    assert report("1", ok, f"min eigenvalue {worst_eig:.3e}, slowest matrix {worst_time:.3f}s")


# -- 2: semigroup law --------------------------------------------------------

def test_criterion_2_semigroup_law():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        entries = [(f"x{i:02d}", int(rng.integers(1, 6))) for i in range(19)]
        table = hk.make_table(entries)
        blocks = {lab: random_psd(rng, table.dim(lab), float(rng.uniform(0.5, 10.0)))
                  for lab in table.nontrivial_labels}
        L = hk.GeneratingFunctional(table, blocks)
        at = {t: hk.semigroup_at(L, t) for t in (0.3, 0.7, 1.0, 2.0)}
        for s, t in ((0.3, 0.7), (1.0, 1.0)):
            dev = max_block_deviation(hk.convolve(at[s], at[t]), at[s + t])
            worst = max(worst, dev)
    ok = worst <= 1e-9
    assert report("2", ok, f"50 functionals, 20 labels, dims <= 5: worst deviation {worst:.3e} <= 1e-9")


# -- 3: generator recovery ---------------------------------------------------

def test_criterion_3_generator_recovery():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        entries = [(f"x{i}", int(rng.integers(1, 5))) for i in range(5)]
        table = hk.make_table(entries)
        blocks = {lab: random_hermitian(rng, table.dim(lab), float(rng.uniform(1.0, 5.0)))
                  for lab in table.nontrivial_labels}
        L = hk.GeneratingFunctional(table, blocks)
        est, _ = hk.generator_from_semigroup(lambda s: hk.semigroup_at(L, s),
                                             [1e-3, 5e-4])
        for lab in table.nontrivial_labels:
            err = np.linalg.norm(est.blocks[lab] - L.blocks[lab], 2)
            rel = err / np.linalg.norm(np.asarray(L.blocks[lab]), 2)
            worst = max(worst, rel)
    ok = worst <= 1e-5
    assert report("3", ok, f"Richardson from t in {{1e-3, 5e-4}}: worst relative error {worst:.3e} <= 1e-5")


# -- 4: cocycle identities ---------------------------------------------------

def test_criterion_4_cocycle_identities():
    rng = np.random.default_rng(4)
    worst_gram = 0.0
    transfers_ok = True
    M = 1.234567
    for _ in range(50):
        entries = [(f"x{i}", int(rng.integers(1, 5))) for i in range(8)]
        table = hk.make_table(entries)
        blocks = {lab: random_psd(rng, table.dim(lab), float(rng.uniform(0.5, 6.0)))
                  for lab in table.nontrivial_labels}
        L = hk.GeneratingFunctional(table, blocks)
        c = hk.factor_from_generator(L)
        for lab in table.nontrivial_labels:
            gram = c.blocks[lab].conj().T @ c.blocks[lab]
            target = L.blocks[lab] + L.blocks[lab].conj().T
            worst_gram = max(worst_gram, np.linalg.norm(gram - target, 2))
            # keep the threshold well clear of every eigenvalue so rounding
            # at the 1e-9 scale cannot flip set membership
            eigs = np.linalg.eigvalsh(np.asarray(L.blocks[lab]))
            assert min(abs(eigs - M)) > 1e-6
        exc_l = set(hk.check_proper(L, M).exceptional_labels) - {table.trivial}
        exc_c = set(hk.check_proper_cocycle(c, 2 * M).exceptional_labels)
        transfers_ok = transfers_ok and (exc_l == exc_c)
    ok = worst_gram <= 1e-10 and transfers_ok
    assert report("4", ok, f"(c*)c = L + L* worst residual {worst_gram:.3e} <= 1e-10; "
                           f"factor-2 exceptional sets {'equal' if transfers_ok else 'DIFFER'}")


# -- 5: conditionally free semigroup compatibility ---------------------------

def test_criterion_5_cfree_semigroup_compatibility():
    rng = np.random.default_rng(5)
    t1 = hk.make_table([("a1", 1), ("a2", 2)])
    t2 = hk.make_table([("b1", 1), ("b2", 2)])
    wp = hk.free_product_table(t1, t2, 3)
    worst = 0.0
    for _ in range(5):
        L1 = hk.GeneratingFunctional(
            t1, {lab: random_hermitian(rng, t1.dim(lab), 2.5) for lab in t1.nontrivial_labels})
        L2 = hk.GeneratingFunctional(
            t2, {lab: random_hermitian(rng, t2.dim(lab), 2.5) for lab in t2.nontrivial_labels})
        G = hk.cfree_generator(L1, L2, wp)
        for t in (0.5, 1.0):
            lhs = hk.semigroup_at(G, t)
            rhs = hk.cfree_state(hk.semigroup_at(L1, t), hk.semigroup_at(L2, t), wp)
            worst = max(worst, max_block_deviation(lhs, rhs))
    ok = worst <= 1e-9
    assert report("5", ok, f"exp(-t Kronecker sum) vs tensor of factor semigroups: "
                           f"worst deviation {worst:.3e} <= 1e-9")


# -- 6: product/convolution compatibility is exact ---------------------------

def test_criterion_6_diam3_exactness():
    rng = np.random.default_rng(6)
    t1 = hk.make_table([("a1", 1), ("a2", 2)])
    t2 = hk.make_table([("b1", 1), ("b2", 2)])
    wp = hk.free_product_table(t1, t2, 3)

    def normalized(table):
        blocks = {table.trivial: [[1.0]]}
        for lab in table.nontrivial_labels:
            d = table.dim(lab)
            blocks[lab] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return hk.MatrixFamily(table, blocks, normalized=True)

    worst = 0.0
    for _ in range(10):
        worst = max(worst, diam3_residual(normalized(t1), normalized(t2),
                                          normalized(t1), normalized(t2), wp))
    ok = worst <= 1e-12
    assert report("6", ok, f"mixed-product residual {worst:.3e} <= 1e-12 on words up to length 3")


# -- 7: free-product damping bound -------------------------------------------

K_VALUES = (1, 2, 4, 8, 16)


def _damping_bound_data():
    """Families f_k(n) = exp(-|n|/k) on radius-3 integer duals, words <= 3.

    These satisfy the damped contract as they stand: |n| >= 1 forces
    norm <= exp(-1/k) at every nontrivial label.
    """
    table = zdual_table(3)
    wp = hk.free_product_table(table, table, 3)
    seqs = [zdual_family(table, lambda n, k=k: math.exp(-abs(n) / k)) for k in K_VALUES]
    products = [hk.cfree_state(f, f, wp) for f in seqs]
    return table, wp, products


def test_criterion_7a_word_norm_bound():
    table, wp, products = _damping_bound_data()
    worst_gap = -math.inf
    for mu, k in zip(products, K_VALUES):
        for w in wp.labels:
            if w.is_trivial:
                continue
            nrm = norm_at(mu, w)
            oracle = zdual_word_norm([label_value(table, lab) for _, lab in w.letters], k)
            assert nrm == pytest.approx(oracle, rel=1e-12)
            worst_gap = max(worst_gap, nrm - math.exp(-len(w) / k))
    ok = worst_gap <= 1e-9
    assert report("7a", ok, f"word norms <= exp(-l/k) + 1e-9 for k in {K_VALUES}; "
                            f"worst slack {worst_gap:.3e}")


def test_criterion_7b_identity_deviation_threshold_at_k16():
    table, wp, products = _damping_bound_data()
    mu16 = products[-1]
    # independent scalar oracle for the worst deviation at k = 16
    oracle_worst = 0.0
    for w in wp.labels:
        val = zdual_word_norm([label_value(table, lab) for _, lab in w.letters], 16)
        oracle_worst = max(oracle_worst, abs(1.0 - val))
    worst = 0.0
    worst_word = ""
    for w in wp.labels:
        dev = float(np.abs(mu16.blocks[w][0, 0] - 1.0))
        if dev > worst:
            worst, worst_word = dev, w.encode()
    assert worst == pytest.approx(oracle_worst, rel=1e-12)
    ok = worst <= 0.25
    report("7b", ok, f"per-word ||block - I|| at k=16: worst {worst:.6f} at {worst_word!r} "
                     f"(oracle {oracle_worst:.6f}); target <= 0.25")
    # Not attainable at factor radius 3: the word (3, 3, 3) has deviation
    # 1 - exp(-9/16) ~= 0.4302.  The oracle above confirms the value; the
    # target would require total letter weight <= 16*ln(4/3) ~= 4.6.
    assert worst <= 0.25


def test_criterion_7c_deviation_strictly_decreasing_in_k():
    table, wp, products = _damping_bound_data()
    strictly_decreasing = True
    for w in wp.labels:
        if w.is_trivial:
            continue
        devs = [float(np.abs(mu.blocks[w][0, 0] - 1.0)) for mu in products]
        if not all(a > b for a, b in zip(devs, devs[1:])):
            strictly_decreasing = False
    maxima = [max(float(np.abs(mu.blocks[w][0, 0] - 1.0)) for w in wp.labels)
              for mu in products]
    ok = strictly_decreasing
    assert report("7c", ok, "per-word deviations strictly decreasing in k; max per k: "
                            + ", ".join(f"{d:.4f}" for d in maxima))


# -- 8: sum-of-states construction -------------------------------------------

def test_criterion_8_build_from_states():
    radius = 10
    n_terms = 6
    table = zdual_table(radius)
    seq = [zdual_family(table, lambda m, n=n: math.exp(-abs(m) / n))
           for n in range(1, n_terms + 1)]
    L, build = hk.build_from_states(seq)

    hermitian = hk.check_symmetric(L, 0.0).passed
    positive = hk.check_positive_blocks(L, 1e-12).passed

    # brute-force summation oracle for the exceptional set at M = 10
    betas = [2.0 ** n for n in range(1, n_terms + 1)]
    oracle_exceptional = set()
    for m in range(-radius, radius + 1):
        value = sum(b * (1.0 - math.exp(-abs(m) / n))
                    for b, n in zip(betas, range(1, n_terms + 1)))
        if value < 10.0:
            oracle_exceptional.add(m)
    proper = hk.check_proper(L, 10.0)
    got_exceptional = {label_value(table, lab) for lab in proper.exceptional_labels}

    tail_expected = sum(4.0 ** -n for n in range(n_terms + 1, 60))
    tail_ok = (build.tail_bound is not None
               and abs(build.tail_bound - tail_expected) < 1e-15
               and build.tail_bound < 1e-3)

    ok = (hermitian and positive and got_exceptional == oracle_exceptional
          and proper.proper_at_level and tail_ok)
    assert report("8", ok,
                  f"Hermitian={hermitian}, positive@1e-12={positive}, "
                  f"exceptional@M=10 {sorted(got_exceptional)} == oracle "
                  f"{sorted(oracle_exceptional)}, tail bound {build.tail_bound:.3e} < 1e-3")


# -- 9: exact algebraic identities -------------------------------------------

def test_criterion_9_algebraic_identities():
    rng = np.random.default_rng(9)
    table = hk.make_table([("a", 2), ("b", 3), ("c", 1)])
    blocks = {table.trivial: [[1.0]]}
    for lab in table.nontrivial_labels:
        d = table.dim(lab)
        blocks[lab] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    F = hk.MatrixFamily(table, blocks, normalized=True)
    eps_fam = constant_family(table, 1.0)
    h = constant_family(table, 0.0)

    identity_ok = all(
        np.array_equal(hk.convolve(eps_fam, F).blocks[lab], F.blocks[lab])
        and np.array_equal(hk.convolve(F, eps_fam).blocks[lab], F.blocks[lab])
        for lab in table.labels)
    haar_ok = all(
        np.array_equal(hk.convolve(h, h).blocks[lab], h.blocks[lab])
        and np.array_equal(hk.convolve(h, F).blocks[lab], h.blocks[lab])
        and np.array_equal(hk.convolve(F, h).blocks[lab], h.blocks[lab])
        for lab in table.labels)

    counts_ok = True
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for k in range(5):
                ids1 = [f"a{i}" for i in range(p)]
                ids2 = [f"b{i}" for i in range(q)]
                wp = hk.free_product_table(hk.make_table([(x, 1) for x in ids1]),
                                           hk.make_table([(x, 1) for x in ids2]), k)
                expected = alternating_words(ids1, ids2, k)
                counts_ok = counts_ok and (len(wp) == len(expected))
    ok = identity_ok and haar_ok and counts_ok
    assert report("9", ok, f"counit identity={identity_ok}, haar absorption={haar_ok}, "
                           f"word counts vs enumerator (p,q<=3, l<=4)={counts_ok}")


# -- 10: CLI determinism and exit-code contract ------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    runs = {}
    for name, expected in (("zdual_hap_pass", 0), ("undamped_fail", 1), ("malformed", 2)):
        first = run_cli_subprocess("certify-hap", FIXTURES / f"{name}.json")
        second = run_cli_subprocess("certify-hap", FIXTURES / f"{name}.json")
        assert first.returncode == expected == second.returncode
        assert first.stdout == second.stdout and first.stderr == second.stderr
        runs[name] = first.returncode
    fp1 = run_cli_subprocess("freeprod", FIXTURES / "freeprod_zz.json")
    fp2 = run_cli_subprocess("freeprod", FIXTURES / "freeprod_zz.json")
    assert fp1.returncode == 0 and fp1.stdout == fp2.stdout

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli_subprocess("certify-hap", FIXTURES / "zdual_hap_pass.json", "--json", out1)
    run_cli_subprocess("certify-hap", FIXTURES / "zdual_hap_pass.json", "--json", out2)
    assert out1.read_bytes() == out2.read_bytes()
    machine = json.loads(out1.read_text())
    assert list(machine) == sorted(machine)  # stable key order

    assert report("10", True, f"byte-identical reruns; exit codes {runs} and freeprod 0")
