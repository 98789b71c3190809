"""Seeded inputs, expected results and closed-form checks for each workload.

A workload is a fixed list of ``hapkit`` invocations, made of two parts.
``build`` writes the inputs of one round into a directory and returns the
list; the same (workload, seed, round, size) always gives the same files.
Only values change from round to round and seed to seed: the shapes (table
sizes, word lengths, block dimensions, ball radii, number of failing words)
are fixed, so every round does the same amount of work.

Every invocation carries its expected exit code and per-condition verdicts,
fixed when the input is built, and most carry a check against a closed form
(see each part's builder).  Expected values never come from hapkit itself.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Each workload runs two parts.  The machine this benchmark was tuned on
# changes speed by tens of percent over tens of seconds, so fewer, longer
# runs are steadier than one workload per part.
WORKLOADS = {
    "freeprod": ("freeprod-scalar", "freeprod-matrix"),
    "files-schoenberg": ("generator-files", "schoenberg-ball"),
}
PARTS = ("freeprod-scalar", "freeprod-matrix", "schoenberg-ball", "generator-files")
SIZES = ("full", "tiny")

# Absolute tolerance for closed-form comparisons of O(1) quantities.
CLOSED_FORM_ATOL = 1e-9
# Rounds per run are capped so the per-run pools of integer stages never repeat.
MAX_ROUNDS = 24


@dataclass
class Invocation:
    """One ``hapkit`` call of a workload part: argv (``{out}`` is the mode's
    output directory), its expected exit code and verdicts, files it writes
    under ``{out}``, and an optional closed-form check
    ``check(report_obj, out_dir) -> problems``."""

    name: str
    part: str
    argv: list
    exit_code: int
    verdicts: list
    written: list = field(default_factory=list)
    check: Callable | None = None


def build(workload: str, seed: int, round_idx: int, size: str, indir: Path) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if not 0 <= round_idx < MAX_ROUNDS:
        raise ValueError(f"round {round_idx} outside 0..{MAX_ROUNDS - 1}")
    builders = {
        "freeprod-scalar": _freeprod_scalar,
        "freeprod-matrix": _freeprod_matrix,
        "schoenberg-ball": _schoenberg_ball,
        "generator-files": _generator_files,
    }
    indir.mkdir(parents=True, exist_ok=True)
    invocations = []
    for part in WORKLOADS[workload]:
        key = PARTS.index(part)
        rng = np.random.default_rng([seed, key, round_idx])
        run_rng = np.random.default_rng([seed, key])
        for fields in builders[part](rng, run_rng, round_idx, size, indir):
            invocations.append(Invocation(part=part, **fields))
    return invocations


# ---------------------------------------------------------------- helpers

def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _matrix_obj(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _table_obj(trivial_id: str, entries) -> dict:
    return {"entries": [{"id": trivial_id, "dim": 1, "trivial": True}]
            + [{"id": i, "dim": d, "trivial": False} for i, d in entries]}


def _eigendata(rng, dim: int, lo: float, hi: float, count: int = 1):
    """``count`` sets of sorted eigenvalues in [lo, hi] with random unitary
    eigenbases, stacked along the first axis."""
    lam = np.sort(rng.uniform(lo, hi, (count, dim)), axis=-1)
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, _ = np.linalg.qr(z)
    return lam, q


def _from_eig(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian matrices q diag(values) q*, for single or stacked inputs."""
    m = (q * values[..., None, :]) @ q.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _condition(report: dict, name: str) -> dict:
    for cond in report.get("conditions", []):
        if cond.get("name") == name:
            return cond
    raise KeyError(name)


def _witness_problems(cond: dict, expected: dict, what: str) -> list:
    """Failing witnesses must be exactly ``expected``: {(label, context): achieved}."""
    got = {(w["label"], w["context"]): w["achieved"] for w in cond["witnesses"]}
    if set(got) != set(expected):
        missing = len(set(expected) - set(got))
        extra = len(set(got) - set(expected))
        return [f"{what}: witness set differs ({missing} missing, {extra} unexpected)"]
    bad = [key for key, val in expected.items()
           if not abs(got[key] - val) <= CLOSED_FORM_ATOL]
    if bad:
        return [f"{what}: {len(bad)} witness values off the closed form, first {bad[0]}"]
    return []


def _worst_problems(cond: dict, expected: float, what: str) -> list:
    ws = cond["witnesses"]
    if len(ws) != 1:
        return [f"{what}: expected one worst witness, got {len(ws)}"]
    if not abs(ws[0]["achieved"] - expected) <= CLOSED_FORM_ATOL:
        return [f"{what}: worst achieved {ws[0]['achieved']!r}, closed form {expected!r}"]
    return []


def _c0_eps(norm_levels) -> float:
    """Threshold strictly between two norm levels such that every stage has
    a word at or below it: the geometric midpoint of the largest per-stage
    minimum and the next larger level."""
    floor = max(min(levels) for levels in norm_levels)
    above = sorted({x for levels in norm_levels for x in levels if x > floor * (1 + 1e-6)})
    return math.sqrt(floor * above[0])


def _alternating_words(pool1, pool2, max_len):
    """(encoding, length, letters) for every nontrivial alternating word,
    enumerated independently of hapkit.irreps."""
    pools = {1: pool1, 2: pool2}
    for length in range(1, max_len + 1):
        for start in (1, 2):
            pattern = [start if j % 2 == 0 else 3 - start for j in range(length)]
            for combo in itertools.product(*(pools[f] for f in pattern)):
                enc = "|".join(f"{f}:{letter[0]}" for f, letter in zip(pattern, combo))
                yield enc, length, combo


# --------------------------------------------------------- freeprod-scalar
#
# Group-form factors: the stage-k family is the semigroup of word length at
# t = 1/k, so a word of total letter weight w has the 1x1 block exp(-w/k):
# norm exp(-w/k) and identity deviation 1 - exp(-w/k).  Thresholds sit
# between weight levels, so every verdict and every failing witness is
# known exactly.

def _group_letters(group: str, radius: int):
    """(id, weight) of the nontrivial ball elements of Z or Zm, as hapkit encodes them."""
    if group == "Z":
        return [(f"a^{e}", abs(e)) for e in range(-radius, radius + 1) if e]
    m = int(group[1:])
    return [(f"a^{e}", min(e, m - e)) for e in range(1, m) if min(e, m - e) <= radius]


# (name, factor1, factor2, max word length, stages, failing weight or None,
#  stage pool).  A failing config fails identity-convergence at its last
#  stage only, on every word heavier than the failing weight.
_SCALAR_CONFIGS = {
    "full": [
        ("pass-zz-len4", ("Z", 3), ("Z", 3), 4, 1, None, "z-r3"),
        ("fail7b-zz-len4", ("Z", 3), ("Z", 3), 4, 2, 6, "z-r3"),
        ("pass-zz-len5", ("Z", 2), ("Z", 2), 5, 1, None, "z-r2"),
        ("fail7b-z3z4-len6", ("Z3", 3), ("Z4", 3), 6, 2, 6, "z3-z4"),
    ],
    "tiny": [
        ("pass-zz-len2", ("Z", 2), ("Z", 2), 2, 2, None, "z-r2"),
        ("fail7b-zz-len3", ("Z", 2), ("Z", 2), 3, 2, 3, "z-r2"),
        ("pass-z3z4-len3", ("Z3", 3), ("Z4", 3), 3, 1, None, "z3-z4"),
    ],
}

# Stages come from per-run permutations of integers, so no factor family
# (group, radius, k) repeats inside a run.
_STAGE_POOL = range(2, 2 + 4 * MAX_ROUNDS)


def _freeprod_scalar(rng, run_rng, round_idx, size, indir):
    configs = _SCALAR_CONFIGS[size]
    pools = {c[6]: run_rng.permutation(_STAGE_POOL) for c in configs}
    per_round = {pool: sum(c[4] for c in configs if c[6] == pool) for pool in pools}
    taken = {pool: round_idx * per_round[pool] for pool in pools}
    invocations = []
    for name, (g1, r1), (g2, r2), max_len, stages, fail_weight, pool in configs:
        ks = sorted(int(k) for k in pools[pool][taken[pool]:taken[pool] + stages])
        taken[pool] += stages
        weights = {}
        for enc, _, combo in _alternating_words(_group_letters(g1, r1),
                                                _group_letters(g2, r2), max_len):
            weights[enc] = sum(w for _, w in combo)
        wmax = max(weights.values())
        eps = math.exp(-(wmax - rng.uniform(0.25, 0.75)) / ks[-1])
        if fail_weight is None:
            tols = [-math.expm1(-(wmax + rng.uniform(0.25, 0.75)) / k) for k in ks]
            tols = [min(tols[:j + 1]) for j in range(stages)]
        else:
            tols = [1.0] * (stages - 1) + [
                -math.expm1(-(fail_weight + rng.uniform(0.25, 0.75)) / ks[-1])]
        failing = {(enc, f"k={k}"): -math.expm1(-w / k)
                   for k, thr in zip(ks, tols)
                   for enc, w in weights.items() if -math.expm1(-w / k) > thr}
        worst = max((-math.expm1(-w / k) - thr, -math.expm1(-w / k))
                    for k, thr in zip(ks, tols) for w in set(weights.values()))[1]
        path = _write_json(indir / f"{name}.json", {
            "factor1": {"group": g1, "radius": r1},
            "factor2": {"group": g2, "radius": r2},
            "k_values": ks,
            "conv_tols": tols,
            "eps_decay": eps,
            "max_word_length": max_len,
        })
        invocations.append(dict(
            name=name,
            argv=["freeprod", path],
            exit_code=1 if failing else 0,
            verdicts=[("word-norm-bound", True), ("identity-convergence", not failing),
                      ("c0-decay", True)],
            check=_identity_check(failing, worst),
        ))
    return invocations


def _identity_check(failing: dict, worst: float):
    def check(report, _out):
        cond = _condition(report, "identity-convergence")
        if failing:
            return _witness_problems(cond, failing, "identity-convergence")
        return _worst_problems(cond, worst, "identity-convergence")
    return check


# --------------------------------------------------------- freeprod-matrix
#
# Explicit factor families exp(-t_k A) with random Hermitian A (eigenvalues
# known), t_k = 1/k, damped by exp(-1/k).  The block at a word of length l
# is a Kronecker product of positive definite letters, whose eigenvalues are
# the products of the letters' eigenvalues, so
#   norm      = exp(-l/k - t_k * sum of smallest letter eigenvalues),
#   deviation = 1 - exp(-l/k - t_k * sum of largest letter eigenvalues).

# (name, factor1 block dims, factor2 block dims, second stage fails)
_MATRIX_CONFIGS = {
    "full": [
        ("pass-d2345x2345", (2, 3, 4, 5), (2, 3, 4, 5), False),
        ("fail-d235x245", (2, 3, 5), (2, 4, 5), True),
        ("pass-d35x234", (3, 5), (2, 3, 4), False),
    ],
    "tiny": [
        ("pass-d23x2", (2, 3), (2,), False),
        ("fail-d2x23", (2,), (2, 3), True),
    ],
}


def _freeprod_matrix(rng, _run_rng, _round_idx, size, indir):
    invocations = []
    for name, dims1, dims2, fails in _MATRIX_CONFIGS[size]:
        k1 = int(rng.integers(2, 6))
        k2 = int(rng.integers(6, 13))
        factors = []
        pools = []
        for fi, dims in ((1, dims1), (2, dims2)):
            letters = []
            for j, dim in enumerate(dims):
                (lam,), (q,) = _eigendata(rng, dim, 0.2, 1.5)
                letters.append((f"{'pqrs'[j] if fi == 1 else 'wxyz'[j]}{dim}", lam, q))
            trivial = {"1": [[[1.0, 0.0]]]}
            families = [{"blocks": {**trivial, **{lid: _matrix_obj(_from_eig(q, np.exp(-lam / k)))
                                                  for lid, lam, q in letters}},
                         "normalized": True} for k in (k1, k2)]
            factors.append({"table": _table_obj("1", [(lid, len(lam)) for lid, lam, _ in letters]),
                            "families": families})
            pools.append([(lid, float(lam[0]), float(lam[-1])) for lid, lam, _ in letters])
        words = list(_alternating_words(pools[0], pools[1], 3))
        norms, devs = [], []
        for k in (k1, k2):
            norms.append([math.exp(-l / k - sum(c[1] for c in combo) / k) for _, l, combo in words])
            devs.append([-math.expm1(-l / k - sum(c[2] for c in combo) / k) for _, l, combo in words])
        tols = [(1 + max(d)) / 2 for d in devs]
        if fails:
            tols[1] = _split_threshold(devs[1])
        failing = {(enc, f"k={k}"): dev
                   for k, thr, stage in zip((k1, k2), tols, devs)
                   for (enc, _, _), dev in zip(words, stage) if dev > thr}
        worst = max((d - thr, d) for thr, stage in zip(tols, devs) for d in stage)[1]
        config = {
            "factor1": factors[0],
            "factor2": factors[1],
            "k_values": [k1, k2],
            "conv_tols": tols,
            "eps_decay": _c0_eps(norms),
            "max_word_length": 3,
            "damp": True,
        }
        path = _write_json(indir / f"{name}.json", config)
        invocations.append(dict(
            name=name,
            argv=["freeprod", path],
            exit_code=1 if failing else 0,
            verdicts=[("word-norm-bound", True), ("identity-convergence", not failing),
                      ("c0-decay", True)],
            check=_identity_check(failing, worst),
        ))
    return invocations


def _split_threshold(values) -> float:
    """Midpoint of the widest gap between distinct values in the middle half,
    so roughly half the words fail and none sits near the threshold."""
    vals = sorted(set(values))
    lo, hi = len(vals) // 4, max(len(vals) // 4 + 1, 3 * len(vals) // 4)
    i = max(range(lo, hi), key=lambda j: vals[j + 1] - vals[j])
    return (vals[i] + vals[i + 1]) / 2


# --------------------------------------------------------- schoenberg-ball
#
# exp(-t * length) is positive definite on every free product of cyclic
# groups (word length is conditionally negative definite), so every
# invocation passes.  The ball size in the report's truncation is checked
# against a syllable-counting recurrence.

_SCHOENBERG_CONFIGS = {
    "full": [("Z3*Z4", (3, 4), 6), ("Z3*Z4", (3, 4), 5), ("Z2*Z3", (2, 3), 10),
             ("Z2*Z3", (2, 3), 10)],
    "tiny": [("Z3*Z4", (3, 4), 3), ("Z2*Z3", (2, 3), 4)],
}


def ball_size(orders, radius: int) -> int:
    """Elements of word length <= radius in the free product of Z_m (m = 0: Z)."""
    syllables = []
    for m in orders:
        if m == 0:
            syllables.append([c for c in range(1, radius + 1) for _ in (1, -1)])
        else:
            syllables.append([min(e, m - e) for e in range(1, m)])
    # ending[c][i]: reduced words of length c whose last syllable uses generator i
    ending = [[0] * len(orders) for _ in range(radius + 1)]
    for c in range(1, radius + 1):
        for i, costs in enumerate(syllables):
            for s in costs:
                if s > c:
                    continue
                ending[c][i] += 1 if s == c else sum(
                    ending[c - s][j] for j in range(len(orders)) if j != i)
    return 1 + sum(map(sum, ending))


def _schoenberg_ball(rng, _run_rng, _round_idx, size, indir):
    invocations = []
    for j, (group, orders, radius) in enumerate(_SCHOENBERG_CONFIGS[size]):
        t = float(rng.uniform(0.5, 1.5))
        n = ball_size(orders, radius)
        expected = f"ball of radius {radius}: {n} elements ({n}x{n} Gram matrix)"

        def check(report, _out, expected=expected):
            if report.get("truncation") != expected:
                return [f"truncation {report.get('truncation')!r}, expected {expected!r}"]
            return []
        invocations.append(dict(
            name=f"{group}-r{radius}-{j}",
            argv=["schoenberg", "--group", group, "--radius", str(radius), "--t", repr(t)],
            exit_code=0,
            verdicts=[("gram-positive-semidefinite", True)],
            check=check,
        ))
    return invocations


# --------------------------------------------------------- generator-files
#
# One plain table with Hermitian PSD generator blocks A = V diag(lam) V*.
# Every output has a closed form in the same eigenbasis:
#   semigroup at t:  V diag(exp(-t lam)) V*
#   cocycle:         V diag(sqrt(2 lam)) V*, and (c*)c has smallest eigenvalue 2 lam_min
#   buildgen:        V diag(sum_n beta_n (1 - exp(-s_n lam))) V*
# Written files are checked at a sample of labels.

_GENERATOR_SIZES = {"full": 1000, "tiny": 40}
_SEMIGROUP_TIMES = 3
_BUILD_STATES = 3
_CHECKED_LABELS = 24


def _generator_files(rng, _run_rng, _round_idx, size, indir):
    n = _GENERATOR_SIZES[size]
    ids = [f"g{i:04d}" for i in range(n)]
    dims = [1 + i % 5 for i in range(n)]
    batches = []  # (label indices, eigenvalues, eigenbases), one batch per block dimension
    for d in sorted(set(dims)):
        members = [a for a in range(n) if dims[a] == d]
        batches.append((members, *_eigendata(rng, d, 0.5, 8.0, len(members))))
    eig = [None] * n
    for members, lam, q in batches:
        for j, a in enumerate(members):
            eig[a] = (lam[j], q[j])
    table = _table_obj("e", list(zip(ids, dims)))
    sample = sorted(rng.choice(n, size=min(_CHECKED_LABELS, n), replace=False).tolist())
    lam_min = np.array([lam[0] for lam, _ in eig])
    lam_max = np.array([lam[-1] for lam, _ in eig])

    def blocks(values_of) -> dict:
        out = {}
        for members, lam, q in batches:
            out.update(zip((ids[a] for a in members), _matrix_obj(_from_eig(q, values_of(lam)))))
        return out

    def family(values_of):
        return {"e": [[[1.0, 0.0]]], **blocks(values_of)}

    gen_path = _write_json(indir / "generator.json", {
        "kind": "generator", "table": table,
        "blocks": blocks(lambda lam: lam)})
    invocations = []

    # cocycle: M splits the sorted 2*lam_min values, so a fixed number of
    # labels is exceptional.
    gram_low = np.sort(2 * lam_min)
    rank = max(1, n // 20)
    M = float((gram_low[rank - 1] + gram_low[rank]) / 2)
    exceptional = {(ids[a], "min eigenvalue of (c*)c"): float(2 * lam_min[a])
                   for a in range(n) if 2 * lam_min[a] < M}

    def check_cocycle(report, out):
        problems = _witness_problems(_condition(report, "proper-at-level"), exceptional,
                                     "proper-at-level")
        blocks = json.loads((out / "cocycle.json").read_text())["blocks"]
        return problems + _block_problems(blocks, ids, eig, sample, lambda lam: np.sqrt(2 * lam),
                                          "cocycle.json")
    invocations.append(dict(
        name="cocycle",
        argv=["cocycle", gen_path, "--M", repr(M), "--out", "{out}/cocycle.json"],
        exit_code=0,
        verdicts=[("symmetric", True), ("positive-blocks", True), ("proper-at-level", True)],
        written=["cocycle.json"],
        check=check_cocycle,
    ))

    # semigroup at several times
    ts = sorted(float(t) for t in rng.uniform(0.05, 1.0, _SEMIGROUP_TIMES))
    names = [f"semigroup_t{t!r}.json" for t in ts]

    def check_semigroup(_report, out):
        problems = []
        for t, name in zip(ts, names):
            blocks = json.loads((out / "sg" / name).read_text())["blocks"]
            problems += _block_problems(blocks, ids, eig, sample,
                                        lambda lam, t=t: np.exp(-t * lam), name)
        return problems
    invocations.append(dict(
        name="semigroup",
        argv=["semigroup", gen_path, "--t", ",".join(repr(t) for t in ts), "--out", "{out}/sg"],
        exit_code=0,
        verdicts=[("evaluation", True)],
        written=[f"sg/{name}" for name in names],
        check=check_semigroup,
    ))

    # buildgen from states exp(-s_n A); s_n keeps every deviation below
    # eps_n = 8^-n, so every label is certified from the first state on.
    top = float(lam_max.max())
    s = [-math.log1p(-rng.uniform(0.3, 0.9) * 8.0 ** -m) / top for m in range(1, _BUILD_STATES + 1)]
    betas = [2.0 ** m for m in range(1, _BUILD_STATES + 1)]
    states_path = _write_json(indir / "states.json", {
        "table": table,
        "families": [{"blocks": family(lambda lam, sn=sn: np.exp(-sn * lam)), "normalized": True}
                     for sn in s]})

    def check_buildgen(_report, out):
        blocks = json.loads((out / "buildgen.json").read_text())["blocks"]
        return _block_problems(
            blocks, ids, eig, sample,
            lambda lam: sum(b * -np.expm1(-sn * lam) for b, sn in zip(betas, s)), "buildgen.json")
    invocations.append(dict(
        name="buildgen",
        argv=["buildgen", states_path, "--out", "{out}/buildgen.json"],
        exit_code=0,
        verdicts=[("epsilon-certificate", True)],
        written=["buildgen.json"],
        check=check_buildgen,
    ))

    # certify-hap on states exp(-t_j A), t decreasing, with the damping bound
    t0 = float(rng.uniform(1.5, 2.5))
    hap_t = [t0, t0 / 2, t0 / 4]
    k_values = [math.ceil(1.0 / (t * float(lam_min.min()))) + 1 for t in hap_t]
    devs = [-np.expm1(-t * lam_max) for t in hap_t]
    tols = [float((1 + d.max()) / 2) for d in devs]
    worst = max((float(d.max()) - thr, float(d.max())) for d, thr in zip(devs, tols))[1]
    hap_path = _write_json(indir / "hap.json", {
        "table": table,
        "families": [{"blocks": family(lambda lam, t=t: np.exp(-t * lam)), "normalized": True}
                     for t in hap_t],
        "conv_tols": tols,
        "k_values": k_values,
        "eps_decay": _c0_eps([np.exp(-t * lam_min).tolist() for t in hap_t]),
    })
    invocations.append(dict(
        name="certify-hap",
        argv=["certify-hap", hap_path],
        exit_code=0,
        verdicts=[("c0-decay", True), ("identity-convergence", True),
                  ("damped-norm-bound", True)],
        check=_identity_check({}, worst),
    ))
    return invocations


def _block_problems(blocks: dict, ids, eig, sample, fn, what: str) -> list:
    for a in sample:
        lam, q = eig[a]
        m = np.array(blocks[ids[a]], dtype=float)
        got = m[..., 0] + 1j * m[..., 1]
        want = _from_eig(q, fn(lam))
        scale = max(1.0, float(np.abs(want).max()))
        if not np.abs(got - want).max() <= CLOSED_FORM_ATOL * scale:
            return [f"{what}: block {ids[a]} off the closed form"]
    return []
