"""Regenerate the bundled CLI fixtures.

Run from the repository root:  python3 fixtures/regenerate.py

Outputs are deterministic, so re-running on a clean checkout is a no-op.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # the hapkit beside this script, without PYTHONPATH

import hapkit as hk  # noqa: E402
from hapkit import serialize as sz  # noqa: E402


def zdual_scalar_blocks(table, fn):
    blocks = {}
    for lab in table.labels:
        enc = table.encode(lab)
        n = 0 if enc == "e" else int(enc.split("^")[1])
        blocks[enc] = [[[fn(n), 0.0]]]
    return blocks


def main():
    # certify-hap PASS: integer-dual families exp(-|n|/k) on a radius-6 ball
    table = hk.dual_irrep_table(hk.GroupSpec((0,)), 6)
    ks = [1, 2, 4, 8]
    sz.dump_json({
        "table": sz.table_to_obj(table),
        "families": [
            {"blocks": zdual_scalar_blocks(table, lambda n, k=k: math.exp(-abs(n) / k)),
             "normalized": True}
            for k in ks
        ],
        "k_values": ks,
        "conv_tols": [0.998, 0.96, 0.78, 0.53],
        "eps_decay": 0.5,
    }, HERE / "zdual_hap_pass.json")

    # certify-hap FAIL: an undamped family (nontrivial norms 1) with the
    # damping bound enabled
    small = hk.make_table([("a", 2), ("b", 1)])
    counit = hk.MatrixFamily(small, {lab: np.eye(d) for lab, d in small}, normalized=True)
    sz.dump_json({
        "table": sz.table_to_obj(small),
        "families": [{"blocks": counit, "normalized": True}],
        "k_values": [1],
        "conv_tols": [0.0],
        "eps_decay": 0.5,
    }, HERE / "undamped_fail.json")

    # malformed input
    (HERE / "malformed.json").write_text('{"table": {"entries": [')

    # freeprod PASS: two integer duals, radius 3, words up to length 3
    (HERE / "freeprod_zz.json").write_text(json.dumps({
        "factor1": {"group": "Z", "radius": 3},
        "factor2": {"group": "Z", "radius": 3},
        "k_values": [1, 2, 4, 8, 16],
        "max_word_length": 3,
        "eps_decay": 0.9,
        "conv_tols": [1.0, 0.99, 0.9, 0.7, 0.45],
    }, sort_keys=True, indent=2) + "\n")

    # freeprod FAIL with explicit Hermitian letters of sides 1-3 and 1-2, damped,
    # words up to length 2 (sides <= 6): unit-norm letters in both factors make
    # words such as 1:a|2:x and 2:x|1:a tie in exact arithmetic, and the tight
    # second tolerance leaves failing witnesses at k=6 only
    f1 = hk.make_table([("a", 1), ("b", 2), ("c", 3)])
    f2 = hk.make_table([("w", 2), ("x", 1)])
    letters1 = {f1.trivial: [[1.0]], f1.decode("a"): [[1.0]],
                f1.decode("b"): [[0.6, 0.4j], [-0.4j, 0.6]],
                f1.decode("c"): [[0.3, 0.2, 0.1j], [0.2, -0.5, 0.1], [-0.1j, 0.1, 0.2]]}
    letters2 = {f2.trivial: [[1.0]], f2.decode("x"): [[-1.0]],
                f2.decode("w"): [[0.7, 0.2 + 0.1j], [0.2 - 0.1j, -0.4]]}
    sz.dump_json({
        "factor1": {"table": sz.table_to_obj(f1),
                    "families": [{"blocks": hk.MatrixFamily(f1, letters1),
                                  "normalized": True}] * 2},
        "factor2": {"table": sz.table_to_obj(f2),
                    "families": [{"blocks": hk.MatrixFamily(f2, letters2),
                                  "normalized": True}] * 2},
        "k_values": [2, 6],
        "conv_tols": [2.0, 1.35],
        "eps_decay": 0.5,
        "max_word_length": 2,
        "damp": True,
    }, HERE / "freeprod_matrix.json")

    # generators for the semigroup / cocycle / buildgen commands
    sz.dump_json(sz.generator_to_obj(hk.length_functional(hk.GroupSpec((0,)), 4)),
                 HERE / "zdual_length_generator.json")
    # the unit shift counit - haar: the identity at every nontrivial label
    mixed = hk.make_table([("a", 2), ("b", 3)])
    unit_shift = hk.GeneratingFunctional(mixed, {lab: np.eye(d) for lab, d in list(mixed)[1:]})
    sz.dump_json(sz.generator_to_obj(unit_shift), HERE / "unit_shift_generator.json")

    # buildgen input: the default-schedule state sequence exp(-|m|/n), n <= 6
    t4 = hk.dual_irrep_table(hk.GroupSpec((0,)), 4)
    sz.dump_json({
        "table": sz.table_to_obj(t4),
        "families": [
            {"blocks": zdual_scalar_blocks(t4, lambda m, n=n: math.exp(-abs(m) / n)),
             "normalized": True}
            for n in range(1, 7)
        ],
    }, HERE / "buildgen_zdual.json")
    print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
