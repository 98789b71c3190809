"""Command-line front end.

Subcommands: certify-hap, semigroup, freeprod, schoenberg, cocycle,
buildgen.  Every run terminates with exit code 0 (all conditions PASS),
1 (at least one FAIL) or 2 (input error), prints a deterministic plain-text
report to stdout and optionally writes the machine-readable report with
``--json PATH``.  Reports carry a content digest of the (canonicalized)
input, the truncation they were computed on, and every numeric default in
use, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import cfree, classical, genfun, serialize
from .cocycle import check_proper_cocycle, factor_from_generator
from .fourier import DEFAULT_TOL, MatrixFamily, check_hap_sequence
from .irreps import free_product_table
from .reports import (CertificationReport, ConditionVerdict, Witness, __version__,
                      content_digest, fmt)

DEFAULT_EPS_DECAY = 1e-3
DEFAULT_MAX_WORD_LENGTH = 3


class InputError(ValueError):
    """Anything wrong with the input: exit code 2."""


_REQUIRED = object()
_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number"}


def _knob(key: str, kind=float, *, obj=None, cli=None, default=_REQUIRED, many=False,
          least=None, nan_ok=False, where: str = ""):
    """The one reader of knobs: a command-line value ``cli`` overrides ``obj[key]``.

    A knob's kind is bool, int or float; a bool is never a number, and a number
    or a string is never a bool.  Numbers must be ``>= least``.  Floats must be
    finite, except that ``nan_ok`` lets NaN through to a check that fails
    closed on it.  A ``many`` knob is a nonempty JSON list or a comma-separated
    command-line string.  An absent knob is ``default``, or an error if none.
    """
    if cli is not None:
        what, value = "--" + key.replace("_", "-"), cli
        if many:
            try:
                value = [kind(x) for x in cli.split(",") if x.strip()]
            except ValueError as exc:
                raise InputError(f"{what}: {exc}") from None
    elif obj is not None and key in obj:
        what, value = where + key, obj[key]
    elif default is _REQUIRED:
        raise InputError(f"missing {where + key!r}")
    else:
        return default
    if many and (not isinstance(value, list) or not value):
        raise InputError(f"{what}: expected a nonempty list")
    for v in value if many else [value]:
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        ok = {bool: isinstance(v, bool), int: number and isinstance(v, int),
              float: number and (abs(v) <= sys.float_info.max or nan_ok and v != v)}[kind]
        if not ok or (least is not None and v < least):
            rule = _KINDS[kind] + (" or NaN" if nan_ok else "") \
                + ("" if least is None else f" >= {least}")
            raise InputError(f"{what}: expected {rule}, got {v!r}")
    return [kind(v) for v in value] if many else kind(value)


def _load(path: str):
    obj = serialize.load_json(path)
    return obj, content_digest(obj)


def _default_conv_tols(n: int) -> list[float]:
    return [2.0 ** -(i + 1) for i in range(n)]


def _family_sequence(table, objs, where: str) -> list[MatrixFamily]:
    if not isinstance(objs, list) or not objs:
        raise InputError(f"{where}: 'families' must be a nonempty list")
    out = []
    for i, fam in enumerate(objs):
        here = f"{where}[{i}]"
        if not isinstance(fam, dict) or "blocks" not in fam:
            raise InputError(f"{where}: family {i} must be an object with 'blocks'")
        blocks = serialize.blocks_from_obj(table, fam["blocks"], here)
        normalized = _knob("normalized", bool, obj=fam, default=True, where=here + ".")
        try:
            out.append(MatrixFamily(table, blocks, normalized=normalized))
        except (ValueError, KeyError) as exc:
            raise InputError(f"{here}: {exc}") from None
    return out


def _load_states(path: str):
    """Load a 'table' + 'families' input: (object, digest, table, families)."""
    obj, digest = _load(path)
    if not isinstance(obj, dict) or "table" not in obj or "families" not in obj:
        raise InputError(f"{path}: expected an object with 'table' and 'families'")
    table = serialize.table_from_obj(obj["table"], "table")
    return obj, digest, table, _family_sequence(table, obj["families"], "families")


def _emit(report: CertificationReport, args) -> int:
    if not args.quiet:
        sys.stdout.write(report.to_text())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_obj(), sort_keys=True, indent=2) + "\n")
    return report.exit_code


def cmd_certify_hap(args) -> int:
    obj, digest, _, families = _load_states(args.input)
    eps_decay = _knob("eps_decay", obj=obj, cli=args.eps_decay, default=DEFAULT_EPS_DECAY)
    conv_tols = _knob("conv_tols", obj=obj, cli=args.conv_tols, many=True, nan_ok=True,
                      default=_default_conv_tols(len(families)))
    k_values = _knob("k_values", int, obj=obj, cli=args.k_values, many=True, least=1,
                     default=None)
    report = check_hap_sequence(families, eps_decay, conv_tols, k_values=k_values,
                                tol=args.tol, input_digest=digest)
    return _emit(report, args)


def cmd_semigroup(args) -> int:
    obj, digest = _load(args.gen)
    L = serialize.generator_from_obj(obj)
    ts = _knob("t", cli=args.t, many=True, least=0)
    if len(set(ts)) < len(ts):  # each t names one output file, written once
        raise InputError(f"--t: repeated value in {args.t!r}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # every family is evaluated and checked before the first write: all files or none
    # an overflow is caught by the finite check below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        families = [(outdir / f"semigroup_t{t!r}.json", genfun.semigroup_at(L, t))
                    for t in ts]
    for path, family in families:
        for lab, blk in family.blocks.items():
            if not np.isfinite(blk).all():
                raise ValueError(f"{path}: block {family.table.encode(lab)!r} is not finite")
    written = []
    for path, family in families:
        serialize.dump_json(serialize.family_to_obj(family), path)
        written.append(path.name)
    report = CertificationReport(
        command="semigroup",
        input_digest=digest,
        truncation=f"{len(L.table)} labels",
        tolerances=(("tol", args.tol),),
        conditions=(ConditionVerdict(
            name="evaluation", passed=True,
            summary=f"{len(written)} semigroup families written"),),
        notes=tuple(f"wrote {name}" for name in written)
        + (f"t values: {', '.join(fmt(t) for t in ts)}",),
    )
    return _emit(report, args)


def _factor_sequence(entry, where: str, k_values) -> tuple:
    """One free-product factor: (its table, its family at each stage k)."""
    if isinstance(entry, dict) and "group" in entry:
        if not isinstance(entry["group"], str):
            raise InputError(f"{where}.group: expected a group spec, got {entry['group']!r}")
        try:
            spec = classical.parse_group(entry["group"])
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        radius = _knob("radius", int, obj=entry, default=3, least=0, where=where + ".")
        L = classical.length_functional(spec, radius)
        return L.table, [genfun.semigroup_at(L, 1.0 / k) for k in k_values]
    if isinstance(entry, dict) and "table" in entry and "families" in entry:
        table = serialize.table_from_obj(entry["table"], where + ".table")
        return table, _family_sequence(table, entry["families"], where + ".families")
    raise InputError(f"{where}: needs an object with 'group' or 'table'+'families'")


def cmd_freeprod(args) -> int:
    obj, digest = _load(args.config)
    if not isinstance(obj, dict):
        raise InputError(f"{args.config}: expected a configuration object")
    k_values = _knob("k_values", int, obj=obj, many=True, least=1)
    max_word_length = _knob("max_word_length", int, obj=obj, least=0,
                            default=DEFAULT_MAX_WORD_LENGTH)
    eps_decay = _knob("eps_decay", obj=obj, default=DEFAULT_EPS_DECAY)
    conv_tols = _knob("conv_tols", obj=obj, many=True, nan_ok=True,
                      default=_default_conv_tols(len(k_values)))
    damp = _knob("damp", bool, obj=obj, default=False)
    t1, seq1 = _factor_sequence(obj.get("factor1"), "factor1", k_values)
    t2, seq2 = _factor_sequence(obj.get("factor2"), "factor2", k_values)
    wp = free_product_table(t1, t2, max_word_length)
    if damp:
        seq1 = cfree.damp_sequence(seq1, k_values)
        seq2 = cfree.damp_sequence(seq2, k_values)
    report = cfree.freeprod_hap_pipeline(seq1, seq2, wp, eps_decay, conv_tols,
                                         k_values, tol=args.tol, input_digest=digest)
    return _emit(report, args)


def cmd_schoenberg(args) -> int:
    spec = classical.parse_group(args.group)
    t = _knob("t", cli=args.t)
    passed, min_eig = classical.schoenberg_check(spec, t, args.radius, tol=args.tol)
    n = len(classical.ball(spec, args.radius))
    digest = content_digest({"group": args.group, "t": t, "radius": args.radius})
    report = CertificationReport(
        command="schoenberg",
        input_digest=digest,
        truncation=f"ball of radius {args.radius}: {n} elements ({n}x{n} Gram matrix)",
        tolerances=(("tol", args.tol), ("t", t)),
        conditions=(ConditionVerdict(
            name="gram-positive-semidefinite", passed=passed,
            witnesses=(Witness(label="*", achieved=min_eig, threshold=-args.tol,
                               context="smallest eigenvalue"),),
            summary=f"exp(-t*length) kernel on the group {args.group}"),),
    )
    return _emit(report, args)


def cmd_cocycle(args) -> int:
    obj, digest = _load(args.gen)
    L = serialize.generator_from_obj(obj)
    M = _knob("M", cli=args.M)
    if M <= 0:
        raise InputError("--M must be positive")
    truncation = f"{len(L.table)} labels"
    sym = genfun.check_symmetric(L, args.tol)
    conditions = [ConditionVerdict(
        name="symmetric", passed=sym.ok,
        witnesses=(Witness(label="*", achieved=sym.residual, threshold=args.tol,
                           context="largest Hermitian residual"),),
        summary="all blocks self-adjoint")]
    if sym.ok:
        pos = genfun.check_positive_blocks(L, args.tol)
        conditions.append(ConditionVerdict(
            name="positive-blocks", passed=pos.ok,
            witnesses=(Witness(label="*", achieved=pos.min_eigenvalue, threshold=-args.tol,
                               context="smallest block eigenvalue"),),
            summary="all blocks positive semidefinite"))
    notes = []
    if all(c.passed for c in conditions):
        c = factor_from_generator(L, tol=args.tol)
        out = Path(args.out) if args.out else Path(args.gen).with_suffix(".cocycle.json")
        serialize.dump_json(serialize.cocycle_to_obj(c), out)
        notes.append(f"wrote {out.name}")
        proper = check_proper_cocycle(c, M)
        exceptional = ", ".join(L.table.encode(lab) for lab, _ in proper.exceptional)
        conditions.append(ConditionVerdict(
            name="proper-at-level", passed=proper.proper_at_level,
            witnesses=tuple(Witness(label=L.table.encode(lab), achieved=low,
                                    threshold=M, context="min eigenvalue of (c*)c")
                            for lab, low in proper.exceptional),
            summary=(f"proper at level M={fmt(M)} (up to a truncation of {truncation}): "
                     f"{proper.certified_count} blocks certified >= M")))
        notes.append(f"exceptional set at M={fmt(M)}: "
                     + (f"{{{exceptional}}}" if exceptional else "{}"))
    report = CertificationReport(
        command="cocycle",
        input_digest=digest,
        truncation=truncation,
        tolerances=(("tol", args.tol), ("M", M)),
        conditions=tuple(conditions),
        notes=tuple(notes),
    )
    return _emit(report, args)


def cmd_buildgen(args) -> int:
    obj, digest, table, families = _load_states(args.input)
    L, build = genfun.build_from_states(
        families,
        betas=_knob("betas", obj=obj, many=True, default=None),
        eps=_knob("eps", obj=obj, many=True, default=None),
    )
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".generator.json")
    serialize.dump_json(serialize.generator_to_obj(L), out)
    schedule = ", ".join(f"(beta={fmt(b)}, eps={fmt(e)})" for b, e in build.schedule)
    tail = "not available for this schedule" if build.tail_bound is None \
        else fmt(build.tail_bound)
    report = CertificationReport(
        command="buildgen",
        input_digest=digest,
        truncation=f"{len(table)} labels",
        tolerances=(("tol", args.tol),),
        conditions=(ConditionVerdict(
            name="epsilon-certificate", passed=not build.flagged,
            witnesses=tuple(Witness(label=table.encode(lab), achieved=float("inf"),
                                    threshold=0.0,
                                    context="no suffix of the schedule certifies this label")
                            for lab in build.flagged),
            summary="every label eventually meets ||I - block_n|| <= eps_n"),),
        notes=(f"wrote {out.name}",
               f"schedule: {schedule}",
               f"tail bound beyond supplied range: {tail}"),
    )
    return _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="numeric comparison tolerance (default 1e-9)")
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report here")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the text report on stdout")

    parser = argparse.ArgumentParser(
        prog="hapkit",
        description="Desk-scale certification of blockwise Haagerup-property criteria")
    parser.add_argument("--version", action="version", version=f"hapkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify-hap", parents=[common],
                       help="check c0 decay and convergence to identity on a state sequence")
    p.add_argument("input", help="JSON file with 'table' and 'families'")
    p.add_argument("--eps-decay", type=float, default=None,
                   help=f"c0 threshold (default {DEFAULT_EPS_DECAY})")
    p.add_argument("--conv-tols", default=None,
                   help="comma-separated per-family convergence tolerances")
    p.add_argument("--k-values", default=None,
                   help="comma-separated damping stages; enables the exp(-1/k) bound")
    p.set_defaults(func=cmd_certify_hap)

    p = sub.add_parser("semigroup", parents=[common],
                       help="evaluate the semigroup of a generating functional")
    p.add_argument("gen", help="generator JSON file")
    p.add_argument("--t", required=True, help="comma-separated times, each >= 0")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("freeprod", parents=[common],
                       help="run the free-product certification pipeline")
    p.add_argument("config", help="pipeline configuration JSON file")
    p.set_defaults(func=cmd_freeprod)

    p = sub.add_parser("schoenberg", parents=[common],
                       help="positive-definiteness of exp(-t*length) on a group ball")
    p.add_argument("--group", required=True, help='group spec, e.g. "F2", "Z3*Z4", "Z"')
    p.add_argument("--t", type=float, default=1.0, help="kernel decay rate (default 1)")
    p.add_argument("--radius", type=int, default=2, help="ball radius (default 2)")
    p.set_defaults(func=cmd_schoenberg)

    p = sub.add_parser("cocycle", parents=[common],
                       help="factor a cocycle out of a symmetric positive generator")
    p.add_argument("gen", help="generator JSON file")
    p.add_argument("--M", type=float, required=True, help="properness threshold")
    p.add_argument("--out", default=None,
                   help="cocycle output path (default <gen>.cocycle.json)")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("buildgen", parents=[common],
                       help="assemble a generator as sum_n beta_n (counit - mu_n)")
    p.add_argument("input", help="JSON file with 'table', 'families' and optional schedule")
    p.add_argument("--out", default=None,
                   help="generator output path (default <input>.generator.json)")
    p.set_defaults(func=cmd_buildgen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = _knob("tol", cli=args.tol, nan_ok=True)
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        # InputError, serialize.SchemaError and library argument errors alike
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
