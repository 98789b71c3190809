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
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cfree, classical, cocycle, genfun, serialize
from .fourier import DEFAULT_TOL, MatrixFamily, check_hap_sequence
from .irreps import free_product_table
from .reports import CertificationReport, __version__, content_digest

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


def _nontrivial(table, where: str):
    """``table``, unless it holds the trivial label alone: a condition of its
    report would then compare no row, and PASS on nothing."""
    if len(table) < 2:
        raise InputError(f"{where}: no nontrivial label, so nothing would be compared")
    return table


def _load_states(path: str):
    """Load a 'table' + 'families' input: (its knobs, digest, families)."""
    obj, digest = _load(path)
    if not isinstance(obj, dict) or "table" not in obj or "families" not in obj:
        raise InputError(f"{path}: expected an object with 'table' and 'families'")
    table = _nontrivial(serialize.table_from_obj(obj["table"], "table"), "table")
    return obj, digest, _family_sequence(table, obj["families"], "families")


def _load_generator(path: str):
    """Load a generator input: (digest, generator)."""
    obj, digest = _load(path)
    return digest, serialize.generator_from_obj(obj)


def _emit(report: CertificationReport, args) -> int:
    if args.json:  # first, so that a report that cannot be written prints no verdict
        with open(args.json, "w") as fh:
            fh.writelines(report.json_pieces())
    if not args.quiet:  # a character stdout cannot encode prints as its escape
        encoding = sys.stdout.encoding or "utf-8"
        sys.stdout.write(report.to_text().encode(encoding, "backslashreplace").decode(encoding))
    return report.exit_code


def _wrote(report: CertificationReport, paths) -> CertificationReport:
    """``report`` with a ``wrote <name>`` note for each written path, before its notes."""
    return replace(report, notes=tuple(f"wrote {path.name}" for path in paths) + report.notes)


def cmd_certify_hap(args) -> int:
    obj, digest, families = _load_states(args.input)
    eps_decay = _knob("eps_decay", obj=obj, cli=args.eps_decay, default=DEFAULT_EPS_DECAY)
    conv_tols = _knob("conv_tols", obj=obj, cli=args.conv_tols, many=True, nan_ok=True,
                      default=_default_conv_tols(len(families)))
    k_values = _knob("k_values", int, obj=obj, cli=args.k_values, many=True, least=1,
                     default=None)
    report = check_hap_sequence(families, eps_decay, conv_tols, k_values=k_values,
                                tol=args.tol, input_digest=digest)
    return _emit(report, args)


def cmd_semigroup(args) -> int:
    digest, L = _load_generator(args.gen)
    ts = _knob("t", cli=args.t, many=True, least=0)
    if len(set(ts)) < len(ts):  # each t names one output file, written once
        raise InputError(f"--t: repeated value in {args.t!r}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report, families = genfun.semigroup_report(L, ts, digest)
    paths = [outdir / f"semigroup_t{t!r}.json" for t in ts]
    # every family is checked before the first write: all files or none
    for path, family in zip(paths, families):
        bad = np.flatnonzero(~family.blocks.scan(lambda s: np.isfinite(s).all(axis=(-2, -1)), bool))
        if bad.size:
            at = int(family.positions[bad[0]])
            raise ValueError(f"{path}: block {family.table.key_at(at)!r} is not finite")
    for path, family in zip(paths, families):
        serialize.dump_json(serialize.family_to_obj(family), path)
    return _emit(_wrote(report, paths), args)


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
    wp = _nontrivial(free_product_table(t1, t2, max_word_length), "word table")
    if damp:
        seq1 = cfree.damp_sequence(seq1, k_values)
        seq2 = cfree.damp_sequence(seq2, k_values)
    report = cfree.freeprod_hap_pipeline(seq1, seq2, wp, eps_decay, conv_tols,
                                         k_values, tol=args.tol, input_digest=digest)
    return _emit(report, args)


def cmd_schoenberg(args) -> int:
    spec = classical.parse_group(args.group)
    t = _knob("t", cli=args.t)
    digest = content_digest({"group": args.group, "t": t, "radius": args.radius})
    return _emit(classical.schoenberg_report(spec, t, args.radius, args.tol, group=args.group,
                                             input_digest=digest), args)


def cmd_cocycle(args) -> int:
    digest, L = _load_generator(args.gen)
    M = _knob("M", cli=args.M)
    if M <= 0:
        raise InputError("--M must be positive")
    report, c = cocycle.cocycle_report(L, M, args.tol, digest)
    if c is not None:
        out = Path(args.out) if args.out else Path(args.gen).with_suffix(".cocycle.json")
        serialize.dump_json(serialize.cocycle_to_obj(c), out)
        report = _wrote(report, [out])
    return _emit(report, args)


def cmd_buildgen(args) -> int:
    obj, digest, families = _load_states(args.input)
    report, L = genfun.buildgen_report(families, _knob("betas", obj=obj, many=True, default=None),
                                       _knob("eps", obj=obj, many=True, default=None), digest)
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".generator.json")
    serialize.dump_json(serialize.generator_to_obj(L), out)
    return _emit(_wrote(report, [out]), args)


@functools.cache  # one argparse tree per process: building it costs more than parsing
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report here")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the text report on stdout")
    compares = argparse.ArgumentParser(add_help=False, parents=[common])
    compares.add_argument("--tol", type=float, default=DEFAULT_TOL,
                          help="numeric comparison tolerance (default 1e-9)")

    parser = argparse.ArgumentParser(
        prog="hapkit",
        description="Desk-scale certification of blockwise Haagerup-property criteria")
    parser.add_argument("--version", action="version", version=f"hapkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify-hap", parents=[compares],
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

    p = sub.add_parser("freeprod", parents=[compares],
                       help="run the free-product certification pipeline")
    p.add_argument("config", help="pipeline configuration JSON file")
    p.set_defaults(func=cmd_freeprod)

    p = sub.add_parser("schoenberg", parents=[compares],
                       help="positive-definiteness of exp(-t*length) on a group ball")
    p.add_argument("--group", required=True, help='group spec, e.g. "F2", "Z3*Z4", "Z"')
    p.add_argument("--t", type=float, default=1.0, help="kernel decay rate (default 1)")
    p.add_argument("--radius", type=int, default=2, help="ball radius (default 2)")
    p.set_defaults(func=cmd_schoenberg)

    p = sub.add_parser("cocycle", parents=[compares],
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
        if "tol" in vars(args):  # semigroup and buildgen compare nothing against it
            args.tol = _knob("tol", cli=args.tol, nan_ok=True)
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        # InputError, serialize.SchemaError and library argument errors alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input whose tables or Gram cannot be allocated
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
