"""Command line front end.

Exit codes, uniform across subcommands:

  0  the check passed, the conversion succeeded, or a witness was found
  1  the check failed, or the obstruction pipeline proved non-existence
  2  the obstruction pipeline ran out of candidates (Undetermined)
  3  unusable input (malformed files, unknown names, bad usage), or a
     failed internal cross-check

obstruct-abelian re-checks every verdict it prints with the independent
checker verify_certificate; a verdict that fails it is a bug, reported
as a one-line error on exit code 3.

--json renders the same report as a stable JSON document (sorted keys,
fixed indentation), so identical inputs give byte-identical output.
--quiet suppresses stdout entirely; the exit code carries the answer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from .affine import (AffineRep, check_simply_transitive, rep_from_dict,
                     rep_of_files, rep_to_dict)
from .corpus import bundled_rep_names
from .errors import (DerivationError, FieldMismatchError,
                     IncompleteStructureError, InternalError, LRIdentityError,
                     NotSimplyTransitiveError, ParseError, PreconditionError,
                     ShapeError)
from .io import read_json, stable_json, write_json
from .liealg import (MAX_SAMPLES, LieAlgebra, algebra_from_dict,
                     algebra_to_dict, catalog_names, derivation_space, get_algebra)
from .linalg import engel_flag, matrix_to_json, vector_to_json
from .lr import (LRStructure, check_lr, lr_from_dict, lr_to_dict, lr_to_rep,
                 rep_to_lr)
from .obstruction import (_render_many, obstruct_abelian, parametric_derivation,
                          variable_namer, verify_certificate)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on exit code 3 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit(args, doc: dict | Callable[[], dict], lines: list[str]) -> None:
    """Print the doc under --json, else the lines; a costly doc may come as
    its builder, called only to print it."""
    if args.quiet:
        return
    if args.json:
        sys.stdout.write(stable_json(doc() if callable(doc) else doc))
    else:
        print("\n".join(lines))


def _write_doc(args, doc: dict) -> None:
    if getattr(args, "output", None):
        write_json(Path(args.output), doc)
        if not args.quiet:
            print(f"wrote {args.output}")
    elif not args.quiet:
        sys.stdout.write(stable_json(doc))


def _load_algebra(parser: _Parser, args) -> LieAlgebra:
    if args.algebra is not None and args.file is not None:
        parser.error("give either a file or --algebra, not both")
    if args.algebra is not None:
        return get_algebra(args.algebra)
    if args.file is None:
        parser.error("an algebra file or --algebra NAME is required")
    return algebra_from_dict(read_json(args.file), where=args.file)


def _load_rep(args) -> AffineRep:
    if args.source or args.target:
        if not (args.source and args.target):
            raise ParseError("--source and --target must be given together")
        return rep_of_files(args.source, args.target, args.rep)
    return rep_from_dict(read_json(args.rep), where=args.rep)


def _load_lr(path: str) -> LRStructure:
    return lr_from_dict(read_json(path), where=path)


def _pass(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# ----------------------------------------------------------------- commands


def _cmd_check_lie(parser, args) -> int:
    L = _load_algebra(parser, args)
    jac = L.check_jacobi()
    (lower, nilpotent), (derived, metabelian) = L._series(False), L._series(True)
    lcs, ds = [len(layer) for layer in lower], [len(layer) for layer in derived]
    doc = {
        "name": L.name,
        "dim": L.dim,
        "d": L.d,
        "jacobi": {
            "ok": jac.ok,
            "violations": [{"triple": list(v.triple),
                            "residual": vector_to_json(v.residual)}
                           for v in jac.violations],
        },
        "abelian": L.is_abelian(),
        "nilpotent": nilpotent,
        "two_step_solvable": metabelian,
        "lower_central_dims": lcs,
        "derived_dims": ds,
        "center_dim": len(L.center()),
    }
    lines = [f"algebra {L.name}: dim {L.dim}, d = {L.d}",
             f"  jacobi: {_pass(jac.ok)}"]
    for v in jac.violations[:5]:
        lines.append(f"    triple {v.triple} leaves a nonzero cyclic sum")
    lines += [
        f"  abelian: {doc['abelian']}",
        f"  nilpotent: {doc['nilpotent']} (lower central dims {lcs})",
        f"  two-step solvable: {doc['two_step_solvable']} (derived dims {ds})",
        f"  center dim: {doc['center_dim']}",
    ]
    _emit(args, doc, lines)
    return 0 if jac.ok else 1


def _cmd_derivations(parser, args) -> int:
    L = _load_algebra(parser, args)
    space = derivation_space(L)
    doc = {
        "algebra": L.name,
        "dimension": space.dimension,
        "anchors": [[i + 1, k + 1] for i, k in space.anchors],
        "basis": [matrix_to_json(m) for m in space.basis],
    }
    lines = [f"derivations of {L.name}: dimension {space.dimension}"]
    if space.dimension:
        name = variable_namer(space)
        generic = parametric_derivation(L, 0, space)
        lines.append("generic derivation:")
        texts = iter(_render_many([generic.entry(r, c) for r in range(L.dim)
                                   for c in range(L.dim)], name))
        rendered = list(zip(*[texts] * L.dim))   # the grid's rows, rendered
        widths = [max(map(len, column)) for column in zip(*rendered)]
        for row in rendered:
            lines.append(f"  [ {'  '.join(map(str.rjust, row, widths))} ]")
    _emit(args, doc, lines)
    return 0


def _hom_doc(report) -> dict:
    return {
        "ok": report.ok,
        "violations": [{"pair": list(v.pair),
                        "vector_residual": vector_to_json(v.vector_residual),
                        "matrix_residual": matrix_to_json(v.matrix_residual)}
                       for v in report.violations],
    }


def _cmd_check_rep(parser, args) -> int:
    try:
        rep = _load_rep(args)
        verdict = check_simply_transitive(rep)
    except DerivationError as err:
        doc = {"overall": False, "error": str(err)}
        _emit(args, doc, [f"rep: FAIL ({err})"])
        return 1
    bij = verdict.t_bijective
    nil = verdict.linear_parts_nilpotent
    doc = {
        "label": rep.label,
        "source": rep.source.name,
        "target": rep.target.name,
        "homomorphism": _hom_doc(verdict.homomorphism),
        "t_bijective": {"ok": bij.ok, "rank": bij.rank,
                        "source_dim": bij.source_dim,
                        "target_dim": bij.target_dim,
                        "reason": bij.reason},
        "linear_parts_nilpotent": {
            "ok": nil.ok,
            "flag": [vector_to_json(v) for v in nil.flag.basis]
            if nil.flag else None,
            "stalled": [vector_to_json(v) for v in nil.failure.stalled]
            if nil.failure is not None else None,
            "witness": {"coefficients": vector_to_json(nil.witness.coefficients),
                        "matrix": matrix_to_json(nil.witness.matrix)}
            if nil.witness else None,
        },
        "overall": verdict.overall,
    }
    lines = [f"rep {rep.label}: {rep.source.name} -> {rep.target.name}",
             f"  homomorphism: {_pass(verdict.homomorphism.ok)}"]
    for v in verdict.homomorphism.violations[:5]:
        lines.append(f"    pair {v.pair} disagrees")
    lines.append(f"  translations bijective: {_pass(bij.ok)}"
                 + (f" (rank {bij.rank})" if bij.ok else f" ({bij.reason})"))
    lines.append(f"  linear parts nilpotent: {_pass(nil.ok)}")
    lines.append(f"  overall: {_pass(verdict.overall)}")
    _emit(args, doc, lines)
    return 0 if verdict.overall else 1


def _cmd_rep_to_lr(parser, args) -> int:
    try:
        rep = _load_rep(args)
        s = rep_to_lr(rep)
    except (DerivationError, NotSimplyTransitiveError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_doc(args, lr_to_dict(s))
    return 0


def _cmd_lr_to_rep(parser, args) -> int:
    try:
        s = _load_lr(args.lr)
        rep = lr_to_rep(s)
    except (LRIdentityError, IncompleteStructureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_doc(args, rep_to_dict(rep))
    return 0


def _cmd_check_lr(parser, args) -> int:
    s = _load_lr(args.lr)
    report = check_lr(s)   # a Jacobi failure exits 3, through main
    # identity (1) is decided by check_lr; once it holds, the Engel flag
    # alone decides completeness
    flag = engel_flag(s.lefts, size=s.algebra.dim, d=s.d) if report.ok else None
    doc = {
        "algebra": s.algebra.name,
        "identities_ok": report.ok,
        "violations": [{"identity": v.identity, "where": list(v.where),
                        "residual": vector_to_json(v.residual)}
                       for v in report.violations],
        "complete": None if flag is None else bool(flag),
        "flag": [vector_to_json(v) for v in flag.basis] if flag else None,
    }
    lines = [f"left-symmetric structure on {s.algebra.name}:",
             f"  identities: {_pass(report.ok)}"]
    for v in report.violations[:5]:
        lines.append(f"    identity ({v.identity}) fails at {v.where}")
    if flag is not None:
        lines.append(f"  complete: {_pass(bool(flag))}")
    ok = bool(flag)
    lines.append(f"  overall: {_pass(ok)}")
    _emit(args, doc, lines)
    return 0 if ok else 1


def _cmd_obstruct(parser, args) -> int:
    L = _load_algebra(parser, args)
    out = obstruct_abelian(L, samples=args.samples, seed=args.seed)
    if not verify_certificate(out, L):
        raise InternalError(
            f"the {out.verdict} verdict on {L.name!r} fails its independent "
            f"check; this is a bug")
    lines = [f"algebra {L.name}: dim {L.dim}, "
             f"derivation space dim {out.space.dimension}",
             f"verdict: {out.verdict}"]
    named = out.forced_named()
    if named:
        lines.append(f"forced coefficients ({len(named)}):")
        for key in sorted(named):
            lines.append(f"  {key} = {named[key]}")
    if out.certificate is not None:
        c = out.certificate
        lines.append(f"certificate: commutator of pair {c.pair}, entry "
                     f"{c.position} reduces to {c.constant}")
    if out.witness_rep is not None:
        lines.append(f"witness: {out.witness_rep.label}")
    if out.verdict == "Undetermined":
        lines.append(f"residual equations: {len(out.residual)} "
                     f"(after {args.samples} samples, seed {args.seed})")
    _emit(args, out.to_dict, lines)
    return {"Found": 0, "Obstructed": 1, "Undetermined": 2}[out.verdict]


def _cmd_catalog(parser, args) -> int:
    if args.action == "list":
        if args.name is not None or args.output is not None:
            parser.error("catalog list takes no further arguments")
        doc = {"algebras": [], "reps": list(bundled_rep_names())}
        lines = ["catalog algebras:"]
        for name in catalog_names():
            L = get_algebra(name)
            doc["algebras"].append({"name": name, "dim": L.dim,
                                    "nilpotent": L.is_nilpotent()})
            lines.append(f"  {name:8s} dim {L.dim}")
        lines.append("bundled reps:")
        for slug in bundled_rep_names():
            lines.append(f"  {slug}")
        _emit(args, doc, lines)
        return 0
    if args.name is None:
        parser.error(f"catalog {args.action} needs an algebra name")
    L = get_algebra(args.name)
    if args.action == "show":
        doc = algebra_to_dict(L)
        lines = [L.describe(),
                 f"nilpotent: {L.is_nilpotent()}, "
                 f"two-step solvable: {L.is_two_step_solvable()}"]
        _emit(args, doc, lines)
        return 0
    _write_doc(args, algebra_to_dict(L))
    return 0


# ----------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a stable JSON report")
    common.add_argument("--quiet", action="store_true",
                        help="no stdout; rely on the exit code")

    parser = _Parser(prog="nilaffine",
                     description="exact checks for affine actions on "
                                 "nilpotent Lie algebras")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def algebra_input(p):
        p.add_argument("file", nargs="?", help="algebra JSON file")
        p.add_argument("--algebra", metavar="NAME",
                       help="use a catalog algebra instead of a file")

    p = sub.add_parser("check-lie", parents=[common],
                       help="validate a bracket table and report structure")
    algebra_input(p)
    p.set_defaults(func=_cmd_check_lie)

    p = sub.add_parser("derivations", parents=[common],
                       help="basis and shape of the derivation space")
    algebra_input(p)
    p.set_defaults(func=_cmd_derivations)

    def rep_input(p):
        p.add_argument("rep", help="rep JSON file")
        p.add_argument("--source", help="separate source algebra file")
        p.add_argument("--target", help="separate target algebra file")

    p = sub.add_parser("check-rep", parents=[common],
                       help="full simple-transitivity verdict for a rep")
    rep_input(p)
    p.set_defaults(func=_cmd_check_rep)

    p = sub.add_parser("rep-to-lr", parents=[common],
                       help="convert an abelian rep to its product grid")
    rep_input(p)
    p.add_argument("--output", "-o", help="write the result here")
    p.set_defaults(func=_cmd_rep_to_lr)

    p = sub.add_parser("lr-to-rep", parents=[common],
                       help="rebuild the abelian rep of a complete product")
    p.add_argument("lr", help="left-symmetric structure JSON file")
    p.add_argument("--output", "-o", help="write the result here")
    p.set_defaults(func=_cmd_lr_to_rep)

    p = sub.add_parser("check-lr", parents=[common],
                       help="check product identities and completeness")
    p.add_argument("lr", help="left-symmetric structure JSON file")
    p.set_defaults(func=_cmd_check_lr)

    p = sub.add_parser("obstruct-abelian", parents=[common],
                       help="decide abelian simple transitivity exactly")
    algebra_input(p)
    p.add_argument("--samples", type=int, default=25,
                   help=f"random assignments to try (default 25, max {MAX_SAMPLES})")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the witness search (default 0)")
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("catalog", parents=[common],
                       help="list, show or export built-in algebras")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("name", nargs="?", help="catalog algebra name")
    p.add_argument("output", nargs="?", help="file to export into")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 3
    try:
        return args.func(parser, args)
    except (ParseError, ShapeError, FieldMismatchError, PreconditionError,
            InternalError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
