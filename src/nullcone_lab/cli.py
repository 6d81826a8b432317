"""Command-line entry point: named verification suites and ad-hoc computations.

Exit code 0 means every claim passed; 1 means a claim failed or a bounded
computation came back undetermined; 2 means the invocation was invalid.
JSON output is byte-identical across reruns with the same parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from . import __version__
from .constructions import gl2_test_module, gn_module, torus_module, va_module
from .errors import BadParameter, NullconeLabError, UnknownSuite
from .fields import FieldCtx, ff_make
from .groups import MatrixGroup, Representation, regular_rep
from .invariants import (
    check_point_count,
    delta_bounded,
    epsilon,
    invariant_space,
    nullcone_status,
    sigma_bounded,
)
from .linalg import Matrix
from .poly import Polynomial, poly_parse
from .suites import ALL_SUITE_RUNS, SUITES, run_suite


def _dump_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dump_csv(rows) -> None:
    writer = csv.writer(sys.stdout)
    for row in rows:
        writer.writerow(row)


# ---------------------------------------------------------------------------
# module specs


def _parse_field_arg(text: str) -> FieldCtx:
    """'2' -> F_2, '2,2' -> F_4, '0' -> rationals."""
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise BadParameter(f"bad field {text!r}; use 'p', 'p,n' or '0'")
    if parts[0] == 0:
        return FieldCtx.rationals()
    return ff_make(*parts[:2])


class ModuleSpec:
    """A named builder instance: e.g. va:p=2,n=1,m=2 or gl2:p=2,n=2."""

    def __init__(self, rep: Representation, label: str,
                 candidates: list[Polynomial] | None = None,
                 default_point: list | None = None):
        self.rep = rep
        self.label = label
        self.candidates = candidates
        self.default_point = default_point


def _spec_args(text: str) -> tuple[str, dict[str, int]]:
    """'name:k=v,...' -> (name, {k: v})."""
    if ":" not in text:
        raise BadParameter(f"module spec {text!r} must look like name:k=v,...")
    name, _, arg_text = text.partition(":")
    args: dict[str, int] = {}
    for piece in arg_text.split(","):
        if not piece.strip():
            continue
        key, _, val = piece.partition("=")
        try:
            args[key.strip()] = int(val)
        except ValueError as exc:
            raise BadParameter(f"bad integer in module spec: {piece!r}") from exc
    return name, args


def parse_module_spec(text: str) -> ModuleSpec:
    name, args = _spec_args(text)
    try:
        if name == "va":
            module = va_module(args["p"], args["n"], args["m"])
            return ModuleSpec(module.rep, text, candidates=module.candidates)
        if name == "gl2":
            module = gl2_test_module(args["p"], args["n"])
            return ModuleSpec(module.rep, text,
                              default_point=module.identity_point)
        if name == "torus":
            module = torus_module(args["q"], args["r"], args["m"])
            return ModuleSpec(module.rep, text, candidates=[module.witness],
                              default_point=module.point)
        if name == "gn":
            _, rep = gn_module(args["p"], args["n"])
            return ModuleSpec(rep, text)
        if name == "cyclic":
            ctx = ff_make(args["p"])
            k = args["k"]
            if k < 1:
                raise BadParameter(f"cyclic module needs k >= 1, got {k}")
            rows = [[ctx.one if i == (j + 1) % k else ctx.zero
                     for j in range(k)] for i in range(k)]
            group = MatrixGroup.closure([Matrix(ctx, rows)])
            return ModuleSpec(regular_rep(group), text)
    except KeyError as exc:
        raise BadParameter(f"module spec {text!r} misses parameter {exc}") from exc
    except NullconeLabError as exc:
        raise BadParameter(f"module spec {text!r}: {exc}") from exc
    raise BadParameter(f"unknown module builder {name!r}")


def _refuse_oversized_sigma(args) -> None:
    """Refuse a sigma request whose point count the argv already fixes, before
    the module is built: the cyclic builder's dimension is its k.  Requests
    this cannot size, or that are malformed, are left to the usual path."""
    name, params = _spec_args(args.module)
    if name != "cyclic" or params.get("k", 0) < 1 or "p" not in params:
        return
    try:
        pointfield = (_parse_field_arg(args.pointfield) if args.pointfield
                      else ff_make(params["p"]))
    except NullconeLabError:
        return
    check_point_count(pointfield, params["k"])


def _resolve_rep(args) -> ModuleSpec:
    if args.module:
        return parse_module_spec(args.module)
    if args.gens:
        if not args.field:
            raise BadParameter("--gens requires --field")
        ctx = _parse_field_arg(args.field)
        gens = [Matrix.parse(ctx, g.strip()) for g in args.gens.split("|")]
        group = MatrixGroup.closure(gens)
        return ModuleSpec(group.natural_rep(), f"gens:{args.gens}")
    raise BadParameter("need --module or --gens")


def _resolve_point(spec: ModuleSpec, rep: Representation, text: str | None):
    if text is None:
        if spec.default_point is not None:
            return list(spec.default_point)
        raise BadParameter("this computation needs --point")
    return [rep.ctx.parse(c) for c in text.split(",")]


def _resolve_generators(spec: ModuleSpec, rep: Representation,
                        text: str | None) -> list[Polynomial] | None:
    if text is None:
        return None
    if text == "auto":
        if spec.candidates is None:
            raise BadParameter(f"module {spec.label!r} has no builtin generators")
        return spec.candidates
    return [poly_parse(rep.ctx, rep.dim, part)
            for part in text.split(";") if part.strip()]


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    if args.suite == "all":
        runs = ALL_SUITE_RUNS
    else:
        if args.suite not in SUITES:
            raise UnknownSuite(f"unknown suite {args.suite!r}; choose from "
                               f"{sorted(SUITES)} or 'all'")
        params = {}
        for key in ("p", "n", "nmax"):
            value = getattr(args, key, None)
            if value is not None:
                if value < 1:
                    raise BadParameter(f"--{key} must be >= 1, got {value}")
                params[key] = value
        runs = [(args.suite, params)]

    reports = [run_suite(name, args.budget, **params) for name, params in runs]

    if args.json:
        if len(reports) == 1:
            _dump_json(reports[0].to_dict())
        else:
            _dump_json({"runs": [r.to_dict() for r in reports],
                        "pass": all(r.passed for r in reports)})
    elif args.csv:
        rows = reports[0].csv_rows()
        for extra in reports[1:]:
            rows.extend(extra.csv_rows()[1:])
        _dump_csv(rows)
    else:
        for report in reports:
            print(report.format_table())
        total = sum(len(r.claims) for r in reports)
        failed = sum(1 for r in reports for c in r.claims if not c.passed)
        print(f"{total - failed}/{total} claims passed")
    return 0 if all(r.passed for r in reports) else 1


def cmd_compute(args) -> int:
    for flag in ("dmax", "degree"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise BadParameter(f"--{flag} must be >= 0, got {value}")
    if args.what == "sigma" and args.module:
        _refuse_oversized_sigma(args)
    spec = _resolve_rep(args)
    rep = spec.rep

    if args.what == "invariant-space":
        if args.degree is None:
            raise BadParameter("invariant-space needs --degree")
        space = invariant_space(rep, args.degree)
        payload = {"module": spec.label, "degree": args.degree,
                   "dimension": space.dim,
                   "basis": [str(f) for f in space.basis],
                   "field": rep.ctx.describe()}
        if args.json:
            _dump_json(payload)
        else:
            print(f"invariant space of {spec.label} at degree {args.degree}: "
                  f"dimension {space.dim}")
            for f in space.basis:
                print(f"  {f}")
        return 0

    if args.what == "epsilon":
        if args.dmax is None:
            raise BadParameter("epsilon needs --dmax")
        point = _resolve_point(spec, rep, args.point)
        report = epsilon(rep, point, args.dmax)
    elif args.what in ("delta", "sigma"):
        if args.dmax is None:
            raise BadParameter(f"{args.what} needs --dmax")
        pointfield = (_parse_field_arg(args.pointfield)
                      if args.pointfield else rep.ctx)
        gens = _resolve_generators(spec, rep.lift(pointfield), args.generators)
        runner = delta_bounded if args.what == "delta" else sigma_bounded
        report = runner(rep, args.dmax, pointfield, declared_generators=gens)
    elif args.what == "nullcone":
        point = _resolve_point(spec, rep, args.point)
        gens = _resolve_generators(spec, rep, args.generators)
        status = nullcone_status(rep, point, args.dmax or 0,
                                 declared_generators=gens)
        if args.json:
            _dump_json({"module": spec.label, **status.to_dict()})
        else:
            print(f"nullcone status of {args.point} in {spec.label}: "
                  f"{status.verdict}"
                  + (f" (certificate {status.certificate})"
                     if status.certificate else ""))
        return 0
    else:
        raise BadParameter(f"unknown computation {args.what!r}")

    if args.json:
        _dump_json({"module": spec.label, **report.to_dict()})
    elif args.csv and args.what in ("delta", "sigma"):
        rows = [["point", "epsilon"]]
        for p, value in report.point_values:
            rows.append([",".join(str(s) for s in p),
                         str(value) if value is not None
                         else f"undetermined above {report.degree_bound}"])
        _dump_csv(rows)
    else:
        value = (report.value if report.determined
                 else f"undetermined above {report.degree_bound}")
        print(f"{report.kind}({spec.label}) = {value}")
        if report.witness is not None:
            print(f"  witness: {report.witness}")
        if report.points and args.what != "epsilon":
            shown = [",".join(str(s) for s in p) for p in report.points[:8]]
            print(f"  achieved at: {'; '.join(shown)}"
                  + (" ..." if len(report.points) > 8 else ""))
        if report.kind in ("delta", "sigma"):
            print(f"  unseparated points: {len(report.undetermined_points)}"
                  + (f" (certified in nullcone: {report.certified_complete})"
                     if report.certified_complete is not None else ""))
    return 0 if report.determined else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullcone-lab",
        description="exact separation-degree computations for finite matrix "
                    "groups, with named verification suites")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", help=f"one of {sorted(SUITES)} or 'all'")
    verify.add_argument("--p", type=int, default=None)
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--nmax", type=int, default=None)
    verify.add_argument("--budget", type=float, default=None,
                        help="soft time budget in minutes; remaining claims "
                             "are reported as skipped")
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--csv", action="store_true")
    verify.set_defaults(func=cmd_verify)

    compute = sub.add_parser("compute", help="run one computation")
    compute.add_argument("what", choices=["epsilon", "delta", "sigma",
                                          "invariant-space", "nullcone"])
    compute.add_argument("--module", default=None,
                         help="builder spec: va:p=2,n=1,m=2 | gl2:p=2,n=1 | "
                              "torus:q=7,r=1,m=2 | gn:p=2,n=1 | cyclic:p=2,k=4")
    compute.add_argument("--gens", default=None,
                         help="inline generator matrices 'a,b;c,d|e,f;g,h'")
    compute.add_argument("--field", default=None,
                         help="field for --gens: 'p' or 'p,n' or '0' (rationals)")
    compute.add_argument("--point", default=None,
                         help="comma-separated coordinates in scalar text form")
    compute.add_argument("--dmax", type=int, default=None)
    compute.add_argument("--degree", type=int, default=None)
    compute.add_argument("--pointfield", default=None,
                         help="field of enumerated points for delta/sigma")
    compute.add_argument("--generators", default=None,
                         help="'auto' for builder candidates, or "
                              "semicolon-separated polynomial texts")
    compute.add_argument("--json", action="store_true")
    compute.add_argument("--csv", action="store_true")
    compute.set_defaults(func=cmd_compute)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadParameter, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NullconeLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
