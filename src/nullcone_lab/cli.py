"""Command-line entry point: named verification suites and ad-hoc computations.

Exit code 0 means every claim passed; 1 means a claim failed or a bounded
computation came back undetermined; 2 means the invocation was invalid.
JSON output is byte-identical across reruns with the same parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, Sequence

from . import __version__
from .constructions import (cyclic_field_order, cyclic_group, gl2_test_module, gn_module,
                            torus_field_order, torus_module, va_field_order, va_module)
from .errors import BadParameter, CapExceeded, ContextMismatch, NullconeLabError, UnknownSuite
from .fields import FieldCtx, ff_make, field_order, lifts
from .groups import MatrixGroup, Representation, check_group_order, regular_rep
from .invariants import (
    check_column_count,
    check_point_count,
    delta_bounded,
    epsilon,
    fixed_point_space,
    invariant_space,
    nullcone_status,
    sigma_bounded,
)
from .linalg import Matrix
from .poly import Polynomial, poly_parse


def _dump_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dump_csv(rows) -> None:
    import csv
    csv.writer(sys.stdout).writerows(rows)


# ---------------------------------------------------------------------------
# module specs


def _field_arg(text: str) -> tuple[int, int]:
    """'2' -> (2, 1), '2,2' -> (2, 2), '0' -> (0, 1) for the rationals: a
    field's order, before the field is built."""
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise BadParameter(f"bad field {text!r}; use 'p', 'p,n' or '0'")
    return parts[0], (parts + [1])[1]


def _field(p: int, n: int) -> FieldCtx:
    return FieldCtx.rationals() if p == 0 else ff_make(p, n)


class ModuleSpec:
    """A named builder instance: e.g. va:p=2,n=1,m=2 or gl2:p=2,n=2."""

    def __init__(self, rep: Representation, label: str,
                 make_candidates: Callable[[], list[Polynomial]] | None = None,
                 default_point: list | None = None):
        self.rep = rep
        self.label = label
        self.make_candidates = make_candidates  # run on each read
        self.default_point = default_point

    @property
    def candidates(self) -> list[Polynomial] | None:
        return self.make_candidates() if self.make_candidates is not None else None


# per builder: its keys; its sizes, which give the field order, the dimension
# and the group order as pairs (base, exp) by arithmetic alone, and last the
# builder's own checks, a function that returns the field order (p, e) and may
# test a prime or factor q; and its build.
BUILDERS = {
    "va": (("p", "n", "m"), lambda p, n, m: ((p, m), (3, 1), (p, m),
                                             lambda: va_field_order(p, n, m)),
           lambda p, n, m: ((v := va_module(p, n, m)).rep, lambda: v.candidates, None)),
    "gl2": (("p", "n"), lambda p, n: ((p, n), (p, 2 * n), (p, n), lambda: field_order(p, n)),
            lambda p, n: ((g := gl2_test_module(p, n)).rep, None, g.identity_point)),
    "torus": (("q", "r", "m"), lambda q, r, m: ((q, 1), (2, 1),
                                                ((q - 1) // (math.gcd(q - 1, r) or 1), 1),
                                                lambda: torus_field_order(q, r, m)),
              lambda q, r, m: ((t := torus_module(q, r, m)).rep, lambda: [t.witness], t.point)),
    "gn": (("p", "n"), lambda p, n: ((p, n), (2, 1), (p, n), lambda: field_order(p, n)),
           lambda p, n: (gn_module(p, n)[1], None, None)),
    "cyclic": (("p", "k"), lambda p, k: ((p, 1), (k, 1), (k, 1), lambda: cyclic_field_order(p, k)),
               lambda p, k: (regular_rep(cyclic_group(ff_make(*cyclic_field_order(p, k)), k)),
                             None, None)),
}

# The dense entries |G|*dim^2 of the matrices that a module spec may build.
# Each takes 8 to 16 bytes, a slot in a row tuple, twice over for the regular
# modules, whose group elements are as large: cyclic:p=2,k=300 (2.7e7
# entries) peaks at 441 MB and gl2:p=2,n=5 (3.4e7) at 282 MB, while the next
# sizes up, cyclic:p=2,k=600 (2.2e8) and gl2:p=2,n=6 (1.1e9), need gigabytes.
ENTRY_CAP = 4 * 10**7


def _sized(*pairs: tuple[int, int]) -> bool:
    """Whether the caps may bound these (base, exp): else the builder's checks decide."""
    return all(base >= 2 and exp >= 1 for base, exp in pairs)


def _checked_spec(text: str) -> tuple[str, dict[str, int], tuple, Callable[[], tuple[int, int]]]:
    """'name:k=v,...' -> (name, {k: v}, sizes, field_checks).  The keys are
    checked, then a group past DEFAULT_CLOSURE_CAP and matrices past
    ENTRY_CAP are refused from the sizes, with nothing built.  field_checks,
    not run here, runs the builder's own checks and returns (p, e)."""
    if ":" not in text:
        raise BadParameter(f"module spec {text!r} must look like name:k=v,...")
    name, _, arg_text = text.partition(":")
    params: dict[str, int] = {}
    for piece in filter(str.strip, arg_text.split(",")):
        key, _, val = piece.partition("=")
        try:
            params[key.strip()] = int(val)
        except ValueError as exc:
            raise BadParameter(f"bad integer in module spec: {piece!r}") from exc
    if name not in BUILDERS:
        raise BadParameter(f"unknown module builder {name!r}")
    keys, sizes, _ = BUILDERS[name]
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise BadParameter(f"module spec {text!r}: unknown parameter {unknown[0]!r}; "
                           f"{name} takes {', '.join(keys)}")
    missing = [key for key in keys if key not in params]
    if missing:
        raise BadParameter(f"module spec {text!r} misses parameter {missing[0]!r}")
    field, dim, order, checks = sizes(**params)
    if _sized(order, dim):
        check_group_order(*order, prefix=f"module spec {text!r}: ")
        # with |G| <= DEFAULT_CLOSURE_CAP, every size is small enough to form
        size, width = order[0] ** order[1], dim[0] ** dim[1]
        if size * width * width > ENTRY_CAP:
            raise CapExceeded(f"module spec {text!r}: {size}*{width}^2 dense matrix "
                              f"entries exceed the cap {ENTRY_CAP}")

    def field_checks() -> tuple[int, int]:
        try:
            return checks()
        except NullconeLabError as exc:
            raise BadParameter(f"module spec {text!r}: {exc}") from exc
    return name, params, (field, dim, order), field_checks


def parse_module_spec(text: str) -> ModuleSpec:
    """Build a module spec once the refusals that read only the spec, and
    then the builder's own checks, have passed."""
    name, params, _, field_checks = _checked_spec(text)
    field_checks()
    rep, candidates, point = BUILDERS[name][2](**params)
    return ModuleSpec(rep, text, candidates, point)


def _request(args) -> tuple[tuple[int, int], tuple[int, int], Callable[[], tuple[int, int]],
                            Callable[[], ModuleSpec]]:
    """The module that --module or --gens names, nothing built: (field, dim,
    field_checks, build), with the field order and the dimension as pairs
    (base, exp), the field's checks, which return (p, e), and the build."""
    if args.module:
        _, _, (field, dim, _), field_checks = _checked_spec(args.module)
        return field, dim, field_checks, lambda: parse_module_spec(args.module)
    if not args.gens:
        raise BadParameter("need --module or --gens")
    if not args.field:
        raise BadParameter("--gens requires --field")
    p, e = _field_arg(args.field)
    dim = (len(args.gens.split("|")[0].split(";")), 1)  # rows of the first matrix

    def build() -> ModuleSpec:
        ctx = _field(p, e)
        gens = [Matrix.parse(ctx, g.strip()) for g in args.gens.split("|")]
        return ModuleSpec(MatrixGroup.closure(gens).natural_rep(), f"gens:{args.gens}")
    return (p, e), dim, lambda: field_order(p, e) if p else (p, e), build


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
    # an empty part is refused by poly_parse: dropping it would declare fewer
    # generators and certify points they separate
    return [poly_parse(rep.ctx, rep.dim, part) for part in text.split(";")]


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    from .suites import ALL_SUITE_RUNS, run_suite  # only verify pays for the suites
    if args.budget is not None and not args.budget >= 0:  # NaN too
        raise BadParameter(f"--budget must be >= 0, got {args.budget}")
    params = {key: getattr(args, key) for key in ("p", "n", "nmax")}
    given = [f"--{key}" for key, value in params.items() if value is not None]
    if args.suite == "all" and given:  # its runs fix every parameter
        raise BadParameter("suite 'all' takes no " + ", ".join(given))
    runs = ALL_SUITE_RUNS if args.suite == "all" else [(args.suite, params)]

    # one deadline for every run
    deadline = time.monotonic() + args.budget * 60 if args.budget is not None else None
    reports = [run_suite(name, deadline, **params) for name, params in runs]

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


def _check_point_lift(field: tuple[int, int], pointfield: tuple[int, int]) -> None:
    """Refuse a point field that the module's field does not lift into, both
    given by their orders, with check_lift's message; a refused point field is
    named, not built."""
    if not lifts(field, pointfield):
        pp, pn = pointfield
        if pp:  # ff_make's checks
            field_order(pp, pn)
        target = "QQ" if not pp else f"GF({pp})" if pn == 1 else f"GF({pp}^{pn})"
        raise ContextMismatch(f"no canonical map {_field(*field)!r} -> {target}")


# the flag each computation needs
NEEDED_FLAG = {"epsilon": "dmax", "delta": "dmax", "sigma": "dmax",
               "invariant-space": "degree"}


def cmd_compute(args) -> int:
    for flag in ("dmax", "degree"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise BadParameter(f"--{flag} must be >= 0, got {value}")
    flag = NEEDED_FLAG.get(args.what)
    if flag and getattr(args, flag) is None:
        raise BadParameter(f"{args.what} needs --{flag}")
    pointfield = (_field_arg(args.pointfield)
                  if args.what in ("delta", "sigma") and args.pointfield else None)
    field, dim, field_checks, build = _request(args)
    # the sizes with the command's flags: sigma's point count and the column
    # count; then the lift into the point field, which needs the field's checks
    if args.what == "sigma" and _sized(pointfield or field, dim):
        check_point_count(pointfield or field, dim)
    if args.what == "invariant-space" and _sized(dim):
        check_column_count(dim[0] ** dim[1], args.degree)
    if pointfield:
        _check_point_lift(field_checks(), pointfield)
    spec = build()
    rep = spec.rep

    if args.what == "invariant-space":
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

    if args.what == "nullcone":
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

    if args.what == "epsilon":
        point = _resolve_point(spec, rep, args.point)
        report = epsilon(rep, point, args.dmax)
    else:
        if args.what == "delta" and pointfield:
            # V^G has one dimension over every extension of the module's field
            check_point_count(pointfield, len(fixed_point_space(rep)))
        pointfield = _field(*pointfield) if pointfield else rep.ctx
        gens = _resolve_generators(spec, rep.lift(pointfield), args.generators)
        runner = delta_bounded if args.what == "delta" else sigma_bounded
        report = runner(rep, args.dmax, pointfield, declared_generators=gens)

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
    verify.add_argument("suite", help="a suite name, or 'all'; an unknown name "
                                      "lists the suites")
    verify.add_argument("--p", type=int, default=None)
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--nmax", type=int, default=None)
    verify.add_argument("--budget", type=float, default=None,
                        help="time budget in minutes for the whole run; a suite "
                             "run that would start after it is reported as skipped")
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
                         help="inline generator matrices 'a,b;c,d|e,f;g,h'; write a "
                              "value that starts with '-' as --gens=-1,0;0,1")
    compute.add_argument("--field", default=None,
                         help="field for --gens: 'p' or 'p,n' or '0' (rationals)")
    compute.add_argument("--point", default=None,
                         help="comma-separated coordinates in scalar text form; write "
                              "a value that starts with '-' as --point=-1,0")
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
