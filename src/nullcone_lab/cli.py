"""Command-line entry point: named verification suites and ad-hoc computations.

Exit code 0 means every claim passed; 1 means a claim failed or a bounded
computation came back undetermined; 2 means the invocation was invalid.
JSON output is byte-identical across reruns with the same parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from typing import Callable, Sequence

from . import __version__
from .constructions import (cyclic_field_order, cyclic_group, gl2_test_module, gn_module,
                            torus_field_order, torus_module, va_field_order, va_module)
from .errors import BadParameter, CapExceeded, NullconeLabError, UnknownSuite
from .fields import FieldCtx, check_lift, ff_make, field_order
from .groups import DEFAULT_CLOSURE_CAP, MatrixGroup, Representation, regular_rep
from .invariants import (
    capped_power,
    check_point_count,
    delta_bounded,
    epsilon,
    invariant_space,
    nullcone_status,
    power_text,
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
                 candidates: Callable[[], list[Polynomial]] | None = None,
                 default_point: list | None = None):
        self.rep = rep
        self.label = label
        self._candidates = candidates  # built on each read of `candidates`
        self.default_point = default_point

    @property
    def candidates(self) -> list[Polynomial] | None:
        return self._candidates() if self._candidates is not None else None


def _va(p: int, n: int, m: int):
    module = va_module(p, n, m)
    return module.rep, lambda: module.candidates, None


def _gl2(p: int, n: int):
    module = gl2_test_module(p, n)
    return module.rep, None, module.identity_point


def _torus(q: int, r: int, m: int):
    module = torus_module(q, r, m)
    return module.rep, lambda: [module.witness], module.point


# per builder: its keys; its sizes, which run the build's parameter checks and
# return the field order (p, e), the dimension and the group order, a size
# that may be huge as a pair (base, exp); and its build.  The torus's field
# order comes as a function, as finding it factors q, which for a q of
# thousands of digits takes seconds: a module spec refuses |G| first.  So
# |G| is formed before q is checked, and gcd(q - 1, r) is 0 at q = 1, r = 0.
BUILDERS = {
    "va": (("p", "n", "m"), lambda p, n, m: (va_field_order(p, n, m), 3, (p, m)), _va),
    "gl2": (("p", "n"), lambda p, n: (field_order(p, n), (p, 2 * n), (p, n)), _gl2),
    "torus": (("q", "r", "m"), lambda q, r, m: (lambda: torus_field_order(q, r, m), 2,
                                                (q - 1) // (math.gcd(q - 1, r) or 1)),
              _torus),
    "gn": (("p", "n"), lambda p, n: (field_order(p, n), 2, (p, n)),
           lambda p, n: (gn_module(p, n)[1], None, None)),
    "cyclic": (("p", "k"), lambda p, k: (cyclic_field_order(p, k), k, k),
               lambda p, k: (regular_rep(cyclic_group(ff_make(*cyclic_field_order(p, k)), k)),
                             None, None)),
}

# The dense entries |G|*dim^2 of the matrices that a module spec may build.
# Each takes 8 to 16 bytes, a slot in a row tuple, twice over for the regular
# modules, whose group elements are as large: cyclic:p=2,k=300 (2.7e7
# entries) peaks at 441 MB and gl2:p=2,n=5 (3.4e7) at 282 MB, while the next
# sizes up, cyclic:p=2,k=600 (2.2e8) and gl2:p=2,n=6 (1.1e9), need gigabytes.
ENTRY_CAP = 4 * 10**7


def _checked_spec(text: str, closure_cap: bool = False
                  ) -> tuple[str, dict[str, int], tuple]:
    """'name:k=v,...' -> (name, {k: v}, sizes), checked with nothing built.
    With closure_cap, a group order past DEFAULT_CLOSURE_CAP is refused
    before a field order that comes as a function is found."""
    if ":" not in text:
        raise BadParameter(f"module spec {text!r} must look like name:k=v,...")
    name, _, arg_text = text.partition(":")
    params: dict[str, int] = {}
    for piece in arg_text.split(","):
        if not piece.strip():
            continue
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
    try:
        field, dim, order = sizes(**params)
        base, exp = order if isinstance(order, tuple) else (order, 1)
        cap = DEFAULT_CLOSURE_CAP
        if closure_cap and capped_power(base, exp, cap) > cap:
            raise CapExceeded(f"module spec {text!r}: group order {power_text(base, exp)} "
                              f"exceeds the closure cap {cap}")
        return name, params, (field() if callable(field) else field, dim, order)
    except CapExceeded:
        raise
    except NullconeLabError as exc:
        raise BadParameter(f"module spec {text!r}: {exc}") from exc


def parse_module_spec(text: str) -> ModuleSpec:
    """Build a checked module spec, refusing from its sizes a group past the
    closure cap or matrices past ENTRY_CAP before any closure."""
    name, params, (_, dim, order) = _checked_spec(text, closure_cap=True)
    # with |G| <= DEFAULT_CLOSURE_CAP, every size is small enough to form
    order = order[0] ** order[1] if isinstance(order, tuple) else order
    dim = dim[0] ** dim[1] if isinstance(dim, tuple) else dim
    if order * dim * dim > ENTRY_CAP:
        raise CapExceeded(f"module spec {text!r}: {order}*{dim}^2 dense matrix "
                          f"entries exceed the cap {ENTRY_CAP}")
    rep, candidates, point = BUILDERS[name][2](**params)
    return ModuleSpec(rep, text, candidates, point)


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
    if args.budget is not None and not args.budget >= 0:  # NaN too
        raise BadParameter(f"--budget must be >= 0, got {args.budget}")
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


def cmd_compute(args) -> int:
    for flag in ("dmax", "degree"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise BadParameter(f"--{flag} must be >= 0, got {value}")
    pointfield = None
    if args.what in ("delta", "sigma"):
        # refuse what the argv decides before the module is built; the lift
        # check waits for --dmax, which the usual path asks for first
        sizes = _checked_spec(args.module)[2] if args.module else None
        pointfield = _parse_field_arg(args.pointfield) if args.pointfield else None
        if sizes and args.what == "sigma":
            check_point_count(pointfield or sizes[0], sizes[1])
        if sizes and pointfield and args.dmax is not None:
            check_lift(ff_make(*sizes[0]), pointfield)
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
        pointfield = pointfield or rep.ctx
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
