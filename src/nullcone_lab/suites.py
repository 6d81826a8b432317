"""Named verification suites: each runs a batch of exactly-checkable claims
with the expected values embedded, and reports pass/fail per claim.

Suite reports are byte-identical across reruns with the same parameters
(wall-clock duration is carried separately and never serialised).
"""

from __future__ import annotations

import time
from typing import Callable

from . import __version__
from .constructions import (
    DEFAULT_GA2_SAMPLES,
    binomial_mod_p,
    cyclic_group,
    ga2_example,
    gl2_test_module,
    sampled_fixed_space,
    torus_module,
    va_candidates,
    va_joint_group,
    va_module,
    vandermonde_regular_check,
)
from .errors import BadParameter, CharDividesDegree, UnknownSuite
from .fields import FieldCtx, _is_probable_prime, ff_make
from .groups import MatrixGroup, check_group_order, regular_rep
from .invariants import (
    _verify_invariant,
    check_column_count,
    check_generation,
    degree_reduce,
    delta_bounded,
    epsilon,
    orbit_sums_vanish,
    sigma_bounded,
    weight_invariant_monomials,
)
from .linalg import Matrix
from .poly import poly_parse


class Claim:
    def __init__(self, claim_id: str, statement: str, expected: object, computed: object):
        self.claim_id = claim_id
        self.statement = statement
        self.expected = expected
        self.computed = computed

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def to_dict(self) -> dict:
        return {"id": self.claim_id, "statement": self.statement,
                "expected": self.expected, "computed": self.computed,
                "pass": self.passed}


class SuiteReport:
    def __init__(self, suite: str, parameters: dict, claims: list[Claim],
                 seed_data: dict | None = None, duration_s: float = 0.0):
        self.suite = suite
        self.parameters = parameters
        self.claims = claims
        self.seed_data = {} if seed_data is None else seed_data
        self.duration_s = duration_s  # informational only; never serialised

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "tool_version": __version__,
            "claims": [c.to_dict() for c in self.claims],
            "seed_data": self.seed_data,
            "pass": self.passed,
        }

    def format_table(self) -> str:
        lines = [f"suite {self.suite}  "
                 f"params {self.parameters}  [{self.duration_s:.2f}s]"]
        for c in self.claims:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.claim_id}: {c.statement}")
            if not c.passed:
                lines.append(f"         expected {c.expected!r}, got {c.computed!r}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def csv_rows(self) -> list[list[str]]:
        rows = [["suite", "claim", "statement", "expected", "computed", "pass"]]
        for c in self.claims:
            rows.append([self.suite, c.claim_id, c.statement,
                         repr(c.expected), repr(c.computed),
                         "pass" if c.passed else "fail"])
        return rows


# ---------------------------------------------------------------------------


def _binomial_cases(p: int | None = None, nmax: int | None = None) -> list[tuple[int, int]]:
    """The (p, n) cases of binomial: p^n <= 125 and n <= nmax, p given or 2, 3, 5."""
    cases = [(q, n) for q in ([p] if p is not None else [2, 3, 5]) for n in range(1, 7)
             if q**n <= 125 and (nmax is None or n <= nmax)]
    if not cases:
        raise BadParameter(f"no binomial case (p^n <= 125) has p = {p}")
    return cases


def suite_binomial(p: int | None = None, nmax: int | None = None) -> SuiteReport:
    """Alternating binomial residues: C(p^n - 1, k) = (-1)^k mod p."""
    claims = []
    for q, n in _binomial_cases(p, nmax):
        big = q**n - 1
        bad = [k for k in range(big + 1) if binomial_mod_p(q, big, k) != (-1) ** k % q]
        claims.append(Claim(
            f"binomial-p{q}-n{n}",
            f"C({big}, k) == (-1)^k mod {q} for 0 <= k <= {big}",
            "all congruent", "all congruent" if not bad
            else f"fails at k in {bad[:5]}"))
    return SuiteReport("binomial", {"p": p, "nmax": nmax}, claims)


def _regular_rep_cases(p: int | None = None, n: int | None = None) -> list[tuple[int, int]]:
    """The (p, n) cases of regular-rep: a lone p or n restricts the default
    cases, p^n <= 25, to that prime or exponent."""
    cases = ([(p, n)] if p and n else
             [(q, k) for q in (2, 3, 5) for k in range(1, 5)
              if q**k <= 25 and p in (None, q) and n in (None, k)])
    if not cases:
        raise BadParameter("no default regular-rep case (p^n <= 25) has "
                           + (f"p = {p}" if p else f"n = {n}"))
    return cases


def suite_regular_rep(p: int | None = None, n: int | None = None) -> SuiteReport:
    """S^(q-1) of the 2-dim translation module is the regular module."""
    claims = []
    for q, k in _regular_rep_cases(p, n):
        report = vandermonde_regular_check(q, k)
        claims.append(Claim(
            f"regular-rep-p{q}-n{k}",
            f"orbit of Y^{q**k - 1} is a nonsingular Vandermonde basis with a "
            "free transitive translation action",
            "regular", "regular" if report.passed else report.to_dict()))
    return SuiteReport("regular-rep", {"p": p, "n": n}, claims)


def _named_p_groups() -> list[tuple[str, int, MatrixGroup]]:
    out = []
    for label, p in (("Z2", 2), ("Z3", 3), ("Z5", 5)):
        out.append((label, p, cyclic_group(ff_make(p), p)))
    f2 = ff_make(2)
    a = Matrix.from_ints(f2, [[0, 1, 0, 0], [1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, 1, 0]])
    b = Matrix.from_ints(f2, [[0, 0, 1, 0], [0, 0, 0, 1],
                              [1, 0, 0, 0], [0, 1, 0, 0]])
    out.append(("Z2xZ2", 2, MatrixGroup.closure([a, b])))
    return out


def suite_epsilon_free() -> SuiteReport:
    """epsilon(G, v) = |G| at every nonzero fixed point of the regular module."""
    claims = []
    for label, p, group in _named_p_groups():
        order = group.order
        report = delta_bounded(regular_rep(group), order, group.ctx)
        count = len(report.point_values)
        values = {value for _, value in report.point_values}
        claims.append(Claim(
            f"epsilon-free-{label}",
            f"epsilon({label}, v) = {order} at each of the {count} nonzero "
            f"fixed points of the regular module over F_{p}",
            [order], sorted(values, key=lambda x: (x is None, x))))
    return SuiteReport("epsilon-free", {}, claims)


def _gl2_delta_columns(p: int = 2, n: int = 1) -> None:
    """Both methods of gl2-delta build degree q-1 on the support of
    w = B^-1 v, 2q of the module's q*q permutation slots: refuse before the
    module is built when degree q-1 in all q*q coordinates is oversized,
    an upper bound on the support's count."""
    q = p**n
    check_column_count(q * q, q - 1)


def suite_gl2_delta(p: int = 2, n: int = 1) -> SuiteReport:
    """epsilon at the identity endomorphism of Hom(S^(q-1)V, S^(q-1)V) is q."""
    q = p**n
    claims = []
    _gl2_delta_columns(p, n)
    module = gl2_test_module(p, n)
    report = epsilon(module.rep, module.identity_point, q)
    claims.append(Claim(
        f"gl2-epsilon-p{p}-n{n}",
        f"epsilon(U_{n}, id) = {q} on the {q * q}-dim endomorphism module",
        q, report.value))
    # orbit sums at w = B^-1 v: a second method, independent of the kernel
    # spaces the fast path built
    vanish = orbit_sums_vanish(module.rep, module.identity_point, q)
    claims.append(Claim(
        f"gl2-lower-degrees-p{p}-n{n}",
        f"every invariant of degree < {q} vanishes at the identity endomorphism",
        True, vanish))
    return SuiteReport("gl2-delta", {"p": p, "n": n}, claims)


def suite_va_ring(p: int = 2, n: int = 1) -> SuiteReport:
    """The twisted translation module: parametric generators, degreewise
    generation certificate at the joint finite level, and delta = sigma = q."""
    q = p**n
    claims = []

    parametric = va_module(p, n, 1).parametric
    for name, f in zip(("x0", "f"), va_candidates(p, n, ff_make(p))):
        claims.append(Claim(
            f"va-parametric-{name}-p{p}-n{n}",
            f"{f} is invariant identically in the translation parameter",
            True, parametric.is_invariant(f)))

    group, rep = va_joint_group(p, n, (n + 1, n + 2))
    cert = check_generation(va_candidates(p, n, ff_make(p)), rep, q + 2)
    claims.append(Claim(
        f"va-generation-p{p}-n{n}",
        f"products of the candidates span the level-({n + 1},{n + 2}) joint "
        f"invariants at every degree <= {q + 2} (sandwich certification)",
        "equal at all degrees",
        "equal at all degrees" if cert.all_equal else cert.to_dict()["per_degree"]))

    stage = va_module(p, n, n + 1)
    gens = stage.candidates
    for kind, runner in (("delta", delta_bounded), ("sigma", sigma_bounded)):
        report = runner(stage.rep, q, stage.ctx, declared_generators=gens)
        claims.append(Claim(
            f"va-{kind}-p{p}-n{n}",
            f"{kind}(U_{n + 1} stage, points in F_{p}^{n + 1}-coordinates) = {q}, "
            "unseparated points certified inside the nullcone",
            {"value": q, "certified": True},
            {"value": report.value, "certified": report.certified_complete}))
    return SuiteReport("va-ring", {"p": p, "n": n}, claims)


def suite_torus_sigma() -> SuiteReport:
    """The weight construction: epsilon(T, v0 + y0^m) = m + 1."""
    claims = []
    for (q, r, m) in ((7, 1, 2), (31, 1, 3), (31, 2, 3), (31, 1, 5)):
        tm = torus_module(q, r, m)
        report = epsilon(tm.rep, tm.point, m + 1)
        claims.append(Claim(
            f"torus-epsilon-q{q}-r{r}-m{m}",
            f"epsilon(T, v0 + y0^{m}) = {m + 1} for the weight-({r}) torus "
            f"stage over F_{q}",
            m + 1, report.value))
        empty_exact = all(not weight_invariant_monomials(tm.weights, d)
                          for d in range(1, m + 1))
        empty_mod = all(not weight_invariant_monomials(tm.weights, d, tm.modulus)
                        for d in range(1, m + 1))
        claims.append(Claim(
            f"torus-emptiness-q{q}-r{r}-m{m}",
            f"no invariant monomial of degree <= {m} exists, exactly or "
            f"mod {q - 1}",
            {"exact": True, "modular": True},
            {"exact": empty_exact, "modular": empty_mod}))
    return SuiteReport("torus-sigma", {}, claims)


def suite_ga2_example() -> SuiteReport:
    """The two-parameter rational action with sigma value 3."""
    ex = ga2_example()
    claims = []
    for name, f in zip(("x0", "cubic"), ex.candidates):
        claims.append(Claim(
            f"ga2-parametric-{name}",
            f"{f} is invariant for every parameter pair (s, t)",
            True, ex.action.is_invariant(f)))
    for i, f in enumerate(ex.h_invariants):
        claims.append(Claim(
            f"ga2-h-invariant-{i}",
            f"{f} is invariant under the one-parameter subaction fixing x0, x1",
            True, ex.h_action.is_invariant(f)))
    vanishing = all(
        f.evaluate(ex.point).is_zero()
        for d in (1, 2)
        for f in sampled_fixed_space(ex.action, DEFAULT_GA2_SAMPLES, d))
    claims.append(Claim(
        "ga2-low-degrees-vanish",
        "the sampled fixed spaces of degrees 1 and 2 vanish at (0,1,0,0), "
        "so no invariant of degree < 3 separates it",
        True, vanishing))
    witness = ex.candidates[1]
    claims.append(Claim(
        "ga2-witness",
        "the cubic generator has degree 3 and value 1 at (0,1,0,0): the "
        "separating degree there is exactly 3",
        {"degree": 3, "value": "1"},
        {"degree": witness.degree(), "value": str(witness.evaluate(ex.point))}))
    return SuiteReport("ga2-example", {}, claims, seed_data={
        "samples": [[str(s), str(t)] for s, t in DEFAULT_GA2_SAMPLES]})


def suite_normal_subgroup() -> SuiteReport:
    """delta(G) <= delta(N) * delta(G/N) on the order-4 cyclic instance,
    both sides computed on the regular module over F_2."""
    f2 = ff_make(2)
    z4 = cyclic_group(f2, 4)
    reg = regular_rep(z4)
    delta_g = delta_bounded(reg, 4, f2).value
    square = z4.elements[z4.mul(1, 1)]
    z2 = z4.subgroup([square])
    delta_n = delta_bounded(reg.restrict(z2), 4, f2).value
    quotient_factor = 2  # |Z4 / Z2|, the p-part of the quotient
    claims = [
        Claim("normal-delta-G", "delta(Z4 on its regular module over F_2) = 4",
              4, delta_g),
        Claim("normal-delta-N", "delta(restriction to the order-2 subgroup) = 2",
              2, delta_n),
        Claim("normal-inequality",
              "delta(G) <= delta(N) * delta(G/N) with delta(G/N) = 2 "
              "(= order of the quotient, a 2-group)",
              True, delta_g <= delta_n * quotient_factor),
    ]
    return SuiteReport("normal-subgroup", {}, claims)


def suite_nagata_miyata() -> SuiteReport:
    """Constructive degree reduction at fixed points when char does not
    divide the degree, plus the divisibility failure mode."""
    qq = FieldCtx.rationals()
    claims = []

    def reduction_claim(claim_id, rep, f_text, v_vals, ctx):
        f = poly_parse(ctx, rep.dim, f_text)
        v = [ctx.scalar(a) for a in v_vals]
        reduced = degree_reduce(rep, f, v)
        ok = (reduced.degree() == 1
              and not reduced.evaluate(v).is_zero()
              and _verify_invariant(rep, reduced))
        claims.append(Claim(
            claim_id,
            f"degree_reduce({f_text}) at {v_vals} returns a verified "
            "degree-1 invariant nonvanishing there",
            True, ok))

    trivial_q = MatrixGroup.closure([Matrix.identity(qq, 2)]).natural_rep()
    reduction_claim("nagata-trivial-quadratic", trivial_q,
                    "x0^2 + x0*x1", (1, 0), qq)
    swap_q = MatrixGroup.closure(
        [Matrix.from_ints(qq, [[0, 1], [1, 0]])]).natural_rep()
    reduction_claim("nagata-swap-quadratic", swap_q, "x0*x1", (1, 1), qq)
    reduction_claim("nagata-swap-cubic", swap_q,
                    "x0^2*x1 + x0*x1^2", (1, 1), qq)
    f3 = ff_make(3)
    swap_3 = MatrixGroup.closure(
        [Matrix.from_ints(f3, [[0, 1], [1, 0]])]).natural_rep()
    reduction_claim("nagata-swap-f3", swap_3, "x0*x1", (1, 1), f3)
    f2 = ff_make(2)
    cyc3 = MatrixGroup.closure([Matrix.from_ints(
        f2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]).natural_rep()
    reduction_claim("nagata-cycle-f2", cyc3, "x0*x1*x2", (1, 1, 1), f2)

    try:
        degree_reduce(MatrixGroup.closure([Matrix.identity(f2, 2)]).natural_rep(),
                      poly_parse(f2, 2, "x0^2"), [f2.one, f2.zero])
        outcome = "no error"
    except CharDividesDegree:
        outcome = "CharDividesDegree"
    claims.append(Claim(
        "nagata-char-divides",
        "reduction refuses a degree-2 form in characteristic 2",
        "CharDividesDegree", outcome))
    return SuiteReport("nagata-miyata", {}, claims)


# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[..., SuiteReport]] = {
    "binomial": suite_binomial,
    "regular-rep": suite_regular_rep,
    "epsilon-free": suite_epsilon_free,
    "gl2-delta": suite_gl2_delta,
    "va-ring": suite_va_ring,
    "torus-sigma": suite_torus_sigma,
    "ga2-example": suite_ga2_example,
    "normal-subgroup": suite_normal_subgroup,
    "nagata-miyata": suite_nagata_miyata,
}

# the refusals a suite makes before any work, which run_suite also makes
# before it reads the deadline
SUITE_REFUSALS: dict[str, Callable[..., object]] = {
    "binomial": _binomial_cases,
    "regular-rep": _regular_rep_cases,
    "gl2-delta": _gl2_delta_columns,
    # the joint group of levels n+1 and n+2 has order p^(2n+2)
    "va-ring": lambda p=2, n=1: check_group_order(p, 2 * n + 2),
}

# parameter sets used by `verify all` (and the acceptance gate)
ALL_SUITE_RUNS: list[tuple[str, dict]] = [
    ("binomial", {}),
    ("regular-rep", {}),
    ("epsilon-free", {}),
    ("gl2-delta", {"p": 2, "n": 1}),
    ("gl2-delta", {"p": 3, "n": 1}),
    ("gl2-delta", {"p": 2, "n": 2}),
    ("va-ring", {"p": 2, "n": 1}),
    ("va-ring", {"p": 3, "n": 1}),
    ("va-ring", {"p": 2, "n": 2}),
    ("torus-sigma", {}),
    ("ga2-example", {}),
    ("normal-subgroup", {}),
    ("nagata-miyata", {}),
]


def run_suite(name: str, deadline: float | None = None, **params) -> SuiteReport:
    """Run one suite, or report it skipped when the time.monotonic()
    deadline has passed before it starts.  Each size is checked >= 1 and
    a p prime, and the suite's own refusals run, first, so that a bad
    request is refused either way."""
    runner = SUITES.get(name)
    if runner is None:
        raise UnknownSuite(f"unknown suite {name!r}; choose from "
                           f"{sorted(SUITES)} or 'all'")
    params = {k: v for k, v in params.items() if v is not None}
    for key, value in params.items():
        if value < 1:
            raise BadParameter(f"--{key} must be >= 1, got {value}")
    code = runner.__code__
    unknown = [k for k in params if k not in code.co_varnames[:code.co_argcount]]
    if unknown:
        raise BadParameter(f"suite {name!r} takes no "
                           + ", ".join(f"--{k}" for k in unknown))
    if "p" in params and not _is_probable_prime(params["p"]):
        raise BadParameter(f"p = {params['p']} is not prime")
    if name in SUITE_REFUSALS:
        SUITE_REFUSALS[name](**params)
    if deadline is not None and time.monotonic() >= deadline:
        return SuiteReport(name, params, [Claim(
            f"{name}-skipped", f"suite {name} ran within the time budget",
            "ran", "skipped (budget exhausted)")])
    start = time.monotonic()
    report = runner(**params)
    report.duration_s = time.monotonic() - start
    return report
