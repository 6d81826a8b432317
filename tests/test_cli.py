"""Command-line interface tests: exit codes, JSON shape, determinism, CSV."""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import itertools
import json
import re
import shlex
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nullcone_lab.cli import main, parse_module_spec
from nullcone_lab.errors import BadParameter
from nullcone_lab.invariants import epsilon
from nullcone_lab.suites import ALL_SUITE_RUNS, SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                    .read_text())


@pytest.mark.parametrize("workload", ["gl2-epsilon", "va-sigma", "cyclic-sigma",
                                      "verify-all"])
def test_every_representation_a_workload_builds_passes_the_checked_constructor(
        capsys, monkeypatch, workload):
    """The builders skip the homomorphism check, as each yields one by
    construction: every representation a benchmark workload builds passes
    the check when rebuilt through the checked constructor."""
    from nullcone_lab import groups
    built = []
    init = groups.Representation.__init__
    monkeypatch.setattr(groups.Representation, "__init__",
                        lambda self, *args, **kwargs: init(self, *args, **kwargs)
                        or built.append(self))
    code, _, _ = run_cli(capsys, *GOLDEN[workload]["argv"])
    monkeypatch.undo()
    assert code == GOLDEN[workload]["exit_code"]
    assert built
    for rep in built:
        groups.Representation(rep.group, rep.matrices)  # raises GroupMismatch if not


def load_schema():
    with resources.files("nullcone_lab").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def test_verify_binomial_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "binomial", "--p", "2", "--nmax", "3")
    assert code == 0
    assert "3/3 claims passed" in out


def test_verify_bad_parameter(capsys):
    code, _, err = run_cli(capsys, "verify", "binomial", "--p", "4")
    assert code == 2
    assert "not prime" in err


def test_verify_unknown_suite(capsys):
    """The error lists every suite, as `verify --help` says it does."""
    code, _, err = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2
    assert "unknown suite" in err
    assert all(repr(name) in err for name in SUITES)
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "an unknown name lists the suites" in " ".join(capsys.readouterr().out.split())


# what each command imports: a compute run neither compiles the suites nor
# loads dataclasses, inspect or csv; verify loads the suites alone
STARTUP_PROBE = """
import json, sys
import nullcone_lab.cli as cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps([code] + [name for name in ("nullcone_lab.suites", "dataclasses",
                                             "inspect", "csv") if name in sys.modules]),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, loaded", [
    (["compute", "sigma", "--module", "cyclic:p=2,k=3", "--dmax", "2", "--json"], []),
    (["verify", "binomial"], ["nullcone_lab.suites"]),
])
def test_a_command_imports_only_what_it_runs(argv, loaded):
    """In a fresh interpreter that compiles every module it imports, as
    one with bytecode writing off does."""
    import os
    import subprocess
    import sys
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [0] + loaded


# stdout sha256s from before the suites and csv were imported on demand;
# `verify` text carries each suite's duration, which is dropped before hashing
@pytest.mark.parametrize("argv, digest", [
    (["verify", "all"], "0e9e84902d38b041a95aa315c9d6cccd26127056db5eaf1a65fb38d10e9fce4a"),
    (["verify", "all", "--csv"],
     "abe60dd5962aedcc6edf65649c719976d1b141af14e35017d01b8c198d55c9fe"),
    (["compute", "sigma", "--module", "va:p=3,n=1,m=2", "--dmax", "3", "--csv"],
     "b4b70c1fbf45f7894838ed494eea6dfcf304ae31ff85c8809b93a0e1bf11b740"),
], ids=["verify-all-text", "verify-all-csv", "va-sigma-csv"])
def test_text_and_csv_output_is_pinned(capsys, argv, digest):
    import hashlib
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    out = re.sub(r"  \[\d+\.\d\ds\]$", "", out, flags=re.M)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_json_validates_and_is_deterministic(capsys):
    schema = load_schema()
    code, out1, _ = run_cli(capsys, "verify", "normal-subgroup", "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "verify", "normal-subgroup", "--json")
    assert out1 == out2  # byte-identical reruns
    payload = json.loads(out1)
    jsonschema.validate(payload, schema)
    assert payload["pass"] is True


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "nagata-miyata", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("suite,claim,statement")
    assert all(line.endswith(",pass") for line in lines[1:])


def test_compute_epsilon_va(capsys):
    code, out, _ = run_cli(capsys, "compute", "epsilon",
                           "--module", "va:p=2,n=1,m=2",
                           "--point", "0,1,0", "--dmax", "4")
    assert code == 0
    assert "= 2" in out
    assert "x0*x2 + x1^2" in out


def test_compute_epsilon_json_schema(capsys):
    schema = load_schema()
    code, out, _ = run_cli(capsys, "compute", "epsilon",
                           "--module", "va:p=2,n=1,m=2",
                           "--point", "0,1,0", "--dmax", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["value"] == 2
    assert payload["field"] == {"p": 2, "n": 2, "modulus": [1, 1, 1]}


def test_compute_invariant_space_inline_gens(capsys):
    code, out, _ = run_cli(capsys, "compute", "invariant-space",
                           "--gens", "1,1;0,1", "--field", "2", "--degree", "2")
    assert code == 0
    assert "dimension 2" in out
    assert "x0^2 + x0*x1" in out and "x1^2" in out


def test_values_starting_with_a_minus_are_given_with_an_equals_sign(capsys):
    """As the --gens and --point help says: -1 alone would read as an option."""
    code, out, _ = run_cli(capsys, "compute", "epsilon", "--gens=-1,0;0,1", "--field", "0",
                           "--point=-1,0", "--dmax", "2")
    assert code == 0
    assert out.startswith("epsilon(gens:-1,0;0,1) = 2\n")


def test_compute_nullcone_in(capsys):
    code, out, _ = run_cli(capsys, "compute", "nullcone",
                           "--module", "va:p=2,n=1,m=2",
                           "--point", "0,0,1", "--generators", "auto")
    assert code == 0
    assert "in" in out


def test_compute_nullcone_out_with_dmax(capsys):
    code, out, _ = run_cli(capsys, "compute", "nullcone",
                           "--module", "va:p=2,n=1,m=2",
                           "--point", "0,1,0", "--dmax", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert payload["verdict"] == "out"
    assert payload["certificate"] == "x0*x2 + x1^2"


def test_compute_delta_with_pointfield(capsys):
    code, out, _ = run_cli(capsys, "compute", "delta",
                           "--module", "va:p=2,n=1,m=1",
                           "--pointfield", "2,2", "--dmax", "4",
                           "--generators", "auto", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert payload["value"] == 2
    assert payload["certified_complete"] is True


def test_compute_sigma_csv(capsys):
    code, out, _ = run_cli(capsys, "compute", "sigma",
                           "--module", "va:p=2,n=1,m=2",
                           "--dmax", "2", "--generators", "auto", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,epsilon"
    assert len(lines) > 1


def test_sigma_csv_gives_every_point_its_own_epsilon(capsys):
    """Epsilon runs once per F_9*-line, yet the table still has one row per
    point, each equal to that point's own epsilon."""
    code, out, _ = run_cli(capsys, "compute", "sigma", "--module", "va:p=3,n=1,m=2",
                           "--dmax", "3", "--generators", "auto", "--csv")
    assert code == 0
    rep = parse_module_spec("va:p=3,n=1,m=2").rep
    points = [list(c) for c in itertools.product(rep.ctx.enumerate(), repeat=rep.dim)][1:]
    expected = [["point", "epsilon"]]
    for v in points:
        value = epsilon(rep, v, 3).value
        expected.append([",".join(str(s) for s in v),
                         str(value) if value is not None else "undetermined above 3"])
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 728
    assert rows == expected


def test_va_with_a_huge_twist_is_answered_as_its_twist_mod_m(capsys):
    """t^(2^n) = t on F_2, so n = 10^8 gives the n = 1 report, quickly."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "compute", "epsilon", "--module", "va:p=2,n=100000000,m=1",
                           "--point", "0,0,1", "--dmax", "1", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    _, small, _ = run_cli(capsys, "compute", "epsilon", "--module", "va:p=2,n=1,m=1",
                          "--point", "0,0,1", "--dmax", "1", "--json")
    payload, expected = json.loads(out), json.loads(small)
    assert payload.pop("module") == "va:p=2,n=100000000,m=1"
    expected.pop("module")
    assert payload == expected


def test_torus_with_a_large_prime_in_q_minus_1_is_answered_quickly(capsys):
    """q - 1 = 2p for a prime p near 10^22, and r = p gives a group of order
    2; finding the unit group's generator factors q - 1, and the cofactor p
    passes the primality test instead of being trial-divided to its root."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "compute", "epsilon", "--module",
                           "torus:q=20000000000000000000807,r=10000000000000000000403,m=1",
                           "--dmax", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "= 2" in out and "witness: x0^2" in out


def test_torus_with_two_large_primes_in_q_minus_1_is_answered_quickly(capsys):
    """q - 1 = 2 p1 p2 with p1, p2 near 10^10: rho splits p1 p2, which trial
    division would have run to its root."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "compute", "epsilon", "--module",
                           "torus:q=200000005960000010603,r=100000002980000005301,m=1",
                           "--dmax", "2")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert "= 2" in out and "witness: x0^2" in out


def test_compute_undetermined_exit_code(capsys):
    # the trivial 1-dim module has no invariants vanishing nowhere... use a
    # nullcone point: epsilon at the origin is undetermined at any bound
    code, out, _ = run_cli(capsys, "compute", "epsilon",
                           "--module", "va:p=2,n=1,m=2",
                           "--point", "0,0,0", "--dmax", "2")
    assert code == 1
    assert "undetermined above 2" in out


def test_compute_torus_default_point(capsys):
    code, out, _ = run_cli(capsys, "compute", "epsilon",
                           "--module", "torus:q=7,r=1,m=2", "--dmax", "3")
    assert code == 0
    assert "= 3" in out


def test_compute_gl2_default_point(capsys):
    code, out, _ = run_cli(capsys, "compute", "epsilon",
                           "--module", "gl2:p=2,n=1", "--dmax", "2")
    assert code == 0
    assert "= 2" in out


def test_module_spec_errors():
    with pytest.raises(BadParameter):
        parse_module_spec("nonsense")
    with pytest.raises(BadParameter):
        parse_module_spec("va:p=2,n=1")  # missing m
    with pytest.raises(BadParameter):
        parse_module_spec("torus:q=7,r=1,m=3")  # weight collision surfaces


@pytest.mark.parametrize("argv", [
    ("compute", "invariant-space", "--gens", "1,1;0,1", "--field", "x",
     "--degree", "2"),
    ("compute", "delta", "--module", "va:p=2,n=1,m=2", "--dmax", "2",
     "--pointfield", "x"),
    ("compute", "delta", "--module", "va:p=2,n=1,m=2", "--dmax", "2",
     "--pointfield", "2,2,7"),
    ("compute", "invariant-space", "--module", "va:p=2,n=1,m=2", "--degree", "-1"),
    ("compute", "epsilon", "--module", "va:p=2,n=1,m=2", "--point", "0,1,0",
     "--dmax", "-1"),
    ("compute", "sigma", "--module", "cyclic:p=2,k=0", "--dmax", "2"),
    ("compute", "sigma", "--module", "cyclic:p=2,k=-1", "--dmax", "2"),
    ("compute", "epsilon", "--gens", "1,1;0,1", "--field", "0", "--point", "1,0",
     "--dmax", "2"),
    # column counts past the 4,300 digits that Python writes out
    ("verify", "gl2-delta", "--p", "5", "--n", "5"),
    ("verify", "gl2-delta", "--p", "3", "--n", "9"),
])
def test_compute_bad_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("what", [("nullcone", "--point", "1,0"), ("sigma", "--dmax", "1"),
                                  ("delta", "--dmax", "1")], ids=lambda w: w[0])
@pytest.mark.parametrize("text", [";", "x0;", ""])
def test_generators_with_an_empty_part_exit_2(capsys, what, text):
    """An empty part would declare fewer generators, and the empty list
    would certify every point, though x0^2 + x0*x1 separates (1, 0)."""
    code, out, err = run_cli(capsys, "compute", what[0], "--module", "gn:p=2,n=1",
                             *what[1:], "--generators", text)
    assert code == 2 and out == ""
    assert err == "error: ParseError: empty polynomial\n"


@pytest.mark.parametrize("spec, message", [
    ("va:p=2,n=-1,m=1", "twist exponent n must be >= 0, got -1"),
    ("torus:q=7,r=1,m=-1", "symmetric power m must be >= 0, got -1"),
    ("torus:q=1,r=0,m=1", "need q >= 3"),  # gcd(q - 1, r) = 0
    ("cyclic:p=2,k=2,z=3", "unknown parameter 'z'; cyclic takes p, k"),
    ("gl2:p=2,n=1,m=1", "unknown parameter 'm'; gl2 takes p, n"),
    ("torus:q=15,r=1,m=2", "15 is not a prime power"),
])
def test_bad_module_spec_exits_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "compute", "sigma", "--module", spec, "--dmax", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: module spec {spec!r}: {message}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "binomial", "--p", "2", "--nmax", "-1"),
    ("verify", "binomial", "--p", "2", "--nmax", "0"),
    ("verify", "binomial", "--p", "0", "--nmax", "3"),
    ("verify", "regular-rep", "--p", "2", "--n", "0"),
])
def test_verify_size_below_one_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("verify", "torus-sigma", "--p", "2"),
    ("verify", "epsilon-free", "--p", "2"),
    ("verify", "regular-rep", "--nmax", "2"),
    ("verify", "binomial", "--n", "2"),
])
def test_verify_parameter_the_suite_does_not_take_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"takes no {argv[2]}" in err
    assert len(err.strip().splitlines()) == 1


def test_cyclic_module_of_size_one_is_valid(capsys):
    code, out, _ = run_cli(capsys, "compute", "sigma", "--module", "cyclic:p=2,k=1",
                           "--dmax", "2", "--json")
    assert code == 0
    assert json.loads(out)["module"] == "cyclic:p=2,k=1"


@pytest.mark.parametrize("module, extra, count", [
    pytest.param("cyclic:p=2,k=30", (), "2^30", id="cyclic"),
    pytest.param("cyclic:p=2,k=8", ("--pointfield", "2,3"), "8^8", id="cyclic-pointfield"),
    pytest.param("va:p=2,n=1,m=16", (), "65536^3", id="va"),
    pytest.param("gn:p=2,n=16", (), "65536^2", id="gn"),
    pytest.param("gl2:p=2,n=2", (), "4^16", id="gl2"),
    pytest.param("cyclic:p=2,k=8", ("--pointfield", "2,20000"), "(2^20000)^8",
                 id="pointfield-long"),
    pytest.param("torus:q=65537,r=1,m=2", (), "65537^2", id="torus"),
])
def test_oversized_cyclic_sigma_is_refused_before_the_group_is_built(
        capsys, monkeypatch, module, extra, count):
    """Every builder's spec fixes the field order and the dimension, so an
    oversized sigma is refused before any group is closed; a count whose
    decimal is too long to print is written as a power."""
    from nullcone_lab.groups import MatrixGroup

    def no_closure(*args, **kwargs):
        raise AssertionError("the group was closed before the refusal")
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    code, out, err = run_cli(capsys, "compute", "sigma", "--module", module, *extra,
                             "--dmax", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: TooManyPoints: {count} points exceeds the cap 1000000\n"


@pytest.mark.parametrize("module, wanted", [
    ("gn:p=2,n=20", "group order 1048576 exceeds the closure cap 1000000"),
    ("torus:q=1000003,r=1,m=2", "group order 1000002 exceeds the closure cap 1000000"),
    ("torus:q=2147483647,r=1,m=2", "group order 2147483646 exceeds the closure cap 1000000"),
    ("torus:q=2305843009213693951,r=1,m=2",
     "group order 2305843009213693950 exceeds the closure cap 1000000"),
    # (10^9 + 7)^2: a prime power whose prime no trial division reaches fast
    ("torus:q=1000000014000000049,r=1,m=2",
     "group order 1000000014000000048 exceeds the closure cap 1000000"),
    ("gl2:p=2,n=20000", "group order (2^20000) exceeds the closure cap 1000000"),
    # factoring a q of 4,001 digits takes seconds; |G| is refused first
    pytest.param(f"torus:q={10**4000 + 1},r=1,m=2",
                 f"group order {10**4000} exceeds the closure cap 1000000", id="torus-huge-q"),
    ("cyclic:p=2,k=600", "600*600^2 dense matrix entries exceed the cap 40000000"),
    ("gl2:p=2,n=6", "64*4096^2 dense matrix entries exceed the cap 40000000"),
])
def test_oversized_module_is_refused_from_its_sizes_before_closure(
        capsys, monkeypatch, module, wanted):
    """The spec's group order and dimension decide, before any closure, a
    group past the closure cap or matrices past the dense-entry cap; a
    torus's q is not factored first."""
    from nullcone_lab import constructions
    from nullcone_lab.groups import MatrixGroup

    def no_work(*args, **kwargs):
        raise AssertionError("the group was closed or q factored before the refusal")
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_work))
    monkeypatch.setattr(constructions, "_prime_power", no_work)
    code, out, err = run_cli(capsys, "compute", "epsilon", "--module", module, "--dmax", "1")
    assert (code, out) == (2, "")
    assert err == f"error: CapExceeded: module spec {module!r}: {wanted}\n"


COMMANDS = [("epsilon", "--dmax"), ("delta", "--dmax"), ("sigma", "--dmax"),
            ("nullcone", "--dmax"), ("invariant-space", "--degree")]


@pytest.mark.parametrize("module", [
    pytest.param(f"gn:p={10**4000 + 1},n=1", id="gn-huge-p"),
    pytest.param(f"torus:q={10**4000 + 1},r=1,m=2", id="torus-huge-q"),
    "torus:q=1000000016000000063,r=1,m=2",  # (10^9 + 7)(10^9 + 9)
    "gl2:p=2,n=20000",
    "cyclic:p=2,k=600",
])
def test_one_refusal_per_spec_whatever_the_command(capsys, monkeypatch, module):
    """Every command refuses an oversized spec from its sizes alone, in one
    order, with no prime tested, no q factored and no group closed."""
    from nullcone_lab import constructions, fields
    from nullcone_lab.groups import MatrixGroup

    def no_work(*args, **kwargs):
        raise AssertionError("a prime was tested, q factored or a group closed")
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_work))
    monkeypatch.setattr(constructions, "_prime_power", no_work)
    monkeypatch.setattr(fields, "_is_probable_prime", no_work)
    results = {run_cli(capsys, "compute", what, "--module", module, flag, "1")
               for what, flag in COMMANDS}
    assert len(results) == 1
    code, out, err = results.pop()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: CapExceeded: module spec {module!r}: ")


def test_a_spec_with_a_negative_p_is_left_to_the_builders_checks(capsys):
    """A size whose base is below 2 reaches no cap, and so no log10."""
    module = "gn:p=-3,n=20"
    for what, flag in COMMANDS:
        assert run_cli(capsys, "compute", what, "--module", module, flag, "1") == \
            (2, "", f"error: module spec {module!r}: -3 is not prime\n")


def test_sigma_counts_points_before_it_builds_the_point_field(capsys, monkeypatch):
    from nullcone_lab import fields

    def no_field(*args, **kwargs):
        raise AssertionError("the point field was built before the count")
    monkeypatch.setattr(fields, "_least_irreducible", no_field)
    code, out, err = run_cli(capsys, "compute", "sigma", "--module", "cyclic:p=2,k=8",
                             "--pointfield", "2,2000", "--dmax", "2")
    assert (code, out, err) == (
        2, "", f"error: TooManyPoints: {2**2000}^8 points exceeds the cap 1000000\n")
    # a point field whose count passes is still refused when it is built
    assert run_cli(capsys, "compute", "sigma", "--module", "cyclic:p=2,k=2",
                   "--pointfield", "4,2", "--dmax", "2") == \
        (2, "", "error: NotPrime: 4 is not prime\n")


@pytest.mark.parametrize("gens, field, extra, count", [
    ("1,1;0,1", "2,600", (), f"{2**600}^2"),
    ("1,1;0,1", "2,20000", (), "(2^20000)^2"),
    ("1,1;0,1", "2", ("--pointfield", "2,2000"), f"{2**2000}^2"),
    ("0,1,0;0,0,1;1,0,0|0,1,0;1,0,0;0,0,1", "2,7", (), "128^3"),
    # the count comes before the prime test, as for a module spec
    ("1,1;0,1", "4,600", (), f"{4**600}^2"),
    pytest.param("1,1;0,1", str(10**4000 + 1), (), f"{10**4000 + 1}^2", id="huge-p"),
])
def test_oversized_gens_sigma_is_refused_before_the_field_is_built(
        capsys, monkeypatch, gens, field, extra, count):
    """--gens and --field fix the point count as a module spec does: the
    refusal comes before any prime is tested or any extension field or group
    is built, in well under a second, with the --module refusal's message."""
    from nullcone_lab import fields
    from nullcone_lab.groups import MatrixGroup

    def no_prime_test(*args, **kwargs):
        raise AssertionError("a prime was tested before the count")

    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the count")

    def no_closure(*args, **kwargs):
        raise AssertionError("the group was closed before the count")
    monkeypatch.setattr(fields, "_is_probable_prime", no_prime_test)
    monkeypatch.setattr(fields, "_least_irreducible", no_field)
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    start = time.perf_counter()
    result = run_cli(capsys, "compute", "sigma", "--gens", gens, "--field", field, *extra,
                     "--dmax", "1", "--json")
    assert time.perf_counter() - start < 1
    assert result == (2, "", f"error: TooManyPoints: {count} points exceeds the cap 1000000\n")


def test_gens_sigma_within_the_cap_checks_its_field_first(capsys):
    """(4^2)^2 = 256 points pass the count, so the field's checks decide."""
    assert run_cli(capsys, "compute", "sigma", "--gens", "1,1;0,1", "--field", "4,2",
                   "--dmax", "1") == (2, "", "error: NotPrime: 4 is not prime\n")
    code, out, _ = run_cli(capsys, "compute", "sigma", "--gens", "1,1;0,1", "--field", "2,2",
                           "--dmax", "2", "--json")
    assert code == 0 and json.loads(out)["value"] == 2


@pytest.mark.parametrize("field, wanted", [
    ("x", "bad field 'x'; use 'p', 'p,n' or '0'"),
    (None, "--gens requires --field"),
    ("4", "NotPrime: 4 is not prime"),
])
@pytest.mark.parametrize("what, flag", COMMANDS)
def test_gens_requests_take_the_module_order_under_every_command(
        capsys, monkeypatch, what, flag, field, wanted):
    """A --gens request passes the same checks as a --module one, in the same
    order, under every command: a bad or missing --field or a field that is
    no field is refused before any group is closed."""
    from nullcone_lab.groups import MatrixGroup

    def no_closure(*args, **kwargs):
        raise AssertionError("the group was closed before the refusal")
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    field_args = ("--field", field) if field is not None else ()
    assert run_cli(capsys, "compute", what, "--gens", "1,1;0,1", *field_args, flag, "1") == \
        (2, "", f"error: {wanted}\n")


@pytest.mark.parametrize("source, degree, wanted", [
    (("--module", "cyclic:p=2,k=300"), 3, "degree 3 in 300 variables has 4545100"),
    (("--module", "gl2:p=2,n=5"), 3, "degree 3 in 1024 variables has 179481600"),
    (("--gens", "1,1;0,1", "--field", "2"), 100000, "degree 100000 in 2 variables has 100001"),
    (("--gens", "0,1,0;0,0,1;1,0,0", "--field", "2,600"), 1000,
     "degree 1000 in 3 variables has 501501"),
])
def test_invariant_space_counts_columns_before_the_module_is_built(
        capsys, monkeypatch, source, degree, wanted):
    """The sizes fix the column count C(dim+d-1, d), so it is refused, with
    the message of the refusal inside invariant_space, before any field or
    group is built, in well under a second."""
    from nullcone_lab import fields
    from nullcone_lab.groups import MatrixGroup

    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the count")

    def no_closure(*args, **kwargs):
        raise AssertionError("the group was closed before the count")
    monkeypatch.setattr(fields, "_least_irreducible", no_field)
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    start = time.perf_counter()
    result = run_cli(capsys, "compute", "invariant-space", *source, "--degree", str(degree))
    assert time.perf_counter() - start < 1
    assert result == (2, "", f"error: TooManyColumns: {wanted} monomial columns, "
                             "above the cap 100000\n")


def test_delta_counts_fixed_points_before_it_builds_the_point_field(capsys, monkeypatch):
    """V^G of the regular C_8 module is one line over F_2, and so over every
    extension: (2^2000)^1 points are refused with F_{2^2000} never built."""
    from nullcone_lab import cli
    ff_make = cli.ff_make

    def no_big_field(p, n=1, *args):
        if n == 2000:
            raise AssertionError("the point field was built before the count")
        return ff_make(p, n, *args)
    monkeypatch.setattr(cli, "ff_make", no_big_field)
    code, out, err = run_cli(capsys, "compute", "delta", "--module", "cyclic:p=2,k=8",
                             "--pointfield", "2,2000", "--dmax", "2")
    assert (code, out, err) == (
        2, "", f"error: TooManyPoints: {2**2000}^1 points exceeds the cap 1000000\n")


@pytest.mark.parametrize("module", ["cyclic:p=2,k=300", "gl2:p=2,n=5", "gn:p=2,n=19"])
def test_module_within_the_caps_reaches_the_closure(monkeypatch, module):
    from nullcone_lab.groups import MatrixGroup

    class Closed(Exception):
        pass

    def closure(*args, **kwargs):
        raise Closed
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(closure))
    with pytest.raises(Closed):
        parse_module_spec(module)


GN16 = "GF(2^16, modulus=z^16+z^5+z^3+z+1)"


@pytest.mark.parametrize("what, pointfield, target", [
    pytest.param("sigma", "2", "GF(2)", id="sigma"),
    pytest.param("delta", "2,3", "GF(2^3)", id="delta"),
    pytest.param("delta", "0", "QQ", id="delta-rationals"),
])
def test_point_field_without_the_module_field_is_refused_before_the_group_is_built(
        capsys, monkeypatch, what, pointfield, target):
    """The spec fixes the module's field, so a point field it does not lift
    into is refused with the lift's own error before any group is closed."""
    from nullcone_lab.groups import MatrixGroup

    def no_closure(*args, **kwargs):
        raise AssertionError("the group was closed before the refusal")
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    code, out, err = run_cli(capsys, "compute", what, "--module", "gn:p=2,n=16",
                             "--pointfield", pointfield, "--dmax", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: ContextMismatch: no canonical map {GN16} -> {target}\n"


@pytest.mark.parametrize("what", ["sigma", "delta"])
def test_gens_point_field_without_the_field_is_refused_before_the_group_is_built(
        capsys, monkeypatch, what):
    """--field fixes the group's field as a spec does: F_4 does not lift into
    F_8, which is refused, named by its order, before any group is closed
    and with F_8 never built."""
    from nullcone_lab import fields
    from nullcone_lab.groups import MatrixGroup
    least_irreducible = fields._least_irreducible

    def no_closure(*args, **kwargs):
        raise AssertionError("the group was closed before the refusal")

    def no_point_field(p, n):
        if n == 3:
            raise AssertionError("the refused point field was built")
        return least_irreducible(p, n)
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    monkeypatch.setattr(fields, "_least_irreducible", no_point_field)
    assert run_cli(capsys, "compute", what, "--gens", "1,1;0,1", "--field", "2,2",
                   "--pointfield", "2,3", "--dmax", "2") == \
        (2, "", "error: ContextMismatch: no canonical map "
                "GF(2^2, modulus=z^2+z+1) -> GF(2^3)\n")


def test_a_refused_point_field_is_named_not_built(capsys, monkeypatch):
    """F_4 does not lift into F_{2^2000}: the refusal names the point field
    from its order and never searches for its modulus."""
    from nullcone_lab import fields
    least_irreducible = fields._least_irreducible

    def no_big_field(p, n):
        if n == 2000:
            raise AssertionError("the refused point field was built")
        return least_irreducible(p, n)
    monkeypatch.setattr(fields, "_least_irreducible", no_big_field)
    code, out, err = run_cli(capsys, "compute", "delta", "--module", "gl2:p=2,n=2",
                             "--pointfield", "2,2000", "--dmax", "2")
    assert (code, out) == (2, "")
    assert err == ("error: ContextMismatch: no canonical map "
                   "GF(2^2, modulus=z^2+z+1) -> GF(2^2000)\n")


# small valid specs of every builder, with several group orders and fields
SIZED_SPECS = ["va:p=3,n=1,m=2", "va:p=2,n=0,m=1", "va:p=2,n=5,m=3",
               "gl2:p=2,n=1", "gl2:p=3,n=1", "gl2:p=2,n=2",
               "torus:q=7,r=1,m=2", "torus:q=9,r=1,m=2", "torus:q=8,r=-1,m=1",
               "torus:q=13,r=2,m=1", "torus:q=5,r=2,m=0",
               "gn:p=2,n=3", "gn:p=3,n=2", "gn:p=5,n=1",
               "cyclic:p=3,k=2", "cyclic:p=2,k=1", "cyclic:p=2,k=6"]


@pytest.mark.parametrize("spec", SIZED_SPECS)
def test_spec_sizes_name_the_field_the_builder_uses(spec):
    """A spec's sizes, found with nothing built, are the built module's
    field, dimension and group order."""
    from nullcone_lab.cli import BUILDERS, _checked_spec
    from nullcone_lab.fields import ff_make
    assert {text.partition(":")[0] for text in SIZED_SPECS} == set(BUILDERS)
    _, _, (field, dim, order), field_checks = _checked_spec(spec)
    rep = parse_module_spec(spec).rep
    assert rep.ctx is ff_make(*field_checks())
    assert rep.ctx.cardinality == field[0] ** field[1]
    assert rep.dim == dim[0] ** dim[1]
    assert rep.group.order == order[0] ** order[1]


def test_point_field_check_waits_for_dmax(capsys):
    code, out, err = run_cli(capsys, "compute", "delta", "--module", "gn:p=2,n=2",
                             "--pointfield", "2")
    assert (code, out, err) == (2, "", "error: delta needs --dmax\n")


def test_sigma_over_the_rationals_exits_2(capsys):
    code, out, err = run_cli(capsys, "compute", "sigma", "--gens", "1", "--field", "0",
                             "--dmax", "1")
    assert code == 2
    assert out == ""
    assert err == "error: RationalContext: sigma enumerates the points of a finite field\n"


def test_delta_over_the_rationals_exits_2(capsys):
    code, out, err = run_cli(capsys, "compute", "delta", "--gens", "1", "--field", "0",
                             "--dmax", "1")
    assert code == 2
    assert out == ""
    assert err == "error: RationalContext: delta enumerates the points of a finite field\n"


@pytest.mark.parametrize("argv", [
    ("compute", "epsilon", "--module", "gl2:p=2,n=3", "--dmax", "8"),
    ("verify", "gl2-delta", "--p", "2", "--n", "3"),
    ("verify", "gl2-delta", "--p", "2", "--n", "4"),
])
def test_oversized_invariant_space_is_refused_before_any_is_built(capsys, monkeypatch,
                                                                  argv):
    """The identity of the 64-dim gl2 module has 16 nonzero permutation
    coordinates, and degree 7 on them has C(22, 7) columns: the fast path
    refuses it before it builds its witness or any degree.  gl2-delta
    refuses degree q-1 of the q*q-dim module before it builds the module."""
    from nullcone_lab import invariants, suites

    def no_space(*args, **kwargs):
        raise AssertionError("an invariant space was built before the refusal")

    def no_module(*args, **kwargs):
        raise AssertionError("the module was built before the refusal")
    monkeypatch.setattr(invariants, "substitution_constraint_rows", no_space)
    monkeypatch.setattr(invariants, "_fast_path_epsilon", no_space)
    if argv[-1] == "4":
        monkeypatch.setattr(suites, "gl2_test_module", no_module)
        wanted = "degree 15 in 256 variables has 1520398315196482557890304"
    elif argv[0] == "compute":
        wanted = "degree 7 in 16 variables has 170544"
    else:
        wanted = "degree 7 in 64 variables has 1198774720"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: TooManyColumns: {wanted} monomial columns, above the cap 100000\n"


@pytest.mark.parametrize("argv, code, digest", [
    pytest.param("epsilon --module gl2:p=2,n=3 --dmax 3 --json", 1,
                 "4079b29791853ae87c7895139ae8b6000c1eeda70be3141163c84578c11c7c13",
                 id="epsilon-gl2:p=2,n=3"),
    # fixed points of several supports: one restricted representation each
    pytest.param("delta --module gl2:p=2,n=2 --dmax 4 --json", 0,
                 "0677505a4fddccd93b02d932ec53ec31d49639a089d7307347a8379c82eab0a6",
                 id="delta-gl2:p=2,n=2"),
    pytest.param("delta --module gl2:p=3,n=1 --dmax 3 --json", 0,
                 "10ac0a457c27dcbe250f06351fa819637df57cef3bf0a16095244faf1dbcb831",
                 id="delta-gl2:p=3,n=1"),
])
def test_support_restricted_output_is_pinned(capsys, argv, code, digest):
    """The stdout sha256 that the lower degrees on every permutation slot
    printed: scanning them on the support of w prints the same bytes."""
    import hashlib
    got, out, _ = run_cli(capsys, "compute", *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gl2_q8_answers_degree_4_on_the_support(capsys):
    """Degree 4 in the 64 coordinates has 766,480 columns, but the identity's
    permutation coordinates are nonzero on 16 slots only, where it has
    3,876: every invariant of degree <= 4 vanishes there."""
    code, out, err = run_cli(capsys, "compute", "epsilon", "--module", "gl2:p=2,n=3",
                             "--dmax", "4")
    assert (code, out, err) == (1, "epsilon(gl2:p=2,n=3) = undetermined above 4\n", "")


def _gl2_dmax4_run(capsys, monkeypatch, what):
    """`compute <what>` on gl2:p=2,n=2 at dmax 4: its JSON, the module's
    representation and every matrix that constraint rows were built from."""
    from nullcone_lab import cli, invariants
    built, matrices = [], []
    parse, rows = cli.parse_module_spec, invariants.substitution_constraint_rows

    def keep_spec(text):
        built.append(parse(text))
        return built[-1]

    def keep_matrix(matrix, d):
        matrices.append(matrix)
        return rows(matrix, d)
    monkeypatch.setattr(cli, "parse_module_spec", keep_spec)
    monkeypatch.setattr(invariants, "substitution_constraint_rows", keep_matrix)
    code, out, _ = run_cli(capsys, "compute", what, "--module", "gl2:p=2,n=2",
                           "--dmax", "4", "--json")
    assert code == 0
    return json.loads(out), built[0].rep, matrices


def test_epsilon_on_gl2_builds_no_x_coordinate_space(capsys, monkeypatch):
    """Every constraint row of gl2-epsilon comes from a permutation matrix
    (pi restricted to the 8 slots where the point's coordinates are not
    zero), and the module's own space cache stays empty."""
    payload, rep, matrices = _gl2_dmax4_run(capsys, monkeypatch, "epsilon")
    assert payload["value"] == 4
    assert rep._inv_space_cache == {}
    pb = rep.permutation_basis()
    assert pb.perm_rep is None
    [(support, pi_s)] = pb.support_reps.items()
    assert len(support) == pi_s.dim == 8
    assert sorted(pi_s._inv_space_cache) == [1, 2, 3]
    assert matrices and all(m.permutation() is not None for m in matrices)


def test_nullcone_on_gl2_builds_no_x_coordinate_space(capsys, monkeypatch):
    """`compute nullcone` asks epsilon, so it too builds only pi's spaces,
    and its certificate is epsilon's witness."""
    payload, rep, matrices = _gl2_dmax4_run(capsys, monkeypatch, "nullcone")
    assert payload["verdict"] == "out"
    assert rep._inv_space_cache == {}
    assert matrices and all(m.permutation() is not None for m in matrices)
    point = [rep.ctx.parse(c) for c in payload["point"]]
    assert payload["certificate"] == str(epsilon(rep, point, 4).witness)


def test_verify_budget_skips_instead_of_dying(capsys):
    code, out, _ = run_cli(capsys, "verify", "gl2-delta", "--p", "2", "--n", "2",
                           "--budget", "0")
    assert code == 1
    assert "skipped (budget exhausted)" in out


def test_verify_all_budget_is_one_deadline_for_every_run(capsys, monkeypatch):
    """With the deadline passed before the first run, every run is skipped
    before it builds anything."""
    from nullcone_lab import suites

    def no_module(*args, **kwargs):
        raise AssertionError("a module was built after the deadline")
    monkeypatch.setattr(suites, "gl2_test_module", no_module)
    monkeypatch.setattr(suites, "vandermonde_regular_check", no_module)
    code, out, _ = run_cli(capsys, "verify", "all", "--budget", "0", "--json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert [run["suite"] for run in payload["runs"]] == [name for name, _ in ALL_SUITE_RUNS]
    for run in payload["runs"]:
        assert [(c["id"], c["computed"], c["pass"]) for c in run["claims"]] == \
            [(f"{run['suite']}-skipped", "skipped (budget exhausted)", False)]


@pytest.mark.parametrize("flags, named", [
    (["--p", "0"], "--p"), (["--n", "2"], "--n"), (["--nmax", "3"], "--nmax"),
    (["--p", "3", "--nmax", "3", "--budget", "60"], "--p, --nmax"),
])
def test_verify_all_refuses_the_parameters_its_runs_fix(capsys, flags, named):
    assert run_cli(capsys, "verify", "all", *flags) == \
        (2, "", f"error: suite 'all' takes no {named}\n")


@pytest.mark.parametrize("suite", ["binomial", "regular-rep", "gl2-delta", "va-ring"])
def test_a_composite_p_is_refused_before_the_budget_is_read(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--p", "4", "--budget", "0")
    assert code == 2 and out == ""
    assert err == "error: p = 4 is not prime\n"


@pytest.mark.parametrize("argv", [("regular-rep", "--p", "7"),
                                  ("gl2-delta", "--p", "2", "--n", "3")])
def test_a_suites_own_refusal_comes_before_the_budget(capsys, argv):
    refused = run_cli(capsys, "verify", *argv)
    assert refused[0] == 2 and refused[1] == ""
    assert run_cli(capsys, "verify", *argv, "--budget", "0") == refused


@pytest.mark.parametrize("argv, message", [
    pytest.param(("va-ring", "--p", "1000000007", "--n", "1"), "CapExceeded: group order "
                 "1000000028000000294000001372000002401 exceeds the closure cap 1000000",
                 id="va-ring-large-p"),
    pytest.param(("va-ring", "--p", "2", "--n", "9"),
                 "CapExceeded: group order 1048576 exceeds the closure cap 1000000",
                 id="va-ring-large-n"),
    pytest.param(("binomial", "--p", "127"), "no binomial case (p^n <= 125) has p = 127",
                 id="binomial-no-case"),
])
def test_a_request_no_suite_run_can_serve_is_refused_before_work(
        capsys, monkeypatch, argv, message):
    """va-ring refuses its joint group from its order p^(2n+2), and binomial
    a p with no case, whether or not the budget is spent."""
    from nullcone_lab.groups import MatrixGroup

    def no_closure(*args, **kwargs):
        raise AssertionError("a group was closed before the refusal")
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    for budget in ((), ("--budget", "0")):
        assert run_cli(capsys, "verify", *argv, *budget) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_negative_budget_exits_2(capsys, budget):
    code, out, err = run_cli(capsys, "verify", "binomial", "--budget", budget)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--budget" in err


@pytest.mark.parametrize("flag, value, cases", [
    ("--p", "3", ["p3-n1", "p3-n2"]),
    ("--n", "2", ["p2-n2", "p3-n2", "p5-n2"]),
])
def test_regular_rep_with_one_of_p_and_n_restricts_the_default_cases(
        capsys, flag, value, cases):
    code, out, _ = run_cli(capsys, "verify", "regular-rep", flag, value, "--json")
    assert code == 0
    assert [c["id"] for c in json.loads(out)["claims"]] == \
        [f"regular-rep-{case}" for case in cases]


@pytest.mark.parametrize("argv", [("--p", "7"), ("--n", "5"), ("--p", "7", "--n", "2")])
def test_regular_rep_request_with_no_case_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "regular-rep", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_verify_all_json_schema(capsys):
    # keep it fast: all suites but check only the shape of a subset run
    code, out, _ = run_cli(capsys, "verify", "torus-sigma", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert code == 0


# -- fuzzing the command line -------------------------------------------------------

# valid values of each builder's keys, sized so that no module has more than
# 9 coordinates and no example takes much over a second
SPEC_VALUES = {
    "va": {"p": [2, 3], "n": [1, 2, 0], "m": [1, 2]},
    "gl2": {"p": [2, 3], "n": [1]},
    "torus": {"q": [7, 5, 9, 4], "r": [1, -1, 2], "m": [1, 2, 0]},
    "gn": {"p": [2, 3], "n": [1, 2]},
    "cyclic": {"p": [2, 3], "k": [2, 3, 1]},
}

# the dimension of each builder's module at valid values of its keys
SPEC_DIMS = {
    "va": lambda p, n, m: 3,
    "gl2": lambda p, n: p ** (2 * n),
    "torus": lambda q, r, m: 2,
    "gn": lambda p, n: 2,
    "cyclic": lambda p, k: k,
}


@st.composite
def compute_argv(draw):
    """A compute request on a valid module spec, or with one defect: a
    small, zero or negative value in the spec, a stray key or dmax -1.
    Most points have the module's dimension and residue coordinates; the
    rest have 1 to 4 coordinates that may name z."""
    name = draw(st.sampled_from(sorted(SPEC_VALUES)))
    params = {key: draw(st.sampled_from(values))
              for key, values in SPEC_VALUES[name].items()}
    dim = SPEC_DIMS[name](**params)
    defect = draw(st.sampled_from([None, None, None, None, "value", "key", "dmax"]))
    if defect == "value":
        params[draw(st.sampled_from(sorted(params)))] = draw(st.integers(-2, 1))
    elif defect == "key":
        params["z"] = 1
    spec = f"{name}:" + ",".join(f"{k}={v}" for k, v in params.items())
    what = draw(st.sampled_from(["epsilon", "sigma", "delta", "nullcone"]))
    dmax = -1 if defect == "dmax" else draw(st.integers(0, 3))
    argv = ["compute", what, "--module", spec, "--dmax", str(dmax)]
    point = draw(st.sampled_from(["module", "module", "module", "any", None]))
    if point == "module":
        coords = draw(st.lists(st.sampled_from(["0", "1", "2"]), min_size=dim,
                               max_size=dim))
    elif point == "any":
        coords = draw(st.lists(st.sampled_from(["0", "1", "2", "z"]), min_size=1,
                               max_size=4))
    if point is not None:
        argv += ["--point", ",".join(coords)]
    pointfield = draw(st.sampled_from([None, None, "2,2", "3", "0"]))
    if pointfield is not None:
        argv += ["--pointfield", pointfield]
    if draw(st.booleans()):
        argv += ["--generators", "auto"]
    return argv + draw(st.sampled_from([[], ["--json"], ["--csv"]]))


# per --field: the units and all entries of its generator matrices, and the
# largest size drawn; 3x3 keeps closure within |GL_3(2)| = 168 over F_2 and
# Minkowski's bound 48 over Q
GENS_FIELDS = {"2": (["1"], ["0", "1"], 3),
               "3": (["1", "2"], ["0", "1", "2"], 2),
               "2,2": (["1", "z", "z+1"], ["0", "1", "z", "z+1"], 2),
               "0": (["1", "-1"], ["0", "1", "-1"], 3)}


@st.composite
def gens_argv(draw):
    """A compute request on inline --gens matrices: units at the places of a
    permutation and zeros, or any entries, after them in each row or
    everywhere; or one defect: a ragged or non-square matrix, a singular or
    (over Q) infinite-order generator, z over a prime field, or no --field."""
    defect = draw(st.sampled_from([None] * 8 + ["ragged", "square", "singular",
                                                "infinite", "z", "field"]))
    field = ("0" if defect == "infinite" else
             draw(st.sampled_from(["2", "3", "0"] if defect == "z" else sorted(GENS_FIELDS))))
    units, entries, max_dim = GENS_FIELDS[field]
    dim = draw(st.integers(1, max_dim))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["monomial", "triangular", "dense"]))
        pi = draw(st.permutations(range(dim)))
        rows = [[draw(st.sampled_from(units)) if j == pi[i] else
                 draw(st.sampled_from(entries)) if kind == "dense" or
                 (kind == "triangular" and j > pi[i]) else "0"
                 for j in range(dim)] for i in range(dim)]
        gens.append(rows)
    rows = gens[0]
    if defect == "ragged":
        rows[draw(st.integers(0, dim - 1))].append("1")
    elif defect == "square":
        rows.append(["1"] * dim)
    elif defect == "singular":
        rows[0] = ["0"] * dim
    elif defect == "infinite":
        rows[0] = ["2"] + rows[0][1:]
    elif defect == "z":
        rows[0][0] = "z"
    text = "|".join(";".join(",".join(r) for r in g) for g in gens)
    what = draw(st.sampled_from(["epsilon", "sigma", "delta", "nullcone",
                                 "invariant-space"]))
    # --opt=value, as a value may start with "-1"
    argv = ["compute", what, f"--gens={text}", "--dmax", str(draw(st.integers(0, 3))),
            "--degree", str(draw(st.integers(0, 3)))]
    if defect != "field":
        argv += ["--field", field]
    if draw(st.integers(0, 4)):
        argv.append("--point=" + ",".join(draw(st.sampled_from(entries)) for _ in range(dim)))
    pointfield = draw(st.sampled_from([None, None, "2,2", "3", "0"]))
    if pointfield is not None:
        argv += ["--pointfield", pointfield]
    return argv + draw(st.sampled_from([[], ["--json"], ["--csv"]]))


# the slowest of 3,000 examples measured took 1.2 s on a busy 2-vCPU host
# (sigma over the 3^9 points of gl2:p=3,n=1); the deadline leaves four
# times that
@settings(max_examples=60, deadline=5000)
@example(["compute", "sigma", "--module", "va:p=2,n=-1,m=1", "--dmax", "2"])
@given(argv=st.one_of(compute_argv(), gens_argv()))
def test_compute_never_raises(argv):
    """Any compute request on a small module ends with exit 0, 1 or 2."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())


def _heavy_verify(suite, p, n):
    """va-ring past q = 4 takes seconds to minutes (q = 9: 89 s) and
    gl2-delta at q = 5 about 3 s; every other drawn request ends in well
    under a second.  Composite, zero and negative values are refused first."""
    if suite not in ("va-ring", "gl2-delta") or p not in (None, 2, 3, 5) \
            or n is not None and n < 1:
        return False
    q = (p or 2) ** (n or 1)
    return q > 4 if suite == "va-ring" else q == 5


@st.composite
def verify_argv(draw):
    """A verify request: a suite name, unknown ones too; --p, --n and --nmax
    from small primes, composites, 0 and negatives; a --budget in minutes,
    negative, 0, NaN or ample; with or without --json or --csv."""
    suite = draw(st.sampled_from(sorted(SUITES) + ["all", "va_ring"]))
    takes = inspect.signature(SUITES[suite]).parameters if suite in SUITES else ()
    argv = ["verify", suite]
    params = {}
    for key in ("p", "n", "nmax"):
        # a parameter the suite does not take is drawn one time in eight
        params[key] = draw(st.sampled_from([None, None, -1, 0, 1, 2, 2, 3, 3, 4, 5, 9]
                                           if key in takes else [None] * 7 + [2]))
        if params[key] is not None:
            argv.append(f"--{key}={params[key]}")
    assume(not _heavy_verify(suite, params["p"], params["n"]))
    budget = draw(st.sampled_from([None] * 8 + ["-1", "0", "nan", "60"]))
    if budget is not None:
        argv.append(f"--budget={budget}")
    return argv + draw(st.sampled_from([[], ["--json"], ["--csv"]]))


@settings(max_examples=60, deadline=5000)
@given(argv=verify_argv())
def test_verify_never_raises(argv):
    """Any verify request ends with exit 0, 1 or 2 and prints no traceback."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- the README ------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title):
    text = README.read_text()
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    block = _readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:] for line in lines
            if line.startswith("nullcone-lab ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_readme_builder_table_names_every_builder_and_its_keys():
    from nullcone_lab.cli import BUILDERS
    specs = re.findall(r"^\| `(\w+):([^`]*)` ", _readme_section("Command line"), re.M)
    assert {name: tuple(pair.split("=")[0] for pair in params.split(","))
            for name, params in specs} == {name: keys for name, (keys, _, _) in BUILDERS.items()}
    assert len(specs) == len(BUILDERS)
