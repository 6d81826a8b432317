"""Command-line interface tests: exit codes, JSON shape, determinism, CSV."""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from nullcone_lab.cli import main, parse_module_spec
from nullcone_lab.errors import BadParameter


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2
    assert "unknown suite" in err


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
])
def test_compute_bad_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_oversized_cyclic_sigma_is_refused_before_the_group_is_built(capsys, monkeypatch):
    from nullcone_lab.groups import MatrixGroup

    def no_closure(*args, **kwargs):
        raise AssertionError("the group was closed before the refusal")
    monkeypatch.setattr(MatrixGroup, "closure", staticmethod(no_closure))
    code, out, err = run_cli(capsys, "compute", "sigma", "--module", "cyclic:p=2,k=30",
                             "--dmax", "2")
    assert code == 2
    assert out == ""
    assert err == "error: TooManyPoints: 2^30 points exceeds the cap 1000000\n"
    code, _, err = run_cli(capsys, "compute", "sigma", "--module", "cyclic:p=2,k=8",
                           "--pointfield", "2,3", "--dmax", "2")
    assert code == 2
    assert err == "error: TooManyPoints: 8^8 points exceeds the cap 1000000\n"


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
])
def test_oversized_invariant_space_is_refused_before_any_is_built(capsys, monkeypatch,
                                                                  argv):
    """Degree 7 of the 64-dim gl2 module has C(70, 7) columns: the fast path
    refuses it before it builds its witness or any degree."""
    from nullcone_lab import invariants

    def no_space(*args, **kwargs):
        raise AssertionError("an invariant space was built before the refusal")
    monkeypatch.setattr(invariants, "substitution_constraint_rows", no_space)
    monkeypatch.setattr(invariants, "_fast_path_epsilon", no_space)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: TooManyColumns: degree 7 in 64 variables has 1198774720 "
                   "monomial columns, above the cap 100000\n")


def test_epsilon_on_gl2_builds_no_x_coordinate_space(capsys, monkeypatch):
    """Every constraint row of gl2-epsilon comes from a permutation matrix
    (the permutation representation pi), and the module's own space cache
    stays empty."""
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
    code, out, _ = run_cli(capsys, "compute", "epsilon", "--module", "gl2:p=2,n=2",
                           "--dmax", "4", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 4
    rep = built[0].rep
    assert rep._inv_space_cache == {}
    assert sorted(rep.permutation_basis().perm_rep._inv_space_cache) == [1, 2, 3]
    assert matrices and all(m.permutation() is not None for m in matrices)


def test_verify_budget_skips_instead_of_dying(capsys):
    code, out, _ = run_cli(capsys, "verify", "gl2-delta", "--p", "2", "--n", "2",
                           "--budget", "0")
    assert code == 1
    assert "skipped (budget exhausted)" in out


def test_verify_all_json_schema(capsys):
    # keep it fast: all suites but check only the shape of a subset run
    code, out, _ = run_cli(capsys, "verify", "torus-sigma", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert code == 0
