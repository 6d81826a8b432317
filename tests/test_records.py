"""The plain record classes: fields in order, by keyword, and their defaults."""

from __future__ import annotations

import pytest

from nullcone_lab.cli import ModuleSpec
from nullcone_lab.constructions import (Ga2Example, Gl2Module, TorusModule, VaModule,
                                        VandermondeReport)
from nullcone_lab.invariants import (DegreeVerdict, GenerationCertificate, InvariantSpace,
                                     NullconeStatus, SeparationReport)
from nullcone_lab.poly import Monomial
from nullcone_lab.suites import Claim, SuiteReport

# each class: its fields in positional order, then the defaults of the
# trailing ones; a default of list or dict means a fresh one per instance
RECORDS = [
    (ModuleSpec, ("rep", "label", "make_candidates", "default_point"),
     {"make_candidates": None, "default_point": None}),
    (VandermondeReport, ("p", "n", "basis_found", "coefficient_pattern_ok", "nonsingular",
                         "free", "transitive", "fixes_no_slot"), {}),
    (VaModule, ("p", "n", "m", "group", "rep"), {}),
    (Gl2Module, ("p", "n", "group", "sym", "rep", "identity_point"), {}),
    (TorusModule, ("q", "r", "m", "group", "rep", "weights", "modulus", "point", "witness"),
     {}),
    (Ga2Example, ("action", "h_action", "candidates", "h_invariants", "point"), {}),
    (InvariantSpace, ("degree", "basis"), {}),
    (SeparationReport, ("kind", "value", "witness", "points", "degree_bound", "field",
                        "undetermined_points", "certified_complete", "point_values"),
     {"undetermined_points": list, "certified_complete": None, "point_values": list}),
    (NullconeStatus, ("point", "verdict", "certificate", "degree_bound", "generators"),
     {"generators": None}),
    (DegreeVerdict, ("degree", "candidate_dim", "invariant_dim"), {}),
    (GenerationCertificate, ("candidates", "degree_bound", "verdicts"), {}),
    (Claim, ("claim_id", "statement", "expected", "computed"), {}),
    (SuiteReport, ("suite", "parameters", "claims", "seed_data", "duration_s"),
     {"seed_data": dict, "duration_s": 0.0}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_fields_by_position_and_by_keyword(cls, fields, defaults):
    values = [object() for _ in fields]
    for record in (cls(*values), cls(**dict(zip(fields, values)))):
        assert all(getattr(record, f) is v for f, v in zip(fields, values))


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_a_field_left_out_takes_its_default(cls, fields, defaults):
    required = [object() for _ in fields[:len(fields) - len(defaults)]]
    first, second = cls(*required), cls(*required)
    for name, default in defaults.items():
        if default in (list, dict):  # a fresh container each time
            assert getattr(first, name) == default()
            assert getattr(first, name) is not getattr(second, name)
        else:
            assert getattr(first, name) == default
    with pytest.raises(TypeError):
        cls(*required[:-1])


def test_monomial_is_immutable_and_equal_by_its_exponents():
    m = Monomial((2, 0, 1))
    assert (m.exps, m.degree, m.nvars, str(m)) == ((2, 0, 1), 3, 3, "x0^2*x2")
    assert Monomial(exps=(2, 0, 1), degree=7).degree == 3  # always sum(exps)
    assert m == Monomial((2, 0, 1)) and hash(m) == hash(Monomial((2, 0, 1)))
    assert m != Monomial((1, 1, 1)) and m != (2, 0, 1)
    assert len({m, Monomial((2, 0, 1)), Monomial((0, 0, 3))}) == 2
    for name in ("exps", "degree", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, (1, 1, 1))
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert (m.exps, m.degree) == ((2, 0, 1), 3)
