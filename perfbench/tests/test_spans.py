"""Self-tests of the benchmark's tracing and statistics.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import spans  # noqa: E402


def span_tuples(*rows):
    """(id, parent, name, start, end) rows; name indices are arbitrary."""
    return [tuple(r) for r in rows]


def test_self_times_nested_tree_sums_to_root():
    tree = span_tuples(
        (0, -1, 0, 0, 100),
        (1, 0, 1, 10, 40),
        (2, 0, 1, 50, 90),
        (3, 1, 2, 15, 25),
        (4, 1, 2, 25, 35),
        (5, 2, 3, 60, 61),
    )
    own = spans.self_times(tree)
    assert own == {0: 30, 1: 10, 2: 39, 3: 10, 4: 10, 5: 1}
    assert sum(own.values()) == 100


def test_self_times_merge_overlapping_and_clip_children():
    tree = span_tuples(
        (0, -1, 0, 0, 100),
        (1, 0, 1, 10, 40),
        (2, 0, 1, 30, 60),   # overlaps span 1: the union 10..60 is covered once
        (3, 0, 1, 90, 120),  # runs past its parent: clipped at 100
    )
    assert spans.self_times(tree)[0] == 100 - 50 - 10


def test_busy_counts_nested_spans_of_one_name_once():
    tree = span_tuples(
        (0, -1, 0, 0, 100),
        (1, 0, 1, 0, 50),
        (2, 1, 1, 10, 20),   # nested inside a span of the same name
        (3, 0, 2, 50, 60),
        (4, 3, 1, 52, 55),   # same name under another span: counted
    )
    assert spans.busy_ns(tree, {1}) == 50 + 3
    assert spans.busy_ns(tree, {1, 2}) == 60


def test_tail_percentile_needs_ten_samples_beyond():
    assert spans.tail_percentile(range(19)) is None
    assert spans.tail_percentile(range(20)) == (50, 9)
    assert spans.tail_percentile(range(1, 101)) == (90, 90)
    assert spans.tail_percentile(range(1, 1000)) == (95, 950)
    assert spans.tail_percentile(range(1, 1001)) == (99, 990)
    assert spans.tail_percentile(range(19682))[0] == 99.9


def module_state():
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("nullcone_lab"):
            state[name] = dict(vars(mod))
    from nullcone_lab import fields, groups, linalg, poly
    for cls in (fields.Scalar, poly.Polynomial, groups.MatrixGroup,
                groups.Representation, linalg._PackedChar2Eliminator,
                linalg._GenericEliminator):
        state[cls.__qualname__] = dict(vars(cls))
    return state


def test_restore_puts_every_original_back():
    import nullcone_lab.cli  # noqa: F401  (load every module before the snapshot)
    from nullcone_lab import invariants

    before = module_state()
    original = invariants.invariant_space
    tracer = spans.Tracer("restore-test")
    tracer.install()
    try:
        assert invariants.invariant_space is not original
        assert module_state() != before
    finally:
        tracer.restore()
    after = module_state()
    assert after.keys() == before.keys()
    for key in before:
        assert after[key].keys() == before[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, (key, attr)


def run_cli(argv, tracer=None):
    from nullcone_lab import cli

    out = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.finish()
            tracer.restore()
    return code, out.getvalue()


def test_traced_run_is_observation_only_and_balanced():
    argv = ["compute", "sigma", "--module", "cyclic:p=2,k=4", "--dmax", "4", "--json"]
    plain = run_cli(argv)
    tracer = spans.Tracer("observe-test")
    assert run_cli(argv, tracer) == plain

    rec = json.loads(json.dumps(tracer.record()))  # as the child writes it
    total, root = spans.self_time_balance(rec)
    assert total == root
    metrics = {k: v for k, (v, _) in spans.layer_metrics(rec).items()}
    assert metrics["invariants.points"] == 2**4 - 1
    assert metrics["invariants.epsilon_calls"] == 2**4 - 1
    assert 0 < metrics["invariants.recheck_rows"] < metrics["invariants.constraint_rows"]
    assert metrics["linalg.rows_added"] == metrics["linalg.rows_added.packed"] > 0
    assert metrics["invariants.recheck_s"] > 0
    assert metrics["groups.closure_elements"] == 4
