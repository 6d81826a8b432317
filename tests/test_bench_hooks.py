"""The benchmark's traced runs must see the program the tests see.

perfbench/spans.py wraps library functions and methods by name.  A renamed
target would make a per-layer metric read 0, and so would a change that
moves a counted operation (Scalar arithmetic, say) onto raw values; the
benchmark reports either as an incorrect run, as it does a traced stdout
that differs from perfbench/golden.json.  These tests catch all three in the
ordinary test suite, on every benchmark workload.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from nullcone_lab import cli

ROOT = Path(__file__).resolve().parent.parent
# produced only by the benchmark's child process and runner
OUTSIDE_THE_TRACE = {"cli.import_s", "trace.overhead_s"}
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
CASES = [pytest.param(["compute", "sigma", "--module", "cyclic:p=2,k=4", "--dmax", "4",
                       "--json"], None, id="cyclic-p2-k4")]
CASES += [pytest.param(g["argv"], g, id=name) for name, g in GOLDEN.items()]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, golden", CASES)
def test_traced_run_fills_every_per_layer_metric(capsys, argv, golden):
    spans = load_spans()
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    tracer.finish()
    out = capsys.readouterr().out
    if golden is None:
        assert code == 0
        assert json.loads(out)["kind"] == "sigma"
    else:
        assert code == golden["exit_code"]
        assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]
    metrics = spans.layer_metrics(tracer.record())
    wanted = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    zero = [name for name in wanted
            if name not in OUTSIDE_THE_TRACE and not metrics.get(name, (0,))[0]]
    assert zero == []
