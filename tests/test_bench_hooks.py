"""The benchmark's tracer must find every name it patches in the library.

perfbench/spans.py wraps library functions and methods by name.  A renamed
target would make a per-layer metric read 0, which the benchmark reports as
an incorrect run; this test catches it in the ordinary test suite.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from nullcone_lab import cli

ROOT = Path(__file__).resolve().parent.parent
# produced only by the benchmark's child process and runner
OUTSIDE_THE_TRACE = {"cli.import_s", "trace.overhead_s"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_fills_every_per_layer_metric(capsys):
    spans = load_spans()
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        code = cli.main(["compute", "sigma", "--module", "cyclic:p=2,k=4",
                         "--dmax", "4", "--json"])
    finally:
        tracer.restore()
    tracer.finish()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "sigma"
    metrics = spans.layer_metrics(tracer.record())
    wanted = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    zero = [name for name in wanted
            if name not in OUTSIDE_THE_TRACE and not metrics.get(name, (0,))[0]]
    assert zero == []
