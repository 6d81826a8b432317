"""nullcone-lab benchmark: cold-process CLI workloads, timed from outside.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --record-golden

Each sample is a fresh interpreter running one CLI command, as a user runs
it: one client, one process at a time (a closed loop).  The inputs are fixed
mathematical instances, so the seed only shuffles the order in which a run's
processes are launched: untraced runs interleave full runs with set-up-only
probes, traced runs interleave traced and untraced full runs.  Every full
run's stdout and exit code are checked against golden.json.  While a child
runs, the parent times a fixed loop now and then; timings are reported at a
reference pace of that loop, so that spells of a slow shared host cancel out.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1).  Every metric, with quartiles and sample counts, is printed above
it and saved under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
HARD_LIMIT_S = 170.0  # a run must exit within 180 s
# set-up-only processes per untraced round: set-up lasts about 0.1 s, and
# verify-all fits only two or three full runs in 30 s, too few for a steady
# median of set-up time on their own
SETUP_PROBES = 2
PROBE_PERIOD_S = 0.02
PROBE_LOOPS = 1500
# probe time on a quiet 2.1 GHz Xeon vCPU with Python 3.11.7; timings are
# reported at this pace (see `paced`)
PACE_REF_MS = 0.40


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    setup_end: str  # "module": parse_module_spec returns; "import": import done
    work: int  # units of work per run: points evaluated, or claims checked


WORKLOADS = {
    "gl2-epsilon": Workload(
        ("compute", "epsilon", "--module", "gl2:p=2,n=2", "--dmax", "4", "--json"),
        "module", 1),
    "cyclic-sigma": Workload(
        ("compute", "sigma", "--module", "cyclic:p=2,k=8", "--dmax", "8", "--json"),
        "module", 2**8 - 1),
    "va-sigma": Workload(
        ("compute", "sigma", "--module", "va:p=3,n=1,m=3", "--dmax", "3", "--json"),
        "module", 3**9 - 1),
    "verify-all": Workload(("verify", "all", "--json"), "import", 70),
}


@dataclass
class Sample:
    kind: str
    wall_s: float
    cpu_s: float
    exit_code: int
    ok: bool
    host_ms: float | None  # host probe time at the mean probe speed while the child ran
    stdout_sha256: str = ""
    setup_s: float | None = None
    rss_mb: float | None = None  # the child's VmHWM
    trace: dict | None = field(default=None, repr=False)
    problem: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), NULLCONE_LAB_THREADS="1", PYTHONHASHSEED="0")
    return env


def host_probe_ms() -> float:
    """Time a fixed pure-Python loop: the host's current pace, in ms."""
    start = time.perf_counter_ns()
    acc: dict[tuple[int, int], int] = {}
    x = 7
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) % 1000003
        key = (x & 255, i & 7)
        acc[key] = acc.get(key, 0) + 1
    return (time.perf_counter_ns() - start) / 1e6


def wait_probing(proc: subprocess.Popen, deadline: float):
    """Wait for the child, probing the host's pace every PROBE_PERIOD_S.

    The parent is otherwise idle, so the probes cost the child nothing but a
    short burst on the other CPU.  The child is killed at the deadline.
    """
    fd = os.pidfd_open(proc.pid)
    probes: list[float] = []
    timed_out = False
    try:
        while not select.select([fd], [], [], PROBE_PERIOD_S)[0]:
            if time.monotonic() >= deadline:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
                timed_out = True
                break
            probes.append(host_probe_ms())
    except BaseException:  # interrupted or terminated: end the child first
        signal.pidfd_send_signal(fd, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out, probes


def launch(name: str, kind: str, run_id: str, deadline: float,
           golden: dict | None) -> Sample:
    """Run one cold process of `kind` (plain, setup or traced)."""
    wl = WORKLOADS[name]
    record = OUT / "record.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), kind, wl.setup_end,
           str(record), run_id, "--", *wl.argv]
    stdout_path, stderr_path = OUT / "stdout", OUT / "stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        code, usage, timed_out, probes = wait_probing(proc, deadline)
        t1 = time.monotonic_ns()
    sample = Sample(kind, (t1 - t0) / 1e9, usage.ru_utime + usage.ru_stime, code, True,
                    host_ms=statistics.harmonic_mean(probes) if probes else None)
    problems = []
    if timed_out:
        problems.append("timed out")
    try:
        rec = json.loads(record.read_text())
    except (OSError, ValueError):  # no record, or the child died writing it
        rec = {}
    if "setup_end_ns" in rec:
        sample.setup_s = (rec["setup_end_ns"] - t0) / 1e9
        sample.rss_mb = rec["peak_rss_mb"]
    else:
        problems.append("no record from the child")
    if kind == "setup":
        if code != 0:
            problems.append(f"exit code {code}")
    else:
        sample.stdout_sha256 = hashlib.sha256(stdout_path.read_bytes()).hexdigest()
        if golden is not None and code != golden["exit_code"]:
            problems.append(f"exit code {code}, golden {golden['exit_code']}")
        if golden is not None and sample.stdout_sha256 != golden["stdout_sha256"]:
            problems.append("stdout differs from the golden copy")
    if kind == "traced" and not problems:
        sample.trace = rec["trace"]
        total, root = spans.self_time_balance(sample.trace)
        if total != root:
            problems.append(f"span self times sum to {total} ns, root lasts {root} ns")
    if problems:
        sample.ok = False
        sample.problem = "; ".join(problems)
        tail = stderr_path.read_bytes()[-2000:].decode(errors="replace")
        print(f"{kind} run failed: {sample.problem}\n{tail}", file=sys.stderr)
    return sample


def measure(name: str, seed: int, seconds: float, trace: bool,
            golden: dict) -> list[Sample]:
    """Closed loop of rounds until the next round would pass `seconds`."""
    rng = random.Random(seed)
    kinds = ["traced", "plain"] if trace else ["plain"] + ["setup"] * SETUP_PROBES
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    samples: list[Sample] = []
    rounds: list[float] = []
    while True:
        rng.shuffle(kinds)
        begun = time.monotonic()
        for kind in kinds:
            run_id = f"{name}-s{seed}-{len(samples)}"
            samples.append(launch(name, kind, run_id, deadline, golden))
        rounds.append(time.monotonic() - begun)
        elapsed = time.monotonic() - start
        if (elapsed + statistics.median(rounds) > seconds
                or elapsed + 2 * max(rounds) > HARD_LIMIT_S):
            return samples


def summary(values: list[float]) -> dict | None:
    if not values:
        return None
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    tail = spans.tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def paced(sample: Sample, seconds: float) -> float:
    """`seconds` rescaled from the host's pace during the sample to the
    reference pace PACE_REF_MS.

    Other tenants slow this host by up to 1.6x in spells of seconds to
    minutes, and CPU time rises with wall time, so the slowdown belongs to
    the host.  The probes beside each child slow down with it.
    """
    if sample.host_ms is None:
        return seconds
    return seconds * PACE_REF_MS / sample.host_ms


def of_kind(samples: list[Sample], kind: str) -> list[Sample]:
    return [s for s in samples if s.kind == kind and s.ok]


def end_to_end(name: str, samples: list[Sample]) -> dict[str, tuple[dict, str]]:
    work = WORKLOADS[name].work
    full = of_kind(samples, "plain")
    setups = full + of_kind(samples, "setup")
    return {
        "wall_s": (summary([paced(s, s.wall_s) for s in full]), "s"),
        "cpu_s": (summary([paced(s, s.cpu_s) for s in full]), "s"),
        "setup_s": (summary([paced(s, s.setup_s) for s in setups]), "s"),
        "peak_rss_mb": (summary([s.rss_mb for s in full]), "MB"),
        "work_per_s": (summary([work / paced(s, s.wall_s - s.setup_s) for s in full]),
                       "1/s"),
        "wall_raw_s": (summary([s.wall_s for s in full]), "s"),
        "cpu_raw_s": (summary([s.cpu_s for s in full]), "s"),
        "setup_raw_s": (summary([s.setup_s for s in setups]), "s"),
        "host_probe_ms": (summary([s.host_ms for s in samples if s.host_ms]), "ms"),
    }


def per_layer(samples: list[Sample]) -> dict[str, tuple[dict, str]]:
    traced = of_kind(samples, "traced")
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for s in traced:
        for key, (value, unit) in spans.layer_metrics(s.trace).items():
            scale = paced(s, 1.0) if unit in ("s", "ms") else 1.0
            values.setdefault(key, []).append(value * scale)
            units[key] = unit
    out = {key: (summary(vals), units[key]) for key, vals in sorted(values.items())}
    plain = of_kind(samples, "plain")
    if traced and plain:
        overhead = (statistics.median(paced(s, s.wall_s) for s in traced)
                    - statistics.median(paced(s, s.wall_s) for s in plain))
        out["trace.overhead_s"] = ({"median": overhead, "n": len(traced)}, "s")
    return out


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(),
            "src_py_lines": lines, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "loadavg_1m_start": os.getloadavg()[0]}


def record_golden() -> int:
    golden = {}
    for name, wl in WORKLOADS.items():
        sample = launch(name, "plain", f"{name}-golden",
                        time.monotonic() + HARD_LIMIT_S, None)
        if not sample.ok:
            return fail(f"{name} did not run cleanly: {sample.problem}")
        golden[name] = {"argv": list(wl.argv), "exit_code": sample.exit_code,
                        "stdout_sha256": sample.stdout_sha256}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="run each workload once and store its stdout "
                             "digest and exit code in golden.json")
    args = parser.parse_args(argv)

    if not (SRC / "nullcone_lab" / "cli.py").is_file():
        return fail(f"no nullcone_lab sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    bench = ROOT / "BENCHMARK.json"
    if not GOLDEN.is_file() or not bench.is_file():
        return fail("golden.json or BENCHMARK.json is missing")
    golden = json.loads(GOLDEN.read_text())[args.workload]
    if golden["argv"] != list(WORKLOADS[args.workload].argv):
        return fail(f"golden copy of {args.workload} was recorded for another "
                    "command; run --record-golden")
    wanted = [m["name"] for m in json.loads(bench.read_text())
              ["per_layer" if args.trace else "end_to_end"]]

    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    failed = sum(1 for s in samples if not s.ok)
    metrics = per_layer(samples) if args.trace else end_to_end(args.workload, samples)
    metrics = {key: val for key, val in metrics.items() if val[0] is not None}

    print("env " + json.dumps(env, sort_keys=True))
    for key, (stats, unit) in metrics.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k != "median")
        print(f"{key:40s} {stats['median']:.6g} {unit}  {extra}")
    print(f"{'fail_ratio':40s} {failed / len(samples):.6g}  ({failed}/{len(samples)})")
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, "failed": failed, "attempted": len(samples),
                    "metrics": {k: {"unit": u, **st} for k, (st, u) in metrics.items()},
                    "samples": [{"kind": s.kind, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                                 "rss_mb": s.rss_mb, "setup_s": s.setup_s,
                                 "host_ms": s.host_ms,
                                 "ok": s.ok, "problem": s.problem} for s in samples]},
                   indent=1, sort_keys=True))
    missing = [key for key in wanted if key not in metrics]
    zero = [key for key in wanted if key in metrics and metrics[key][0]["median"] == 0]
    if missing or zero:
        print(f"perfbench: metrics missing: {missing}; metrics reading 0: {zero}",
              file=sys.stderr)
    result = {
        "correct": failed == 0 and not missing and not zero,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {key: {"value": metrics[key][0]["median"], "unit": metrics[key][1]}
                    for key in wanted if key in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
