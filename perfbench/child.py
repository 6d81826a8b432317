"""Run the nullcone-lab CLI once in this fresh interpreter, for the benchmark.

usage: child.py MODE SETUP_END RECORD RUN_ID -- CLI-ARGS...

MODE is `plain` (run the CLI), `setup` (exit as soon as set-up ends) or
`traced` (run the CLI under perfbench.spans).  SETUP_END says where set-up
ends: `module`, when cli.parse_module_spec returns, or `import`, when the
import of nullcone_lab.cli finishes.  When it exits, the child writes one
JSON object to RECORD: the CLOCK_MONOTONIC time at which set-up ended, its
own peak RSS, and in traced mode the spans and counters.  The CLI's stdout
and exit code pass through untouched.
"""

from __future__ import annotations

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """VmHWM of this process: the peak RSS since exec, without the parent's.

    ru_maxrss of a child also counts the memory image it replaced at exec,
    which belongs to the launching process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_record(path: str, record: dict) -> None:
    record["peak_rss_mb"] = peak_rss_mb()
    with open(path, "w") as fh:
        json.dump(record, fh)


def main() -> int:
    mode, setup_end, record_path, run_id = sys.argv[1:5]
    cli_args = sys.argv[6:]
    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer(run_id)
    import_start = time.perf_counter_ns()
    import nullcone_lab.cli as cli
    import_end = time.perf_counter_ns()
    record = {}

    def end_setup() -> None:
        record["setup_end_ns"] = time.monotonic_ns()
        if mode == "setup":
            write_record(record_path, record)
            os._exit(0)

    if setup_end == "import":
        end_setup()
    else:
        parse = cli.parse_module_spec

        def timed_parse(text):
            spec = parse(text)
            end_setup()
            return spec
        cli.parse_module_spec = timed_parse

    if tracer is not None:
        tracer.add_span("cli.import", import_start, import_end)
        tracer.install()
    code = cli.main(cli_args)
    sys.stdout.flush()
    if tracer is not None:
        tracer.finish()
        tracer.restore()
        record["trace"] = tracer.record()
    write_record(record_path, record)
    return code


if __name__ == "__main__":
    sys.exit(main())
