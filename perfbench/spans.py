"""Outside-in tracing of nullcone_lab for the benchmark's traced runs.

A Tracer wraps public entry points of the library by assigning to module and
class attributes; nothing under src/ is edited, and `restore` puts every
original back.  Each wrapped call records a span (id, parent, name index,
start ns, end ns) in a flat array; a few wrappers also bump counters for work
the spans cannot show (rows that raised the rank, points enumerated, Scalar
operations).  The tracer keeps one call stack, so it assumes one thread: the
benchmark runs the CLI with NULLCONE_LAB_THREADS=1.

The analysis half (`self_times`, `tail_percentile`, `layer_metrics`) works on
the recorded spans alone and runs in the benchmark's parent process.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
import time
from array import array

ROOT_ID = 0
ROOT_NAME = "cli.process"
FIELDS_PER_SPAN = 5  # id, parent, name index, start ns, end ns

BUILDERS = ("gn_module", "va_module", "gl2_test_module", "torus_module",
            "ga2_example", "va_joint_group")
REP_BUILDERS = ("sym_power_rep", "hom_rep", "regular_rep", "dual_rep")
ELIMINATORS = ("packed", "generic")
# layers with spans; Scalar arithmetic (fields) is counted, and its time is
# part of its callers' self time
LAYERS = ("cli", "constructions", "groups", "invariants", "linalg", "poly", "suites")
# percentiles considered for a tail value, highest last
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10


def suite_metric_name(name: str, params: dict) -> str:
    """'gl2-delta', {'p': 2, 'n': 1} -> 'suites.gl2-delta-p2-n1'."""
    parts = [name] + [f"{k}{v}" for k, v in params.items() if v is not None]
    return "suites." + "-".join(parts)


class Tracer:
    """Span and counter recorder that patches nullcone_lab in place."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = [ROOT_NAME]
        self._name_index = {ROOT_NAME: 0}
        self.spans = array("q")
        self.counts: dict[str, list[int]] = {}
        self._ids = itertools.count(ROOT_ID + 1)
        self._stack = [ROOT_ID]
        self._space_frames: list[list] = []  # [span id, generator ids, recheck]
        self._patches: list[tuple[object, str, object]] = []
        self.root_start = time.perf_counter_ns()
        self.root_end: int | None = None

    # -- recording -------------------------------------------------------------

    def name_index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def counter(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record a finished span as a child of the innermost open span."""
        self.spans.extend((next(self._ids), self._stack[-1],
                           self.name_index(name), start, end))

    def _open(self) -> tuple[int, int]:
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, idx: int, start: int) -> None:
        self.spans.extend((sid, parent, idx, start, time.perf_counter_ns()))
        self._stack.pop()

    def spanned(self, name: str, after=None, name_of=None):
        """Factory for a wrapper that records one span per call.

        `name_of(*args)` may pick the span name at entry; `after(result)`
        sees the return value.
        """
        idx = self.name_index(name)
        clock = time.perf_counter_ns

        def factory(fn):
            def wrapper(*args, **kwargs):
                use = idx if name_of is None else self.name_index(name_of(*args, **kwargs))
                sid, parent = self._open()
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(sid, parent, use, start)
                if after is not None:
                    after(result)
                return result
            return wrapper
        return factory

    def counted(self, name: str):
        cell = self.counter(name)

        def factory(fn):
            def wrapper(self_, other):
                cell[0] += 1
                return fn(self_, other)
            return wrapper
        return factory

    # -- patching --------------------------------------------------------------

    def patch_function(self, module, attr: str, factory) -> None:
        """Replace a function everywhere a nullcone_lab module bound it."""
        original = getattr(module, attr)
        wrapper = factory(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("nullcone_lab"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, factory) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            wrapper = staticmethod(factory(original.__func__))
        else:
            wrapper = factory(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the public entry points of every layer of nullcone_lab."""
        from nullcone_lab import (cli, constructions, fields, groups,
                                  invariants, linalg, poly, suites)

        for op, name in (("__add__", "add"), ("__sub__", "sub"), ("__mul__", "mul")):
            self.patch_method(fields.Scalar, op, self.counted(f"fields.{name}_calls"))
        self.patch_method(poly.Polynomial, "evaluate", self.spanned("poly.evaluate"))
        self.patch_method(poly.Polynomial, "substitute", self.spanned("poly.substitute"))

        elements = self.counter("groups.closure_elements")

        def count_elements(group):
            elements[0] += group.order
        self.patch_method(groups.MatrixGroup, "closure",
                          self.spanned("groups.closure", after=count_elements))
        for fn in REP_BUILDERS:
            self.patch_function(groups, fn, self.spanned(f"groups.{fn}"))
        self.patch_method(groups.Representation, "act_on_poly",
                          self.spanned("groups.act_on_poly"))
        for fn in BUILDERS:
            self.patch_function(constructions, fn, self.spanned(f"constructions.{fn}"))

        self.patch_function(invariants, "invariant_space", self._invariant_space)
        self.patch_function(invariants, "substitution_images",
                            self.spanned("invariants.substitution_images"))
        self.patch_function(invariants, "substitution_constraint_rows",
                            self._constraint_rows)
        self.patch_function(invariants, "epsilon", self.spanned("invariants.epsilon"))
        points = self.counter("invariants.points")
        separated = self.counter("invariants.points_separated")
        undetermined = self.counter("invariants.points_undetermined")

        def count_points(report):
            points[0] += len(report.point_values)
            separated[0] += sum(1 for _, value in report.point_values
                                if value is not None)
            undetermined[0] += len(report.undetermined_points)
        for fn in ("sigma_bounded", "delta_bounded"):
            self.patch_function(invariants, fn,
                                self.spanned(f"invariants.{fn}", after=count_points))

        for cls, kind in ((linalg._PackedChar2Eliminator, "packed"),
                          (linalg._GenericEliminator, "generic")):
            raised = self.counter(f"linalg.rows_rank_raising.{kind}")

            def count_raised(grew, cell=raised):
                cell[0] += grew
            self.patch_method(cls, "add_row",
                              self.spanned(f"linalg.add_row.{kind}", after=count_raised))
            self.patch_method(cls, "kernel_basis", self._kernel_basis(kind))
        self.patch_function(linalg, "rref", self.spanned("linalg.rref"))

        self.patch_function(suites, "run_suite", self.spanned(
            "suites.run_suite",
            name_of=lambda name, budget=None, **params: suite_metric_name(name, params)))
        self.patch_function(cli, "parse_module_spec",
                            self.spanned("cli.parse_module_spec"))

    # -- wrappers that need more than a span -----------------------------------

    def _invariant_space(self, fn):
        """Spans named by cache outcome; opens a frame for the re-check."""
        hit = self.name_index("invariants.invariant_space.hit")
        build = self.name_index("invariants.invariant_space.build")
        frames = self._space_frames

        def wrapper(rep, d):
            cached = d in rep._inv_space_cache
            sid, parent = self._open()
            frame = None
            if not cached:
                gens = {id(rep.inverse_matrix(g)) for g in rep.group.generator_indices}
                frame = [sid, gens, None]
                frames.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(rep, d)
            finally:
                if frame is not None:
                    self._end_recheck(frame)
                    frames.pop()
                self._close(sid, parent, hit if cached else build, start)
        return wrapper

    def _constraint_rows(self, fn):
        """Counts rows; inside invariant_space, rows for a non-generator
        matrix start the `invariants.recheck` span of the all-elements
        re-check."""
        idx = self.name_index("invariants.substitution_constraint_rows")
        recheck_idx = self.name_index("invariants.recheck")
        rows_cell = self.counter("invariants.constraint_rows")
        recheck_cell = self.counter("invariants.recheck_rows")
        frames = self._space_frames

        def wrapper(matrix, d):
            recheck = False
            if frames:
                frame = frames[-1]
                open_recheck = frame[2]
                direct = self._stack[-1] in (frame[0], open_recheck and open_recheck[0])
                if direct and id(matrix) not in frame[1]:
                    recheck = True
                    if open_recheck is None:
                        rsid, rparent = self._open()
                        frame[2] = (rsid, rparent, recheck_idx, time.perf_counter_ns())
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                rows = list(fn(matrix, d))
            finally:
                self._close(sid, parent, idx, start)
            n = sum(1 for row in rows if row)
            rows_cell[0] += n
            if recheck:
                recheck_cell[0] += n
            return iter(rows)
        return wrapper

    def _end_recheck(self, frame) -> None:
        if frame[2] is not None and self._stack[-1] == frame[2][0]:
            self._close(*frame[2])
            frame[2] = None

    def _kernel_basis(self, kind: str):
        spanned = self.spanned(f"linalg.kernel_basis.{kind}")
        frames = self._space_frames

        def factory(fn):
            inner = spanned(fn)

            def wrapper(elim):
                if frames:
                    self._end_recheck(frames[-1])
                return inner(elim)
            return wrapper
        return factory

    # -- output ------------------------------------------------------------------

    def finish(self) -> None:
        self.root_end = time.perf_counter_ns()

    def record(self) -> dict:
        """The run as plain JSON data; spans are flat (id, parent, name index,
        start ns, end ns) quintuples, the root span first."""
        return {"run_id": self.run_id, "names": self.names,
                "counts": {k: v[0] for k, v in self.counts.items()},
                "spans": [ROOT_ID, -1, 0, self.root_start, self.root_end]
                         + self.spans.tolist()}


# ---------------------------------------------------------------------------
# analysis


def unpack(spans) -> list[tuple[int, int, int, int, int]]:
    f = FIELDS_PER_SPAN
    return [tuple(spans[i:i + f]) for i in range(0, len(spans), f)]


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its children cover.

    `spans` holds (id, parent, name, start, end) tuples.  Child intervals are
    clipped to the parent and merged, so overlapping children are counted
    once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered, reach = 0, start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[sid] = end - start - covered
    return out


def busy_ns(spans, names: set[int]) -> int:
    """Total duration of spans named in `names` that have no ancestor so named.

    Ids grow from parent to child (a span's id is drawn when it opens), so one
    pass in id order settles each span's ancestry.
    """
    inside: dict[int, bool] = {}
    total = 0
    for sid, parent, name, start, end in sorted(spans):
        outer = inside.get(parent, False)
        if name in names and not outer:
            total += end - start
        inside[sid] = outer or name in names
    return total


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile of TAIL_LADDER with at least ten samples above it.

    Uses the nearest-rank value; returns (percentile, value) or None when
    there are too few samples for any rung.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1])
    return best


def layer_metrics(rec: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced process: name -> (value, unit)."""
    spans = unpack(rec["spans"])
    names = rec["names"]
    counts = rec["counts"]
    ids = {n: i for i, n in enumerate(names)}
    by_name: dict[str, list[int]] = {}
    for _, _, name, start, end in spans:
        by_name.setdefault(names[name], []).append(end - start)
    own = self_times(spans)

    def busy(*wanted) -> float:
        return busy_ns(spans, {ids[n] for n in wanted if n in ids}) / 1e9

    def calls(*wanted) -> int:
        return sum(len(by_name.get(n, ())) for n in wanted)

    out: dict[str, tuple[float, str]] = {}
    for op in ("mul", "add", "sub"):
        out[f"fields.{op}_calls"] = (counts.get(f"fields.{op}_calls", 0), "count")
    out["poly.evaluate_calls"] = (calls("poly.evaluate"), "count")
    out["poly.evaluate_s"] = (busy("poly.evaluate"), "s")
    out["poly.substitute_s"] = (busy("poly.substitute"), "s")
    out["groups.closure_s"] = (busy("groups.closure"), "s")
    out["groups.closure_elements"] = (counts.get("groups.closure_elements", 0), "count")
    out["groups.rep_build_s"] = (busy(*(f"groups.{f}" for f in REP_BUILDERS)), "s")
    out["groups.act_on_poly_calls"] = (calls("groups.act_on_poly"), "count")
    out["groups.act_on_poly_s"] = (busy("groups.act_on_poly"), "s")
    out["constructions.build_s"] = (busy(*(f"constructions.{f}" for f in BUILDERS)), "s")

    hits = calls("invariants.invariant_space.hit")
    builds = calls("invariants.invariant_space.build")
    out["invariants.space_calls"] = (hits + builds, "count")
    out["invariants.space_builds"] = (builds, "count")
    out["invariants.space_hit_ratio"] = (hits / (hits + builds) if hits + builds else 0.0,
                                         "ratio")
    out["invariants.space_build_s"] = (busy("invariants.invariant_space.build"), "s")
    out["invariants.constraint_rows"] = (counts.get("invariants.constraint_rows", 0), "count")
    out["invariants.constraint_rows_s"] = (
        busy("invariants.substitution_images", "invariants.substitution_constraint_rows"), "s")
    out["invariants.recheck_rows"] = (counts.get("invariants.recheck_rows", 0), "count")
    out["invariants.recheck_s"] = (busy("invariants.recheck"), "s")
    eps_ms = [d / 1e6 for d in by_name.get("invariants.epsilon", ())]
    out["invariants.epsilon_calls"] = (len(eps_ms), "count")
    if eps_ms:
        out["invariants.epsilon_p50_ms"] = (statistics.median(eps_ms), "ms")
    tail = tail_percentile(eps_ms)
    if tail is not None:
        out["invariants.epsilon_tail_ms"] = (tail[1], "ms")
        out["invariants.epsilon_tail_pct"] = (tail[0], "percentile")
    enumerate_ids = {ids[n] for n in ("invariants.sigma_bounded", "invariants.delta_bounded")
                     if n in ids}
    out["invariants.enumerate_s"] = (
        sum(own[s[0]] for s in spans if s[2] in enumerate_ids) / 1e9, "s")
    for key in ("points", "points_separated", "points_undetermined"):
        out[f"invariants.{key}"] = (counts.get(f"invariants.{key}", 0), "count")

    added_total = raised_total = 0
    for kind in ELIMINATORS:
        added = calls(f"linalg.add_row.{kind}")
        raised = counts.get(f"linalg.rows_rank_raising.{kind}", 0)
        added_total += added
        raised_total += raised
        out[f"linalg.rows_added.{kind}"] = (added, "count")
        out[f"linalg.rows_rank_raising.{kind}"] = (raised, "count")
        if added:
            out[f"linalg.rows_useful_ratio.{kind}"] = (raised / added, "ratio")
        out[f"linalg.add_row_s.{kind}"] = (busy(f"linalg.add_row.{kind}"), "s")
    out["linalg.rows_added"] = (added_total, "count")
    out["linalg.rows_rank_raising"] = (raised_total, "count")
    out["linalg.rows_useful_ratio"] = (raised_total / added_total if added_total else 0.0,
                                       "ratio")
    out["linalg.add_row_s"] = (busy(*(f"linalg.add_row.{k}" for k in ELIMINATORS)), "s")
    out["linalg.kernel_s"] = (busy("linalg.rref", *(f"linalg.kernel_basis.{k}"
                                                     for k in ELIMINATORS)), "s")

    for name, durations in by_name.items():
        if name.startswith("suites.") and name != "suites.run_suite":
            out[f"{name}.s"] = (sum(durations) / 1e9, "s")
    out["cli.import_s"] = (busy("cli.import"), "s")

    layer_self = dict.fromkeys(LAYERS, 0)
    for sid, _, name, _, _ in spans:
        layer = names[name].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own[sid]
    for layer, ns in sorted(layer_self.items()):
        out[f"{layer}.self_s"] = (ns / 1e9, "s")
    return out


def self_time_balance(rec: dict) -> tuple[int, int]:
    """(sum of all span self times, root span duration), in ns."""
    spans = unpack(rec["spans"])
    root = next(s for s in spans if s[0] == ROOT_ID)
    return sum(self_times(spans).values()), root[4] - root[3]
