"""Outside-in tracing of the polarcomp layers for the benchmark's traced run.

The tracer wraps public functions and methods of the package modules from
the outside: a function is replaced in every ``polarcomp`` module namespace
that binds it, a method is replaced on its class.  Nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` restores every original object, so
untraced invocations run the unmodified program.

Three kinds of wrapper:

* ``span``  records (id, parent, invocation, name, start, end, hidden) in
  memory; self time is computed from the spans afterwards;
* ``hot``   for calls made thousands of times: a call that opens no span
  itself adds only to a call count and a time total, and is charged to the
  enclosing span as hidden child time;
* ``count`` for the hottest primitives: a call count, no clock reads.

Hooks run after a wrapped call returns and read work counts (points, star
pairs, classes, ...) off its arguments or result.  Their cost is charged to
the enclosing span as hidden time so that self times exclude it.  A target
or attribute that a later version of the program no longer has is reported
as absent, never fatal.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

MODULES = ("algebra", "incidence", "polar", "complement", "reconstruct", "verify", "cli")

CHECK_IDS = (
    "partial_linear",
    "affine_fibration",
    "deep_points",
    "avoiding_hyperplane",
    "plane_chains",
    "parallel_tables_match",
    "self_parallel_affine",
    "affine_detection",
    "deep_line_equivalence",
    "equiv_triples_collinear",
    "ternary_collinearity",
    "new_line_families",
    "class_point_bijection",
    "ambient_recovery",
)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# -- hooks: work counts read off a call's arguments and result ----------------


def _polar_built(tr, args, ps):
    st = ps.structure
    tr.counts["polar.points"] += st.n_points
    tr.counts["polar.lines"] += len(st.lines)


def _per_object(metric):
    """Add ``len(result)`` once per receiver object and invocation (cached methods)."""

    def hook(tr, args, result):
        if tr.first_sight(metric, args[0]):
            tr.counts[metric] += len(result)

    return hook


def _complement_built(tr, args, comp):
    tr.counts["complement.proper_lines"] += comp.n_lines
    tr.counts["complement.affine_lines"] += len(comp.affine_lines())


def _parallelism_built(tr, args, _result):
    par = args[0]
    comp = par.comp
    # Distinct proper lines share at most one point, so the disjoint pairs
    # are all pairs minus the pairs through a common point.
    through = sum(_pairs(comp.lines_at_point(p).bit_count()) for p in comp.proper_points)
    disjoint = _pairs(comp.n_lines) - through
    star = sum(row.bit_count() for row in par.star_rows) // 2
    tr.counts["reconstruct.disjoint_pairs"] += disjoint
    tr.counts["reconstruct.star_pairs"] += star
    tr.counts["reconstruct.classes"] += par.n_classes


def _battery_done(tr, args, results):
    for r in results:
        tr.times[f"verify.check_s.{r.check_id}"] += r.elapsed_ms / 1000.0
        tr.counts["verify.checks_failed"] += r.status == "fail"
        tr.counts["verify.checks_skipped"] += r.status == "skip"


# (module, qualified name, kind, hook).  Span and call names are
# ``module.qualified name``; ``DERIVED`` maps them onto metrics.
TARGETS = (
    ("algebra", "pg_line", "count", None),
    ("algebra", "normalize_point", "count", None),
    ("incidence", "IncidenceStructure.__init__", "span", None),
    ("polar", "build_polar", "span", _polar_built),
    ("polar", "compute_rank", "span", None),
    ("polar", "check_polar_axioms", "span", None),
    ("polar", "PolarSpace.singular_planes", "span", _per_object("polar.planes")),
    (
        "polar",
        "PolarSpace.hyperplane_candidates",
        "span",
        _per_object("polar.hyperplane_candidates"),
    ),
    ("complement", "build_complement", "span", _complement_built),
    ("complement", "Complement.plane_lines", "hot", None),
    ("complement", "Complement.semiaffine_planes", "span", _per_object("complement.semiaffine_planes")),
    ("complement", "Complement.deep_lines", "span", _per_object("complement.deep_lines")),
    ("complement", "Complement.avoiding_hyperplane", "span", None),
    ("complement", "Complement.plane_path", "span", None),
    ("reconstruct", "Parallelism.__init__", "span", _parallelism_built),
    ("reconstruct", "reconstruct", "span", None),
    ("reconstruct", "canonical_map", "span", None),
    ("verify", "run_lemma_battery", "span", _battery_done),
    ("verify", "find_isomorphism", "span", None),
    ("verify", "is_isomorphism", "span", None),
    ("cli", "main", "span", None),
    ("cli", "canonical_json", "span", None),
)

# metric -> (target name, statistic); statistics: "incl" inclusive seconds,
# "self" self seconds, "calls" call count.
DERIVED = {
    "reconstruct.parallelism_s": ("reconstruct.Parallelism.__init__", "incl"),
    "reconstruct.parallelism_calls": ("reconstruct.Parallelism.__init__", "calls"),
    "reconstruct.reconstruct_calls": ("reconstruct.reconstruct", "calls"),
    "reconstruct.canonical_map_calls": ("reconstruct.canonical_map", "calls"),
    "polar.build_polar_s": ("polar.build_polar", "incl"),
    "polar.singular_planes_s": ("polar.PolarSpace.singular_planes", "incl"),
    "polar.hyperplane_candidates_s": ("polar.PolarSpace.hyperplane_candidates", "incl"),
    "polar.check_polar_axioms_s": ("polar.check_polar_axioms", "incl"),
    "polar.compute_rank_s": ("polar.compute_rank", "incl"),
    "algebra.pg_line_calls": ("algebra.pg_line", "calls"),
    "algebra.normalize_point_calls": ("algebra.normalize_point", "calls"),
    "incidence.structures_built": ("incidence.IncidenceStructure.__init__", "calls"),
    "incidence.structure_init_s": ("incidence.IncidenceStructure.__init__", "incl"),
    "complement.build_complement_s": ("complement.build_complement", "incl"),
    "complement.plane_lines_s": ("complement.Complement.plane_lines", "incl"),
    "complement.deep_lines_s": ("complement.Complement.deep_lines", "incl"),
    "complement.avoiding_hyperplane_s": ("complement.Complement.avoiding_hyperplane", "incl"),
    "complement.plane_path_s": ("complement.Complement.plane_path", "incl"),
    "complement.plane_path_calls": ("complement.Complement.plane_path", "calls"),
    "verify.battery_s": ("verify.run_lemma_battery", "self"),
    "verify.find_isomorphism_s": ("verify.find_isomorphism", "incl"),
    "verify.is_isomorphism_s": ("verify.is_isomorphism", "incl"),
    "verify.is_isomorphism_calls": ("verify.is_isomorphism", "calls"),
    "cli.main_s": ("cli.main", "incl"),
    "cli.canonical_json_s": ("cli.canonical_json", "incl"),
}

# Counts filled in by hooks.
HOOK_COUNTS = (
    "reconstruct.disjoint_pairs",
    "reconstruct.star_pairs",
    "reconstruct.classes",
    "polar.points",
    "polar.lines",
    "polar.planes",
    "polar.hyperplane_candidates",
    "complement.proper_lines",
    "complement.affine_lines",
    "complement.semiaffine_planes",
    "complement.deep_lines",
    "verify.checks_failed",
    "verify.checks_skipped",
)

CHECK_TIMES = tuple(f"verify.check_s.{c}" for c in CHECK_IDS)

# Every per-layer metric of a traced run; the last three are measured by the
# benchmark itself rather than by the tracer.
PER_LAYER = (
    tuple(DERIVED)
    + HOOK_COUNTS
    + ("reconstruct.star_yield",)
    + CHECK_TIMES
    + ("cli.output_bytes", "cli.output_files", "trace.overhead_s")
)


class Tracer:
    """Wraps the layers, records spans and counts for one process."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.spans: list[tuple] = []
        self.invocation = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.reset()

    # -- per-invocation state ---------------------------------------------------

    def reset(self) -> None:
        """Forget counts and spans gathered so far (spans move to ``self.spans``)."""
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.calls: Counter = Counter()
        self.hot_s: Counter = Counter()
        self._new_spans: list[tuple] = []
        self._seen: dict[tuple[str, int], object] = {}

    def first_sight(self, metric: str, obj) -> bool:
        """True the first time ``obj`` is seen for ``metric`` in this invocation."""
        key = (metric, id(obj))
        if key in self._seen:
            return False
        self._seen[key] = obj  # keeps the object alive, so its id stays unique
        return True

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"polarcomp.{m}") for m in MODULES}
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "polarcomp"]
        for mod_name, qual, kind, hook in TARGETS:
            name = f"{mod_name}.{qual}"
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mods[mod_name], owner_name, None) if owner_name else mods[mod_name]
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, kind, hook, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, kind: str, hook, fn):
        tracer = self
        clock = time.perf_counter

        if kind == "count":

            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        hot = kind == "hot"

        def spanned(*args, **kwargs):
            stack = tracer._stack
            if not stack and name == "cli.main":
                tracer.invocation += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]  # id, hidden seconds
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                tracer.calls[name] += 1
                if hot and tracer._next_id == span_id + 1:
                    # A hot call that opened no span is totalled, not recorded.
                    tracer.hot_s[name] += end - start
                    if parent is not None:
                        parent[1] += end - start
                else:
                    parent_id = None if parent is None else parent[0]
                    tracer._new_spans.append((span_id, parent_id, tracer.invocation, name, start, end, frame[1]))
            if hook is not None:
                h0 = clock()
                try:
                    hook(tracer, args, result)
                except AttributeError:
                    tracer.absent.add(f"{name} (counting hook)")
                if parent is not None:
                    parent[1] += clock() - h0
            return result

        return spanned

    # -- metrics -----------------------------------------------------------------

    def take_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last call."""
        spans = self._new_spans
        child: Counter = Counter()
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        incl: Counter = Counter(self.hot_s)
        self_s: Counter = Counter()
        for s in spans:
            dur = s[5] - s[4]
            incl[s[3]] += dur
            self_s[s[3]] += dur - child[s[0]] - s[6]
        stats = {"incl": incl, "self": self_s, "calls": self.calls}
        out: dict[str, float] = {}
        for metric, (target, stat) in DERIVED.items():
            out[metric] = stats[stat].get(target, 0)
        for metric in HOOK_COUNTS:
            out[metric] = self.counts.get(metric, 0)
        for metric in CHECK_TIMES:
            out[metric] = self.times.get(metric, 0.0)
        self.spans.extend(spans)
        self.reset()
        return out
