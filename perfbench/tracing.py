"""In-memory span tracing of one fdlm study, and the per-layer metrics.

The tracer replaces functions with timing wrappers in the namespace the
pipeline looks them up from: ``experiments_cli`` binds most names with
``from .x import ...``, so patching the defining module alone would miss
every call.  ``locate_points`` is patched on the ``Triangulation`` class,
``splu`` where ``saddle_solver`` binds it, ``dual_norm`` where
``error_norms`` finds it, and ``rule_for_degree`` in each module that
calls it.  The per-element ``build_composite_scheme`` is left alone: it
runs tens of thousands of times per study and would distort the
overhead.

Spans stay in memory until the study ends.  Counts that are expensive
to read (LU fill, subcell areas) are taken from results kept on the
span and read only after the study, outside every timed interval.  The
tracing overhead is the number of spans times the cost of one wrapped
call, timed on a no-op in the same process (``wrapper_cost``).
"""

import os
import time

# (layer, module the name is looked up in, attribute, span name).
_TARGETS = [
    ("mesh", "experiments_cli", "uniform_mesh", "mesh.uniform_mesh"),
    ("mesh", "experiments_cli", "midpoint_refine", "mesh.midpoint_refine"),
    ("mesh", "mesh:Triangulation", "locate_points", "mesh.locate_points"),
    ("quadrature", "assembly", "rule_for_degree", "quadrature.rule_for_degree"),
    ("quadrature", "geom_intersect", "rule_for_degree",
     "quadrature.rule_for_degree"),
    ("quadrature", "manufactured_errors", "rule_for_degree",
     "quadrature.rule_for_degree"),
    ("fespace", "experiments_cli", "velocity_space", "fespace.velocity_space"),
    ("fespace", "experiments_cli", "pressure_space", "fespace.pressure_space"),
    ("fespace", "experiments_cli", "solid_space", "fespace.solid_space"),
    ("fespace", "experiments_cli", "multiplier_space",
     "fespace.multiplier_space"),
    ("geom_intersect", "experiments_cli", "build_all_schemes",
     "geom_intersect.build_all_schemes"),
    ("assembly", "experiments_cli", "assemble_Af", "assembly.assemble_Af"),
    ("assembly", "experiments_cli", "assemble_As", "assembly.assemble_As"),
    ("assembly", "experiments_cli", "assemble_B", "assembly.assemble_B"),
    ("assembly", "experiments_cli", "assemble_Cs", "assembly.assemble_Cs"),
    ("assembly", "experiments_cli", "pressure_mean_row",
     "assembly.pressure_mean_row"),
    ("assembly", "experiments_cli", "assemble_Cf_exact",
     "assembly.assemble_Cf_exact"),
    ("assembly", "experiments_cli", "assemble_Cf_approx",
     "assembly.assemble_Cf_approx"),
    ("assembly", "experiments_cli", "assemble_rhs", "assembly.assemble_rhs"),
    ("assembly", "experiments_cli", "matrix_1norm_diff",
     "assembly.matrix_1norm_diff"),
    ("saddle_solver", "experiments_cli", "build_system",
     "saddle_solver.build_system"),
    ("saddle_solver", "experiments_cli", "solve", "saddle_solver.solve"),
    ("saddle_solver", "saddle_solver", "splu", "saddle_solver.splu"),
    ("saddle_solver", "experiments_cli", "dump_solution",
     "saddle_solver.dump_solution"),
    ("manufactured_errors", "experiments_cli", "manufactured_solution",
     "manufactured_errors.manufactured_solution"),
    ("manufactured_errors", "experiments_cli", "error_norms",
     "manufactured_errors.error_norms"),
    ("manufactured_errors", "manufactured_errors", "dual_norm",
     "manufactured_errors.dual_norm"),
    ("experiments_cli", "experiments_cli", "solve_level",
     "experiments_cli.solve_level"),
    ("experiments_cli", "experiments_cli", "build_level_spaces",
     "experiments_cli.build_level_spaces"),
    ("experiments_cli", "experiments_cli", "write_convergence_csv",
     "experiments_cli.write_csv"),
    ("experiments_cli", "experiments_cli", "write_quaderr_csv",
     "experiments_cli.write_csv"),
]

# Spans whose first two arguments are (n_fluid, n_solid) open a level;
# writing the output closes the last one.
_LEVEL_ENTRIES = {"experiments_cli.solve_level",
                  "experiments_cli.build_level_spaces"}
_LEVEL_EXITS = {"experiments_cli.write_csv", "saddle_solver.dump_solution"}

# Per-layer metrics in report order.  Times are seconds, the rest counts.
LAYER_METRICS = [
    ("mesh.build_s", "s"), ("mesh.locate_points_s", "s"),
    ("mesh.located_points", "count"),
    ("fespace.spaces_s", "s"), ("fespace.dofs", "count"),
    ("geom_intersect.schemes_s", "s"), ("geom_intersect.subcells", "count"),
    ("geom_intersect.subcells_per_s", "1/s"),
    ("geom_intersect.worst_area_defect", "ratio"),
    ("assembly.Cf_exact_s", "s"), ("assembly.Cf_approx_s", "s"),
    ("assembly.rhs_s", "s"), ("assembly.blocks_s", "s"),
    ("assembly.gap_s", "s"), ("assembly.Cf_nnz", "count"),
    ("saddle_solver.build_system_s", "s"), ("saddle_solver.solve_s", "s"),
    ("saddle_solver.factor_s", "s"), ("saddle_solver.refine_s", "s"),
    ("saddle_solver.n_dofs", "count"), ("saddle_solver.matrix_nnz", "count"),
    ("saddle_solver.lu_fill", "count"), ("saddle_solver.dump_s", "s"),
    ("saddle_solver.dump_bytes", "bytes"),
    ("manufactured_errors.error_norms_s", "s"),
    ("manufactured_errors.dual_norm_s", "s"),
    ("experiments_cli.level_s", "s"), ("experiments_cli.self_s", "s"),
    ("experiments_cli.write_csv_s", "s"), ("trace.overhead_s", "s"),
]

# Metric -> span names whose self times it sums.
_SELF_TIME_SPANS = {
    "mesh.build_s": ("mesh.uniform_mesh", "mesh.midpoint_refine"),
    "mesh.locate_points_s": ("mesh.locate_points",),
    "fespace.spaces_s": ("fespace.velocity_space", "fespace.pressure_space",
                         "fespace.solid_space", "fespace.multiplier_space"),
    "geom_intersect.schemes_s": ("geom_intersect.build_all_schemes",),
    "assembly.Cf_exact_s": ("assembly.assemble_Cf_exact",),
    "assembly.Cf_approx_s": ("assembly.assemble_Cf_approx",),
    "assembly.rhs_s": ("assembly.assemble_rhs",),
    "assembly.blocks_s": ("assembly.assemble_Af", "assembly.assemble_As",
                          "assembly.assemble_B", "assembly.assemble_Cs",
                          "assembly.pressure_mean_row"),
    "assembly.gap_s": ("assembly.matrix_1norm_diff",),
    "saddle_solver.build_system_s": ("saddle_solver.build_system",),
    "saddle_solver.factor_s": ("saddle_solver.splu",),
    "saddle_solver.refine_s": ("saddle_solver.solve",),
    "saddle_solver.dump_s": ("saddle_solver.dump_solution",),
    "manufactured_errors.error_norms_s": ("manufactured_errors.error_norms",),
    "manufactured_errors.dual_norm_s": ("manufactured_errors.dual_norm",),
    "experiments_cli.write_csv_s": ("experiments_cli.write_csv",),
}


class Span:
    """One call: name, layer, start and end times, parent index, level."""

    __slots__ = ("name", "layer", "start", "end", "parent", "level",
                 "args", "result")

    def __init__(self, name, layer, parent, level):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.level = level
        self.start = self.end = None
        self.args = self.result = None

    def as_dict(self):
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "level": self.level}


# Spans that keep their call's args and result for the counts read after
# the study.
_KEEP = {"mesh.locate_points", "fespace.velocity_space",
         "fespace.pressure_space", "fespace.solid_space",
         "fespace.multiplier_space", "geom_intersect.build_all_schemes",
         "assembly.assemble_Cf_exact", "assembly.assemble_Cf_approx",
         "saddle_solver.build_system", "saddle_solver.splu",
         "saddle_solver.dump_solution"}


class Tracer:
    """Records spans for one study; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._levels = {}
        self._level = None
        self._patched = []

    def open_root(self):
        """Open the span that stands for the whole study (cli_main)."""
        span = Span("experiments_cli.cli_main", "experiments_cli", -1, None)
        self.spans.append(span)
        self._stack.append(0)
        span.start = time.perf_counter()

    def close_root(self):
        self.spans[0].end = time.perf_counter()
        self._stack.pop()

    def install(self, package):
        """Wrap every target in the fdlm package (the imported module)."""
        for layer, where, attr, name in _TARGETS:
            if ":" in where:
                modname, clsname = where.split(":")
                owner = getattr(getattr(package, modname), clsname)
            else:
                owner = getattr(package, where)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, layer, name, fn):
        keep = name in _KEEP
        opens_level = name in _LEVEL_ENTRIES
        closes_level = name in _LEVEL_EXITS
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if opens_level:
                self._level = self._levels.setdefault(
                    (args[0], args[1]), len(self._levels))
            elif closes_level:
                self._level = None
            span = Span(name, layer, stack[-1] if stack else -1, self._level)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep:
                span.args = args
                span.result = result
            return result

        traced.__wrapped__ = fn
        return traced


def check_spans(spans):
    """Reasons the span tree is unsound; empty when it is sound.

    Span 0 is the study's root.  Every other span must be closed, have
    an earlier span as its parent, and lie inside its parent's interval.
    """
    if not spans or spans[0].parent != -1:
        return ["span 0 is not the root"]
    problems = []
    for i, s in enumerate(spans):
        if s.start is None or s.end is None or s.end < s.start:
            problems.append("span %d (%s) is not closed" % (i, s.name))
        elif i and not 0 <= s.parent < i:
            problems.append("span %d (%s) has no parent" % (i, s.name))
        elif i:
            p = spans[s.parent]
            if p.end is None or s.start < p.start or s.end > p.end:
                problems.append("span %d (%s) is outside its parent %s"
                                % (i, s.name, p.name))
    return problems


def wrapper_cost(calls=20000, repeats=5):
    """Seconds one wrapped call adds to the call it wraps.

    Times a no-op called bare and through a tracer's wrapper, ``calls``
    times each, and returns the median difference per call.
    """
    def noop(a, b):
        return a

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer._wrap("x", "x", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, 2)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def self_times(spans):
    """Span duration minus the time its child spans cover, per span.

    Calls in one thread nest, so the children of a span are disjoint and
    the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _counts(spans):
    """Work counts read from the args and results kept on the spans."""
    import numpy as np

    c = dict.fromkeys(["mesh.located_points", "fespace.dofs",
                       "geom_intersect.subcells", "assembly.Cf_nnz",
                       "saddle_solver.n_dofs", "saddle_solver.matrix_nnz",
                       "saddle_solver.lu_fill", "saddle_solver.dump_bytes"], 0)
    c["geom_intersect.worst_area_defect"] = 0.0
    for s in spans:
        if s.name == "mesh.locate_points":
            c["mesh.located_points"] += int(np.asarray(s.args[1]).size // 2)
        elif s.name.startswith("fespace."):
            c["fespace.dofs"] += int(s.result.n_dofs)
        elif s.name == "geom_intersect.build_all_schemes":
            mesh = s.args[0]
            totals = np.array([sch.total_s_area() for sch in s.result])
            c["geom_intersect.subcells"] += sum(len(sch) for sch in s.result)
            if totals.size:
                defect = float(np.max(np.abs(totals - mesh.areas)
                                      / mesh.areas))
                c["geom_intersect.worst_area_defect"] = max(
                    c["geom_intersect.worst_area_defect"], defect)
        elif s.name.startswith("assembly.assemble_Cf_"):
            c["assembly.Cf_nnz"] += int(s.result.nnz)
        elif s.name == "saddle_solver.build_system":
            c["saddle_solver.n_dofs"] += int(s.result.n_dofs)
            c["saddle_solver.matrix_nnz"] += int(s.result.matrix.nnz)
        elif s.name == "saddle_solver.splu":
            c["saddle_solver.lu_fill"] += int(s.result.L.nnz + s.result.U.nnz)
        elif s.name == "saddle_solver.dump_solution":
            c["saddle_solver.dump_bytes"] += os.path.getsize(s.args[1])
        s.args = s.result = None
    return c


def layer_metrics(spans, call_cost):
    """Per-layer metrics of one traced study, plus its breakdown.

    spans must pass check_spans; call_cost is wrapper_cost() of the
    study's process.  Returns (metrics, breakdown): metrics holds every
    LAYER_METRICS name;
    breakdown holds the self time of every span name and every layer,
    the duration of each level, and the number of spans.
    """
    own = self_times(spans)
    by_name = {}
    by_layer = {}
    for span, t in zip(spans, own):
        by_name[span.name] = by_name.get(span.name, 0.0) + t
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + t

    metrics = {k: sum(by_name.get(n, 0.0) for n in names)
               for k, names in _SELF_TIME_SPANS.items()}
    metrics["saddle_solver.solve_s"] = sum(
        s.end - s.start for s in spans if s.name == "saddle_solver.solve")
    metrics["experiments_cli.self_s"] = by_layer.get("experiments_cli", 0.0)

    levels = {}
    for s in spans:
        if s.level is not None:
            lo, hi = levels.get(s.level, (s.start, s.end))
            levels[s.level] = (min(lo, s.start), max(hi, s.end))
    level_s = [hi - lo for _, (lo, hi) in sorted(levels.items())]
    metrics["experiments_cli.level_s"] = level_s[-1] if level_s else 0.0

    metrics["trace.overhead_s"] = (len(spans) - 1) * call_cost
    metrics.update(_counts(spans))
    sch = metrics["geom_intersect.schemes_s"]
    metrics["geom_intersect.subcells_per_s"] = (
        metrics["geom_intersect.subcells"] / sch if sch > 0 else 0.0)

    breakdown = {"spans": len(spans), "level_s": level_s,
                 "self_s_by_span": by_name, "self_s_by_layer": by_layer}
    return metrics, breakdown
