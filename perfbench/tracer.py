"""Spans around the calls into the public functions of each cdrfem module.

The tracer changes nothing under ``src/``: it replaces each traced function
by a timing wrapper in every cdrfem module that holds a reference to it, so
callers that imported the name (``cdrfem.cli.solve``, ``cdrfem.solver.
edge_state``) and callers that look it up at call time (``cdrfem.mesh.refine``
inside ``convergence_study``) both reach the wrapper.  Cached properties are
replaced on their class, so only the first access of each instance is a span.

Spans are kept in memory as ``[name, start, end, parent, note]`` and written
out once, when the run ends.  This module imports nothing heavy, so loading
it does not change the measured import time of cdrfem.
"""

import functools
import inspect
import os
import sys
from time import perf_counter

MODULES = ("cdrfem", "cdrfem.mesh", "cdrfem.assembly", "cdrfem.limiter",
           "cdrfem.solver", "cdrfem.benchmarks", "cdrfem.cli")

# span names of the cached properties that make up the limiter context
CONTEXT_SPANS = ("limiter.LimiterContext", "limiter.f_node", "limiter.c_node",
                 "limiter.geom_e", "limiter.grad_incr")

# per-layer metric -> unit, in the order they are reported
PER_LAYER = {
    "mesh.refine_s": "s", "mesh.classify_s": "s", "mesh.mirror_cells_s": "s",
    "mesh.prolong_s": "s",
    "assembly.assemble_s": "s", "assembly.assemble_calls": "count",
    "limiter.context_s": "s", "limiter.edge_state_s": "s",
    "limiter.edge_state_calls": "count",
    "limiter.edge_state_ns_per_edge": "ns",
    "solver.solves": "count", "solver.sweeps": "count",
    "solver.residual_s": "s", "solver.update_s": "s",
    "solver.solve_self_s": "s", "solver.audit_s": "s",
    "benchmarks.convergence_study_s": "s", "benchmarks.error_norms_s": "s",
    "cli.write_csv_s": "s", "cli.write_vtk_s": "s", "cli.write_audit_s": "s",
    "cli.output_bytes": "bytes", "cli.vtk_resolve_sweeps": "count",
}


class Tracer:
    """Collects nested spans of wrapped calls in one process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        """Return ``fn`` timed as span ``name``; ``note(arguments)`` maps
        the bound arguments to one number kept with the span, computed after
        its end time is taken."""
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(signature.bind(*args, **kwargs).arguments)
            return result
        return traced


def write_spans(spans, path):
    with open(path, "w") as out:
        out.write("name,start,end,parent,note\n")
        for name, start, end, parent, note in spans:
            out.write(f"{name},{start:.9f},{end:.9f},{parent},"
                      f"{'' if note is None else note}\n")


def _replace(old, new):
    for modname in MODULES:
        module = sys.modules[modname]
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_cached(tracer, cls, attr, name):
    prop = cls.__dict__[attr]
    new = functools.cached_property(tracer.wrap(name, prop.func))
    new.__set_name__(cls, attr)
    setattr(cls, attr, new)


def install(tracer):
    """Wrap the public entry points of the six cdrfem modules."""
    import cdrfem.cli as cli
    from cdrfem import assembly, benchmarks, limiter, mesh, solver

    def path_bytes(arguments):
        return os.path.getsize(arguments["path"])

    def edges(arguments):
        return arguments["ctx"].et.i.size

    traced = [
        (mesh, "build_level0", None), (mesh, "refine", None),
        (mesh, "classify_and_order", None), (mesh, "prolong", None),
        (assembly, "assemble", None),
        (limiter, "edge_state", edges),
        (solver, "solve", None), (solver, "fixed_point_step", None),
        (solver, "residual", None), (solver, "audit_dmp", None),
        (benchmarks, "convergence_study", None),
        (benchmarks, "error_norms", None),
        (cli, "write_csv", path_bytes), (cli, "write_vtk", path_bytes),
        (cli, "write_audit", path_bytes), (cli, "run", None),
    ]
    for module, attr, note in traced:
        layer = module.__name__.rpartition(".")[2]
        old = getattr(module, attr)
        _replace(old, tracer.wrap(f"{layer}.{attr}", old, note))

    ctx_cls = limiter.LimiterContext
    for attr in ("f_node", "c_node", "geom_e", "grad_incr"):
        _wrap_cached(tracer, ctx_cls, attr, f"limiter.{attr}")
    _wrap_cached(tracer, mesh.Mesh, "mirror_cells", "mesh.mirror_cells")
    _replace(ctx_cls, tracer.wrap("limiter.LimiterContext", ctx_cls))


def layer_metrics(spans):
    """Per-layer totals, self times and counts from a list of spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    total, self_s, calls, notes = {}, {}, {}, {}
    for k, (name, start, end, _, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[k])
        calls[name] = calls.get(name, 0) + 1
        if note is not None:
            notes[name] = notes.get(name, 0) + note

    def ancestors(k):
        names = set()
        k = spans[k][3]
        while k >= 0:
            names.add(spans[k][0])
            k = spans[k][3]
        return names

    resolve = 0
    for k, span in enumerate(spans):
        if span[0] == "solver.fixed_point_step":
            up = ancestors(k)
            if "cli.run" in up and "benchmarks.convergence_study" not in up:
                resolve += 1

    t, s, c = total.get, self_s.get, calls.get
    edge_state_s = s("limiter.edge_state", 0.0)
    edges = notes.get("limiter.edge_state", 0)
    return {
        "mesh.refine_s": t("mesh.build_level0", 0.0) + t("mesh.refine", 0.0),
        "mesh.classify_s": t("mesh.classify_and_order", 0.0),
        "mesh.mirror_cells_s": t("mesh.mirror_cells", 0.0),
        "mesh.prolong_s": t("mesh.prolong", 0.0),
        "assembly.assemble_s": t("assembly.assemble", 0.0),
        "assembly.assemble_calls": c("assembly.assemble", 0),
        "limiter.context_s": sum(s(n, 0.0) for n in CONTEXT_SPANS),
        "limiter.edge_state_s": edge_state_s,
        "limiter.edge_state_calls": c("limiter.edge_state", 0),
        "limiter.edge_state_ns_per_edge":
            1e9 * edge_state_s / edges if edges else 0.0,
        "solver.solves": c("solver.solve", 0),
        "solver.sweeps": c("solver.fixed_point_step", 0),
        "solver.residual_s": t("solver.residual", 0.0),
        "solver.update_s": t("solver.fixed_point_step", 0.0),
        "solver.solve_self_s": s("solver.solve", 0.0),
        "solver.audit_s": t("solver.audit_dmp", 0.0),
        "benchmarks.convergence_study_s":
            s("benchmarks.convergence_study", 0.0),
        "benchmarks.error_norms_s": t("benchmarks.error_norms", 0.0),
        "cli.write_csv_s": t("cli.write_csv", 0.0),
        "cli.write_vtk_s": t("cli.write_vtk", 0.0),
        "cli.write_audit_s": t("cli.write_audit", 0.0),
        "cli.output_bytes": sum(notes.get(n, 0) for n in
                                ("cli.write_csv", "cli.write_vtk",
                                 "cli.write_audit")),
        "cli.vtk_resolve_sweeps": resolve,
    }
