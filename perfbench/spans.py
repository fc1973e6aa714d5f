"""Layer spans recorded from outside the lab, by wrapping module attributes.

`install` replaces the public functions each layer exposes with wrappers that
open a span around the call and, for some, record counts from the result;
`Tracer.restore` puts the originals back.  Spans stay in memory.  Time the
tracer spends on its own bookkeeping (for example reading the fill of a
factor) is excluded from every span that encloses it.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> per-layer metric of its summed duration
DURATION_METRICS = {
    "mesh.build": "mesh.build_s",
    "wg.pack": "wg.pack_s",
    "wg.assemble": "wg.assemble_s",
    "cr.assemble": "cr.assemble_s",
    "wg.solve_eigen": "wg.solve_eigen_s",
    "spectra.eigs": "spectra.eigs_s",
    "spectra.factor": "spectra.factor_s",
    "wg.source": "wg.source_s",
    "spectra.solve": "spectra.solve_s",
    "project.project": "project.project_s",
    "wg.norms": "wg.norms_s",
}
# span name -> per-layer metric of its summed self time
SELF_METRICS = {"wg.solve_eigen": "wg.eigen_self_s"}
COUNT_METRICS = (
    "mesh.triangles",
    "mesh.edges",
    "wg.nnz_A",
    "cr.nnz_A",
    "spectra.factorizations",
    "spectra.factor_fill",
    "spectra.op_applies",
)
PEAK_METRICS = ("spectra.max_residual",)
# whole-ladder layers: reported as ladder sums only
LADDER_DURATIONS = {
    "lab.run": "lab.run_s",
    "lab.emit": "lab.emit_s",
    "lab.check": "lab.check_s",
}
LADDER_SELF = {"lab.run": "lab.self_s"}

LEVEL_METRICS = (
    list(DURATION_METRICS.values())
    + list(SELF_METRICS.values())
    + list(COUNT_METRICS)
    + list(PEAK_METRICS)
)
LAYER_METRICS = (
    LEVEL_METRICS
    + [f"{name}.finest" for name in LEVEL_METRICS]
    + list(LADDER_DURATIONS.values())
    + list(LADDER_SELF.values())
)


class Span:
    __slots__ = ("name", "level", "parent", "start", "dur", "child")

    def __init__(self, name, level, parent, start):
        self.name = name
        self.level = level
        self.parent = parent
        self.start = start
        self.dur = 0.0
        self.child = 0.0   # time covered by direct children

    @property
    def self_time(self) -> float:
        return self.dur - self.child


class Tracer:
    """Spans and counts of one ladder at a time; levels open at each mesh build."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self._overhead = 0.0
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.level = -1   # -1: before the first level of the ladder
        self.counts = defaultdict(float)   # (level, name) -> value

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.level, parent, time.perf_counter())
        overhead0 = self._overhead
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.dur = time.perf_counter() - s.start - (self._overhead - overhead0)
            if parent is not None:
                parent.child += s.dur
            self.spans.append(s)

    def count(self, name, value) -> None:
        self.counts[(self.level, name)] += value

    def peak(self, name, value) -> None:
        key = (self.level, name)
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, owner, attr, name, observe=None, new_level=False) -> None:
        """Replace owner.attr by a spanned call; observe(tracer, result) may
        record counts and return a replacement result."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if new_level:
                tracer.level += 1
            with tracer.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                t0 = time.perf_counter()
                replaced = observe(tracer, result)
                tracer._overhead += time.perf_counter() - t0
                if replaced is not None:
                    result = replaced
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _CountingLU:
    """ARPACK's factor of A: each solve is one application of the operator."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        self._tracer.count("spectra.op_applies", 1)
        return self._lu.solve(rhs, trans)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _mesh_sizes(tracer, m):
    tracer.count("mesh.triangles", m.num_triangles)
    tracer.count("mesh.edges", m.num_edges)


def _assembled(counter):
    def observe(tracer, sys_):
        tracer.count(counter, sys_.A.nnz)
        tracer.count("free_dofs", len(sys_.free))

    return observe


def _residual(tracer, result):
    tracer.peak("spectra.max_residual", result[2].residual)


def _factored(tracer, lu):
    tracer.count("spectra.factorizations", 1)
    tracer.count("spectra.factor_fill", lu.L.nnz + lu.U.nnz)


def _arpack_factored(tracer, lu):
    _factored(tracer, lu)
    return _CountingLU(lu, tracer)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point where its callers look it up."""
    import scipy.sparse.linalg as spla
    from elastica import cr, lab, mesh, project, spectra, wg

    # eigsh builds its SpLuInv from the name `splu` bound in its own module
    arpack = sys.modules[spla.eigsh.__module__]
    if not hasattr(arpack, "splu"):
        raise RuntimeError(f"{arpack.__name__} no longer binds splu; cannot trace it")

    for owner in (lab, mesh):
        tracer.wrap(owner, "build_square_mesh", "mesh.build", new_level=True)
        tracer.wrap(owner, "classify_boundary", "mesh.build", observe=_mesh_sizes)
    tracer.wrap(wg.WgSpace, "pack", "wg.pack")
    tracer.wrap(wg, "assemble_forms", "wg.assemble", observe=_assembled("wg.nnz_A"))
    tracer.wrap(cr, "assemble_cr", "cr.assemble", observe=_assembled("cr.nnz_A"))
    for owner in (wg, cr):
        tracer.wrap(owner, "solve_eigen", "wg.solve_eigen")
    tracer.wrap(spectra, "smallest_generalized_eigs", "spectra.eigs", observe=_residual)
    tracer.wrap(spla, "splu", "spectra.factor", observe=_factored)
    tracer.wrap(arpack, "splu", "spectra.factor", observe=_arpack_factored)
    tracer.wrap(spectra.SpdFactor, "solve", "spectra.solve")
    tracer.wrap(wg, "solve_source", "wg.source")
    tracer.wrap(project, "project_global", "project.project")
    tracer.wrap(wg, "norms", "wg.norms")
    tracer.wrap(lab, "run_experiment", "lab.run")
    tracer.wrap(lab, "emit", "lab.emit")
    tracer.wrap(lab, "check_lower_bounds", "lab.check")


def summarize(tracer: Tracer) -> dict:
    """Per-level and whole-ladder metrics of the ladder the tracer holds."""
    per_level = defaultdict(lambda: defaultdict(float))
    ladder = defaultdict(float)
    for s in tracer.spans:
        if s.name in DURATION_METRICS:
            per_level[s.level][DURATION_METRICS[s.name]] += s.dur
        if s.name in SELF_METRICS:
            per_level[s.level][SELF_METRICS[s.name]] += s.self_time
        if s.name in LADDER_DURATIONS:
            ladder[LADDER_DURATIONS[s.name]] += s.dur
        if s.name in LADDER_SELF:
            ladder[LADDER_SELF[s.name]] += s.self_time
    for (level, name), value in tracer.counts.items():
        per_level[level][name] = value
    levels = sorted(lv for lv in per_level if lv >= 0)
    finest = max(levels, key=lambda lv: per_level[lv]["mesh.triangles"]) if levels else None
    for name in LEVEL_METRICS:
        values = [per_level[lv][name] for lv in per_level]
        ladder[name] = max(values, default=0.0) if name in PEAK_METRICS else sum(values)
        ladder[f"{name}.finest"] = per_level[finest][name] if finest is not None else 0.0
    rows = [
        {
            "level": lv,
            "triangles": int(per_level[lv]["mesh.triangles"]),
            "free_dofs": int(per_level[lv]["free_dofs"]),
            # the pack is first built inside assemble_forms, so wg.assemble_s covers it
            "mesh_pack_assemble_s": sum(
                per_level[lv][m] for m in ("mesh.build_s", "wg.assemble_s", "cr.assemble_s")
            ),
            "eigensolve_s": per_level[lv]["wg.solve_eigen_s"],
            "factor_solve_s": per_level[lv]["spectra.factor_s"] + per_level[lv]["spectra.solve_s"],
        }
        for lv in levels
    ]
    return {"metrics": dict(ladder), "rows": rows}


def median_metrics(summaries) -> dict:
    return {
        name: statistics.median(s["metrics"].get(name, 0.0) for s in summaries)
        for name in LAYER_METRICS
    }


def unit(metric: str) -> str:
    base = metric.removesuffix(".finest")
    if base in COUNT_METRICS:
        return "count"
    return "1" if base in PEAK_METRICS else "s"


def record(tracer: Tracer) -> list:
    """The spans of the held ladder, in completion order, with self times."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    t0 = min((s.start for s in tracer.spans), default=0.0)
    return [
        {
            "name": s.name,
            "level": s.level,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "start_s": s.start - t0,
            "dur_s": s.dur,
            "self_s": s.self_time,
        }
        for s in tracer.spans
    ]
