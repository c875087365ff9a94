"""Outside-in tracer for the benchmark's traced runs.

The tracer records a span around every public function of every `dunking`
module, in every module namespace that holds it (a name brought in with
`from .fem import solve_constrained` is wrapped inside `dunking.budget` too),
and around `Mesh2D.validate`.  `scipy.sparse.linalg.splu` is replaced by a
thin proxy that counts factorizations, LU fill and triangular solves and
charges them to the layer of the innermost open span.  Nothing inside the
package changes: the patches are installed for one traced pass and removed
afterwards, so untraced passes run the unmodified code.

Spans live in flat arrays (name id, start, end, parent, operation id) and are
written once, at the end of the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

LAYERS = ("mesh", "fem", "eigen", "budget", "rhe", "lcm", "correlations",
          "lengthscale", "series", "cli")

# spans whose result carries a work count: name -> (counter, extractor)
_RESULT_COUNTS = {
    "rhe.solve_rhea": ("rhe.rhea_steps", lambda r: len(r.times) - 1),
    "rhe.solve_rhe_timedep": ("rhe.timedep_steps", lambda r: len(r.times) - 1),
    "series.steady_state_detect": ("series.windows", lambda r: len(r.history)),
}
# spans whose peak traced allocation is recorded (tracemalloc)
_PEAK_MEMORY = ("lengthscale.fit_spheroid",)


class _TracedLU:
    """SuperLU proxy counting `solve` calls against the innermost layer."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counts[self._tracer.layer() + ".lu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.op_id = array.array("l")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.lu_nnz: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.nv_max = 0
        self._lu_size: dict[tuple, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- spans

    def layer(self) -> str:
        if not self.stack:
            return "other"
        return self.names[self.name_id[self.stack[-1]]].split(".", 1)[0]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _note_mesh(self, obj) -> None:
        nv = getattr(obj, "num_vertices", None)
        if isinstance(nv, int) and nv > self.nv_max:
            self.nv_max = nv

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        tracer = self
        counted = _RESULT_COUNTS.get(name)
        peak = name in _PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args:
                tracer._note_mesh(args[0])
            idx = len(tracer.start)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            # a span opened outside any other starts a new operation
            tracer.op_id.append(tracer.op_id[parent] if parent >= 0 else idx)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            if peak:
                tracemalloc.start()
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peak_mb[name] = max(tracer.peak_mb[name], mb)
            if counted is not None:
                tracer.counts[counted[0]] += counted[1](result)
            tracer._note_mesh(result)
            return result

        return traced

    def _splu(self, orig):
        tracer = self

        @functools.wraps(orig)
        def splu(A, *args, **kwargs):
            lu = orig(A, *args, **kwargs)
            layer = tracer.layer()
            tracer.counts[layer + ".splu_calls"] += 1
            # building lu.L and lu.U costs more than a small factorization,
            # so factors of one signature (repeated per-step solves) share it
            key = (A.shape, A.nnz, lu.nnz)
            if key not in tracer._lu_size:
                tracer._lu_size[key] = lu.L.nnz + lu.U.nnz
            acc = tracer.lu_nnz[layer]
            acc[0] += tracer._lu_size[key]
            acc[1] += A.nnz
            return _TracedLU(lu, tracer)

        return splu

    # -------------------------------------------------------- patching

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of every layer module, in place."""
        modules = {layer: importlib.import_module(f"dunking.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("dunking.")):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.split(".", 1)[1]
                    wrapped[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._set(mod, attr, wrapped[obj])
        mesh_cls = modules["mesh"].Mesh2D
        self._set(mesh_cls, "validate",
                  self._wrap(mesh_cls.validate, "mesh.validate"))
        self._set(spla, "splu", self._splu(spla.splu))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -------------------------------------------------------- analysis

    def durations(self):
        """(name ids, inclusive durations, self durations) of every span."""
        ids = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        return ids, dur, dur - child

    def summary(self) -> dict:
        """Per-function inclusive/self time and calls, per-layer self time."""
        ids, dur, self_dur = self.durations()
        funcs = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            funcs[name] = {"calls": int(sel.sum()),
                           "incl_s": float(dur[sel].sum()),
                           "self_s": float(self_dur[sel].sum())}
        layers = defaultdict(float)
        for name, f in funcs.items():
            layers[name.split(".", 1)[0]] += f["self_s"]
        return {"functions": funcs, "layer_self_s": dict(layers)}

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans opened directly inside a `parent` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        ids = np.array(self.name_id, dtype=np.int64)
        par = np.array(self.parent, dtype=np.int64)
        sel = (ids == self._ids[child]) & (par >= 0)
        return int((ids[par[sel]] == self._ids[parent]).sum())

    def lu_fill(self, layer: str) -> float:
        lu, a = self.lu_nnz.get(layer, (0, 0))
        return lu / a if a else 0.0

    def arrays(self) -> dict:
        return {"name_id": np.array(self.name_id, dtype=np.int64),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "parent": np.array(self.parent, dtype=np.int64),
                "op_id": np.array(self.op_id, dtype=np.int64)}


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    s = tr.summary()
    f = s["functions"]

    def calls(name):
        return f.get(name, {}).get("calls", 0)

    def incl(name):
        return f.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return f.get(name, {}).get("self_s", 0.0)

    def per(total, n, scale=1.0):
        return total / n * scale if n else 0.0

    c = tr.counts
    return {
        "mesh.refine_s": incl("mesh.refine"),
        "mesh.validate_s": incl("mesh.validate"),
        "mesh.validate_calls": calls("mesh.validate"),
        "mesh.geometry_stats_calls": calls("mesh.geometry_stats"),
        "mesh.geometry_stats_s": incl("mesh.geometry_stats"),
        "mesh.nv_max": tr.nv_max,
        "fem.assemble_calls": calls("fem.assemble_forms"),
        "fem.assemble_s": incl("fem.assemble_forms"),
        "fem.solve_constrained_calls": calls("fem.solve_constrained"),
        "fem.solve_constrained_s": incl("fem.solve_constrained"),
        "fem.eta_variation_s": incl("fem.eta_variation"),
        "fem.splu_calls": c["fem.splu_calls"],
        "fem.lu_fill": tr.lu_fill("fem"),
        "eigen.stability_s": incl("eigen.stability_constants"),
        "eigen.generalized_eigs_calls": calls("eigen.generalized_eigs"),
        "eigen.splu_calls": c["eigen.splu_calls"],
        "eigen.lu_solves": c["eigen.lu_solves"],
        "eigen.lu_fill": tr.lu_fill("eigen"),
        "budget.solve_phi_calls": calls("budget.solve_phi"),
        "budget.solve_phi_self_s": self_s("budget.solve_phi"),
        "rhe.rhea_step_us": per(self_s("rhe.solve_rhea"),
                                c["rhe.rhea_steps"], 1e6),
        "rhe.timedep_step_us": per(self_s("rhe.solve_rhe_timedep"),
                                   c["rhe.timedep_steps"], 1e6),
        "rhe.splu_calls": c["rhe.splu_calls"],
        "rhe.lu_fill": tr.lu_fill("rhe"),
        "rhe.cv_s": incl("rhe.coefficient_of_variation"),
        "lengthscale.fit_spheroid_s": incl("lengthscale.fit_spheroid"),
        "lengthscale.fit_spheroid_peak_mb":
            tr.peak_mb["lengthscale.fit_spheroid"],
        "lengthscale.solve_q_us": per(incl("lengthscale.solve_q_pointwise"),
                                      calls("lengthscale.solve_q_pointwise"),
                                      1e6),
        "lengthscale.objective_evals": tr.child_calls(
            "correlations.transform_correlation",
            "lengthscale.solve_q_pointwise"),
        "series.read_s": incl("series.read_series"),
        "series.detect_s": incl("series.steady_state_detect"),
        "series.windows": c["series.windows"],
        "cli.self_s": s["layer_self_s"].get("cli", 0.0),
    }
