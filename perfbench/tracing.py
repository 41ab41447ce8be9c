"""Span tracing of gdslab from outside the program.

`installed(tracer)` wraps the public functions of every layer module, plus
`F2Matrix.matmul`/`rref` and the `Delaunay` class bound in `voronoi`, at
every module that binds them by name, and restores the originals on exit. Each call
becomes a span (name, start, end, parent, op id) kept in memory; calls to
the hot leaves in `HOT` are aggregated into a count, a total time and a
self time instead. `layer_metrics` turns one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

# The package modules, one layer each. `phases` is a value type with no
# functions worth a span, so its time is self time of its callers.
LAYERS = (
    "cli", "manifolds", "complexes", "voronoi", "f2", "homology", "model",
    "wavefunction", "operators", "circuit", "ed",
)

# Called per flip, per predicate or per state: aggregated, not one span each.
HOT = frozenset({
    "model.flip", "model.chi_up", "model.hplus_violations", "model.is_cycle_state",
    "voronoi.in_sphere", "circuit.circuit_phase", "wavefunction.reference_phase",
    "complexes.ensure_validated", "f2.reduce_by_rref", "f2.in_span",
})

METHODS = (("f2", "F2Matrix", "matmul"), ("f2", "F2Matrix", "rref"))
FOREIGN = (("voronoi", "Delaunay"),)

TRIANGULATIONS = frozenset(
    f"manifolds.{n}" for n in (
        "simplex_boundary", "freudenthal_torus", "projective_plane",
        "barycentric_subdivision", "surface_from_word", "nonorientable_surface",
        "genus_surface", "klein_bottle",
    )
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for a root
    op: int          # index of the operation in the workload's list
    child_s: float   # time covered by direct children, spans and hot calls

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, hot-leaf aggregates and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.op = -1
        self.root_s = 0.0            # time covered by top-level calls
        self._frames: List[List[float]] = []   # child time of each open call
        self._open: List[int] = []             # indices of open spans
        self._seen_bases: Dict[Tuple[int, int], weakref.ref] = {}
        self._patch_points = 0                 # of the latest Delaunay call

    def _close(self, duration: float) -> None:
        self._frames.pop()
        if self._frames:
            self._frames[-1][0] += duration
        else:
            self.root_s += duration


def _span_wrapper(tr: Tracer, name: str, fn: Callable, hook) -> Callable:
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = [0.0]
        tr._frames.append(frame)
        parent = tr._open[-1] if tr._open else -1
        idx = len(tr.spans)
        tr.spans.append(None)
        tr._open.append(idx)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            tr._open.pop()
            tr.spans[idx] = Span(name, start, end, parent, tr.op, frame[0])
            tr._close(end - start)
        if hook is not None:
            hook(tr, args, kwargs, result, end - start)
        return result

    return traced


def _hot_wrapper(tr: Tracer, name: str, fn: Callable) -> Callable:
    clock = time.perf_counter
    agg = tr.hot[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = [0.0]
        tr._frames.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[0]
            tr._close(duration)

    return traced


# -- counters taken at the boundaries ---------------------------------------

def _cells_built(tr, args, kwargs, result, duration):
    tr.counters["complexes.cells_built"] += sum(result.cell_counts)


def _voronoi_built(tr, args, kwargs, result, duration):
    # Certification tests every kept simplex against every patch point.
    _cells_built(tr, args, kwargs, result, duration)
    kept = result.n_cells(0)
    tr.counters["voronoi.kept_cells"] += kept
    tr.counters["voronoi.certify_pairs"] += kept * tr._patch_points


def _delaunay(tr, args, kwargs, result, duration):
    tr._patch_points = len(result.points)
    tr.counters["voronoi.patch_points"] += len(result.points)
    tr.counters["voronoi.patch_simplices"] += len(result.simplices)


def _rref(tr, args, kwargs, result, duration):
    matrix, pivots = args[0], result[1]
    tr.counters["f2.rref_entries"] += matrix.rows * matrix.cols
    tr.counters["f2.rref_rows"] += matrix.rows
    tr.counters["f2.rref_rank"] += len(pivots)


def _sector_reps(tr, args, kwargs, result, duration):
    tr.counters["homology.sectors_enumerated"] += result.class_count


def _bound(fn: Callable) -> Callable:
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _cycle_basis_hook(fn: Callable):
    bind = _bound(fn)

    def hook(tr, args, kwargs, result, duration):
        bound = bind(args, kwargs)
        c, key = bound["c"], (id(bound["c"]), bound["p"])
        ref = tr._seen_bases.get(key)
        if ref is not None and ref() is c:
            tr.counters["homology.cycle_basis_repeats"] += 1
        else:
            tr._seen_bases[key] = weakref.ref(c)

    return hook


def _schedule(tr, args, kwargs, result, duration):
    tr.counters["circuit.depth"] = max(tr.counters["circuit.depth"], result.depth)


HOOKS = {
    "complexes.dual_of_triangulation": lambda fn: _cells_built,
    "manifolds.square_grid_torus": lambda fn: _cells_built,
    "voronoi.torus_voronoi": lambda fn: _voronoi_built,
    "voronoi.Delaunay": lambda fn: _delaunay,
    "f2.F2Matrix.rref": lambda fn: _rref,
    "homology.homology_sector_reps": lambda fn: _sector_reps,
    "homology.cycle_space_basis": _cycle_basis_hook,
    "circuit.schedule": lambda fn: _schedule,
}


# -- installation -----------------------------------------------------------

def targets() -> Dict[str, object]:
    """Every traced callable by span name, as the program defines it."""
    found: Dict[str, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"gdslab.{layer}")
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                found[f"{layer}.{attr}"] = value
    for layer, cls, meth in METHODS:
        owner = getattr(importlib.import_module(f"gdslab.{layer}"), cls)
        found[f"{layer}.{cls}.{meth}"] = vars(owner)[meth]
    for layer, attr in FOREIGN:
        found[f"{layer}.{attr}"] = getattr(importlib.import_module(f"gdslab.{layer}"), attr)
    missing = [n for n in sorted(HOT | set(HOOKS) | _METRIC_TARGETS) if n not in found]
    if missing:
        raise LookupError(f"traced names missing from gdslab: {', '.join(missing)}")
    return found


def _gdslab_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gdslab" or n.startswith("gdslab."))]


def unwrapped_bindings(originals: Iterable[object]) -> List[str]:
    """Places in gdslab modules that still reach an original traced callable:
    module globals, containers held in them, and function defaults."""
    ids = {id(o) for o in originals}
    found = []
    for mod in _gdslab_modules():
        for attr, value in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            if id(value) in ids:
                found.append(where)
            elif isinstance(value, dict):
                found += [f"{where}[{k!r}]" for k, v in value.items() if id(v) in ids]
            elif isinstance(value, (list, tuple, set, frozenset)):
                found += [f"{where}[...]" for v in value if id(v) in ids]
            elif inspect.isfunction(value):
                defaults = (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values())
                found += [f"{where} default" for v in defaults if id(v) in ids]
    return found


@contextmanager
def installed(tr: Tracer):
    """Trace gdslab into `tr` for the duration of the block."""
    found = targets()
    wrappers = {}
    for name, fn in found.items():
        if name in HOT:
            wrappers[id(fn)] = _hot_wrapper(tr, name, fn)
        else:
            hook = HOOKS[name](fn) if name in HOOKS else None
            wrappers[id(fn)] = _span_wrapper(tr, name, fn, hook)
    patched: List[Tuple[object, str, object]] = []
    for mod in _gdslab_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
    for layer, cls, meth in METHODS:
        owner = getattr(importlib.import_module(f"gdslab.{layer}"), cls)
        original = vars(owner)[meth]
        patched.append((owner, meth, original))
        setattr(owner, meth, wrappers[id(original)])
    try:
        leaks = unwrapped_bindings(found.values())
        if leaks:
            raise RuntimeError("untraced bindings of traced functions: " + ", ".join(leaks))
        yield tr
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

class Metric(NamedTuple):
    name: str
    unit: str
    compute: Callable[["_Pass"], float]


class _Pass:
    """One traced pass, indexed for the metric computations."""

    def __init__(self, tr: Tracer, wall_s: float):
        self.tr = tr
        self.wall_s = wall_s
        self.spans: List[Span] = tr.spans
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.by_name[s.name].append(i)

    def _has_ancestor(self, i: int, names: Set[str]) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def outer_time(self, names: Iterable[str], within: Iterable[str] = ()) -> float:
        """Time in calls to `names`, counting nested calls among them once;
        with `within`, only calls made below a call to one of those."""
        names, within = set(names), set(within)
        total = sum(self.tr.hot[n][1] for n in names if n in HOT)
        for n in names - HOT:
            for i in self.by_name.get(n, ()):
                if self._has_ancestor(i, names):
                    continue
                if within and not self._has_ancestor(i, within):
                    continue
                total += self.spans[i].duration
        return total

    def calls(self, *names: str) -> float:
        return float(sum(self.tr.hot[n][0] if n in HOT else len(self.by_name.get(n, ()))
                         for n in names))

    def counter(self, name: str) -> float:
        return float(self.tr.counters.get(name, 0.0))

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(self, layer: str) -> float:
        total = 0.0
        for s in self.spans:
            if s.name.split(".", 1)[0] == layer:
                total += s.duration - s.child_s
        for name, (_, _, self_s) in self.tr.hot.items():
            if name.split(".", 1)[0] == layer:
                total += self_s
        return total


# Span names the metric table relies on; `targets` refuses to trace a
# program where one of them no longer exists.
_METRIC_TARGETS: Set[str] = set()


def _t(name: str, *names: str) -> Metric:
    _METRIC_TARGETS.update(names)
    return Metric(name, "s", lambda p: p.outer_time(names))


def _n(name: str, *names: str) -> Metric:
    _METRIC_TARGETS.update(names)
    return Metric(name, "count", lambda p: p.calls(*names))


def _c(name: str, unit: str = "count") -> Metric:
    return Metric(name, unit, lambda p: p.counter(name))


LAYER_METRICS: Tuple[Metric, ...] = (
    _t("cli.build_manifold_s", "cli.build_manifold"),
    _n("cli.build_manifold_calls", "cli.build_manifold"),
    _t("manifolds.triangulation_s", *sorted(TRIANGULATIONS)),
    _t("complexes.dual_s", "complexes.dual_of_triangulation"),
    _t("complexes.validate_s", "complexes.validate_generic"),
    _c("complexes.cells_built"),
    _t("f2.matmul_s", "f2.F2Matrix.matmul"),
    _n("f2.matmul_calls", "f2.F2Matrix.matmul"),
    _t("f2.rref_s", "f2.F2Matrix.rref"),
    _n("f2.rref_calls", "f2.F2Matrix.rref"),
    _c("f2.rref_entries"),
    _c("f2.rref_rows"),
    _c("f2.rref_rank"),
    Metric("f2.rref_rank_ratio", "1",
           lambda p: p.ratio(p.counter("f2.rref_rank"), p.counter("f2.rref_rows"))),
    _t("homology.betti_s", "homology.betti", "homology.betti_of_cells"),
    _t("homology.sector_reps_s", "homology.homology_sector_reps"),
    _c("homology.sectors_enumerated"),
    _t("homology.cycle_basis_s", "homology.cycle_space_basis"),
    _n("homology.cycle_basis_calls", "homology.cycle_space_basis"),
    Metric("homology.cycle_basis_repeat_ratio", "1",
           lambda p: p.ratio(p.counter("homology.cycle_basis_repeats"),
                             p.calls("homology.cycle_space_basis"))),
    _t("voronoi.build_s", "voronoi.torus_voronoi"),
    _t("voronoi.delaunay_s", "voronoi.Delaunay"),
    Metric("voronoi.self_s", "s", lambda p: p.outer_time(["voronoi.torus_voronoi"]) - p.outer_time(
        ["voronoi.Delaunay", "complexes.validate_generic"], within=["voronoi.torus_voronoi"])),
    _n("voronoi.exact_predicates", "voronoi.in_sphere"),
    _c("voronoi.kept_cells"),
    _c("voronoi.patch_simplices"),
    _c("voronoi.patch_points"),
    _c("voronoi.certify_pairs"),
    Metric("voronoi.kept_ratio", "1",
           lambda p: p.ratio(p.counter("voronoi.kept_cells"),
                             p.counter("voronoi.patch_simplices"))),
    _t("model.ground_degeneracy_s", "model.ground_degeneracy"),
    _t("model.sweep_s", "model.sweep_sign"),
    _n("model.sweeps", "model.sweep_sign"),
    _n("model.flips", "model.flip"),
    _t("model.flip_s", "model.flip"),
    _n("model.chi_up_calls", "model.chi_up"),
    _t("model.chi_up_s", "model.chi_up"),
    _t("model.random_cycle_s", "model.random_cycle"),
    _n("model.random_cycle_calls", "model.random_cycle"),
    _t("wavefunction.flip_consistency_s", "wavefunction.verify_flip_consistency"),
    _n("wavefunction.reference_phase_calls", "wavefunction.reference_phase"),
    Metric("operators.balloon_s", "s",
           lambda p: p.outer_time(n for n in p.by_name if n.startswith("operators."))),
    _t("circuit.build_gates_s", "circuit.build_gates"),
    _t("circuit.schedule_s", "circuit.schedule"),
    _t("circuit.verify_conjugation_s", "circuit.verify_conjugation"),
    _n("circuit.phase_evals", "circuit.circuit_phase"),
    _c("circuit.depth"),
    _t("ed.terms_s", "ed.all_terms", "ed.build_term"),
    _t("ed.zero_space_s", "ed.exact_zero_space"),
    _t("ed.full_commutation_s", "ed.verify_full_commutation"),
) + tuple(
    Metric(f"{layer}.layer_self_s", "s", lambda p, layer=layer: p.layer_self(layer))
    for layer in LAYERS
) + (
    Metric("trace.unattributed_s", "s", lambda p: p.wall_s - p.tr.root_s),
    Metric("trace.spans", "count", lambda p: float(len(p.spans))),
    Metric("trace.hot_calls", "count", lambda p: float(sum(a[0] for a in p.tr.hot.values()))),
)

# Pass-level metrics filled in by the runner from traced and untraced passes.
OVERHEAD_METRICS = (
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(tr: Tracer, wall_s: float) -> Dict[str, float]:
    p = _Pass(tr, wall_s)
    return {m.name: float(m.compute(p)) for m in LAYER_METRICS}


def median_metrics(passes: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(d[k] for d in passes) for k in passes[0]}


def units() -> Dict[str, str]:
    out = {m.name: m.unit for m in LAYER_METRICS}
    out.update(OVERHEAD_METRICS)
    return out


# Layers that only one workload reaches: every metric of the layer is zero
# on the other workloads.
BYPASS = {"voronoi": "voronoi-periodic", "ed": "oracle"}


def bypass_violations(workload: str, values: Dict[str, float]) -> List[str]:
    """Per-layer metrics that break the bypass predictions in `BYPASS`."""
    out = []
    for layer, owner in BYPASS.items():
        for name, value in values.items():
            if name.startswith(layer + ".") and workload != owner and value != 0:
                out.append(f"{name} = {value} on {workload}")
    return out


def nesting_errors(spans: List[Span], eps: float = 1e-9) -> List[str]:
    """Spans that leave their parent's interval, or whose children together
    last longer than the parent."""
    errors = []
    children_s: Dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent < 0:
            continue
        parent = spans[s.parent]
        if s.start < parent.start - eps or s.end > parent.end + eps:
            errors.append(f"span {i} {s.name} leaves its parent {parent.name}")
        children_s[s.parent] += s.duration
    for i, total in children_s.items():
        if total > spans[i].duration + eps:
            errors.append(f"children of span {i} {spans[i].name} exceed it")
    return errors
