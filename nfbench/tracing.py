"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps every public function of the six nfsense modules and
rebinds each name under which the package holds it: the defining module,
the package namespace, the modules that import it and module-level dispatch
tables.  Each call records a span [layer, function, start, end, parent,
work] plus the job it belongs to, in flat in-memory columns; `save` writes
them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "geometry", "ambiguity", "closed_form", "metrics", "cli")
SPAN_FIELDS = ("layer", "function", "start", "end", "parent", "work", "job")
_AMBIGUITY = LAYERS.index("ambiguity")
_CLOSED_FORM = LAYERS.index("closed_form")
_METRICS = LAYERS.index("metrics")
_CLI = LAYERS.index("cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _elements(setup) -> int:
    """Distinct element positions of a sensing setup."""
    if setup.rx is setup.tx:
        return setup.tx.n_elements
    return setup.tx.n_elements + setup.rx.n_elements


def _probes(probe) -> int:
    return np.atleast_2d(np.asarray(probe, dtype=float)).shape[0]


def _setup_key(setup):
    rx = b"" if setup.rx is setup.tx else setup.rx.elements.tobytes()
    return hash((setup.tx.elements.tobytes(), rx, setup.mode.name,
                 setup.frequency))


def _point_key(points) -> int:
    return hash(np.ascontiguousarray(points, dtype=float).tobytes())


# Work of the outermost span of a layer, from its arguments and result.
#   specfun, closed_form: input points;  geometry: elements built;
#   ambiguity: distinct elements x probes;  cli: characters written.
_WORK = {
    "specfun": lambda a, k, r: int(np.size(_arg(a, k, 0, "x" if "x" in k else "u"))),
    "closed_form": {
        "normalized_af_power": lambda a, k, r: int(np.size(_arg(a, k, 2, "x"))),
        "af_argument": lambda a, k, r: 1,
        "vergence_difference": lambda a, k, r: 1,
    },
    "geometry": {
        "simo_miso_setup": lambda a, k, r: 1,
        "mimo_setup": lambda a, k, r: 0,
    },
    "ambiguity": {
        "normalized_power": lambda a, k, r: _elements(_arg(a, k, 0, "setup"))
        * _probes(_arg(a, k, 2, "probe")),
        "ambiguity": lambda a, k, r: _elements(_arg(a, k, 0, "setup"))
        * _probes(_arg(a, k, 2, "probe")),
        "array_factor": lambda a, k, r: _arg(a, k, 0, "geometry").n_elements
        * _probes(_arg(a, k, 2, "probe")),
        "broadside_power_sweep": lambda a, k, r: _elements(_arg(a, k, 0, "setup"))
        * int(np.size(_arg(a, k, 2, "probe_distances"))),
        "channel_phase": lambda a, k, r: 1,
    },
}


def _work_function(layer: str, name: str):
    rule = _WORK.get(layer)
    if callable(rule):
        return rule
    if rule and name in rule:
        return rule[name]
    if layer == "geometry":
        return lambda a, k, r: int(getattr(r, "n_elements", 0))
    return lambda a, k, r: 0


def _evaluation_key(name: str, args, kwargs):
    """Identity of an exact-sum evaluation: (setup, target, probes)."""
    if name == "broadside_power_sweep":
        setup = _arg(args, kwargs, 0, "setup")
        dist = np.asarray(_arg(args, kwargs, 2, "probe_distances"), dtype=float)
        probes = np.zeros((dist.size, 3))
        probes[:, 2] = dist.ravel()
        target = [0.0, 0.0, float(_arg(args, kwargs, 1, "target_distance"))]
        return (_setup_key(setup), _point_key(target), _point_key(probes))
    if name in ("normalized_power", "ambiguity"):
        return (_setup_key(_arg(args, kwargs, 0, "setup")),
                _point_key(_arg(args, kwargs, 1, "target")),
                _point_key(np.atleast_2d(_arg(args, kwargs, 2, "probe"))))
    if name == "array_factor":
        return (hash(_arg(args, kwargs, 0, "geometry").elements.tobytes()),
                _point_key(_arg(args, kwargs, 1, "target")),
                _point_key(np.atleast_2d(_arg(args, kwargs, 2, "probe"))))
    return (name, repr(args), repr(kwargs))


def _stdout_position() -> int:
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.layer = array("b")
        self.function = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work = array("q")
        self.job = array("l")
        self.names = []           # function id -> "layer.name"
        self._stack = []
        self._job = -1
        self._seen = set()        # exact-sum evaluations of the current job
        self.evaluations = 0
        self.distinct = 0         # distinct (setup, target, probes)
        self.distinct_setups = 0  # distinct (setup, target)

    def begin_job(self, index: int) -> None:
        self._job = index
        self._seen = set()

    def _note(self, key) -> None:
        """Count one exact-sum evaluation; key is (setup, target, probes)."""
        self.evaluations += 1
        for seen, new in ((key, "distinct"), (key[:2], "distinct_setups")):
            if seen not in self._seen:
                self._seen.add(seen)
                setattr(self, new, getattr(self, new) + 1)

    # -- recording

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        layer_id = LAYERS.index(layer)
        function_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        work_of = _work_function(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.start)
            tracer.layer.append(layer_id)
            tracer.function.append(function_id)
            tracer.parent.append(parent)
            tracer.job.append(tracer._job)
            tracer.work.append(0)
            tracer.end.append(0.0)
            mark = _stdout_position() if layer_id == _CLI else 0
            stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                stack.pop()
            if parent < 0 or tracer.layer[parent] != layer_id:
                if layer_id == _CLI:
                    tracer.work[index] = _stdout_position() - mark
                else:
                    tracer.work[index] = work_of(args, kwargs, result)
                if layer_id == _AMBIGUITY:
                    tracer._note(_evaluation_key(name, args, kwargs))
            return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self, package) -> int:
        """Wrap the public functions of the layer modules; return the count
        of names rebound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in vars(module).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(layer, name, obj))
        rebound = 0
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        for module in modules:
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if name.startswith("__"):
                    continue
                entry = wrappers.get(id(obj))
                if entry and entry[0] is obj:
                    namespace[name] = entry[1]
                    rebound += 1
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        entry = wrappers.get(id(value))
                        if entry and entry[0] is value:
                            obj[key] = entry[1]
                            rebound += 1
        return rebound

    # -- results

    def columns(self) -> dict:
        return {name: np.array(getattr(self, name)) for name in SPAN_FIELDS}

    def summary(self) -> dict:
        """Per-layer self time, calls, work and ns per unit of work.

        Self time is a span's duration minus the durations of its direct
        children.  Work is taken from the outermost span of each same-layer
        chain, so nested calls inside one layer are not counted twice.
        `metrics.work` is the closed-form points that metrics spans asked
        for and `metrics.evals` the closed-form calls they issued.
        """
        c = self.columns()
        layer, parent = c["layer"], c["parent"]
        duration = c["end"] - c["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        outermost = parent_layer != layer
        from_metrics = (layer == _CLOSED_FORM) & (parent_layer == _METRICS)
        out = {}
        for i, name in enumerate(LAYERS):
            mine = layer == i
            if i == _METRICS:
                work = int(c["work"][from_metrics].sum())
            else:
                work = int(c["work"][mine & outermost].sum())
            self_s = float(self_time[mine].sum())
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = int(mine.sum())
            out[f"{name}.work"] = work
            out[f"{name}.ns_per_work"] = self_s * 1e9 / work if work else 0.0
        out["metrics.evals"] = int(from_metrics.sum())
        calls = self.evaluations or 1
        out["ambiguity.distinct_ratio"] = self.distinct / calls
        out["ambiguity.distinct_setup_ratio"] = self.distinct_setups / calls
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
