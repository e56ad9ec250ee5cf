"""Outside-in tracing of hgslab's layers, with no change to the program.

``Tracer.install`` wraps every public function of the layer modules in
every ``hgslab`` namespace that binds it (``rho`` and ``correspondence``
import names directly, so patching only the defining module would miss
their calls).  Each call made while ``enabled`` is true records a span
(function, start, end, parent, raised, returned None) in memory;
``restore`` puts every original back.  ``layer_metrics`` turns spans into
self times and counts per layer and per function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("groups", "perms", "hgs", "rho", "braces", "constructions",
          "correspondence")

# Per-function metrics reported besides each layer's totals.
FUNCTION_METRICS = (
    "hgs.enumerate_hgs.self_s",
    "hgs.certify.calls",
    "hgs.certify.self_s",
    "groups.are_isomorphic.calls",
    "groups.are_isomorphic.hit_frac",
    "groups.automorphisms.self_s",
    "groups.subgroup_closure.calls",
    "groups.all_subgroups.self_s",
    "perms.holomorph.self_s",
    "perms.perm_group_as_group.self_s",
    "perms.perm_group_from_elements.calls",
    "rho.rho_orbit.self_s",
    "rho.rho_conjugate.calls",
    "braces.ybe_map.self_s",
    "braces.brace_from_subgroup.self_s",
    "braces.is_two_sided.self_s",
    "constructions.hgs_from_abelian_map.self_s",
    "constructions.abelian_maps.self_s",
    "correspondence.realizable_lattice.calls",
    "correspondence.realizable_lattice.self_s",
)


def metric_names() -> list:
    """Every per-layer metric name ``layer_metrics`` reports, in order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.raised"]
    return names + list(FUNCTION_METRICS)


def is_count(name: str) -> bool:
    """Counters must repeat exactly between runs of one seed."""
    return name.endswith((".calls", ".raised", ".hit_frac"))


class Tracer:
    def __init__(self):
        self.names = []       # function id -> "layer.function"
        self.spans = []       # (function id, start, end, parent, raised, none)
        self.enabled = False
        self._stack = []
        self._patched = []    # (namespace, attribute, original)

    def _wrap(self, fn, fid):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, raised, result is None)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hgslab.{layer}")
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[obj] = self._wrap(obj, len(self.names))
                self.names.append(f"{layer}.{name}")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "hgslab" or name.startswith("hgslab.")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        """The spans as plain data: names plus one row per span."""
        return {"names": self.names, "spans": self.spans}


def layer_metrics(trace: dict) -> dict:
    """Self time, calls and raised counts per layer and per function.

    A span's self time is its duration minus the durations of its direct
    children; children run inside their parent, so the self times of all
    spans add up to the duration of the root spans.
    """
    names, spans = trace["names"], trace["spans"]
    child_s = [0.0] * len(spans)
    for fid, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    per_fn = {}
    for k, (fid, t0, t1, _, raised, none) in enumerate(spans):
        stats = per_fn.setdefault(names[fid], [0.0, 0, 0, 0])
        stats[0] += (t1 - t0) - child_s[k]
        stats[1] += 1
        stats[2] += raised
        stats[3] += not raised and not none
    out = {}
    for layer in LAYERS:
        rows = [s for name, s in per_fn.items()
                if name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = sum(s[0] for s in rows)
        out[f"{layer}.calls"] = sum(s[1] for s in rows)
        out[f"{layer}.raised"] = sum(s[2] for s in rows)
    for metric in FUNCTION_METRICS:
        fn, kind = metric.rsplit(".", 1)
        self_s, calls, _, returned = per_fn.get(fn, (0.0, 0, 0, 0))
        if kind == "self_s":
            out[metric] = self_s
        elif kind == "calls":
            out[metric] = calls
        else:  # hit_frac: share of calls that returned something
            out[metric] = returned / calls if calls else 0.0
    return out
