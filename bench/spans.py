"""Span tracer that wraps conebell's public functions from the outside.

Every public module-level function of every ``conebell.*`` module is
replaced, in each conebell namespace that holds it (the defining module, the
package and every module that imported the name), by a wrapper that records
a span: name, start, end and the index of the enclosing span.  Nothing inside
the program is changed, so calls a module makes to its own public functions
are traced too, while private helpers count towards their caller's self time.

Spans are kept in flat arrays in memory and written out once, when the run
ends.  Counts and ratios are taken from the arguments and return values of
the calls named in OBSERVERS.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np


def _observe_dd(counters, args, kwargs, out):
    counters["cone.enumerate_facets_dd.rays_in"] += args[0].ray_count
    counters["cone.enumerate_facets_dd.facets_out"] += len(out)


def _observe_is_facet(counters, args, kwargs, out):
    counters["cone.is_facet.accepted"] += bool(out.facet)


def _observe_project(counters, args, kwargs, out):
    counters["cone.project_rays.rays_out"] += out.ray_count


def _observe_classify(counters, args, kwargs, out):
    counters["search.classify.inputs"] += len(args[0])
    counters["search.classify.classes"] += len(out)


def _observe_reduction(counters, args, kwargs, out):
    counters["search.verify_reduction.passed"] += bool(out)


def _observe_seesaw(counters, args, kwargs, out):
    counters["quantum.seesaw.sweeps"] += sum(len(t) for t in out.traces)
    counters["quantum.seesaw.converged"] += bool(out.converged)


def _observe_export(counters, args, kwargs, out):
    sdpa, index = out
    counters["npa.export_sdpa.bytes_out"] += len(sdpa.encode()) + len(index.encode())


OBSERVERS = {
    "cone.enumerate_facets_dd": _observe_dd,
    "cone.is_facet": _observe_is_facet,
    "cone.project_rays": _observe_project,
    "search.classify": _observe_classify,
    "search.verify_reduction": _observe_reduction,
    "quantum.seesaw": _observe_seesaw,
    "npa.export_sdpa": _observe_export,
}


class Tracer:
    """Records nested spans around conebell's public functions while enabled."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = defaultdict(int)
        self.enabled = False
        self._stack = []

    def install(self):
        """Wrap every public conebell function in every conebell namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "conebell" or name.startswith("conebell."))]
        wrapped = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("conebell.") or value.__name__.startswith("_"):
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(value)
                setattr(mod, attr, wrapped[id(value)])

    def _wrap(self, fn):
        name = fn.__module__.removeprefix("conebell.") + "." + fn.__name__
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, out)
            return out

        return traced

    def layer_totals(self):
        """{layer: (calls, self seconds)} over all recorded spans."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        own = dur.copy()
        child = parents >= 0
        np.subtract.at(own, parents[child], dur[child])
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        """Dump every span as [name, parent span index, start, end]."""
        spans = [[self.names[n], p, s, e] for n, p, s, e in
                 zip(self.span_name, self.span_parent, self.span_start, self.span_end)]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": spans}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, names):
    """Values of the named per-layer metrics from one traced run.

    <layer>.calls and <layer>.self_s come from the spans of that layer; the
    other names are counts and ratios taken by OBSERVERS.
    """
    totals = tracer.layer_totals()
    c = tracer.counters

    def calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    derived = {
        "cone.enumerate_facets_dd.rays_in": c["cone.enumerate_facets_dd.rays_in"],
        "cone.enumerate_facets_dd.facets_out": c["cone.enumerate_facets_dd.facets_out"],
        "cone.is_facet.accept_ratio": _ratio(c["cone.is_facet.accepted"], calls("cone.is_facet")),
        "cone.project_rays.rays_out": c["cone.project_rays.rays_out"],
        "search.classify.class_ratio": _ratio(c["search.classify.classes"],
                                              c["search.classify.inputs"]),
        "search.verify_reduction.pass_ratio": _ratio(c["search.verify_reduction.passed"],
                                                     calls("search.verify_reduction")),
        "quantum.seesaw.sweeps": c["quantum.seesaw.sweeps"],
        "quantum.seesaw.converged_ratio": _ratio(c["quantum.seesaw.converged"],
                                                 calls("quantum.seesaw")),
        "npa.export_sdpa.bytes_out": c["npa.export_sdpa.bytes_out"],
    }
    out = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(layer)
        elif kind == "self_s":
            out[name] = totals.get(layer, (0, 0.0))[1]
        else:
            out[name] = derived[name]
    return out
