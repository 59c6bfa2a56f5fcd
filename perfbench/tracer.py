"""Span tracer that times clawlab from outside the package.

``Tracer.install`` replaces each traced public function by a timing wrapper
under every name that clawlab's own modules look it up by (found by object
identity, so ``from x import f`` copies are covered too), and
``Tracer.uninstall`` puts the originals back.  The program is not edited.

A span's self time is its duration minus the durations of its direct child
spans; summed over every span name (including the benchmark's own root span
``bench``) the self times equal the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

perf = time.perf_counter

KERNELS = ("canon_form", "has_induced", "find_induced_embedding", "find_induced_cycle", "max_clique", "color_with")

# (module, attribute, span name)
FUNCTIONS = (
    ("clawlab.canon", "is_isomorphic", "canon.is_isomorphic"),
    ("clawlab.canon", "canonical_label", "canon.canonical_label"),
    ("clawlab.patterns", "classify_cycle_neighborhood", "patterns.classify_cycle_neighborhood"),
    ("clawlab.patterns", "find_induced", "patterns.find_induced"),
    ("clawlab.patterns", "has_induced", "patterns.has_induced"),
    ("clawlab.invariants", "clique_number", "invariants.clique_number"),
    ("clawlab.invariants", "independence_number", "invariants.independence_number"),
    ("clawlab.invariants", "chromatic_number", "invariants.chromatic_number"),
    ("clawlab.invariants", "is_perfect", "invariants.is_perfect"),
    ("clawlab.invariants", "find_odd_hole", "invariants.find_odd_hole"),
    ("clawlab.structure", "classify_claw_bull_free", "structure.classify_claw_bull_free"),
    ("clawlab.structure", "recognize_inflation", "structure.recognize_inflation"),
    ("clawlab.families", "build_family", "families.build_family"),
    ("clawlab.families", "build_inflation", "families.build_inflation"),
    ("clawlab.families", "verify_family_claims", "families.verify_family_claims"),
    ("clawlab.verify", "verify", "verify.campaign"),
    ("clawlab.verify", "report_emit", "verify.report_emit"),
    ("clawlab.cli", "main", "cli.main"),
)
GRAPH_METHODS = (("__init__", "graphs.Graph_init"), ("induced", "graphs.induced"), ("complement", "graphs.complement"))

ROOT = "bench"
ENUM = "enumeration"
VISIT = "enumeration.visit"
CYCLES = "verify.induced_cycles"

SPAN_NAMES = (
    tuple(f"kernels.{k}" for k in KERNELS)
    + tuple(span for _, _, span in FUNCTIONS)
    + tuple(span for _, span in GRAPH_METHODS)
    + (ENUM, VISIT, CYCLES, ROOT)
)


def _is_lookup_site(name: str) -> bool:
    """clawlab modules whose globals callers read; the kernel backends'
    internals are left alone so each kernel entry is one span."""
    return (name == "clawlab" or name.startswith("clawlab.")) and not name.startswith("clawlab.kernels.")


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start, child time]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.pruned = 0  # has_induced(required >= 0) calls that found the pattern
        self.canon_calls = 0  # canon_form calls made directly by enumeration
        self.emitted = 0
        self.enum_configs = []  # (max_n, free_of) per enumerate_graphs call
        self._restore = []

    # -- spans ---------------------------------------------------------

    def enter(self, name):
        self.stack.append([name, perf(), 0.0])

    def leave(self):
        name, start, child = self.stack.pop()
        dur = perf() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return traced

    # -- wrappers with counters ----------------------------------------

    def _has_induced(self, name, fn):
        @functools.wraps(fn)
        def traced(n, adj, pn, padj, required=-1):
            self.enter(name)
            try:
                hit = fn(n, adj, pn, padj, required)
            finally:
                self.leave()
            if hit and required >= 0:
                self.pruned += 1
            return hit

        return traced

    def _canon_form(self, name, fn):
        @functools.wraps(fn)
        def traced(*args):
            if self.stack and self.stack[-1][0] == ENUM:
                self.canon_calls += 1
            self.enter(name)
            try:
                return fn(*args)
            finally:
                self.leave()

        return traced

    def _enumerate_graphs(self, fn):
        @functools.wraps(fn)
        def traced(config, visit=None):
            self.enum_configs.append((config.max_n, tuple(config.free_of)))
            if visit is not None:
                visit = self.span(VISIT, visit)
            self.enter(ENUM)
            try:
                count = fn(config, visit)
            finally:
                self.leave()
            self.emitted += count
            return count

        return traced

    def _induced_cycles(self, fn):
        """A generator is timed over its iteration: one span per resume."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.enter(CYCLES)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave()
                yield item

        return traced

    # -- install / uninstall -------------------------------------------

    def _replace_everywhere(self, orig, wrapped):
        for name, mod in list(sys.modules.items()):
            if mod is None or not _is_lookup_site(name):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        kernels = sys.modules["clawlab.kernels"]
        for k in KERNELS:
            orig = getattr(kernels, k)
            name = f"kernels.{k}"
            if k == "has_induced":
                wrapped = self._has_induced(name, orig)
            elif k == "canon_form":
                wrapped = self._canon_form(name, orig)
            else:
                wrapped = self.span(name, orig)
            self._replace_everywhere(orig, wrapped)
        for modname, attr, name in FUNCTIONS:
            # sys.modules: the package attribute clawlab.verify is the function
            orig = getattr(sys.modules[modname], attr)
            self._replace_everywhere(orig, self.span(name, orig))
        enum = sys.modules["clawlab.enumeration"]
        self._replace_everywhere(enum.enumerate_graphs, self._enumerate_graphs(enum.enumerate_graphs))
        ver = sys.modules["clawlab.verify"]
        self._replace_everywhere(ver.induced_cycles, self._induced_cycles(ver.induced_cycles))
        graph_cls = sys.modules["clawlab.graphs"].Graph
        for attr, name in GRAPH_METHODS:
            orig = graph_cls.__dict__[attr]
            self._restore.append((graph_cls, attr, orig))
            setattr(graph_cls, attr, self.span(name, orig))

    def uninstall(self):
        while self._restore:
            obj, key, orig = self._restore.pop()
            setattr(obj, key, orig)
