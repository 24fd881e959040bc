"""In-memory span tracing of pseudocube's layers, installed from outside.

``Tracer.install`` wraps every public function of each package module (and
three class attributes) wherever a module holds a reference to it, so calls
through ``from .x import y`` bindings are seen too.  ``restore`` puts the
originals back.  Each call records a span (name, start, end, parent, op);
self time is a span's duration minus the time its child spans cover, which
for strictly nested spans is the sum of the children's durations.

Generator functions are left alone: their work happens while the caller
iterates, so a span around the call would measure only the generator's
creation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("classes", "dims", "bounds", "oig", "polycert", "listlearn", "cli")

# (module, class, attribute) wrapped in addition to module-level functions.
CLASS_ATTRS = (("classes", "HypothesisClass", "__post_init__"),
               ("polycert", "RationalPolynomial", "evaluate"),
               ("oig", "FlowNetwork", "__init__"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_validated(counters, args, kwargs, result):
    counters["classes.HypothesisClass.validated_patterns"] += len(args[0].patterns)


def _count_peel(counters, args, kwargs, result):
    counters["dims.max_pseudocube_core.patterns_in"] += len(_arg(args, kwargs, 0, "p").patterns)
    counters["dims.max_pseudocube_core.patterns_removed"] += len(result.peel_trace)


def _count_cells(counters, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    counters["polycert.rank_bareiss.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_demand(counters, args, kwargs, result):
    edges, ell = _arg(args, kwargs, 1, "edges"), _arg(args, kwargs, 2, "ell")
    counters["oig.flow_demand"] += sum(max(len(e) - ell, 0) for e in edges)


def _count_forced(counters, args, kwargs, result):
    # the prediction is forced exactly when the test instance was sampled
    sample, x = _arg(args, kwargs, 2, "sample"), _arg(args, kwargs, 3, "x")
    counters["listlearn.predict.forced"] += any(x_i == x for x_i, _ in sample)


COUNTERS = {"classes.HypothesisClass.__post_init__": _count_validated,
            "dims.max_pseudocube_core": _count_peel,
            "polycert.rank_bareiss": _count_cells,
            "oig.min_max_orientation_indexed": _count_demand,
            "listlearn.predict_one_inclusion": _count_forced}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.recording = False
        self.op = -1  # -1 marks the set-up phase
        # spans, column-wise: name id, parent span id, op id, start and end (ns)
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, start ns, child ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.root_ns = 0  # time covered by outermost spans of ops (op >= 0)
        self.counters: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, obj, wrappers[id(obj)])
        for layer, cls_name, attr in CLASS_ATTRS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{layer}"), cls_name)
            original = cls.__dict__[attr]
            self._patch(cls, attr, original, self._wrap(original, f"{layer}.{cls_name}.{attr}"))

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        start = time.perf_counter_ns()
        self.span_start.append(start)
        self._stack.append([sid, start, 0])
        return sid

    def _close(self, sid: int, name: str) -> None:
        end = time.perf_counter_ns()
        _, start, child_ns = self._stack.pop()
        self.span_end[sid] = end
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        elif self.op >= 0:
            self.root_ns += duration

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the output checks) record no spans."""
        saved, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = saved

    def write_spans(self, path: str) -> None:
        """Tab-separated spans, one per line, after a '#'-prefixed name table."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, name in enumerate(self.names):
                fh.write(f"# {nid}\t{name}\n")
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{sid}\t{parent}\t{op}\t{nid}\t{start}\t{end}\n"
                for sid, (parent, op, nid, start, end) in enumerate(zip(
                    self.span_parent, self.span_op, self.span_name,
                    self.span_start, self.span_end)))

