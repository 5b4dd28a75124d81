"""Spans around fdikit's public functions, installed from outside the program.

``Tracer.install()`` replaces every public function of the six layer
modules, and the public methods of their classes, at every module binding
that refers to it (``fdikit.fdi_sim.envelope_propagate`` and
``fdikit.cli.envelope_propagate`` get the same wrapper).  Constructors are
wrapped for the classes whose construction a layer metric counts.  Spans
stay in memory as ``[name, start, end, busy, calls, items, parent, op,
...]`` and are written out by ``dump``.

Consecutive calls of one leaf function under the same parent are merged
into a single span with a call count, so hot leaves such as
``FuzzyNumber.cut`` cost one record per caller, not one per call.  A
generator span's ``busy`` is the time spent inside its ``next`` calls and
``items`` counts what it yielded.  Self time is ``busy`` minus the busy
time of wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("fuzzy_num", "metrics", "interval_linalg", "stability", "fdi_sim", "cli")
#: Classes whose constructor is wrapped (their construction is counted).
CONSTRUCTORS = {"interval_linalg": ("IntervalMatrix", "IntervalVector"),
                "fdi_sim": ("FuzzySystem",)}

# span record fields
NAME, START, END, BUSY, CALLS, ITEMS, PARENT, OP, NCHILD, PREV, CHILDBUSY, GEN = range(12)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.last_child: dict = {}
        self.op = None
        self.counts: dict = defaultdict(float)
        self._first_of_op = 0

    # -- span bookkeeping -------------------------------------------------------

    def _open(self, name, gen=False) -> int:
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        prev = self.last_child.get(parent)
        self.spans.append([name, perf_counter(), 0.0, 0.0, 1, 0, parent, self.op,
                           0, prev, 0.0, gen])
        self.last_child[parent] = idx
        if parent is not None:
            self.spans[parent][NCHILD] += 1
        return idx

    def _close(self, idx: int, busy: float) -> None:
        span = self.spans[idx]
        span[END] = span[START] + busy if not span[GEN] else perf_counter()
        span[BUSY] = busy
        parent = span[PARENT]
        if parent is not None:
            self.spans[parent][CHILDBUSY] += busy
        prev = span[PREV]
        if (parent is not None and not span[GEN] and span[NCHILD] == 0
                and idx == len(self.spans) - 1 and prev is not None):
            other = self.spans[prev]
            if other[NAME] == span[NAME] and other[NCHILD] == 0 and not other[GEN]:
                other[END] = span[END]
                other[BUSY] += busy
                other[CALLS] += 1
                self.spans.pop()
                self.last_child[parent] = prev
                self.spans[parent][NCHILD] -= 1

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - t0
                if tracer.stack and tracer.stack[-1] == idx:
                    tracer.stack.pop()
                tracer._close(idx, busy)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx, busy = None, 0.0
            try:
                while True:
                    if idx is None:
                        idx = tracer._open(name, gen=True)
                    tracer.stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - t0
                        if tracer.stack and tracer.stack[-1] == idx:
                            tracer.stack.pop()
                    tracer.spans[idx][ITEMS] += 1
                    yield item
            finally:
                inner.close()
                if idx is not None:
                    tracer._close(idx, busy)

        return traced

    def install(self) -> int:
        """Wrap every public function and method; return how many were wrapped."""
        import fdikit

        modules = [importlib.import_module(f"fdikit.{m}") for m in LAYERS]
        bindings = [fdikit] + modules
        wrapped = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, HOOKS.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException,)):
                    self._wrap_class(short, obj, attr in CONSTRUCTORS.get(short, ()))
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        return len(wrapped)

    def _wrap_class(self, short, cls, constructor):
        from enum import Enum

        if issubclass(cls, Enum):
            return
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (constructor and attr == "__init__")
            if not public:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    # -- per-op aggregation -----------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._first_of_op = len(self.spans)
        self.counts = defaultdict(float)

    def end_op(self) -> dict:
        """Per-name [calls, self_s, items] for the op just finished, plus counts."""
        self.stack.clear()  # an op interrupted mid-call leaves spans open
        totals: dict = defaultdict(lambda: [0, 0.0, 0])
        spans = self.spans[self._first_of_op:]
        base = self._first_of_op
        for span in spans:
            entry = totals[span[NAME]]
            entry[0] += span[CALLS]
            entry[1] += span[BUSY] - span[CHILDBUSY]
            entry[2] += span[ITEMS]
        # falsifier members: vertices and samples drawn directly inside it
        members = 0
        for span in spans:
            parent = span[PARENT]
            if parent is not None and parent >= base and \
                    self.spans[parent][NAME] == "stability.sampled_falsifier":
                if span[NAME] == "interval_linalg.vertex_matrices":
                    members += span[ITEMS]
                elif span[NAME] == "interval_linalg.sample_matrix":
                    members += span[CALLS]
        counts = dict(self.counts)
        counts["falsifier_members"] = members
        self.op = None
        return {"spans": {k: v for k, v in totals.items()}, "counts": counts}

    def dump(self, path, t0: float) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "busy": s[BUSY], "calls": s[CALLS], "items": s[ITEMS],
                    "parent": s[PARENT], "op": s[OP]}) + "\n")
        return len(self.spans)


# -- counts taken at the same boundaries -------------------------------------------

def _analyze_hook(counts, args, kwargs, verdict):
    counts["analyze_decisive"] += verdict.status.value != "Inconclusive"


def _falsifier_hook(counts, args, kwargs, verdict):
    counts["falsifier_falsified"] += verdict.status.value == "Falsified"


def _radii_hook(counts, args, kwargs, result):
    stack = args[0] if args else kwargs["stack"]
    shape = getattr(stack, "shape", ())
    counts["spectral_radii_matrices"] += int(_prod(shape[:-2]))


def _envelope_hook(counts, args, kwargs, trajectory):
    counts["envelope_box_steps"] += len(trajectory.steps)


def _mc_hook(counts, args, kwargs, runs):
    n_runs, steps, dim = runs.shape
    horizon = steps - 1
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "constant")
    draws = horizon if mode == "timevarying" else 1
    # computed from array sizes: start draws, matrix draws, per-step einsum
    # reads of (N, n, n) and (N, n) and writes of (N, n), and the output
    elems = (n_runs * dim + draws * n_runs * dim * dim
             + horizon * (n_runs * dim * dim + 2 * n_runs * dim) + n_runs * steps * dim)
    counts["mc_member_steps"] += n_runs * horizon
    counts["mc_bytes_computed"] += 8 * elems


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


HOOKS = {
    "stability.analyze": _analyze_hook,
    "stability.sampled_falsifier": _falsifier_hook,
    "stability.spectral_radii": _radii_hook,
    "fdi_sim.envelope_propagate": _envelope_hook,
    "fdi_sim.mc_trajectories": _mc_hook,
}
