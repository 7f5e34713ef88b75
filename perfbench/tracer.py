"""Span recorder that measures the program's layers from outside.

The tracer wraps public functions of the ``trajdistill`` modules. Each call
of a wrapped function records one span: its name, start and end time, the
span that was open when it started (its parent), the number of diffcore op
calls made before and after it, and an optional tag computed from the call's
arguments. Spans are kept in memory and written out when the run ends.

A function that a module imports by name (``from .geom import
world_to_agent``) is looked up in the importing module's namespace, so the
wrapper is installed in every ``trajdistill`` module that holds the same
function object, not only where it is defined.

The program is single-threaded, so spans nest: a span's children lie inside
it and do not overlap, and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable

# (span name, module, attribute[, tag function]) for module-level functions.
# The tag function receives the call's positional and keyword arguments.
FUNCTIONS = (
    ("geom.world_to_agent", "geom", "world_to_agent"),
    ("diffcore.conv2d", "diffcore", "conv2d"),
    ("gmm.gaussian2d_logpdf", "gmm", "gaussian2d_logpdf"),
    ("gmm.gaussian_kl", "gmm", "gaussian_kl"),
    ("losses.base_loss", "losses", "base_loss"),
    ("losses.combined_loss", "losses", "combined_loss"),
    ("losses.distill_set_loss", "losses", "distill_set_loss"),
    ("losses.distill_sample_loss", "losses", "distill_sample_loss"),
    ("losses.distill_distribution_loss", "losses", "distill_distribution_loss"),
    ("models.teacher_forward", "models", "teacher_forward"),
    ("models.student_forward_scene", "models", "student_forward_scene"),
    ("models.student_decode_agent", "models", "student_decode_agent"),
    ("models.student_predict", "models", "student_predict", lambda a, kw: len(a[1])),
    ("scenegen.generate_scene", "scenegen", "generate_scene"),
    ("scenegen.load_dataset", "scenegen", "load_dataset"),
    ("metrics.evaluate", "metrics", "evaluate", lambda a, kw: len(a[0])),
    ("train.train_teacher", "train", "train_teacher", lambda a, kw: "teacher"),
    ("train.distill_student", "train", "distill_student", lambda a, kw: a[2].method),
    ("train.adam_step", "train", "adam_step"),
    ("train.clip_global_norm", "train", "clip_global_norm"),
    ("train.predict_dataset", "train", "predict_dataset", lambda a, kw: a[1].kind),
    ("train.load_checkpoint", "train", "load_checkpoint"),
    ("cli.main", "cli", "main"),
)

# (span name, module, class, method[, tag function]) for methods.
METHODS = (
    ("diffcore.Tape.backward", "diffcore", "Tape", "backward", lambda a, kw: len(a[0].nodes)),
    ("train.FrozenTeacher.predict", "train", "FrozenTeacher", "predict"),
    # one call per logged optimizer step; its end marks the step's end
    ("train.TrainLog.append", "train", "TrainLog", "append"),
)

PACKAGE = "trajdistill"

# span record layout
NAME, START, END, PARENT, OPS0, OPS1, TAG = range(7)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str, tag=None) -> int:
        """Open a span; returns its index for :meth:`end`."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self.name_id(name), self.clock(), 0.0, parent, self.ops, 0, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[END] = self.clock()
        rec[OPS1] = self.ops
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[rec[NAME]]!r} closed out of order")

    def wrap(self, fn: Callable, name: str, tag: Callable | None = None) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name, tag(args, kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function where its callers look it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, mod_name, attr, *tag in FUNCTIONS:
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapped = self.wrap(fn, name, tag[0] if tag else None)
            for mod in modules:
                if mod.__dict__.get(attr) is fn:
                    self._set(mod, attr, wrapped)
        for name, mod_name, cls_name, attr, *tag in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            self._set(cls, attr, self.wrap(getattr(cls, attr), name, tag[0] if tag else None))
        # every diffcore op goes through _make: count calls, do not time them
        dc = sys.modules[f"{PACKAGE}.diffcore"]
        make = dc._make

        def counted_make(*args):
            self.ops += 1
            return make(*args)

        self._set(dc, "_make", counted_make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write names and spans as JSON: one [name, start, end, parent,
        ops_start, ops_end, tag] row per span, times in seconds."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ops_start", "ops_end", "tag"],
                       "names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


class SpanIndex:
    """Read-only queries over a finished tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.spans = tracer.spans
        self._by_name: dict[str, list[int]] = {}
        self.children: list[list[int]] = [[] for _ in self.spans]
        for i, rec in enumerate(self.spans):
            self._by_name.setdefault(self.names[rec[NAME]], []).append(i)
            if rec[PARENT] >= 0:
                self.children[rec[PARENT]].append(i)

    def of(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def name(self, i: int) -> str:
        return self.names[self.spans[i][NAME]]

    def duration(self, i: int) -> float:
        rec = self.spans[i]
        return rec[END] - rec[START]

    def self_time(self, i: int) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def ops(self, i: int) -> int:
        rec = self.spans[i]
        return rec[OPS1] - rec[OPS0]

    def tag(self, i: int):
        return self.spans[i][TAG]

    def ancestor(self, i: int, name: str) -> int:
        """Nearest enclosing span called ``name``, or -1."""
        p = self.spans[i][PARENT]
        while p >= 0 and self.name(p) != name:
            p = self.spans[p][PARENT]
        return p

    def outermost(self, name: str) -> list[int]:
        """Spans called ``name`` that are not nested in another of that name."""
        return [i for i in self.of(name) if self.ancestor(i, name) < 0]

    def steps(self, train_span: int) -> list[tuple[float, float, list[int]]]:
        """Optimizer steps of one training call as (start, end, spans).

        A step ends when its log record is appended; the next one starts
        there. The spans of a step are the training call's direct children
        that start inside it.
        """
        kids = self.children[train_span]
        out = []
        start = self.spans[train_span][START]
        pending: list[int] = []
        for c in kids:
            pending.append(c)
            if self.name(c) == "train.TrainLog.append":
                end = self.spans[c][END]
                out.append((start, end, pending))
                start, pending = end, []
        return out
