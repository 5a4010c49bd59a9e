"""In-memory span tracer that instruments blackwell_audit from the outside.

``Tracer.install`` replaces every public function of the traced modules,
and scipy's ``linprog`` where a module imports it, at every module
attribute of the package that refers to it (``auditor.simplex_lattice``,
``geometry.linprog``, ``experiments.linprog``, ...).  No source file of
the package is touched; ``uninstall`` puts the originals back.

Each call becomes one span: name, start, end, parent span, the audit id
set by the caller, whether it raised, and an optional number taken from
its arguments or result.  Spans are stored in flat typed arrays, so a
traced pass costs about 40 bytes per call, and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import types
from array import array
from typing import Callable, Dict, Iterable, List, Optional

#: Modules whose public functions are traced, in import order.
LAYERS = ("geometry", "experiments", "distortions", "decision", "auditor", "cli")
PACKAGE = "blackwell_audit"

#: (args, kwargs, result) -> number recorded with the span.
Extractor = Callable[[tuple, dict, object], float]


class Tracer:
    def __init__(self, extractors: Optional[Dict[str, Extractor]] = None) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.audit = array("i")
        self.failed = array("b")
        self.nested = array("b")  # a span of the same name is already open
        self.subtree_end = array("i")  # one past the last descendant's index
        self.value = array("d")
        self.audit_id = -1
        self._stack: List[int] = []
        self._depth: List[int] = []
        self._extractors = dict(extractors or {})
        self._undo: List[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        extract = self._extractors.get(name)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.audit.append(self.audit_id)
            self.nested.append(1 if depth[nid] else 0)
            self.failed.append(0)
            self.value.append(0.0)
            self.end.append(0.0)
            self.subtree_end.append(0)
            stack.append(i)
            depth[nid] += 1
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = clock()
                depth[nid] -= 1
                stack.pop()
                self.subtree_end[i] = len(self.name)
            if extract is not None:
                try:
                    self.value[i] = extract(args, kwargs, out)
                except Exception:  # a metric must never change the traced call
                    self.value[i] = float("nan")
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS at every module that holds them."""
        from scipy.optimize import linprog

        targets = {}
        for short in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        sites = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        wrappers: Dict[int, Callable] = {}
        for mod in sites:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if obj is linprog:
                    self._replace(mod, attr, self.wrap(f"{short}.linprog", obj))
                elif id(obj) in targets and targets[id(obj)][0] is obj:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.wrap(targets[id(obj)][1], obj)
                    self._replace(mod, attr, wrappers[id(obj)])

    def _replace(self, mod, attr: str, new) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, old = self._undo.pop()
            setattr(mod, attr, old)

    @staticmethod
    def span_cost(calls: int = 100_000) -> float:
        """Seconds that tracing adds to one call: a traced no-op against a plain one."""
        def noop():
            return None

        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return ((t2 - t1) - (t1 - t0)) / calls

    # ------------------------------------------------------------------
    # Queries over the recorded spans
    # ------------------------------------------------------------------

    def ids(self, names: Iterable[str]) -> set:
        return {self._ids[n] for n in names if n in self._ids}

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def spans(self, names: Iterable[str]) -> List[int]:
        """Indices of the spans with one of ``names``, skipping nested repeats."""
        want = self.ids(names)
        return [i for i in range(len(self.name)) if self.name[i] in want and not self.nested[i]]

    def time_in(self, names: Iterable[str], within: Optional[int] = None) -> float:
        """Time spent in the outermost spans named ``names``, all of them or
        only the descendants of span ``within``."""
        want = self.ids(names)
        if within is None:
            j, stop = 0, len(self.name)
        else:
            j, stop = within + 1, self.subtree_end[within]
        total = 0.0
        while j < stop:
            if self.name[j] in want:
                total += self.duration(j)
                j = self.subtree_end[j]
            else:
                j += 1
        return total

    def self_time(self) -> array:
        """Per span: its duration minus the time its direct children cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, failures, value sum."""
        own = self.self_time()
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "value": 0.0} for n in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[i]
            row["failed"] += self.failed[i]
            row["value"] += self.value[i]
            if not self.nested[i]:
                row["s"] += self.end[i] - self.start[i]
        return out

    def counts_by_audit(self) -> Dict[int, Dict[str, int]]:
        """Calls per span name, per audit id: the counts a rerun must repeat."""
        out: Dict[int, Dict[str, int]] = {}
        for nid, aid in zip(self.name, self.audit):
            row = out.setdefault(aid, {})
            key = self.names[nid]
            row[key] = row.get(key, 0) + 1
        return out

    def write(self, path) -> None:
        """Write every span, columnar, as gzip-compressed JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "audit", "failed", "self_s", "value"],
            "name": list(self.name),
            "start_s": [round(v - t0, 9) for v in self.start],
            "end_s": [round(v - t0, 9) for v in self.end],
            "parent": list(self.parent),
            "audit": list(self.audit),
            "failed": list(self.failed),
            "self_s": [round(v, 9) for v in self.self_time()],
            "value": list(self.value),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
