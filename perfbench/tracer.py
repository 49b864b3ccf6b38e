"""Module-boundary span tracer for in-process sglight runs.

`Tracer.install()` wraps every public function (no leading `_`) defined in
each sglight module and rebinds every name bound to it: module globals,
including names other modules imported with `from .x import y`, and values
of module-level dicts such as `metrics.METRICS`. `uninstall()` restores
them all. Nothing under `src/` is edited.

A span opens only when a call crosses from one module into another; calls
within a module run straight through. Repeated calls of one function from
the same parent span (the per-pixel loops) collapse into one span node that
carries a call count, so a traced run keeps one node per call path, not one
per call. A node's self time is its duration minus its child spans'.

The CLI is the only module that starts threads (`render --threads N`).
While its workers run, the main thread waits inside the `cli.main` span, so
`module_times` moves that waiting time from `cli` to the workers' modules
in proportion to their self time; the module self times then still add up
to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "sglight"


class _Node:
    """All calls of one function along one call path (collapsed span)."""

    __slots__ = ("name", "module", "children", "calls", "total", "self_time",
                 "first_start", "intervals")

    def __init__(self, name, module):
        self.name = name
        self.module = module
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.first_start = None
        self.intervals = []  # (start, end) of each call; kept for worker roots

    def child(self, name, module):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name, module)
        return node

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()


class _Frame:
    __slots__ = ("node", "child")

    def __init__(self, node):
        self.node = node
        self.child = 0.0


class Tracer:
    """Wraps sglight's public functions and records collapsed spans per op."""

    def __init__(self, observers=None):
        self.observers = observers or {}  # qualname -> fn(args, kwargs, result)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._origin = time.perf_counter()
        self.op = None
        self.ops = []  # (op id, label)
        self._roots = {}  # (op, thread ident) -> root _Node (module None)
        self._main = threading.main_thread().ident

    # installation ---------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            if not info.name.startswith("_"):
                importlib.import_module(f"{PACKAGE}.{info.name}")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, short, f"{short}.{name}")
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((vars(mod), name, obj))
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._patches.append((obj, key, val))
                            obj[key] = wrappers[val]

    def uninstall(self) -> None:
        while self._patches:
            space, key, original = self._patches.pop()
            space[key] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.op = None

    def begin_op(self, label: str) -> int:
        """Start a new op (one CLI invocation); spans until the next belong to it."""
        self.op = len(self.ops)
        self.ops.append((self.op, label))
        return self.op

    # recording ------------------------------------------------------------

    def _root(self):
        key = (self.op, threading.get_ident())
        root = self._roots.get(key)
        if root is None:
            with self._lock:
                root = self._roots.setdefault(key, _Node("root", None))
        return root

    def _wrap(self, fn, module, qualname):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if tracer.op is None or (stack and stack[-1].node.module == module):
                return fn(*args, **kwargs)
            parent = stack[-1].node if stack else tracer._root()
            frame = _Frame(parent.child(qualname, module))
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                node = frame.node
                node.calls += 1
                node.total += end - start
                node.self_time += end - start - frame.child
                if node.first_start is None:
                    node.first_start = start
                if stack:
                    stack[-1].child += end - start
                else:
                    node.intervals.append((start, end))
            observe = tracer.observers.get(qualname)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # reporting ------------------------------------------------------------

    def _op_roots(self, op):
        main, workers = None, []
        for (o, ident), root in self._roots.items():
            if o == op:
                if ident == self._main:
                    main = root
                else:
                    workers.append(root)
        return main, workers

    def module_times(self) -> dict:
        """Per module: wall-attributed self seconds and boundary calls, plus
        the traced total (`total`), summed over all ops."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        total = 0.0
        for op, _ in self.ops:
            main, workers = self._op_roots(op)
            if main is None:
                continue
            op_self, worker_self, spans = defaultdict(float), defaultdict(float), []
            for node in main.walk():
                if node.module is not None:
                    op_self[node.module] += node.self_time
                    calls[node.module] += node.calls
            for root in workers:
                for node in root.walk():
                    if node.module is not None:
                        worker_self[node.module] += node.self_time
                        calls[node.module] += node.calls
                for top in root.children.values():
                    spans.extend(top.intervals)
            busy = min(_union(spans), op_self["cli"])
            share = sum(worker_self.values())
            if busy > 0.0 and share > 0.0:
                op_self["cli"] -= busy
                for mod, sec in worker_self.items():
                    op_self[mod] += busy * sec / share
            for mod, sec in op_self.items():
                self_s[mod] += sec
            total += sum(c.total for c in main.children.values())
        return {"self_s": dict(self_s), "calls": dict(calls), "total": total}

    def chrome_events(self) -> list:
        """Chrome trace-event list: one track per op and thread, `op` in args."""
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": PACKAGE}}]
        for op, label in self.ops:
            main, workers = self._op_roots(op)
            for k, root in enumerate([main, *workers]):
                if root is None:
                    continue
                tid = op * 16 + k
                name = f"op {op}: {label}" + (f" (worker {k})" if k else "")
                events.append({"ph": "M", "pid": 1, "tid": tid,
                               "name": "thread_name", "args": {"name": name}})
                floor = None
                for node in root.children.values():
                    floor = self._emit(events, node, op, tid, floor, None)
        return events

    def _emit(self, events, node, op, tid, floor, ceiling):
        """Append node and its children; collapsed siblings are laid end to
        end so they nest inside their parent. Returns the node's end (us)."""
        ts = (node.first_start - self._origin) * 1e6
        if floor is not None:
            ts = max(ts, floor)
        dur = node.total * 1e6
        if ceiling is not None:
            dur = max(0.0, min(dur, ceiling - ts))
        events.append({
            "ph": "X", "pid": 1, "tid": tid, "name": node.name, "cat": node.module,
            "ts": round(ts, 3), "dur": round(dur, 3),
            "args": {"op": op, "calls": node.calls,
                     "self_ms": round(node.self_time * 1e3, 6)},
        })
        child_floor = ts
        for c in node.children.values():
            child_floor = self._emit(events, c, op, tid, child_floor, ts + dur)
        return ts + dur

    def write_chrome(self, path, metadata=None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms",
                       "otherData": metadata or {}}, fh)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            covered += e - s
            end = e
        elif e > end:
            covered += e - end
            end = e
    return covered
