"""Span tracing of the ultraheat modules, from outside the package.

``Tracer.install`` replaces every public function of the package modules
with a wrapper, in every module namespace that binds it (so both
``operators.generator`` and ``spectra.generator`` are traced, under the
one name ``operators.generator``).  ``uninstall`` puts the originals back.

A wrapper records a span only while ``active`` is set, so the benchmark's
own checks between timed calls leave no spans.  A span is
``(name, start, end, parent, error)``, kept in memory and written as JSONL
by ``write_jsonl``.  Worker threads (``parallel_toposort`` at parallelism
> 1) have their own span stacks; their top-level spans take as parent the
span open in the thread that activated tracing.

A span's self time is its duration minus the union of its children's
intervals.  Post hooks add counts that the spans cannot show (cells
enumerated, dense bytes, bytes written, largest eigensolve).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict

MODULES = (
    "cli",
    "serialize",
    "multitopo",
    "ultraindex",
    "padic",
    "operators",
    "spectra",
    "heat",
    "linalg",
    "toposort",
)


def _span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        return f"cli.{func[4:]}"
    return f"{module}.{func}"


def _path_bytes(args, out):
    return os.path.getsize(args[0])


# span name -> (counter key, whether the counter keeps the maximum rather
# than the sum, value computed from the call's positional args and result).
# Summed counters go to Tracer.counts, maxima to Tracer.maxima.
POST_HOOKS = {
    "ultraindex.build_dendrogram": (
        "ultraindex.levels", False,
        lambda args, out: len({node.radius for node in out.internal_nodes()}),
    ),
    "padic.discretize": ("padic.cells", False, lambda args, out: len(out)),
    "operators.generator": ("operators.dense_bytes", False, lambda args, out: out.n_cells**2 * 8),
    "operators.truncated_domain": (
        "operators.truncated_domain.cells", False, lambda args, out: len(out[0]),
    ),
    "linalg.weighted_symmetric_eig": (
        "linalg.weighted_symmetric_eig.max_dim", True, lambda args, out: len(out[0]),
    ),
    "serialize.write_canonical": ("serialize.bytes_written", False, _path_bytes),
    "serialize.matrix_export": ("serialize.bytes_written", False, _path_bytes),
    "serialize.spectrum_export": ("serialize.bytes_written", False, _path_bytes),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list = []
        self._patched: list = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("ultraheat")
        modules = {name: importlib.import_module(f"ultraheat.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(_span_name(short, attr), obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def activate(self) -> None:
        self._local.stack = self._owner_stack
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            record = [name, 0.0, 0.0, parent, None]
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(sid)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                key, keep_max, value = hook
                v = value(args, out)
                if keep_max:
                    tracer.maxima[key] = max(tracer.maxima[key], v)
                else:
                    tracer.counts[key] += v
            return out

        return wrapper

    # -- analysis ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        children = defaultdict(list)
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for sid, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cur_start = cur_end = None
            for s, e in sorted(children.get(sid, ())):
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append(end - start - covered)
        return out

    def summary(self) -> dict:
        """Per span name: calls, self_s and errors (by type)."""
        stats: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": {}})
        for (name, _, _, _, err), self_s in zip(self.spans, self.self_times()):
            rec = stats[name]
            rec["calls"] += 1
            rec["self_s"] += self_s
            if err is not None:
                rec["errors"][err] = rec["errors"].get(err, 0) + 1
        return dict(stats)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, (name, start, end, parent, err) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "error": err,
                }) + "\n")
