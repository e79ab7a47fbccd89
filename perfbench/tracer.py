"""In-memory span tracer that wraps the program's public functions.

The program itself is not instrumented.  `Tracer.install` replaces every
public function of the traced layers, wherever a pihall module holds a
reference to it, with a wrapper that records one span per call: name,
start, end and parent.  Self time is a span's duration minus the part of
it covered by its child spans; it is accumulated per function and per
layer (module) as the spans close.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("arith", "groups", "classify", "cli", "bruteforce")


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        # one entry per span, in the order the spans opened
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span index, time covered by children]
        self._active: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.inclusive_s: dict = defaultdict(float)  # outermost calls only
        self.self_s: dict = defaultdict(float)
        self.layer_self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, layer: str) -> None:
        end = perf_counter()
        idx = frame[0]
        self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        own = dur - frame[1]
        self.calls[name] += 1
        self.self_s[name] += own
        self.layer_self_s[layer] += own
        if not self._active[name]:
            self.inclusive_s[name] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def traced(self, name: str, layer: str, fn):
        """fn wrapped so that each call records a span."""
        nid = self._name_id(name)
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
                self._close(frame, name, layer)

        return wrapper

    @contextmanager
    def span(self, name: str, layer: str):
        """Record one span around benchmark code."""
        frame = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(frame, name, layer)

    def counted(self, name: str, fn):
        """fn wrapped so that calls are counted, without a span (hot paths)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "pihall" or modname.startswith("pihall.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self, hooks: dict) -> None:
        """Wrap every public function of the traced layers.

        hooks maps "layer.function" to a callable taking and returning the
        traced wrapper, for metrics that need the arguments or the result.
        """
        for layer in LAYERS:
            module = importlib.import_module(f"pihall.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.traced(name, layer, fn)
                if name in hooks:
                    wrapped = hooks[name](wrapped)
                self._replace_everywhere(fn, wrapped)

    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, spans_path, summary: dict) -> None:
        """Gzipped tab-separated spans (id, parent, name, start_us, end_us)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("# summary " + json.dumps(summary, sort_keys=True) + "\n")
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - t0) * 1e6:.1f}\n"
                )
