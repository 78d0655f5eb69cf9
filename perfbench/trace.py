"""Layer tracing for the benchmark's traced run, from outside the program.

A :class:`LayerTracer` replaces selected public functions and methods of
``repro`` with timing wrappers while it is installed, and puts every
original back when it is removed. Each call records one span
``(name, layer, start, end, parent, op)``: ``parent`` is the index of
the enclosing traced call (``-1`` at top level) and ``op`` the
operation id the benchmark sets before each flush, query or service
pass. Spans stay in memory and are written out once the run ends.

A span's self time is its duration minus the time its child spans
cover; calls are properly nested on one thread, so that is the
duration minus the children's durations. Summing self time by layer
and adding the untraced remainder (``unattributed``) gives back the
wall time of the traced phase exactly.

Functions are wrapped in every loaded ``repro`` module that holds them
by name, because callers look a name up in their own module:
``compile_queries`` is imported into ``repro.core.engine``,
``repro.exec.executor`` and ``repro.service.qos``. Methods are wrapped
on their class, which covers every instance.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

_MISSING = object()

#: ``count(counts, args, kwargs, result)`` adds a call's work to ``counts``.
CountFn = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Probe:
    """One public call to time: ``target`` is ``module:Name[.method]``."""

    layer: str
    target: str
    count: Optional[CountFn] = None

    @property
    def name(self) -> str:
        return self.target.split(":")[1]


class LayerTracer:
    """Installs timing wrappers for a set of probes; see the module doc."""

    def __init__(self, probes: tuple[Probe, ...]) -> None:
        self.probes = probes
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        #: operation id stamped on every span; the benchmark sets it
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _install(self, probe: Probe) -> None:
        module_name, qualname = probe.target.split(":")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = self._wrap(original, probe)
        if path:  # a method: patch the class
            self._patch(owner, attr, wrapper)
            return
        holders = [
            module
            for mod_name, module in list(sys.modules.items())
            if (mod_name == "repro" or mod_name.startswith("repro."))
            and module is not None
            and module.__dict__.get(attr) is original
        ]
        for module in holders:
            self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped name back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        name, layer, count = probe.name, probe.layer, probe.count
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, tracer.op)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    # -- analysis ---------------------------------------------------------

    def summary(self) -> tuple[dict, dict, dict]:
        """``(self seconds by name, self seconds by layer, calls by name)``.

        A span's self time is its duration minus its children's.
        """
        child = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict = defaultdict(float)
        by_layer: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (name, layer, start, end, _p, _op), child_s in zip(
            self.spans, child
        ):
            by_name[name] += (end - start) - child_s
            by_layer[layer] += (end - start) - child_s
            calls[name] += 1
        return by_name, by_layer, calls

    def durations(self, name: str, top_level_only: bool = False) -> list[float]:
        """Inclusive seconds of every span with this name."""
        return [
            span[3] - span[2]
            for span in self.spans
            if span[0] == name and (not top_level_only or span[4] < 0)
        ]

    def write(self, path: Path, origin: float) -> None:
        """One JSON object per span, times in ms from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, layer, start, end, parent, op) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "op": op,
                            "name": name,
                            "layer": layer,
                            "start_ms": round((start - origin) * 1e3, 4),
                            "end_ms": round((end - origin) * 1e3, 4),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
