"""Per-function aggregates and outer-operation spans for the traced run.

The tracer rebinds every public function of the seven library modules
in every ``zigzag_harmonics`` namespace that holds it.  Callers import
names with ``from .x import f``, so patching only the defining module
would miss them; the suite registry ``verify.SUITES`` holds references
too and is patched as well.  Function-local imports (``from .templates
import flange_and_sections`` inside a suite) read the module attribute
at call time and so see the wrapper.

Inner calls are kept as aggregates (calls, inclusive busy time, self
time), because a level scan makes hundreds of thousands of them.  Spans
(name, start, end, parent) are kept only for the benchmark's outer
operations and for the suites.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("words", "templates", "paintbox", "qsym", "semifinite", "verify", "cli")
PACKAGE = "zigzag_harmonics"


class Tracer:
    def __init__(self) -> None:
        # key -> [calls, busy_s, self_s, active depth]
        self.stats: dict[str, list] = {}
        # (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list[float]] = []   # per active call: [child time]
        self._open_spans: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin_span(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open_spans.append(len(self.spans) - 1)
        return self._open_spans[-1]

    def end_span(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._open_spans.pop()

    # -- function wrappers ---------------------------------------------------

    def _wrap(self, key: str, fn, span_name: str | None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            frame = [0.0]
            stack.append(frame)
            span = self.begin_span(span_name) if span_name else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if span is not None:
                    self.end_span(span)
                stack.pop()
                stat[3] -= 1
                if not stat[3]:         # outermost activation: no double count
                    stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        suites = modules["verify"].SUITES
        suite_names = {}
        for name, fn in suites.items():
            suite_names.setdefault(fn, name)  # the alias comes after the name
        wrapped = {}
        for short, module in modules.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                span = f"verify.{suite_names[obj]}" if obj in suite_names else None
                wrapped[obj] = self._wrap(f"{short}.{name}", obj, span)
        for ns in namespaces:
            for name, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((ns, name, obj))
                    ns[name] = wrapped[obj]
        for name, fn in list(suites.items()):
            self._restore.append((suites, name, fn))
            suites[name] = wrapped[fn]

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._restore):
            ns[name] = obj
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def aggregates(self) -> dict[str, dict[str, float]]:
        return {key: {"calls": s[0], "busy_s": s[1], "self_s": s[2]}
                for key, s in self.stats.items()}
