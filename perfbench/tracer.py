"""Per-layer tracing by wrapping quivrep's public functions from outside.

Each target function is replaced, in every loaded ``quivrep`` module that
binds it (``torsion`` imports ``decompose`` by name, the package re-exports
everything), by a wrapper that opens a span, counts the call and times it.
A generator is timed per ``next()``.  The program itself is not edited, so a
function that a later refactor removes is recorded as absent instead of
failing the run.

Spans stay in memory (four flat arrays) until ``write_spans``.  Each span
has a name, a start, an end and the id of the span that was open when it
started; the benchmark opens one ``item`` span per item, so every span
leads up to the item that caused it.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from dataclasses import dataclass

import numpy

KINDS = ("calls", "self_s", "total_s", "errors", "yielded", "tuples", "cells", "useful_ratio")


@dataclass
class Stat:
    calls: int = 0
    resumes: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0
    yielded: int = 0
    tuples: int = 0
    cells: int = 0
    depth: int = 0

    def value(self, kind: str) -> float:
        if kind == "useful_ratio":
            return self.yielded / self.tuples if self.tuples else 0.0
        return getattr(self, kind)


class Tracer:
    def __init__(self, targets: list[tuple[str, str]]):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open frames: [span id, time spent in wrapped children].
        self._stack: list[list] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int, t0: float) -> list:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(t0)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float, stat: Stat | None) -> None:
        self._stack.pop()
        self.span_end[frame[0]] = t1
        dt = t1 - t0
        if self._stack:
            self._stack[-1][1] += dt
        if stat is not None:
            stat.self_s += dt - frame[1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def item(self):
        """Context manager for the span of one benchmark item."""
        return _ItemSpan(self, self._name_id("item"))

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "quivrep" or name.startswith("quivrep.")]
        for module_name, func_name in self.targets:
            key = f"{module_name}.{func_name}"
            home = sys.modules.get(f"quivrep.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            stat = self.stats[key] = Stat()
            name_id = self._name_id(key)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, stat, name_id, key)
            else:
                wrapper = self._wrap_function(original, stat, name_id, key)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap_function(self, original, stat: Stat, name_id: int, key: str):
        tracer = self
        count_cells = key == "linalg.rref"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if count_cells:
                shape = numpy.shape(args[0])
                stat.cells += int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0
            outermost = stat.depth == 0
            stat.depth += 1
            t0 = clock()
            frame = tracer._open(name_id, t0)
            try:
                return original(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = clock()
                stat.depth -= 1
                if outermost:
                    stat.total_s += t1 - t0
                tracer._close(frame, t0, t1, stat)

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    def _wrap_generator(self, original, stat: Stat, name_id: int, key: str):
        tracer = self
        count_tuples = key == "linrep.enumerate_subreps"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            inner = original(*args, **kwargs)
            while True:
                stat.resumes += 1
                t0 = clock()
                frame = tracer._open(name_id, t0)
                try:
                    value = next(inner)
                except StopIteration:
                    if count_tuples:
                        stat.tuples += _subspace_tuples(args[0])
                    return
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    t1 = clock()
                    stat.total_s += t1 - t0
                    tracer._close(frame, t0, t1, stat)
                stat.yielded += 1
                yield value

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    # -- output ------------------------------------------------------------

    def metric(self, name: str) -> float:
        """Value of ``<module>.<function>.<kind>``; 0 for a function that is
        absent or never called."""
        key, kind = name.rsplit(".", 1)
        if kind not in KINDS:
            raise KeyError(f"unknown per-layer metric kind {kind!r} in {name}")
        stat = self.stats.get(key)
        return stat.value(kind) if stat is not None else 0

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start, end (seconds on the
        perf_counter clock)."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for sid in range(len(self.span_name)):
                out.write(
                    f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}"
                    f"\t{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )


class _ItemSpan:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.frame = self.tracer._open(self.name_id, self.t0)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, self.t0, time.perf_counter(), None)
        return False


def _subspace_tuples(rep) -> int:
    """Subspace tuples the subrep enumerator walks for ``rep``: the product
    over vertices of the number of subspaces of F_p^dim."""
    from quivrep import linalg

    total = 1
    for d in rep.dims:
        total *= linalg.count_subspaces(d, rep.field.p)
    return total
