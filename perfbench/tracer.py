"""In-memory span tracer that wraps the public API of the photoref package.

Every public function, and every public method of a public class, defined in
a ``photoref`` module is replaced by a wrapper that records one span:
``[name, layer, start, end, parent, error, attrs]``.  The layer is the short
name of the defining module (``fit``, ``coupler``, ...).  A function is
re-bound in every module namespace that holds it, because modules import
each other's functions by name (``fit.py`` calls its own binding of
``coupler_reflectivity``); patching only the defining module would miss
those calls.

A few functions also record counts at the same boundary (``attrs``): points
passed to ``refractive_index``, rows read or written by the CSV layer, and
residual evaluations, iterations and convergence of each ``least_squares``
run.  Spans stay in memory; callers write them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("cli", "config", "data", "material", "cavity", "coupler", "spdc", "fit")
HARNESS_LAYER = "bench"

# Span record fields.
NAME, LAYER, START, END, PARENT, ERROR, ATTRS = range(7)


def _refractive_index_attrs(args, kwargs, result):
    wavelengths = kwargs.get("wavelength_nm", args[1] if len(args) > 1 else None)
    return {"points": int(np.size(wavelengths))}


def _read_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _write_columns_attrs(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    columns = kwargs.get("columns", args[2] if len(args) > 2 else ())
    columns = list(columns)
    rows = len(columns[0]) if columns else 0
    return {"rows": rows, "bytes": os.path.getsize(path)}


# Counts recorded after a call returns, keyed by "module.qualname".
_AFTER_HOOKS = {
    "material.refractive_index": _refractive_index_attrs,
    "data.read_trace_csv": _read_attrs,
    "data.read_sweep_csv": _read_attrs,
    "data.write_columns_csv": _write_columns_attrs,
}


class Tracer:
    """Collects spans from wrapped photoref calls and from harness blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        record = [name, layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = HARNESS_LAYER):
        """Span around a block of harness code; calls inside become children."""
        record = self._open(name, layer)
        try:
            yield
        except BaseException:
            record[ERROR] = 1
            raise
        finally:
            self._close(record)

    def _wrap(self, fn, name: str, layer: str):
        after = _AFTER_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = 1
                raise
            finally:
                tracer._close(record)
            if after is not None:
                record[ATTRS] = after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_least_squares(self, fn, name: str, layer: str):
        """Also count residual evaluations by wrapping the problem's callable."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(problem, *args, **kwargs):
            evals = [0]
            residual = problem.residual

            def counted(params):
                evals[0] += 1
                return residual(params)

            problem.residual = counted
            record = tracer._open(name, layer)
            try:
                result = fn(problem, *args, **kwargs)
            except BaseException:
                record[ERROR] = 1
                raise
            finally:
                tracer._close(record)
                problem.residual = residual
            record[ATTRS] = {
                "evals": evals[0],
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
            }
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap photoref's public API in place."""
        root = importlib.import_module("photoref")
        modules = [importlib.import_module(f"photoref.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    factory = self._wrap_least_squares if name == "fit.least_squares" else self._wrap
                    wrapped[id(obj)] = factory(obj, name, layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for namespace in [root, *modules]:
            for attr, obj in list(vars(namespace).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, replacement)

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                replacement = self._wrap(member, name, layer)
            elif isinstance(member, (classmethod, staticmethod)):
                replacement = type(member)(self._wrap(member.__func__, name, layer))
            else:
                continue
            self._restore.append((cls, attr, member))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def dump_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh, separators=(",", ":"))


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
