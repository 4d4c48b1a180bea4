"""Span recording around the public functions of each tactherm layer.

The program itself is not instrumented: the benchmark replaces module
attributes with thin wrappers for the duration of a traced run and restores
them afterwards. Names are bound where the caller looks them up (for
example ``pipeline.solve_elastic``, which ``run_model`` resolves through the
``pipeline`` module globals), so every call made by the program goes through
a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name). A span name is "<layer>.<call>".
LAYER_CALLS = (
    ("tactherm.pipeline", "place_prism", "geometry.place_prism"),
    ("tactherm.pipeline", "build_mesh", "mesh.build_mesh"),
    ("tactherm.pipeline", "solve_elastic", "fem.solve_elastic"),
    ("tactherm.pipeline", "deform_mesh", "fem.deform_mesh"),
    ("tactherm.pipeline", "solve_heat", "fem.solve_heat"),
    ("tactherm.pipeline", "extract_profile", "signature.extract_profile"),
    ("tactherm.pipeline", "fit_fourier4", "signature.fit_fourier4"),
    ("tactherm.pipeline", "max_surface_temp", "signature.max_surface_temp"),
    ("tactherm.pipeline", "run_model", "pipeline.run_model"),
    ("tactherm.pipeline.RunManifest", "save", "pipeline.manifest_save"),
    ("tactherm.cli", "run_sweep", "pipeline.run_sweep"),
    ("tactherm.cli", "mesh_study", "pipeline.mesh_study"),
    ("tactherm.cli", "run_learning", "learn.run_learning"),
    ("tactherm.cli", "make_figures", "svgplot.make_figures"),
)
# Artifact writers are imported by name into several modules; every binding
# of the original function in a tactherm module is replaced.
TEXTIO_CALLS = (
    ("write_csv", "textio.write_csv"),
    ("atomic_write_text", "textio.atomic_write_text"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Recorder.spans, -1 for a root span
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _text_bytes(_name, args, kwargs, _result) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


def _resolve(dotted: str):
    """Import ``a.b`` or return class ``a.b.C`` from its module."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Recorder:
    """Keeps spans in memory while installed; one per traced run.

    ``on_result`` hooks receive ``(span_name, args, kwargs, result)`` after a
    wrapped call returns, outside the span's interval. A hook may return a
    dict of counts to attach to the span. Untraced, only the calls that have
    a hook are wrapped, and no clock is read.
    """

    def __init__(self, trace: bool = True):
        self.trace = trace
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.on_result: dict = {"textio.atomic_write_text": _text_bytes}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner_name, attr, span_name in LAYER_CALLS:
            if not self.trace and span_name not in self.on_result:
                continue
            owner = _resolve(owner_name)
            self._patch(owner, attr, span_name)
        if self.trace:
            textio_mod = importlib.import_module("tactherm.textio")
            for attr, span_name in TEXTIO_CALLS:
                original = getattr(textio_mod, attr)
                wrapper = self._wrap(original, span_name)
                for name, mod in sorted(sys.modules.items()):
                    if name.startswith("tactherm") and getattr(mod, attr, None) is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr: str, span_name: str) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, span_name))

    def _wrap(self, fn, span_name: str):
        hook = self.on_result.get(span_name)
        if not self.trace:
            @functools.wraps(fn)
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(span_name, args, kwargs, result)
                return result
            return captured

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(span_name, 0.0, parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.counts.update(hook(span_name, args, kwargs, result) or {})
            return result
        return traced

    # -- queries ----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def layer_busy(self, layer: str) -> float:
        """Time inside a layer, counting nested spans of that layer once."""
        return sum(
            s.seconds
            for s in self.spans
            if s.layer == layer
            and (s.parent < 0 or self.spans[s.parent].layer != layer)
        )

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover."""
        idx = {i for i, s in enumerate(self.spans) if s.name == name}
        child = sum(s.seconds for s in self.spans if s.parent in idx)
        return self.total(name) - child

    def uncalled(self) -> list[str]:
        """Wrapped calls the run never made; their layers read 0."""
        called = {s.name for s in self.spans}
        names = [c[2] for c in LAYER_CALLS] + [c[1] for c in TEXTIO_CALLS]
        return [n for n in names if n not in called]

    def children_share(self, name: str) -> float:
        """Share of the named spans' time covered by their direct children."""
        total = self.total(name)
        return (total - self.self_time(name)) / total if total else 0.0
