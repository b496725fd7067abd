"""Per-layer wall-time attribution, measured from outside the program.

:class:`LayerTracer` patches the public entry points of each layer of
the simulator (class attributes, restored by :meth:`LayerTracer.uninstall`)
with wrappers that keep a stack of open frames.  Each frame is one layer
busy on behalf of one span; when a frame closes, its duration minus the
time of the frames nested inside it is that layer's *self* time.  A root
frame (layer ``unattributed``) spans the whole traced region, so the
per-layer self times plus the root's own remainder add up to the traced
wall time by construction — :meth:`LayerTracer.attribution` re-checks it.

Entry points that are generator functions (``ServiceSwitch.serve``,
``VirtualServiceNode.serve``, ...) do their work only when the event
kernel resumes them, so their wrapper is itself a generator that times
every resume.  It forwards ``send``/``throw``/``close`` unchanged and
yields exactly what the wrapped generator yields, so the simulation
schedules the same events in the same order and its digests do not move.

Callbacks the kernel dispatches directly (``LAN._flush``, the LAN wake-up,
the fluid fleet's processes) have no public entry point.  They are timed
by :class:`AttributingProfiler`, a :class:`~repro.obs.profiler.KernelProfiler`
that also subtracts the wrapped frames nested in each dispatch, so a
callback site's self time can be moved from the kernel to its layer
without counting anything twice.
"""

from __future__ import annotations

import functools
import inspect
import re
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.profiler import KernelProfiler

ROOT_LAYER = "unattributed"

#: Kernel callback sites moved from ``kernel`` to another layer, by
#: substring of the profiler's site name.
SITE_LAYERS = (("LAN.", "lan"), ("fluid", "fluid"))

_DIGITS = re.compile(r"\d+")


class LayerTracer:
    """Spans and self time per layer around patched entry points."""

    def __init__(self, run_id: str, span_capacity: int = 400_000):
        self.run_id = run_id
        self.span_capacity = span_capacity
        #: layer -> self seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: entry-point name -> calls
        self.calls: Dict[str, int] = defaultdict(int)
        #: (span id, parent span id, name, start, end), host seconds
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.spans_dropped = 0
        self.wall_s = 0.0
        # Open frames: [layer, span id, start, nested seconds, nested
        # seconds already charged to a profiler site].
        self._stack: List[list] = []
        self._next_span = 0
        self._patches: List[Tuple[type, str, Any]] = []

    # -- frames ----------------------------------------------------------
    def _new_span(self) -> Tuple[int, int]:
        self._next_span += 1
        return self._next_span, self._stack[-1][1]

    def _enter(self, layer: str, span_id: int) -> None:
        self._stack.append([layer, span_id, time.perf_counter(), 0.0, 0.0])

    def _exit(self) -> Tuple[float, float]:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame[2]
        self.self_s[frame[0]] += duration - frame[3]
        self._stack[-1][3] += duration
        return frame[2], end

    def _record(self, span_id: int, parent: int, name: str, start: float, end: float) -> None:
        if len(self.spans) < self.span_capacity:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.spans_dropped += 1

    def top_frame(self) -> list:
        return self._stack[-1]

    # -- the traced region -------------------------------------------------
    def run(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` inside the root frame; sets :attr:`wall_s`."""
        if self._stack:
            raise RuntimeError("traced region already open")
        self._stack.append([ROOT_LAYER, 0, 0.0, 0.0, 0.0])  # the root's parent
        self._enter(ROOT_LAYER, 0)
        try:
            return fn()
        finally:
            start, end = self._exit()
            self.wall_s = end - start
            self._stack.pop()
            if self._stack:
                raise RuntimeError(f"{len(self._stack)} frames left open")

    # -- patching ----------------------------------------------------------
    def wrap(
        self,
        owner: type,
        attr: str,
        layer: str,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Patch ``owner.attr`` (a function or generator function)."""
        original = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                tracer.calls[name] += 1
                if on_call is not None:
                    on_call(*args, **kwargs)
                inner = original(*args, **kwargs)
                outer = tracer._drive(inner, layer, name)
                outer.__name__ = inner.__name__  # processes are named after it
                outer.__qualname__ = inner.__qualname__
                return outer

        else:

            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                tracer.calls[name] += 1
                if on_call is not None:
                    on_call(*args, **kwargs)
                span_id, parent = tracer._new_span()
                tracer._enter(layer, span_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    start, end = tracer._exit()
                    tracer._record(span_id, parent, name, start, end)

        self.patch(owner, attr, traced)

    def patch(self, owner: type, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the original back."""
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def _drive(self, inner, layer: str, name: str):
        """Re-yield ``inner``'s events, timing each resume as one frame."""
        span_id, parent = self._new_span()
        first = None
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self._enter(layer, span_id)
            try:
                yielded = inner.send(value) if error is None else inner.throw(error)
            except StopIteration as stop:
                start, end = self._exit()
                self._record(span_id, parent, name, start if first is None else first, end)
                return stop.value
            except BaseException:
                start, end = self._exit()
                self._record(span_id, parent, name, start if first is None else first, end)
                raise
            start, _end = self._exit()
            if first is None:
                first = start
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the wrapped generator
                value, error = None, exc

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def attribution(self, profiler: Optional["AttributingProfiler"] = None) -> Dict[str, float]:
        """Self seconds per layer, callback sites moved out of ``kernel``.

        Raises ``ValueError`` if the self times plus the unattributed
        remainder do not add up to the traced wall, or one is negative.
        """
        layers = dict(self.self_s)
        if profiler is not None:
            for site, seconds in profiler.site_self_s.items():
                for needle, layer in SITE_LAYERS:
                    if needle in site:
                        layers["kernel"] = layers.get("kernel", 0.0) - seconds
                        layers[layer] = layers.get(layer, 0.0) + seconds
                        break
        total = sum(layers.values())
        if abs(total - self.wall_s) > 1e-6 * max(1.0, self.wall_s):
            raise ValueError(
                f"self times sum to {total:.6f}s, traced wall is {self.wall_s:.6f}s"
            )
        negative = {k: v for k, v in layers.items() if v < -1e-6 * max(1.0, self.wall_s)}
        if negative:
            raise ValueError(f"negative self time: {negative}")
        return layers

    def spans_document(self, workload: str, seed: int) -> Dict[str, Any]:
        return {
            "format": "perfbench-spans/1",
            "run_id": self.run_id,
            "workload": workload,
            "seed": seed,
            "fields": ["span_id", "parent_id", "name", "start_s", "end_s"],
            "dropped": self.spans_dropped,
            "spans": self.spans,
        }


class AttributingProfiler(KernelProfiler):
    """A kernel profiler that also records each site's *self* time.

    The kernel calls :meth:`record` right after each dispatch, while the
    kernel's own frame is on top of the tracer's stack; the nested time
    that frame gained since the previous dispatch is what the wrapped
    entry points spent inside this one.
    """

    def __init__(self, tracer: LayerTracer):
        super().__init__()
        self.tracer = tracer
        #: normalised site -> wall seconds outside any wrapped frame
        self.site_self_s: Dict[str, float] = defaultdict(float)
        self._names: Dict[str, str] = {}

    def record(self, site: str, wall_s: float) -> None:
        super().record(site, wall_s)
        frame = self.tracer.top_frame()
        nested = frame[3] - frame[4]
        frame[4] = frame[3]
        key = self._names.get(site)
        if key is None:
            key = self._names[site] = _DIGITS.sub("N", site)
        self.site_self_s[key] += max(0.0, wall_s - nested)

    def site_events(self, needle: str) -> Tuple[int, float]:
        """(events, wall seconds) over sites whose name contains ``needle``."""
        events, wall = 0, 0.0
        for site, stats in self.sites.items():
            if needle in site:
                events += stats.events
                wall += stats.wall_s
        return events, wall
