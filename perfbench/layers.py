"""Layer spans recorded from outside the program.

``LayerClock.wrap`` replaces one public function (or method) of a layer
with a timing wrapper, so the calls the benchmark makes into that layer
are timed without any change to ``src/``.  Spans nest: a layer's *self*
time is its span durations minus the time covered by spans of other
wrapped calls made inside them, so the self times of all layers never
add up to more than the wall time they ran in.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Dict, List


class LayerClock:
    """Self time and call count per layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        # One frame per open span: [start, time covered by child spans].
        self._stack: List[List[float]] = []

    def wrap(self, owner: Any, name: str, layer: str) -> None:
        """Time every call of ``owner.name`` as a span of ``layer``."""
        static = inspect.getattr_static(owner, name)
        wrapper_type = None
        func = static
        if isinstance(static, (classmethod, staticmethod)):
            wrapper_type = type(static)
            func = static.__func__

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                self._stack.pop()
                duration = time.perf_counter() - frame[0]
                self.self_s[layer] = (
                    self.self_s.get(layer, 0.0) + duration - frame[1]
                )
                self.calls[layer] = self.calls.get(layer, 0) + 1
                if self._stack:
                    self._stack[-1][1] += duration

        setattr(owner, name, wrapper_type(timed) if wrapper_type else timed)

    def busy_s(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)
