"""Per-layer spans recorded from the benchmark's side of each call.

A probe replaces one module-level callable (a function, or a method on a
class) with a wrapper that adds its wall time, its call count and an optional
work count to a named layer.  The wrapped callables are looked up by the
library at call time, so calls made inside ``grow`` are seen too.  Time is
inclusive and counted only at the outermost active span of a layer, so a layer
that re-enters itself is not counted twice.  A callable missing from its owner
(renamed by a later refactor) marks its layer absent instead of failing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.absent: set[str] = set()
        self._probes = []  # (layer, owner, attr, work_fn)
        self._depth = defaultdict(int)

    def probe(self, layer: str, owner, attr: str, work=None) -> None:
        """Register ``owner.attr`` for the layer; ``work(*args)`` counts its work."""
        if callable(getattr(owner, attr, None)):
            self._probes.append((layer, owner, attr, work))
        else:
            self.absent.add(layer)

    def _wrap(self, layer, fn, work):
        def traced(*args, **kwargs):
            if work is not None:
                self.work[layer] += int(work(*args))
            self.calls[layer] += 1
            self._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[layer] -= 1
                if not self._depth[layer]:
                    self.seconds[layer] += time.perf_counter() - t0

        return traced

    @contextmanager
    def active(self):
        """Install every probe for the duration of the block, then restore."""
        saved = []
        try:
            for layer, owner, attr, work in self._probes:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn, work))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
