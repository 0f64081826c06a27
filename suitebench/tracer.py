"""In-memory span tracer for the suite benchmark.

The tracer wraps public fejerflow functions by rebinding them in the
namespaces that call them (module attributes and class attributes).  Each
call records one span: name, start, end and parent.  Spans live in compact
arrays while the traced pass runs and are written out once at the end.  A
span's self time is its duration minus the time covered by its direct
children; a layer's self time is the sum over the layer's spans.

Nothing in ``src/`` changes: :meth:`Tracer.patch` rebinds a name and
:meth:`Tracer.restore` puts every original object back.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# layer -> names counted by a separate metric, not in "<layer>.calls"
SEPARATE_COUNTS = {"verify": ("verify.oscillation",)}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, fn: Callable, name: str, layer: str,
             on_result: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.  ``on_result``
        (args, kwargs, result) runs only at the outermost span of a layer, so
        nested calls within one layer are counted once."""
        nid = self._intern(name, layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, layers = self._stack, time.perf_counter, self.name_layer

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            name_id.append(nid)
            parent.append(up)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None and (up < 0 or layers[name_id[up]] != layer):
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- rebinding -----------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, name: Optional[str] = None,
              on_result: Optional[Callable] = None) -> None:
        """Rebind ``owner.attr`` (a module or class attribute) to a traced
        wrapper.  For classes the raw function from the class dict is
        wrapped, so the wrapper binds like the original method."""
        original = vars(owner)[attr]
        span_name = name or f"{layer}:{attr}"
        setattr(owner, attr, self.wrap(original, span_name, layer, on_result))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_names(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        # copies, so the recording arrays stay resizable
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def summary(self, since: float = -np.inf) -> dict:
        """Per-layer self time and call counts over every recorded span, plus
        the root-span time and the count of the spans that started at or
        after ``since``."""
        nid, par, start, end = self._arrays()
        n = len(nid)
        dur = end - start
        nested = par >= 0
        child = np.bincount(par[nested], weights=dur[nested], minlength=n)
        self_t = dur - child
        n_names = len(self.names)
        per_name_self = np.bincount(nid, weights=self_t, minlength=n_names)
        per_name_calls = np.bincount(nid, minlength=n_names)
        layers: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            layer = self.name_layer[i]
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += float(per_name_self[i])
            if name not in SEPARATE_COUNTS.get(layer, ()):
                entry["calls"] += int(per_name_calls[i])
        per_name = {name: {"self_s": float(per_name_self[i]),
                           "calls": int(per_name_calls[i])}
                    for i, name in enumerate(self.names)}
        roots = (par < 0) & (start >= since)
        return {"layers": layers, "names": per_name, "spans": n,
                "spans_since": int((start >= since).sum()),
                "root_s": float(dur[roots].sum()),
                "counts": dict(self.counts)}

    def write(self, path: Path) -> None:
        nid, par, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            layers=np.array(self.name_layer, dtype=str),
                            name_id=nid, parent=par, start=start, end=end)
