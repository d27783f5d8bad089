"""In-memory span tracer that wraps tnm's public functions from outside.

Each public function of the layer modules is replaced, in every tnm module
that holds a reference to it, by a wrapper that records one span: the
function's name, its parent span, and its start and end times.  Self time
(span time minus the time covered by child spans) and call counts are
accumulated per function as spans close; the raw spans stay in memory until
`write` dumps them.  Nothing under src/tnm is edited: the wrappers are set as
module attributes while a traced pass runs and removed afterwards.

Spans cannot follow calls into pool worker processes, so a traced run must
keep every call in this process.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter

# The layers are these tnm modules.  cli has no __all__; its public function
# is the console-script entry point `main`.
LAYERS = ("datum", "castling", "classify", "mle", "cli")
CLI_PUBLIC = ("main",)


class Tracer:
    """Spans in four parallel arrays plus per-name aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self._stack: list[list] = []  # [span id, time covered by children]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name: str, on_return=None):
        """A wrapper of `fn` recording one span named `name` per call.

        on_return(result, args) is called after the span closes.
        """
        nid = self._intern(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            span_start.append(t0)
            span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span_end[sid] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_return is not None:
                on_return(result, args)
            return result

        return traced

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) for one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.total_s[nid]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def write(self, path_prefix: str) -> None:
        """Write the spans: <prefix>.json (names, layout) and <prefix>.bin (arrays)."""
        with open(path_prefix + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "layout": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"],
            "note": "arrays stored one after another; parent -1 marks a root span",
        }
        with open(path_prefix + ".json", "w") as fh:
            json.dump(header, fh, indent=1)


def _public_functions(layer: str, module) -> list[tuple[str, types.FunctionType]]:
    names = CLI_PUBLIC if layer == "cli" else module.__all__
    out = []
    for attr in names:
        obj = getattr(module, attr)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            out.append((attr, obj))
    return out


def install(tracer: Tracer, on_return: dict | None = None) -> list[tuple]:
    """Wrap every public layer function wherever a tnm module references it.

    on_return maps a span name ("mle.fit_mle") to a callback.  Returns the
    patches, for `uninstall`.
    """
    on_return = on_return or {}
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"tnm.{layer}"]
        for attr, fn in _public_functions(layer, module):
            name = f"{layer}.{attr}"
            wrappers[fn] = tracer.wrap(fn, name, on_return.get(name))
    patches = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "tnm" and not mod_name.startswith("tnm."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return patches


def uninstall(patches: list[tuple]) -> None:
    for module, attr, original in patches:
        setattr(module, attr, original)
