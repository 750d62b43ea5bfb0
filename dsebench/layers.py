"""Per-layer spans for the traced run, recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer while it
is installed and restores the originals on :meth:`LayerTracer.remove`.
A function is replaced in its defining module *and* in every loaded
``repro`` module that bound it by name (``from x import f``), because
that is where its callers look it up; a method is replaced on its class.

Spans nest per thread.  A layer's self time is its span minus the spans
of other traced layers nested inside it, so the self times of one thread
add up to at most its wall time.  A call into a layer that is already
open on the same thread (a sharded store ``get`` delegating to its shard's
``get``) belongs to the outer span and is not counted again.

Work in forked pool workers runs the inherited wrappers, but their
counts stay in the worker: the traced run sees only the parent's share.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LayerTracer", "ENTRY_POINTS"]

# (layer, defining module, attribute): the layer entry points the traced
# run wraps.  ``Class.method`` attributes are patched on the class.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("hdl.parse", "repro.hdl.frontend", "parse_source"),
    ("boxing.install", "repro.boxing.box", "BoxArtifact.install"),
    ("tcl.eval", "repro.tcl.interp", "TclInterp.eval"),
    ("synth.synthesize", "repro.synth.synthesis", "synthesize"),
    ("pnr.place", "repro.pnr.placer", "place"),
    ("pnr.route", "repro.pnr.router", "route"),
    ("pnr.sta", "repro.pnr.timing", "analyze_timing"),
    ("flow.run", "repro.flow.vivado_sim", "VivadoSim.run"),
    ("analysis.gate", "repro.analysis.gate", "PreflightGate.errors"),
    ("estimation.refit", "repro.estimation.control", "ControlModel.record"),
    ("estimation.estimate", "repro.estimation.control", "ControlModel.estimate"),
    ("moo.sort", "repro.moo.nds", "fast_non_dominated_sort"),
    ("moo.sort", "repro.moo.nds", "non_dominated_mask"),
    ("moo.sort", "repro.moo.crowding", "crowding_distance"),
    ("cache.store_open", "repro.cache.sharded", "open_store"),
    ("cache.store_get", "repro.cache.store", "ResultStore.get"),
    ("cache.store_get", "repro.cache.sharded", "ShardedResultStore.get"),
    ("cache.store_put", "repro.cache.store", "ResultStore.put"),
    ("cache.store_put", "repro.cache.sharded", "ShardedResultStore.put"),
    ("core.pool_submit", "repro.core.parallel", "ParallelPointEvaluator.submit_many"),
    ("core.pool_wait", "repro.core.parallel", "PendingBatch.results"),
    ("serve.claim", "repro.serve.queue", "FileJobQueue.claim_many"),
)


def _refits(args: tuple) -> int:
    return int(args[0].refits)


# Extra counts taken around a call: layer -> (counter, before/after probe).
# The counter grows by probe(after) - probe(before).
_DELTAS: dict[str, tuple[str, Callable[[tuple], int]]] = {
    "estimation.refit": ("estimation.refits", _refits),
}

# Counts derived from a call's arguments and result.
_TALLIES: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "cache.store_get": lambda args, result: {
        "cache.store_get_hits": int(result is not None)
    },
    "core.pool_submit": lambda args, result: {"core.pool_points": len(args[1])},
}


class LayerTracer:
    """Self time and call counts per layer while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    getattr(loaded, attr, None) is original
                ):
                    self._patch(loaded, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        delta = _DELTAS.get(layer)
        tally = _TALLIES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]  # layer, time covered by nested spans
            stack.append(frame)
            before = delta[1](args) if delta else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                with tracer._lock:
                    tracer.self_s[layer] += span - frame[1]
                    tracer.calls[layer] += 1
                    if delta:
                        tracer.counts[delta[0]] += delta[1](args) - before
            if tally:
                extra = tally(args, result)
                with tracer._lock:
                    for name, value in extra.items():
                        tracer.counts[name] += value
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        """Flat ``<layer>_s`` / ``<layer>_calls`` / counter view."""
        with self._lock:
            out: dict[str, float] = {}
            for layer in {layer for layer, _, _ in ENTRY_POINTS}:
                out[f"{layer}_s"] = self.self_s.get(layer, 0.0)
                out[f"{layer}_calls"] = float(self.calls.get(layer, 0))
            for name, value in self.counts.items():
                out[name] = float(value)
            return out
