"""Per-layer host-time ledger, recorded entirely from outside ``src/``.

A *layer* is a set of ``repro`` modules (:data:`LAYERS`).  The ledger
replaces every plain, static and class method of every class defined in
those modules with a thin wrapper.  A wrapper opens a host-time span
only when control *crosses* from one layer into another; calls that
stay inside a layer pass straight through.  A layer's self time is the
duration of its spans minus the part their child spans cover, so the
layer table sums exactly to the time spent under the root function
(``Engine.run``) — and only spans opened under the root count, which
keeps build-time construction out of the per-sim-ms entry counts.

Properties, implicit protocol hooks (``__len__``, ``__bool__``...) and
module-level functions are not wrapped: their time is charged to the
calling layer.  Nothing here imports ``repro`` at module
import time, so the self-tests can drive the accounting with synthetic
classes and a fake clock.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
import sys
import time
from types import FunctionType
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: layer name -> module-name prefixes (a prefix matches the module
#: itself and everything below it).  Order is the report order.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.engine", ("repro.sim.engine", "repro.sim.timers")),
    ("net.queues", ("repro.net.queues",)),
    ("net.link", ("repro.net.link",)),
    ("net.switch", ("repro.net.switch",)),
    ("net.fidelity", ("repro.net.fidelity",)),
    ("net.pfc", ("repro.net.pfc",)),
    ("core.scheduler", ("repro.core.scheduler",)),
    ("core.marking", ("repro.core.marking",)),
    ("core.cuckoo", ("repro.core.cuckoo",)),
    ("core.ordering", ("repro.core.ordering",)),
    ("forwarding", ("repro.forwarding",)),
    ("transport", ("repro.transport",)),
    ("host", ("repro.host",)),
    ("metrics", ("repro.metrics",)),
    ("workload", ("repro.workload",)),
    ("experiments.runner", ("repro.experiments.runner",)),
    ("trace", ("repro.trace",)),
    ("runtime", ("repro.runtime", "repro.experiments.parallel")),
    ("checkpoint", ("repro.checkpoint",)),
)

#: Every other ``repro.*`` module, plus the part of the timed region
#: spent outside the root function (build, finalize, report).
OTHER = "other"

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS) + (OTHER,)

#: Modules imported before patching so lazily imported classes are
#: wrapped too (the runner pulls in the whole datapath).
PRELOAD = ("repro.experiments.runner", "repro.experiments.report",
           "repro.experiments.digest", "repro.runtime", "repro.telemetry",
           "repro.faults")

#: The function under which spans count.
ROOTS = ("Engine.run",)

#: Dunder methods that *are* wrapped.  Every other dunder is a protocol
#: hook the interpreter calls implicitly (``__len__``, ``__bool__``,
#: ``__lt__``, ``__getattr__``, ``__getstate__``...); like properties,
#: those are charged to the caller.
_WRAPPED_DUNDERS = frozenset({"__init__", "__post_init__", "__call__"})

_INACTIVE = -1


def layer_of(module_name: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to; None outside ``repro``."""
    if module_name != "repro" and not module_name.startswith("repro."):
        return None
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if module_name == prefix or module_name.startswith(prefix + "."):
                return layer
    return OTHER


class Ledger:
    """Span accounting plus the install/remove machinery.

    ``clock`` returns integer nanoseconds.  All accumulators are plain
    lists indexed by layer (or function) so the wrappers touch nothing
    but list cells.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 layers: Sequence[str] = LAYER_NAMES,
                 sample_cap: int = 2000) -> None:
        self.clock = clock
        self.layers = tuple(layers)
        self._root_layer = len(self.layers) - 1
        n = len(self.layers)
        #: Host ns of self time per layer (spans under a root only).
        self.self_ns = [0] * n
        #: Cross-layer entries (= spans opened) per layer.
        self.entries = [0] * n
        #: Spans opened directly beneath a span of this layer.
        self.children = [0] * n
        #: Calls per wrapped function while a root is active.
        self.calls: List[int] = []
        self.names: List[str] = []
        self._fn_layer: List[int] = []
        #: Total host ns spent under root calls.
        self.root_ns = 0
        #: First ``sample_cap`` raw spans:
        #: (name, layer index, start ns, end ns, span id, parent id).
        self.samples: List[tuple] = []
        self.sample_cap = sample_cap
        # [current layer, child ns of the open span, open span id,
        #  next span id]
        self._st = [_INACTIVE, 0, -1, 0]
        self._patched: List[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str,
             root: bool = False) -> Callable:
        """Wrap ``fn`` as a member of ``layer``; ``root`` functions switch
        accounting on for the duration of their outermost call."""
        layer_i = self.layers.index(layer)
        fi = len(self.calls)
        self.calls.append(0)
        self.names.append(name)
        self._fn_layer.append(layer_i)
        st = self._st
        calls, self_ns = self.calls, self.self_ns
        entries, children = self.entries, self.children
        samples, cap, clock = self.samples, self.sample_cap, self.clock

        def span(*args, **kwargs):
            cur = st[0]
            if cur == layer_i:
                calls[fi] += 1
                return fn(*args, **kwargs)
            if cur < 0:
                return fn(*args, **kwargs)
            calls[fi] += 1
            st[0] = layer_i
            saved = st[1]
            st[1] = 0
            sid = st[3]
            st[3] = sid + 1
            parent = st[2]
            st[2] = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                self_ns[layer_i] += dt - st[1]
                entries[layer_i] += 1
                children[cur] += 1
                st[1] = saved + dt
                st[0] = cur
                st[2] = parent
                if sid < cap:
                    samples.append((name, layer_i, t0, t1, sid, parent))

        functools.update_wrapper(span, fn)
        if not root:
            return span

        root_layer = self._root_layer

        def rooted(*args, **kwargs):
            if st[0] >= 0:
                return span(*args, **kwargs)
            st[0] = root_layer
            st[1] = 0
            st[2] = -1
            t0 = clock()
            try:
                return span(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.root_ns += dt
                self_ns[root_layer] += dt - st[1]
                st[0] = _INACTIVE

        functools.update_wrapper(rooted, fn)
        return rooted

    def install_class(self, cls: type, layer: str,
                      roots: Iterable[str] = ()) -> None:
        """Replace the methods ``cls`` itself defines with wrappers."""
        if isinstance(cls, enum.EnumMeta):
            return
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__") \
                    and attr not in _WRAPPED_DUNDERS:
                continue
            if isinstance(obj, FunctionType):
                fn, rebuild = obj, None
            elif isinstance(obj, (staticmethod, classmethod)) \
                    and isinstance(obj.__func__, FunctionType):
                fn, rebuild = obj.__func__, type(obj)
            else:
                continue
            name = f"{cls.__qualname__}.{attr}"
            wrapped = self.wrap(fn, layer, name, root=name in roots)
            try:
                setattr(cls, attr, rebuild(wrapped) if rebuild else wrapped)
            except (AttributeError, TypeError):
                continue  # immutable type: its time stays with the caller
            self._patched.append((cls, attr, obj))

    def install(self) -> int:
        """Wrap every class of every loaded ``repro`` module.

        Returns the number of attributes patched.
        """
        for name in PRELOAD:
            importlib.import_module(name)
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of(module_name) if module is not None else None
            if layer is None:
                continue
            for obj in list(vars(module).values()):
                if isinstance(obj, type) and obj.__module__ == module_name:
                    self.install_class(obj, layer, ROOTS)
        return len(self._patched)

    def remove(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- reading -----------------------------------------------------------

    def calls_by_layer(self) -> List[int]:
        """Wrapped-method calls per layer while a root was active."""
        totals = [0] * len(self.layers)
        for count, layer_i in zip(self.calls, self._fn_layer):
            totals[layer_i] += count
        return totals

    def layer_calls(self, layer: str) -> int:
        return self.calls_by_layer()[self.layers.index(layer)]

    def passthrough(self) -> List[int]:
        """Same-layer (no span) calls per layer while a root was active."""
        return [total - entered for total, entered
                in zip(self.calls_by_layer(), self.entries)]

    def call_counts(self) -> Dict[str, int]:
        """Calls per wrapped function name (summed over classes' overrides
        sharing a qualified name — there are none in practice)."""
        counts: Dict[str, int] = {}
        for name, count in zip(self.names, self.calls):
            counts[name] = counts.get(name, 0) + count
        return counts

    def adjusted_self_ns(self, cost: "SpanCost") -> List[float]:
        """Self time per layer with the wrappers' own cost taken out.

        A span charges its layer the clock-to-clock part of the wrapper
        (``inner_ns``) and its parent the rest (``outer_ns``); same-layer
        calls charge their layer one pass-through each.
        """
        adjusted = []
        for raw, entered, kids, passed in zip(
                self.self_ns, self.entries, self.children,
                self.passthrough()):
            value = raw - entered * cost.inner_ns - kids * cost.outer_ns \
                - passed * cost.pass_ns
            adjusted.append(max(0.0, value))
        return adjusted

    def chrome_trace(self) -> Dict[str, object]:
        """The raw-span sample as a Chrome ``trace_event`` document."""
        if not self.samples:
            return {"traceEvents": []}
        origin = min(sample[2] for sample in self.samples)
        events = [{
            "name": name, "cat": self.layers[layer_i], "ph": "X",
            "ts": (start - origin) / 1000, "dur": (end - start) / 1000,
            "pid": 1, "tid": 1, "args": {"id": sid, "parent": parent},
        } for name, layer_i, start, end, sid, parent in self.samples]
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


class SpanCost:
    """Calibrated cost of the wrappers themselves, in host ns."""

    def __init__(self, span_ns: float, inner_ns: float,
                 pass_ns: float) -> None:
        #: Whole cost of one cross-layer span.
        self.span_ns = span_ns
        #: Part of it that falls between the span's two clock reads.
        self.inner_ns = inner_ns
        #: Part of it charged to the parent span.
        self.outer_ns = max(0.0, span_ns - inner_ns)
        #: Cost of one same-layer pass-through call.
        self.pass_ns = pass_ns


def _calibration_pair() -> Tuple[type, type]:
    """Fresh (caller, callee) classes: one pair stays plain, one is
    wrapped."""
    class Callee:
        def noop(self, x):
            return x

    class Caller:
        def __init__(self, callee) -> None:
            self.callee = callee

        def cross(self, n: int) -> None:
            noop = self.callee.noop
            for _ in range(n):
                noop(1)

        def same(self, n: int) -> None:
            for _ in range(n):
                self.noop(1)

        def empty(self, n: int) -> None:
            for _ in range(n):
                pass

        def noop(self, x):
            return x

    return Caller, Callee


def calibrate(iterations: int = 100_000, rounds: int = 3) -> SpanCost:
    """Measure the wrappers on a wrapped no-op (best of ``rounds``)."""
    def best(fn: Callable[[int], None]) -> float:
        timings = []
        for _ in range(rounds):
            t0 = time.perf_counter_ns()
            fn(iterations)
            timings.append(time.perf_counter_ns() - t0)
        return min(timings) / iterations

    caller_cls, callee_cls = _calibration_pair()
    plain = caller_cls(callee_cls())
    loop_ns = best(plain.empty)
    call_ns = best(plain.cross) - loop_ns
    same_ns = best(plain.same) - loop_ns

    ledger = Ledger(layers=("caller", "callee", OTHER))
    caller_cls, callee_cls = _calibration_pair()
    prefix = caller_cls.__qualname__
    ledger.install_class(callee_cls, "callee")
    ledger.install_class(caller_cls, "caller",
                         roots=(f"{prefix}.cross", f"{prefix}.same"))
    wrapped = caller_cls(callee_cls())

    cross_ns = best(wrapped.cross) - loop_ns
    inner_ns = ledger.self_ns[1] / ledger.entries[1] - call_ns
    wrapped_same_ns = best(wrapped.same) - loop_ns
    return SpanCost(span_ns=max(0.0, cross_ns - call_ns),
                    inner_ns=max(0.0, inner_ns),
                    pass_ns=max(0.0, wrapped_same_ns - same_ns))
