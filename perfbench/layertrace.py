"""Outside-in span tracing of the SCFI pipeline's layer entry points.

Nothing in ``src/`` knows about this module.  :func:`install` replaces each
traced public function or method with a wrapper that records a span (name,
start, end, parent span, thread) and the layer's counts, and puts the
original back on :meth:`Tracer.uninstall`.  A module-level function is
replaced in *every* loaded ``repro`` module that holds it, so a name imported
into another module with ``from x import f`` is traced where it is looked up
too (``protect_fsm`` is called through ``repro.api.session``'s globals,
``net_placement`` through ``repro.fi.scenarios``'s).

Spans are kept in memory and written by :meth:`Tracer.dump` when the run
ends.  A layer's self time is its spans' durations minus the time their
direct child spans cover; a span nested in a span of the same name (a
``step_cycles_fault_arrays`` pass calling ``evaluate_fault_arrays``) counts
once in the layer's total.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span record fields: name, start ns, end ns, parent index (-1 = root),
#: thread id.
_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    """In-memory span recorder with thread-local span stacks."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.flags: Dict[int, set] = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent, threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def enclosing(self, index: int, name: str) -> int:
        """The nearest ancestor span of ``index`` called ``name`` (-1 if none)."""
        parent = self.spans[index][_PARENT]
        while parent >= 0 and self.spans[parent][_NAME] != name:
            parent = self.spans[parent][_PARENT]
        return parent

    # -- patching --------------------------------------------------------

    def _traced(self, name: str, func: Callable, after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, index, args, result)
            return result

        wrapper.__wrapped_by_perfbench__ = func
        return wrapper

    def wrap_function(self, module: str, attr: str, name: str, after=None) -> None:
        """Trace ``module.attr`` and every loaded alias of it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._traced(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, module: str, cls_name: str, attr: str, name: str, after=None) -> None:
        """Trace ``cls.attr`` where the class defines it (plain, class or
        static method); every caller looks it up through the class."""
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._traced(name, raw.__func__, after))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._traced(name, raw.__func__, after))
        else:
            patched = self._traced(name, raw, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost calls, total ms and self ms."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0 and span[_END]:
                child_ns[span[_PARENT]] += span[_END] - span[_START]
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        for index, span in enumerate(self.spans):
            if not span[_END]:
                continue  # still open when the run ended
            duration = span[_END] - span[_START]
            layer = layers[span[_NAME]]
            layer["self_ms"] += (duration - child_ns[index]) / 1e6
            if self.enclosing(index, span[_NAME]) < 0:
                layer["calls"] += 1
                layer["total_ms"] += duration / 1e6
        return dict(layers)

    def flagged_ms(self, name: str, flag: str, minus: tuple = ()) -> float:
        """Total ms of ``name`` spans carrying ``flag``, minus the time of
        their direct children named in ``minus``."""
        total = 0
        for index in (i for i, flags in self.flags.items() if flag in flags):
            span = self.spans[index]
            if span[_NAME] == name and span[_END]:
                total += span[_END] - span[_START]
        for span in self.spans:
            parent = span[_PARENT]
            if parent >= 0 and span[_NAME] in minus and flag in self.flags.get(parent, ()):
                total -= span[_END] - span[_START]
        return total / 1e6

    def dump(self, path, **extra) -> None:
        """Write every span plus the per-layer summary, counts and ``extra``."""
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "thread"],
            "spans": self.spans,
            "summary": self.summary(),
            "counts": dict(self.counts),
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------


def _after_lower(tracer: Tracer, index: int, args, arrays) -> None:
    tracer.count("lower.faults", int(arrays.num_faults))


def _after_from_jobs(tracer: Tracer, index: int, args, arrays) -> None:
    # The generic lowering route: mark the enclosing lower_scenario span.
    lower = tracer.enclosing(index, "lower")
    if lower >= 0:
        tracer.flags[lower].add("fallback")


def _after_plan(tracer: Tracer, index: int, args, plan) -> None:
    tracer.count("plan.batches", len(plan.batches))


def _after_evaluate(tracer: Tracer, index: int, args, values) -> None:
    tracer.count("evaluate.passes")


def _after_save(tracer: Tracer, index: int, args, artifact) -> None:
    # FileStore.save(self, stage, key, payload, codec)
    tracer.count("store.bytes_written", len(args[3]))


def _after_session_run(tracer: Tracer, index: int, args, result) -> None:
    for path in result.dispatch.values():
        if path == "spec-stream":
            tracer.count("dispatch.spec_stream")
    status = (result.cache.get("plan") or {}).get("status")
    if status in ("hit", "miss"):
        tracer.count(f"plan.store_{status}")


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer boundary; returns ``tracer``."""
    # Import every module that may hold an alias before patching, so the
    # alias scan sees them.
    for module in (
        "repro.api", "repro.api.session", "repro.core.scfi", "repro.core.hardened",
        "repro.fi.executor", "repro.fi.scenarios", "repro.fi.placement",
        "repro.netlist.parallel_np", "repro.store.filestore", "repro.service",
    ):
        importlib.import_module(module)
    tracer.wrap_method("repro.api.session", "Session", "run", "session.run", _after_session_run)
    tracer.wrap_method("repro.api.session", "Session", "harden", "session.harden")
    tracer.wrap_method("repro.api.session", "Session", "run_campaign", "session.campaign")
    tracer.wrap_function("repro.core.scfi", "protect_fsm", "harden")
    tracer.wrap_method("repro.core.hardened", "HardenedFsm", "from_fsm", "harden.layout")
    tracer.wrap_function("repro.core.structure", "build_scfi_netlist", "harden.structure")
    tracer.wrap_method("repro.fi.executor", "FaultCampaign", "run", "campaign")
    tracer.wrap_method("repro.fi.executor", "FaultCampaign", "lower_scenario", "lower", _after_lower)
    tracer.wrap_method("repro.fi.scenarios", "JobArrays", "from_jobs", "lower.from_jobs", _after_from_jobs)
    tracer.wrap_function("repro.fi.placement", "net_placement", "placement")
    tracer.wrap_method("repro.fi.executor", "FaultCampaign", "plan_jobs", "plan", _after_plan)
    tracer.wrap_method("repro.netlist.parallel", "CompiledNetlist", "__init__", "netlist.compile")
    tracer.wrap_method("repro.netlist.parallel_np", "NumpyCompiledNetlist", "__init__", "netlist.compile")
    tracer.wrap_method("repro.netlist.parallel_np", "NumpyCompiledNetlist", "compile_fault_arrays", "faults.compile")
    tracer.wrap_method("repro.netlist.parallel_np", "NumpyCompiledNetlist", "evaluate_fault_arrays", "evaluate", _after_evaluate)
    tracer.wrap_method("repro.netlist.parallel_np", "NumpyCompiledNetlist", "step_cycles_fault_arrays", "evaluate")
    tracer.wrap_method("repro.store.filestore", "FileStore", "load", "store.load")
    tracer.wrap_method("repro.store.filestore", "FileStore", "save", "store.save", _after_save)
    return tracer


#: Children whose time :func:`layer_metrics` takes out of the campaign span's
#: self time to leave the classify/merge share.
_CAMPAIGN_CHILDREN = ("lower", "plan", "faults.compile", "evaluate", "netlist.compile")


def layer_metrics(tracer: Tracer, rounds: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, per round of the stream."""
    layers = tracer.summary()
    counts = tracer.counts

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_ms", 0.0)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    # The campaign span's self time already excludes its direct children;
    # faults.compile runs inside evaluate, so it is not subtracted twice.
    classify = layers.get("campaign", {}).get("self_ms", 0.0)
    fallback = tracer.flagged_ms("lower", "fallback", minus=("netlist.compile",))
    plan_hits, plan_misses = counts.get("plan.store_hit", 0), counts.get("plan.store_miss", 0)
    per_round = {
        "harden.calls": calls("harden"),
        "harden.ms": total("harden"),
        "harden.self_ms": layers.get("harden", {}).get("self_ms", 0.0),
        "harden.layout_ms": total("harden.layout"),
        "harden.structure_ms": total("harden.structure"),
        "lower.ms": total("lower"),
        "lower.self_ms": layers.get("lower", {}).get("self_ms", 0.0),
        "lower.fallback_ms": fallback,
        "lower.faults": counts.get("lower.faults", 0),
        "placement.ms": total("placement"),
        "plan.ms": total("plan"),
        "plan.calls": calls("plan"),
        "plan.batches": counts.get("plan.batches", 0),
        "netlist.compiles": calls("netlist.compile"),
        "netlist.compile_ms": total("netlist.compile"),
        "faults.compile_ms": total("faults.compile"),
        "evaluate.ms": total("evaluate"),
        "evaluate.self_ms": layers.get("evaluate", {}).get("self_ms", 0.0),
        "evaluate.passes": counts.get("evaluate.passes", 0),
        "campaign.ms": total("campaign"),
        "classify.ms": classify,
        "dispatch.spec_stream": counts.get("dispatch.spec_stream", 0),
        "store.loads": calls("store.load"),
        "store.load_ms": total("store.load"),
        "store.saves": calls("store.save"),
        "store.save_ms": total("store.save"),
        "store.bytes_written": counts.get("store.bytes_written", 0),
        "service.harden_ms": total("session.harden"),
        "service.campaign_ms": total("session.campaign"),
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    metrics["plan.store_hit_ratio"] = (
        plan_hits / (plan_hits + plan_misses) if plan_hits + plan_misses else 0.0
    )
    return metrics
