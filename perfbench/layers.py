"""Per-layer host-time spans, recorded from outside the program.

:func:`instrument` wraps the public calls of each layer (the table in
README.md) and patches every name through which a caller finds them:
module-level functions in every loaded ``repro`` module that bound the
function by name, methods on the class that defines them. Nothing under
``src/`` changes; :func:`instrument` returns an undo callable.

A :class:`Recorder` keeps spans in memory as per-thread aggregates, one
:class:`OpStats` per ``(layer, op)``: calls, inclusive seconds, and
*self* seconds (the span minus the nested wrapped spans). Outermost
spans are also kept as intervals, so the benchmark can tell how much of
a process's wall time no named layer covers; a *transparent* span (one
that only hands work on, as a sweep runner does) is timed but covers
nothing itself, so the outermost spans inside it are kept instead and
its own time counts as uncovered. Forked workers reset the
inherited aggregates and, when :attr:`Recorder.fork_flush_dir` is set,
write their own after every outermost span, so the parent can merge
them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Key = Tuple[str, str]


class OpStats:
    """Aggregate of one ``(layer, op)`` in one thread."""

    __slots__ = ("calls", "total", "own", "lines", "hits", "cacheable")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        #: Lines moved (bulk cache ops) or traced (Simulator.run).
        self.lines = 0
        #: Intern-cache hits among ``cacheable`` trace requests.
        self.hits = 0
        self.cacheable = 0

    def to_list(self) -> List[float]:
        return [self.calls, self.total, self.own, self.lines, self.hits,
                self.cacheable]


class _ThreadState:
    __slots__ = ("stack", "ops", "top", "opaque")

    def __init__(self) -> None:
        #: Open spans: ``[key, seconds covered by nested spans]``.
        self.stack: List[list] = []
        self.ops: Dict[Key, OpStats] = {}
        #: ``(start, end)`` of every outermost span that is not
        #: transparent (outermost among those that are not).
        self.top: List[Tuple[float, float]] = []
        #: How many open spans are not transparent.
        self.opaque = 0


class Recorder:
    """In-memory span aggregates, per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._keys: Dict[Key, Key] = {}
        #: Where forked children write their aggregates; ``None`` keeps
        #: them to themselves.
        self.fork_flush_dir: Optional[str] = None
        #: This process's flush directory (set only in forked children).
        self.flush_dir: Optional[str] = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        """Drop every aggregate and the calling thread's open spans."""
        with self._lock:
            self._threads = []
        self._local = threading.local()

    def _after_fork(self) -> None:
        """A forked child starts from empty aggregates and, if the parent
        asked for it, writes them after every outermost span."""
        self.reset()
        self.flush_dir = self.fork_flush_dir

    # -- spans ----------------------------------------------------------

    def wrap(self, key: Key, fn: Callable, *,
             pre: Optional[Callable] = None,
             note: Optional[Callable] = None,
             transparent: bool = False) -> Callable:
        """``fn`` wrapped in a span named ``key``.

        ``pre(args, kwargs)`` runs before the call and its value reaches
        ``note(op, args, kwargs, result, before)`` after it, so a wrapper
        can count what the call did (lines moved, cache hits). A call
        nested directly in a span of the same key (an override calling
        its base method) is passed through, not counted twice. A
        ``transparent`` span covers no wall time itself (module docstring).
        """
        key = self._keys.setdefault(key, key)
        clock = self.clock
        state_of = self._state
        opaque = 0 if transparent else 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] is key:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            frame = [key, 0.0]
            stack.append(frame)
            state.opaque += opaque
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.opaque -= opaque
                elapsed = end - start
                op = state.ops.get(key)
                if op is None:
                    op = state.ops[key] = OpStats()
                op.calls += 1
                op.total += elapsed
                op.own += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if opaque and not state.opaque:
                    state.top.append((start, end))
            if note is not None:
                note(op, args, kwargs, result, before)
            if not stack and self.flush_dir is not None:
                self.dump(os.path.join(self.flush_dir,
                                       f"spans-{os.getpid()}.json"))
            return result

        return wrapper

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able aggregates: one entry per thread that recorded."""
        with self._lock:
            threads = list(self._threads)
        lanes = []
        for state in threads:
            ops = {f"{layer}.{op}": stats.to_list()
                   for (layer, op), stats in list(state.ops.items())}
            if ops:
                lanes.append({"pid": os.getpid(), "ops": ops,
                              "top": list(state.top)})
        return {"lanes": lanes}

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def load_lanes(paths: List[str]) -> List[Dict[str, Any]]:
    """Lanes of every span file in ``paths``."""
    lanes: List[Dict[str, Any]] = []
    for path in paths:
        with open(path) as handle:
            lanes.extend(json.load(handle)["lanes"])
    return lanes


def merge_ops(lanes: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Sum per-op aggregates over lanes (threads and processes)."""
    merged: Dict[str, List[float]] = {}
    for lane in lanes:
        for name, values in lane["ops"].items():
            into = merged.setdefault(name, [0] * len(values))
            for i, value in enumerate(values):
                into[i] += value
    return merged


def covered_seconds(lanes: List[Dict[str, Any]], lo: float = float("-inf"),
                    hi: float = float("inf")) -> float:
    """Length of the union of outermost spans, clipped to ``[lo, hi]``."""
    intervals = sorted((max(s, lo), min(e, hi))
                       for lane in lanes for s, e in lane["top"])
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

#: ``layer.op`` names whose self time each per-layer metric sums.
BULK_OPS = ("bulk_access", "bulk_fill", "bulk_serve", "bulk_flush",
            "bulk_invalidate")
PROTOCOL_OPS = ("access_run", "access", "on_kernel_launch",
                "on_kernel_complete", "on_run_end")


def _bulk_lines(op: OpStats, args, kwargs, result, _before) -> None:
    if "count" in kwargs and kwargs["count"] is not None:
        op.lines += kwargs["count"]
    elif "lines" in kwargs and hasattr(kwargs["lines"], "__len__"):
        op.lines += len(kwargs["lines"])
    elif "events" in kwargs:
        op.lines += len(kwargs["events"])
    elif result is not None:  # whole-cache flush or invalidate
        op.lines += result.dropped or len(result.lines)


def _intern_pre(args, kwargs):
    from repro.workloads.base import _RUN_CACHE, PatternKind
    arg = args[0] if args else kwargs["arg"]
    if arg.pattern in (PatternKind.RANDOM, PatternKind.INDIRECT):
        return len(_RUN_CACHE)
    return None


def _intern_note(op: OpStats, args, kwargs, result, before) -> None:
    if before is None:
        return
    from repro.workloads.base import _RUN_CACHE
    op.cacheable += 1
    if len(_RUN_CACHE) == before:
        op.hits += 1


def _sim_lines(op: OpStats, args, kwargs, result, _before) -> None:
    op.lines += args[0].last_trace_lines


def _patch_function(module_name: str, name: str, wrapper: Callable,
                    undo: List[Callable]) -> None:
    """Rebind ``module.name`` in every loaded ``repro`` module that
    holds the original function, so every caller sees the wrapper."""
    original = getattr(sys.modules[module_name], name)
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append(functools.partial(setattr, module, attr,
                                              original))


def _patch_method(cls: type, name: str, wrapper_of: Callable,
                  undo: List[Callable]) -> None:
    original = cls.__dict__[name]
    setattr(cls, name, wrapper_of(original))
    undo.append(functools.partial(setattr, cls, name, original))


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's public calls; returns the undo callable."""
    import repro.coherence.cpelide  # noqa: F401  (register subclasses)
    import repro.coherence.hmg  # noqa: F401
    import repro.coherence.timestamp  # noqa: F401
    import repro.coherence.viper  # noqa: F401
    import repro.engine.dist  # noqa: F401
    import repro.engine.runner  # noqa: F401
    import repro.gpu.memo  # noqa: F401
    import repro.gpu.sim  # noqa: F401
    import repro.server.app  # noqa: F401
    import repro.workloads.base  # noqa: F401
    import repro.workloads.suite  # noqa: F401
    from repro.coherence.base import CoherenceProtocol
    from repro.core.elision import ElisionEngine
    from repro.cp.global_cp import GlobalCP
    from repro.energy.model import EnergyModel
    from repro.engine.cache import ResultCache, SharedResultCache
    from repro.engine.dist import DistSweepRunner
    from repro.gpu.memo import KernelMemoizer
    from repro.gpu.sim import Simulator
    from repro.memory.cache import SetAssocCache
    from repro.memory.npcache import NumpyCacheCore
    from repro.timing.model import TimingModel

    undo: List[Callable] = []

    def function(module: str, name: str, layer: str, **hooks) -> None:
        original = getattr(sys.modules[module], name)
        _patch_function(module, name,
                        recorder.wrap((layer, name), original, **hooks),
                        undo)

    def method(cls: type, name: str, layer: str, **hooks) -> None:
        _patch_method(cls, name,
                      lambda fn: recorder.wrap((layer, name), fn, **hooks),
                      undo)

    function("repro.workloads.suite", "build_workload", "workloads")
    function("repro.workloads.suite", "prewarm_traces", "workloads")
    function("repro.workloads.base", "prewarm_workload_traces", "workloads")
    function("repro.workloads.base", "interned_runs_for_arg", "workloads",
             pre=_intern_pre, note=_intern_note)
    function("repro.workloads.base", "lines_for_arg", "workloads")

    for name in BULK_OPS:
        method(SetAssocCache, name, "memory", note=_bulk_lines)
    for cls in (SetAssocCache, NumpyCacheCore):
        for name in ("access", "lookup"):
            method(cls, name, "memory")

    protocol_classes = [CoherenceProtocol]
    for cls in protocol_classes:  # grows while iterating: all subclasses
        protocol_classes.extend(cls.__subclasses__())
    for cls in dict.fromkeys(protocol_classes):
        for name in PROTOCOL_OPS:
            if name in cls.__dict__:
                method(cls, name, "coherence")
    method(ElisionEngine, "process_launch", "core")
    method(GlobalCP, "launch_next", "cp")
    method(GlobalCP, "complete", "cp")

    method(TimingModel, "kernel_time", "timing")
    method(TimingModel, "sync_cycles", "timing")
    method(EnergyModel, "breakdown", "timing")

    method(Simulator, "run", "gpu", note=_sim_lines)
    for name in ("lookup_key", "begin_capture", "end_capture", "replay",
                 "flush_pending"):
        method(KernelMemoizer, name, "memo")

    method(ResultCache, "load", "engine")
    method(ResultCache, "store", "engine")
    for name in ("acquire", "store_and_release", "wait_for"):
        method(SharedResultCache, name, "engine")
    # The runner hands cells to workers and rebuilds their results: its
    # own time is not a layer's, so it shows in ``other_s``.
    method(DistSweepRunner, "run", "engine", transparent=True)
    function("repro.engine.runner", "prewarm_pending_traces", "engine")
    function("repro.engine.dist", "run_job_shared", "engine")

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall
