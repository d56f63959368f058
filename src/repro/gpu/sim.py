"""Top-level trace-driven simulator.

Drives one workload through one (config, protocol) pair:

1. the runtime side builds each kernel's packet (with the Sec. III-B
   software annotations) and submits it to the global CP;
2. the global CP performs the protocol's launch-time synchronization and
   places WGs (static kernel-wide partitioning);
3. the trace generator sweeps each argument's per-chiplet lines through
   the L1 filter and the protocol's access path;
4. the protocol's completion hook runs (Baseline's implicit release);
5. the timing model converts the harvested counters into cycles.

Streams: kernels on different streams accumulate onto separate stream
clocks (they may run concurrently when bound to disjoint chiplet subsets);
the run's wall time is the slowest stream's clock.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.check.sanitizer import SyncSanitizer, checks_enabled
from repro.coherence.base import CoherenceProtocol, make_protocol
from repro.errors import ConfigError
from repro.cp.driver import GPUDriver
from repro.cp.global_cp import GlobalCP
from repro.cp.local_cp import SyncOpKind
from repro.energy.model import EnergyModel
from repro.gpu.config import GPUConfig
from repro.gpu.device import Device
from repro.metrics.stats import KernelMetrics, RunMetrics, SyncCounts
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.timing.model import TimingModel
from repro.workloads.base import (
    AccessKind,
    Kernel,
    LineRun,
    Workload,
    interned_runs_for_arg,
    lines_for_arg,
)

#: Canonical trace-path selection API — the enum and resolver live in
#: :mod:`repro.gpu.trace_path` and are re-exported here for the
#: historical import site.
from repro.gpu.trace_path import (  # noqa: E402, F401  (re-export)
    TRACE_PATH_ENV,
    TracePath,
    resolve_trace_path,
)


@dataclass
class SimulationResult:
    """Outcome of one workload run."""

    metrics: RunMetrics
    energy: Dict[str, float]
    wall_cycles: float
    protocol: str
    num_chiplets: int
    #: Memo trace-path diagnostics (kernels replayed from / recorded
    #: into the memo store; ``memo_bypasses`` is always 0 on the memo
    #: path, since every kernel is keyed). ``None`` whenever the run
    #: was not memoized — the line and run paths, and results rebuilt
    #: from a serialized dump (the counters are deliberately *not* part
    #: of :meth:`to_dict` or :meth:`to_record`: the dump must stay
    #: bit-identical across trace paths and across warm vs. cold memo
    #: stores for the differential tests and the engine's result
    #: cache). Consumers must treat ``None`` as "not applicable", never
    #: as zero activity.
    memo_hits: Optional[int] = None
    memo_misses: Optional[int] = None
    memo_bypasses: Optional[int] = None
    #: True when the engine served this result from its persistent
    #: :class:`~repro.engine.cache.ResultCache` instead of simulating.
    from_cache: bool = False

    @property
    def cycles(self) -> float:
        """Wall-clock cycles of the run."""
        return self.wall_cycles

    def summary(self) -> Dict[str, float]:
        """Scalar summary for the experiment harnesses.

        Every value is a plain JSON-serializable ``float``/``int``.
        """
        out = self.metrics.summary()
        out["wall_cycles"] = float(self.wall_cycles)
        out["energy_total"] = float(self.energy["total"])
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serializable dump of the result.

        ``SimulationResult.from_dict(json.loads(json.dumps(r.to_dict())))``
        reproduces ``r`` bit-for-bit. This is the public form (API sweep
        dumps, server result bodies, the benchmark's digests); the
        engine's worker transport and result cache carry the equivalent
        :meth:`to_record`.
        """
        return {
            "protocol": self.protocol,
            "num_chiplets": int(self.num_chiplets),
            "wall_cycles": float(self.wall_cycles),
            "energy": {k: float(v) for k, v in self.energy.items()},
            "metrics": self.metrics.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            metrics=RunMetrics.from_dict(data["metrics"]),
            energy={k: float(v) for k, v in data["energy"].items()},
            wall_cycles=float(data["wall_cycles"]),
            protocol=data["protocol"],
            num_chiplets=int(data["num_chiplets"]),
        )

    def to_record(self) -> List[Any]:
        """Lossless positional record of the result:
        ``[protocol, num_chiplets, wall_cycles, energy, metrics]``, the
        metrics as :meth:`RunMetrics.to_record`.

        It carries exactly what :meth:`to_dict` carries, normalised the
        same way, without a key per field:
        the sweep engine moves results between processes and stores them
        in its result cache in this form. :meth:`from_record` of its JSON
        wire form equals ``r`` and has ``r``'s :meth:`to_dict`.
        """
        return [self.protocol, int(self.num_chiplets),
                float(self.wall_cycles),
                {k: float(v) for k, v in self.energy.items()},
                self.metrics.to_record()]

    @classmethod
    def from_record(cls, record: Sequence[Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_record` output."""
        protocol, num_chiplets, wall_cycles, energy, metrics = record
        return cls(RunMetrics.from_record(metrics), energy, wall_cycles,
                   protocol, num_chiplets)


class Simulator:
    """Runs workloads against a configured protocol.

    ``protocol`` is either a registry name (see
    :func:`repro.coherence.base.make_protocol`) or a factory callable
    ``(config, device) -> CoherenceProtocol`` for custom protocols.
    """

    def __init__(self, config: GPUConfig, protocol="baseline",
                 scheduler: str = "static",
                 trace_path: Optional[str] = None,
                 tracer: Optional[Tracer] = None) -> None:
        if scheduler not in ("static", "locality"):
            raise ConfigError(
                f"scheduler must be 'static' or 'locality', got {scheduler!r}")
        self.config = config
        self.protocol_name = protocol
        self.scheduler = scheduler
        self.trace_path = resolve_trace_path(trace_path)
        #: Observability tracepoint sink; :data:`~repro.obs.tracer
        #: .NULL_TRACER` (free) unless a tracer was attached.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: Memo outcome ("hit"/"miss") of the kernel currently executing,
        #: consumed by the kernel-complete tracepoint.
        self._memo_outcome: Optional[str] = None
        #: Trace lines swept by the most recent :meth:`run` (all kernels);
        #: the bench harness reads this for its lines/sec figures.
        self.last_trace_lines = 0
        #: Whether the :mod:`repro.check` sanitizer runs (config flag or
        #: ``REPRO_CHECK`` environment, resolved at construction).
        self.check_enabled = checks_enabled(config)
        self._sanitizer = None
        #: The most recent run's device / protocol / sanitizer, retained
        #: for post-run state inspection (the differential oracle
        #: fingerprints final cache/table/directory state from these).
        self.last_device: Optional[Device] = None
        self.last_protocol: Optional[CoherenceProtocol] = None
        self.last_sanitizer = None

    # ------------------------------------------------------------------

    def run(self, workload: Workload) -> SimulationResult:
        """Simulate ``workload`` end to end and return its metrics."""
        config = self.config
        device = Device(config)
        # Installed before protocol construction so components built by
        # the protocol (e.g. the coherence table) share the tracer.
        tracer = self.tracer
        device.tracer = tracer
        if callable(self.protocol_name):
            protocol = self.protocol_name(config, device)
        else:
            protocol = make_protocol(self.protocol_name, config, device)
        if self.scheduler == "locality":
            from repro.cp.locality_scheduler import LocalityAwareWGScheduler
            wg_scheduler = LocalityAwareWGScheduler(config.num_chiplets)
        else:
            wg_scheduler = None
        global_cp = GlobalCP(config, device, protocol,
                             wg_scheduler=wg_scheduler)
        driver = GPUDriver(config)
        timing = TimingModel(config)
        self.last_device = device
        self.last_protocol = protocol
        self._sanitizer = (SyncSanitizer(config, device, protocol)
                           if self.check_enabled else None)
        self.last_sanitizer = self._sanitizer
        memoizer = self._make_memoizer(device, protocol, global_cp, driver,
                                       wg_scheduler)
        metrics = RunMetrics(workload=workload.name,
                             protocol=protocol.name,
                             num_chiplets=config.num_chiplets)
        stream_clocks: Dict[int, float] = defaultdict(float)
        self.last_trace_lines = 0
        if tracer.enabled:
            tracer.run_begin(workload=workload.name, protocol=protocol.name,
                             num_chiplets=config.num_chiplets,
                             clock_hz=config.gpu_clock_hz,
                             trace_path=self.trace_path)

        for kernel in workload.kernels:
            lines_before = self.last_trace_lines
            self._memo_outcome = None
            if memoizer is not None:
                km = self._run_kernel_memo(kernel, driver, device, protocol,
                                           global_cp, timing, memoizer)
            else:
                km = self._run_kernel(kernel, driver, device, protocol,
                                      global_cp, timing)
            metrics.add_kernel(km)
            stream_clocks[kernel.stream_id] += km.cycles
            if tracer.enabled:
                tracer.kernel_complete(
                    name=km.kernel_name, index=km.kernel_index,
                    stream=kernel.stream_id, cycles=km.cycles,
                    sync_cycles=km.sync_cycles,
                    lines=self.last_trace_lines - lines_before,
                    lines_flushed=km.sync.lines_flushed,
                    lines_invalidated=km.sync.lines_invalidated,
                    memo=self._memo_outcome)

        if memoizer is not None:
            # The end-of-run release reads the caches for real.
            memoizer.flush_pending()
        finalize = self._finalize(device, protocol, timing,
                                  len(workload.kernels))
        if finalize is not None:
            metrics.add_kernel(finalize)
            if stream_clocks:
                slowest = max(stream_clocks, key=lambda s: stream_clocks[s])
                stream_clocks[slowest] += finalize.cycles
            else:
                # Zero-kernel run (e.g. a workload drained before
                # simulation): the final release is the only activity.
                stream_clocks[0] = finalize.cycles

        wall = max(stream_clocks.values()) if stream_clocks else 0.0
        energy = EnergyModel().breakdown(metrics.total_accesses(),
                                         metrics.total_traffic())
        result = SimulationResult(metrics=metrics, energy=energy,
                                  wall_cycles=wall,
                                  protocol=protocol.name,
                                  num_chiplets=config.num_chiplets)
        if memoizer is not None:
            result.memo_hits = memoizer.hits
            result.memo_misses = memoizer.misses
            result.memo_bypasses = 0
        if tracer.enabled:
            tracer.run_end(wall_cycles=wall, kernels=len(workload.kernels))
        self._sanitizer = None
        return result

    def _make_memoizer(self, device, protocol, global_cp, driver,
                       wg_scheduler):
        """Build the run's :class:`~repro.gpu.memo.KernelMemoizer`, or
        ``None`` off the memo path. Custom protocol factories have no
        stable registry name to key the shared store by, so they run
        unmemoized even under ``trace_path='memo'``."""
        if self.trace_path is not TracePath.MEMO or callable(
                self.protocol_name):
            return None
        from repro.gpu.memo import KernelMemoizer, store_for
        context = (repr(self.config), protocol.name, self.scheduler)
        return KernelMemoizer(store_for(context), device, protocol,
                              global_cp, driver, wg_scheduler)

    # ------------------------------------------------------------------

    def _run_kernel(self, kernel: Kernel, driver: GPUDriver, device: Device,
                    protocol: CoherenceProtocol, global_cp: GlobalCP,
                    timing: TimingModel) -> KernelMetrics:
        packet = driver.enqueue_kernel(kernel)
        device.begin_kernel()
        driver.submit(global_cp)
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.before_launch()
        decision = global_cp.launch_next()
        assert decision is not None
        placement = decision.placement
        if sanitizer is not None:
            sanitizer.after_launch(packet, placement, decision)

        total_lines = self._run_trace(kernel, packet.kernel_id, device,
                                      protocol, placement)
        self._record_lds(kernel, device, placement, total_lines)
        completion = global_cp.complete(packet, placement)
        if sanitizer is not None:
            sanitizer.after_kernel(packet)

        lines_flushed = decision.lines_flushed + completion.lines_flushed
        lines_invalidated = (decision.lines_invalidated
                             + completion.lines_invalidated)
        had_ops = bool(decision.launch_ops or completion.ops)
        compute_cycles = kernel.compute_intensity * total_lines
        kt = timing.kernel_time(
            placement=placement,
            per_chiplet_counts=device.counts,
            traffic=device.traffic,
            compute_cycles=compute_cycles,
            sync_lines_flushed=lines_flushed,
            sync_lines_invalidated=lines_invalidated,
            had_sync_ops=had_ops,
            cp_overhead_cycles=decision.cp_overhead_cycles,
            mlp_factor=self._occupancy_factor(kernel),
        )

        sync = self._sync_counts(decision, completion, protocol)
        return KernelMetrics(
            kernel_name=kernel.name,
            kernel_index=packet.kernel_id,
            cycles=kt.total_cycles,
            compute_cycles=kt.compute_cycles,
            memory_cycles=kt.memory_cycles,
            sync_cycles=kt.sync_cycles,
            cp_overhead_cycles=decision.cp_overhead_cycles,
            accesses=device.merged_counts(),
            sync=sync,
            traffic=device.traffic,
            chiplets_used=placement.num_chiplets,
        )

    def _run_kernel_memo(self, kernel: Kernel, driver: GPUDriver,
                         device: Device, protocol: CoherenceProtocol,
                         global_cp: GlobalCP, timing: TimingModel,
                         memoizer) -> KernelMetrics:
        """Memo trace path: replay a recorded outcome when this exact
        (kernel, pre-state, launch position) transition has been seen,
        otherwise run the kernel for real and record it."""
        tracer = self.tracer
        key = memoizer.lookup_key(kernel)
        entry = memoizer.store.get(key)
        if entry is not None:
            km, trace_lines = memoizer.replay(entry, kernel)
            self.last_trace_lines += trace_lines
            self._memo_outcome = "hit"
            if tracer.enabled:
                # Replays skip the global CP, so synthesize the launch
                # boundary (placement unknown on a hit) for the trace.
                tracer.kernel_launch(name=km.kernel_name,
                                     index=km.kernel_index,
                                     stream=kernel.stream_id, chiplets=[])
                tracer.memo_event(outcome="hit", name=km.kernel_name,
                                  index=km.kernel_index)
            return km
        lines_before = self.last_trace_lines
        pre = memoizer.begin_capture()
        self._memo_outcome = "miss"
        km = self._run_kernel(kernel, driver, device, protocol,
                              global_cp, timing)
        memoizer.end_capture(key, pre, km,
                             self.last_trace_lines - lines_before)
        if tracer.enabled:
            tracer.memo_event(outcome="miss", name=km.kernel_name,
                              index=km.kernel_index)
        return km

    def _occupancy_factor(self, kernel: Kernel) -> float:
        """Occupancy-derived MLP factor (1.0 for undeclared resources)."""
        if kernel.resources is None:
            return 1.0
        from repro.cp.dispatcher import LocalDispatcher
        fraction = LocalDispatcher(self.config).occupancy(
            kernel.resources).fraction
        return max(0.025, min(1.0, fraction))

    # ------------------------------------------------------------------

    def _run_trace(self, kernel: Kernel, kernel_id: int, device: Device,
                   protocol: CoherenceProtocol, placement) -> int:
        """Sweep every argument's trace through the protocol.

        Uses the per-line reference path or the batched run path per
        :attr:`trace_path`; both produce bit-identical results. Returns
        the total distinct lines touched (drives compute time).
        """
        total_lines = 0
        caches_remote = protocol.caches_remote_locally
        batched = self.trace_path is not TracePath.LINE
        for arg in kernel.args:
            kind = arg.effective_kind
            for logical, chiplet in enumerate(placement.chiplets):
                if batched:
                    runs = interned_runs_for_arg(arg, logical,
                                                 placement.num_chiplets,
                                                 kernel_id)
                    if not runs:
                        continue
                    total_lines += self._run_arg_runs(
                        arg, kind, runs, chiplet, device, protocol,
                        caches_remote)
                else:
                    lines = lines_for_arg(arg, logical,
                                          placement.num_chiplets, kernel_id)
                    if not lines:
                        continue
                    total_lines += len(lines)
                    self._run_arg_stream(arg, kind, lines, chiplet, device,
                                         protocol, caches_remote)
        self.last_trace_lines += total_lines
        return total_lines

    def _run_arg_stream(self, arg, kind: AccessKind, lines: List[int],
                        chiplet: int, device: Device,
                        protocol: CoherenceProtocol,
                        caches_remote: bool) -> None:
        do_load = kind in (AccessKind.LOAD, AccessKind.LOAD_STORE)
        do_store = kind in (AccessKind.STORE, AccessKind.LOAD_STORE)

        local_lines = 0
        for line in lines:
            if do_load:
                protocol.access(chiplet, line, is_write=False)
            if do_store:
                protocol.access(chiplet, line, is_write=True)
            if device.home_map.peek_home_of_line(line) == chiplet:
                local_lines += 1

        self._account_l1(arg, do_load, do_store, len(lines), local_lines,
                         chiplet, device, caches_remote)

    def _run_arg_runs(self, arg, kind: AccessKind, runs: Sequence[LineRun],
                      chiplet: int, device: Device,
                      protocol: CoherenceProtocol,
                      caches_remote: bool) -> int:
        """Batched equivalent of :meth:`_run_arg_stream` over interval
        runs. Returns the trace length (for the caller's line total)."""
        do_load = kind in (AccessKind.LOAD, AccessKind.LOAD_STORE)
        do_store = kind in (AccessKind.STORE, AccessKind.LOAD_STORE)
        access = protocol.access
        access_run = protocol.access_run
        peek = device.home_map.peek_home_of_line
        total = 0
        local_lines = 0
        for run in runs:
            n = run.count
            total += n
            if n == 1:
                # Singleton runs (random patterns) skip the bulk framing.
                line = run.start
                if do_load:
                    access(chiplet, line, is_write=False)
                if do_store:
                    access(chiplet, line, is_write=True)
                if peek(line) == chiplet:
                    local_lines += 1
            else:
                # The protocol resolved every page home on the way
                # through; reuse its local-line count for the L1 split.
                local_lines += access_run(chiplet, run.start, n,
                                          do_load, do_store)

        self._account_l1(arg, do_load, do_store, total, local_lines,
                         chiplet, device, caches_remote)
        return total

    def _account_l1(self, arg, do_load: bool, do_store: bool,
                    num_lines: int, local_lines: int, chiplet: int,
                    device: Device, caches_remote: bool) -> None:
        """Statistical L1 over the swept stream: first touches reached the
        L2 in the caller; surviving repeat touches are L2 hits by
        construction. Shared by the line and run paths."""
        tracer = device.tracer
        if tracer.enabled:
            tracer.access_batch(arg=arg.buffer.name, chiplet=chiplet,
                                lines=num_lines, local_lines=local_lines,
                                loads=do_load, stores=do_store)
        counts = device.counts[chiplet]
        if do_load:
            res = device.l1_filter.filter(num_lines, arg.touches)
            counts.l1_accesses += res.l1_accesses
            counts.l1_hits += res.l1_hits
            repeats = res.l2_repeats
            if repeats:
                device.traffic.l1_request(repeats)
                device.traffic.l1_data(repeats)
                if caches_remote:
                    counts.l2_local_hits += repeats
                else:
                    local_share = local_lines / num_lines
                    local_rep = int(round(repeats * local_share))
                    remote_rep = repeats - local_rep
                    counts.l2_local_hits += local_rep
                    counts.l2_remote_hits += remote_rep
                    if remote_rep:
                        device.traffic.remote_request(remote_rep)
                        device.traffic.remote_data(remote_rep)
        if do_store:
            # Stores are write-through/no-allocate at the L1: every store
            # touches the L1 once on its way out.
            counts.l1_accesses += num_lines

    def _record_lds(self, kernel: Kernel, device: Device, placement,
                    total_lines: int) -> None:
        if kernel.lds_per_line <= 0:
            return
        total_lds = int(round(kernel.lds_per_line * total_lines))
        # Largest-remainder apportionment: floor every chiplet's share,
        # then hand the leftover accesses to the largest fractional
        # remainders (ties to the lower chiplet id) so the recorded
        # accesses sum exactly to total_lds — independent rounding could
        # drift by up to half a count per chiplet.
        shares = [total_lds * placement.share_of(c)
                  for c in placement.chiplets]
        amounts = [int(s) for s in shares]
        leftover = total_lds - sum(amounts)
        if leftover > 0:
            by_remainder = sorted(range(len(shares)),
                                  key=lambda i: (amounts[i] - shares[i], i))
            for i in by_remainder[:leftover]:
                amounts[i] += 1
        for chiplet, amount in zip(placement.chiplets, amounts):
            device.counts[chiplet].lds_accesses += amount

    # ------------------------------------------------------------------

    def _sync_counts(self, decision, completion,
                     protocol: CoherenceProtocol) -> SyncCounts:
        sync = SyncCounts()
        all_ops = list(decision.launch_ops) + list(completion.ops)
        sync.acquires_issued = sum(
            1 for op in all_ops if op.kind is SyncOpKind.ACQUIRE)
        sync.releases_issued = sum(
            1 for op in all_ops if op.kind is SyncOpKind.RELEASE)
        sync.lines_flushed = (decision.lines_flushed
                              + completion.lines_flushed)
        sync.lines_invalidated = (decision.lines_invalidated
                                  + completion.lines_invalidated)
        sync.cp_messages = self._drain_xbar_messages(protocol)
        outcome = getattr(protocol, "last_outcome", None)
        if outcome is not None:
            sync.acquires_elided = outcome.acquires_elided
            sync.releases_elided = outcome.releases_elided
        sync.merge(protocol.drain_sync_counts())
        return sync

    def _drain_xbar_messages(self, protocol: CoherenceProtocol) -> int:
        xbar = protocol.device.cp_xbar
        sent = xbar.messages_sent
        xbar.messages_sent = 0
        return sent

    # ------------------------------------------------------------------

    def _finalize(self, device: Device, protocol: CoherenceProtocol,
                  timing: TimingModel,
                  next_index: int) -> Optional[KernelMetrics]:
        """Execute the end-of-run release making results host-visible."""
        ops = protocol.on_run_end()
        if not ops:
            return None
        device.begin_kernel()
        flushed = 0
        invalidated = 0
        for op in ops:
            ack = device.local_cps[op.chiplet].execute(op,
                                                       boundary="run-end")
            flushed += ack.lines_flushed
            invalidated += ack.lines_invalidated
        if self._sanitizer is not None:
            self._sanitizer.after_run(ops)
        if flushed == 0 and invalidated == 0:
            return None
        sync_cycles = timing.sync_cycles(flushed, invalidated,
                                         had_sync_ops=True)
        sync = SyncCounts(releases_issued=len(ops), lines_flushed=flushed,
                          lines_invalidated=invalidated)
        return KernelMetrics(
            kernel_name="__finalize__",
            kernel_index=next_index,
            cycles=sync_cycles,
            sync_cycles=sync_cycles,
            accesses=device.merged_counts(),
            sync=sync,
            traffic=device.traffic,
            chiplets_used=self.config.num_chiplets,
        )
