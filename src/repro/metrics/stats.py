"""Counters collected per kernel and aggregated per run.

Every quantity the paper's figures report is derived from these counters:
Fig. 8 from kernel cycles, Fig. 9 from access counts fed to the energy
model, Fig. 10 from the traffic meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Sequence, Tuple

from repro.interconnect.noc import FlitParams, TrafficMeter


@dataclass
class AccessCounts:
    """Memory-access event counts for one kernel (device-wide).

    ``l2_local_*`` are requests a chiplet makes to its own L2;
    ``l2_remote_*`` are requests served at another chiplet's L2 (Baseline /
    CPElide forward remote requests to the home node; HMG caches remotely
    fetched lines locally, so its remote counts are home-node fetches).
    """

    l1_accesses: int = 0
    l1_hits: int = 0
    lds_accesses: int = 0
    l2_local_hits: int = 0
    l2_local_misses: int = 0
    l2_remote_hits: int = 0
    l2_remote_misses: int = 0
    l2_writethroughs: int = 0
    l3_hits: int = 0
    l3_misses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    #: Coherence-protocol stalls: inter-chiplet invalidation round trips
    #: a request waits on (HMG sharer invalidations, Sec. V-B).
    coherence_stalls: int = 0

    def merge(self, other: "AccessCounts") -> None:
        """Accumulate ``other`` into ``self``."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _ACCESS_FIELDS:
            mine[name] += theirs[name]

    @property
    def l2_accesses(self) -> int:
        """All L2 demand accesses (local + remote)."""
        return (self.l2_local_hits + self.l2_local_misses
                + self.l2_remote_hits + self.l2_remote_misses)

    @property
    def l2_hits(self) -> int:
        """All L2 hits."""
        return self.l2_local_hits + self.l2_remote_hits

    @property
    def l2_misses(self) -> int:
        """All L2 misses."""
        return self.l2_local_misses + self.l2_remote_misses

    @property
    def l2_miss_rate(self) -> float:
        """L2 miss rate over demand accesses (0 if no accesses)."""
        total = self.l2_accesses
        return self.l2_misses / total if total else 0.0

    @property
    def dram_accesses(self) -> int:
        """All DRAM line accesses."""
        return self.dram_reads + self.dram_writes

    def to_dict(self) -> Dict[str, int]:
        """JSON-serializable field dump (counter fields only)."""
        values = self.__dict__
        return {name: int(values[name]) for name in _ACCESS_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "AccessCounts":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**{k: int(v) for k, v in data.items()})

    def to_row(self) -> List[int]:
        """Counter fields in field order, rebuilt by
        ``AccessCounts(*row)``."""
        values = self.__dict__
        return [int(values[name]) for name in _ACCESS_FIELDS]


@dataclass
class SyncCounts:
    """Synchronization-operation counts for one kernel boundary.

    CPElide's whole contribution is visible here: elided acquires/releases
    versus issued ones, and the flush/invalidate line volumes that the
    issued operations moved.
    """

    acquires_issued: int = 0
    releases_issued: int = 0
    acquires_elided: int = 0
    releases_elided: int = 0
    lines_flushed: int = 0
    lines_invalidated: int = 0
    dir_evictions: int = 0
    dir_invalidations: int = 0
    cp_messages: int = 0
    #: Timestamp-protocol self-invalidations: copies dropped because
    #: their lease aged out, and copies dropped because a remote write
    #: stamped the line after the local fill (exact stale detection).
    lease_expiries: int = 0
    lease_stale_refetches: int = 0

    def merge(self, other: "SyncCounts") -> None:
        """Accumulate ``other`` into ``self``."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _SYNC_FIELDS:
            mine[name] += theirs[name]

    def to_dict(self) -> Dict[str, int]:
        """JSON-serializable field dump."""
        values = self.__dict__
        return {name: int(values[name]) for name in _SYNC_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "SyncCounts":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**{k: int(v) for k, v in data.items()})

    def to_row(self) -> List[int]:
        """Counter fields in field order, rebuilt by
        ``SyncCounts(*row)``."""
        values = self.__dict__
        return [int(values[name]) for name in _SYNC_FIELDS]


#: Counter field names in field order, read by the ``to_dict``,
#: ``to_row`` and ``merge`` calls instead of ``dataclasses.fields`` on
#: every call.
_ACCESS_FIELDS = tuple(f.name for f in fields(AccessCounts))
_SYNC_FIELDS = tuple(f.name for f in fields(SyncCounts))


@dataclass
class KernelMetrics:
    """Everything measured for one dynamic kernel."""

    kernel_name: str
    kernel_index: int
    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    sync_cycles: float = 0.0
    #: Portion of ``sync_cycles`` spent on the CP-side critical path
    #: (dispatch, table ops, crossbar); the rest is flush/invalidate
    #: service time at the caches.
    cp_overhead_cycles: float = 0.0
    accesses: AccessCounts = field(default_factory=AccessCounts)
    sync: SyncCounts = field(default_factory=SyncCounts)
    traffic: TrafficMeter = field(default_factory=TrafficMeter)
    chiplets_used: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump of one kernel's measurements."""
        return {
            "kernel_name": self.kernel_name,
            "kernel_index": int(self.kernel_index),
            "cycles": float(self.cycles),
            "compute_cycles": float(self.compute_cycles),
            "memory_cycles": float(self.memory_cycles),
            "sync_cycles": float(self.sync_cycles),
            "cp_overhead_cycles": float(self.cp_overhead_cycles),
            "accesses": self.accesses.to_dict(),
            "sync": self.sync.to_dict(),
            "traffic": self.traffic.to_dict(),
            "chiplets_used": int(self.chiplets_used),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelMetrics":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            kernel_name=data["kernel_name"],
            kernel_index=int(data["kernel_index"]),
            cycles=float(data["cycles"]),
            compute_cycles=float(data["compute_cycles"]),
            memory_cycles=float(data["memory_cycles"]),
            sync_cycles=float(data["sync_cycles"]),
            cp_overhead_cycles=float(data["cp_overhead_cycles"]),
            accesses=AccessCounts.from_dict(data["accesses"]),
            sync=SyncCounts.from_dict(data["sync"]),
            traffic=TrafficMeter.from_dict(data["traffic"]),
            chiplets_used=int(data["chiplets_used"]),
        )

    def to_row(self) -> List[Any]:
        """One kernel as a positional row: the fields in field order,
        the three counter groups as :meth:`AccessCounts.to_row`,
        :meth:`SyncCounts.to_row` and :meth:`TrafficMeter.to_row` lists,
        with :meth:`to_dict`'s ``int``/``float`` normalisation."""
        return [self.kernel_name, int(self.kernel_index),
                float(self.cycles), float(self.compute_cycles),
                float(self.memory_cycles), float(self.sync_cycles),
                float(self.cp_overhead_cycles), self.accesses.to_row(),
                self.sync.to_row(), self.traffic.to_row(),
                int(self.chiplets_used)]

    @classmethod
    def from_row(cls, row: Sequence[Any],
                 flit_params: Dict[Tuple[int, int], FlitParams],
                 ) -> "KernelMetrics":
        """Rebuild from :meth:`to_row` output, positionally and without
        coercion (:meth:`to_row` normalised the values, and JSON keeps
        ``int`` and ``float`` apart). ``flit_params`` is the
        :meth:`TrafficMeter.from_row` share of one result."""
        (name, index, cycles, compute, memory, sync_cycles, cp_overhead,
         accesses, sync, traffic, chiplets_used) = row
        return cls(name, index, cycles, compute, memory, sync_cycles,
                   cp_overhead, AccessCounts(*accesses), SyncCounts(*sync),
                   TrafficMeter.from_row(traffic, flit_params),
                   chiplets_used)


@dataclass
class RunMetrics:
    """Aggregated metrics for one (workload, config, protocol) run."""

    workload: str
    protocol: str
    num_chiplets: int
    kernels: List[KernelMetrics] = field(default_factory=list)

    def add_kernel(self, km: KernelMetrics) -> None:
        """Record one dynamic kernel's metrics."""
        self.kernels.append(km)

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles (kernels execute back-to-back in a stream)."""
        return sum(k.cycles for k in self.kernels)

    @property
    def total_sync_cycles(self) -> float:
        """Cycles spent on synchronization across all kernel boundaries."""
        return sum(k.sync_cycles for k in self.kernels)

    @property
    def total_sync_service_cycles(self) -> float:
        """Flush/invalidate service cycles only (excluding the CP-side
        dispatch/table/crossbar overheads) — what one additional set of
        acquires/releases would replay (Sec. VI scaling study)."""
        return sum(k.sync_cycles - k.cp_overhead_cycles
                   for k in self.kernels)

    @property
    def num_kernels(self) -> int:
        """Dynamic kernel count."""
        return len(self.kernels)

    def total_accesses(self) -> AccessCounts:
        """Sum of all kernels' access counts."""
        total = AccessCounts()
        for k in self.kernels:
            total.merge(k.accesses)
        return total

    def total_sync(self) -> SyncCounts:
        """Sum of all kernels' synchronization counts."""
        total = SyncCounts()
        for k in self.kernels:
            total.merge(k.sync)
        return total

    def total_traffic(self) -> TrafficMeter:
        """Sum of all kernels' traffic meters."""
        total = TrafficMeter()
        for k in self.kernels:
            total.merge(k.traffic)
        return total

    def energy(self, model: "object") -> Dict[str, float]:
        """Compute the Fig. 9 energy breakdown with ``model``
        (:class:`repro.energy.EnergyModel`)."""
        return model.breakdown(self.total_accesses(), self.total_traffic())

    def summary(self) -> Dict[str, float]:
        """Compact scalar summary used by the experiment harnesses.

        Every value is a plain Python ``float``/``int``, so the summary
        can be serialized with :mod:`json` as-is.
        """
        acc = self.total_accesses()
        sync = self.total_sync()
        traffic = self.total_traffic()
        return {
            "cycles": float(self.total_cycles),
            "sync_cycles": float(self.total_sync_cycles),
            "kernels": int(self.num_kernels),
            "l2_miss_rate": float(acc.l2_miss_rate),
            "dram_accesses": int(acc.dram_accesses),
            "traffic_flits": int(traffic.total),
            "remote_flits": int(traffic.remote),
            "acquires_elided": int(sync.acquires_elided),
            "releases_elided": int(sync.releases_elided),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump of the whole run (one entry per
        dynamic kernel), losslessly restored by :meth:`from_dict`."""
        return {
            "workload": self.workload,
            "protocol": self.protocol,
            "num_chiplets": int(self.num_chiplets),
            "kernels": [k.to_dict() for k in self.kernels],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunMetrics":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            workload=data["workload"],
            protocol=data["protocol"],
            num_chiplets=int(data["num_chiplets"]),
            kernels=[KernelMetrics.from_dict(k) for k in data["kernels"]],
        )

    def to_record(self) -> List[Any]:
        """Positional form of :meth:`to_dict`:
        ``[workload, protocol, num_chiplets, kernel rows]`` (one
        :meth:`KernelMetrics.to_row` per kernel)."""
        return [self.workload, self.protocol, int(self.num_chiplets),
                [k.to_row() for k in self.kernels]]

    @classmethod
    def from_record(cls, record: Sequence[Any]) -> "RunMetrics":
        """Rebuild from :meth:`to_record` output; the kernels' meters
        share one :class:`FlitParams` per distinct value."""
        workload, protocol, num_chiplets, rows = record
        flit_params: Dict[Tuple[int, int], FlitParams] = {}
        return cls(workload, protocol, num_chiplets,
                   [KernelMetrics.from_row(row, flit_params)
                    for row in rows])
