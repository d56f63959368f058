"""Declarative sweep specifications and their expansion into jobs.

A sweep is the unit of work behind every figure/table: the cartesian
product of workloads x protocols x configurations (x scheduler), each
cell one independent simulation. :class:`SweepSpec` describes the
product declaratively; :meth:`SweepSpec.expand` flattens it into an
ordered list of :class:`JobSpec`\\ s. The expansion order is the sweep's
canonical result order — the runner aggregates results in this order no
matter which worker finishes first, so parallel runs are bit-identical
to serial ones.

Workloads are referenced by *spec*, not by object, so jobs stay picklable
across worker processes and hashable for the result cache:

* a plain registry name (``"square"``) builds via
  :func:`repro.workloads.suite.build_workload`;
* ``("multistream", name, num_streams)`` builds the Sec. VI concurrent-job
  variant via :func:`repro.experiments.multistream.make_multistream`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.workloads.base import Workload

#: Default simulation scale for sweeps (1/32 of Table I capacities).
DEFAULT_SCALE = 1 / 32

#: The paper's three evaluated configurations.
DEFAULT_PROTOCOLS = ("baseline", "hmg", "cpelide")

#: A workload reference: registry name or special-builder tuple.
WorkloadSpec = Union[str, Tuple[Any, ...]]

#: Job kinds the engine knows how to execute.
JOB_KINDS = ("simulate", "occupancy")

#: :class:`GPUConfig` field names in field order. Every field is a
#: scalar, so a shallow field dict is the ``dataclasses.asdict`` payload.
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(GPUConfig))


#: Canonical JSON of each config value seen, keyed by the config and
#: its field types (``1`` and ``1.0`` compare equal but dump apart).
_CONFIG_JSON: Dict[Tuple[GPUConfig, Tuple[type, ...]], str] = {}

#: Entry cap; the table is pure memoization, so eviction is a full clear.
_CONFIG_JSON_MAX = 1024


def _config_json(config: GPUConfig) -> str:
    """``json.dumps`` of ``config``'s field dict with sorted keys and
    compact separators, computed once per config value."""
    key = (config, tuple(map(type, vars(config).values())))
    text = _CONFIG_JSON.get(key)
    if text is None:
        if len(_CONFIG_JSON) >= _CONFIG_JSON_MAX:
            _CONFIG_JSON.clear()
        text = json.dumps({name: getattr(config, name)
                           for name in _CONFIG_FIELDS},
                          sort_keys=True, separators=(",", ":"))
        _CONFIG_JSON[key] = text
    return text


def _canonical_json(job: "JobSpec") -> str:
    """The canonical JSON of ``job.key_payload()`` (sorted keys, compact
    separators), byte for byte, with the config part from
    :func:`_config_json`: the payload's keys sort as ``config``,
    ``kind``, ``protocol``, ``scheduler``, ``workload``."""
    workload = (json.dumps(job.workload) if isinstance(job.workload, str)
                else json.dumps(list(job.workload), separators=(",", ":")))
    return (f'{{"config":{_config_json(job.config)},'
            f'"kind":{json.dumps(job.kind)},'
            f'"protocol":{json.dumps(job.protocol)},'
            f'"scheduler":{json.dumps(job.scheduler)},'
            f'"workload":{workload}}}')


def workload_label(spec: WorkloadSpec) -> str:
    """Human-readable (and result-keying) name of a workload spec."""
    if isinstance(spec, str):
        return spec
    kind = spec[0]
    if kind == "multistream":
        return f"{spec[1]}-ms{spec[2]}"
    raise ConfigError(f"unknown workload spec {spec!r}")


def build_for_job(spec: WorkloadSpec, config: GPUConfig) -> Workload:
    """Materialize a workload spec (runs inside worker processes)."""
    if isinstance(spec, str):
        from repro.workloads.suite import build_workload
        return build_workload(spec, config)
    kind = spec[0]
    if kind == "multistream":
        from repro.experiments.multistream import make_multistream
        return make_multistream(spec[1], config, int(spec[2]))
    raise ConfigError(f"unknown workload spec {spec!r}")


@dataclass(frozen=True)
class JobSpec:
    """One cell of a sweep: everything needed to (re)run one simulation."""

    workload: WorkloadSpec
    protocol: str
    config: GPUConfig
    scheduler: str = "static"
    kind: str = "simulate"
    #: Trace representation the job's simulator should use (``None``
    #: defers to ``REPRO_TRACE_PATH``/the default). Deliberately NOT part
    #: of :meth:`key_payload`: every path produces bit-identical results,
    #: so cache entries are shared across paths (matching the historical
    #: environment-variable behavior).
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ConfigError(
                f"kind must be one of {JOB_KINDS}, got {self.kind!r}")
        if not isinstance(self.protocol, str):
            raise TypeError(
                "JobSpec.protocol must be a registry name (callable "
                "protocol factories are not picklable/cacheable); got "
                f"{self.protocol!r}")
        from repro.coherence.registry import get_protocol
        get_protocol(self.protocol)  # ConfigError before work is queued

    @property
    def label(self) -> str:
        """Short display label, e.g. ``square/cpelide@4``."""
        return (f"{workload_label(self.workload)}/{self.protocol}"
                f"@{self.config.num_chiplets}")

    def key_payload(self) -> Dict[str, Any]:
        """Canonical JSON-able identity of this job (drives the cache
        key): workload spec, protocol, scheduler, kind, and every
        :class:`GPUConfig` field."""
        workload = (self.workload if isinstance(self.workload, str)
                    else list(self.workload))
        config = self.config
        return {
            "kind": self.kind,
            "workload": workload,
            "protocol": self.protocol,
            "scheduler": self.scheduler,
            "config": {name: getattr(config, name)
                       for name in _CONFIG_FIELDS},
        }

    @functools.cached_property
    def key(self) -> str:
        """Stable content hash of :meth:`key_payload` (blake2b of its
        canonical JSON, matching the memo store's digests): the job's
        result-cache key. Computed once per job; it travels with the
        job when the job is pickled to a worker."""
        return hashlib.blake2b(_canonical_json(self).encode(),
                               digest_size=32).hexdigest()

    def to_payload(self) -> Dict[str, Any]:
        """Full JSON round-trip payload (identity plus execution-only
        fields like ``trace_path``) — what the distributed engine
        scatters into a work directory for other hosts to pick up."""
        payload = self.key_payload()
        payload["trace_path"] = self.trace_path
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_payload` (lists re-tuple into workload
        specs; the config dict rebuilds a :class:`GPUConfig`)."""
        workload = payload["workload"]
        if isinstance(workload, list):
            workload = tuple(workload)
        return cls(workload=workload,
                   protocol=payload["protocol"],
                   config=GPUConfig(**payload["config"]),
                   scheduler=payload["scheduler"],
                   kind=payload["kind"],
                   trace_path=payload.get("trace_path"))


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: workloads x protocols x configs."""

    workloads: Tuple[WorkloadSpec, ...]
    protocols: Tuple[str, ...] = DEFAULT_PROTOCOLS
    configs: Tuple[GPUConfig, ...] = (GPUConfig(num_chiplets=4,
                                                scale=DEFAULT_SCALE),)
    scheduler: str = "static"
    kind: str = "simulate"
    #: Trace path for every expanded job (see :attr:`JobSpec.trace_path`).
    trace_path: Optional[str] = None

    @classmethod
    def grid(cls, workloads: Optional[Sequence[WorkloadSpec]] = None,
             protocols: Sequence[str] = DEFAULT_PROTOCOLS,
             chiplet_counts: Sequence[int] = (4,),
             scale: float = DEFAULT_SCALE,
             scheduler: str = "static",
             base_config: Optional[GPUConfig] = None,
             kind: str = "simulate",
             trace_path: Optional[str] = None) -> "SweepSpec":
        """Build a spec from the common (chiplet_counts, scale) grid.

        ``workloads=None`` selects all 24 Table II applications.
        ``base_config`` carries any other :class:`GPUConfig` overrides.
        """
        if workloads is None:
            from repro.workloads.suite import WORKLOAD_NAMES
            workloads = tuple(WORKLOAD_NAMES)
        base = base_config or GPUConfig(scale=scale)
        configs = tuple(
            dataclasses.replace(base, num_chiplets=n, scale=scale)
            for n in chiplet_counts)
        return cls(workloads=tuple(workloads), protocols=tuple(protocols),
                   configs=configs, scheduler=scheduler, kind=kind,
                   trace_path=trace_path)

    @property
    def num_jobs(self) -> int:
        """Cells in the product."""
        return len(self.workloads) * len(self.protocols) * len(self.configs)

    def to_payload(self) -> Dict[str, Any]:
        """JSON round-trip payload (the distributed engine's
        ``spec.json`` manifest in a scattered work directory)."""
        return {
            "workloads": [w if isinstance(w, str) else list(w)
                          for w in self.workloads],
            "protocols": list(self.protocols),
            "configs": [{name: getattr(c, name) for name in _CONFIG_FIELDS}
                        for c in self.configs],
            "scheduler": self.scheduler,
            "kind": self.kind,
            "trace_path": self.trace_path,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_payload`."""
        workloads = tuple(w if isinstance(w, str) else tuple(w)
                          for w in payload["workloads"])
        return cls(workloads=workloads,
                   protocols=tuple(payload["protocols"]),
                   configs=tuple(GPUConfig(**c) for c in payload["configs"]),
                   scheduler=payload["scheduler"],
                   kind=payload["kind"],
                   trace_path=payload.get("trace_path"))

    def expand(self) -> List[JobSpec]:
        """Flatten into jobs in canonical order: configs (outer) ->
        workloads -> protocols (inner), mirroring the historical
        ``run_matrix`` loop nest."""
        return [
            JobSpec(workload=workload, protocol=protocol, config=config,
                    scheduler=self.scheduler, kind=self.kind,
                    trace_path=self.trace_path)
            for config in self.configs
            for workload in self.workloads
            for protocol in self.protocols
        ]
