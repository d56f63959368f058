"""CPElide reproduction: efficient multi-chiplet GPU implicit synchronization.

A from-scratch Python reproduction of *CPElide: Efficient Multi-Chiplet GPU
Implicit Synchronization* (MICRO 2024): a trace-driven MCM-GPU simulator
(caches, interconnect, command processors), the CPElide Chiplet Coherence
Table and elision engine, the Baseline and HMG comparators, 24 workload
models, and the experiment harnesses regenerating every figure and table
of the paper's evaluation.

Quick start (the :mod:`repro.api` facade is the documented entry point)::

    from repro import simulate, sweep

    for protocol in ("baseline", "hmg", "cpelide"):
        result = simulate("babelstream", protocol)
        print(protocol, result.wall_cycles)

    # Or the whole suite at once, on 4 worker processes and cached:
    res = sweep(workers=4)
    print(res.report.summary())
"""

from repro.coherence import (
    BaselineProtocol,
    CPElideProtocol,
    CPElideTimestampProtocol,
    HMGProtocol,
    LeaseLedger,
    MonolithicProtocol,
    ProtocolSpec,
    TimestampProtocol,
    get_protocol,
    make_protocol,
    protocol_names,
    protocols,
    register_protocol,
    unregister_protocol,
)
from repro.core import ChipletCoherenceTable, ChipletState, ElisionEngine
from repro.cp import AccessMode, KernelPacket, Placement
from repro.energy import EnergyModel
from repro.gpu import Device, GPUConfig, SimulationResult, Simulator, monolithic_equivalent
from repro.hip import HipRuntime
from repro.metrics import RunMetrics, format_table, geomean
from repro.timing import TimingModel
from repro.workloads import (
    HIGH_REUSE,
    LOW_REUSE,
    WORKLOAD_NAMES,
    Kernel,
    KernelArg,
    Workload,
    build_workload,
)
from repro.cp.dispatcher import KernelResources, LocalDispatcher
from repro.analysis import (
    bar_chart,
    grouped_bar_chart,
    profile_table_occupancy,
    trace_sync_ops,
)
from repro.engine import (
    ResultCache,
    SweepReport,
    SweepResult,
    SweepRunner,
    SweepSpec,
)
from repro.errors import (
    CacheError,
    ConfigError,
    InvariantViolation,
    OracleDivergence,
    ReproError,
)
from repro.obs import EventTracer, MetricRegistry, NULL_TRACER, Tracer
from repro.api import __api_version__, default_config, simulate, sweep

__version__ = "1.0.0"

__all__ = [
    "AccessMode",
    "BaselineProtocol",
    "CPElideProtocol",
    "ChipletCoherenceTable",
    "ChipletState",
    "Device",
    "ElisionEngine",
    "EnergyModel",
    "GPUConfig",
    "HIGH_REUSE",
    "HMGProtocol",
    "HipRuntime",
    "Kernel",
    "KernelArg",
    "KernelPacket",
    "LOW_REUSE",
    "MonolithicProtocol",
    "Placement",
    "RunMetrics",
    "SimulationResult",
    "Simulator",
    "TimingModel",
    "WORKLOAD_NAMES",
    "KernelResources",
    "LocalDispatcher",
    "Workload",
    "bar_chart",
    "build_workload",
    "grouped_bar_chart",
    "profile_table_occupancy",
    "trace_sync_ops",
    "format_table",
    "geomean",
    "CPElideTimestampProtocol",
    "LeaseLedger",
    "ProtocolSpec",
    "TimestampProtocol",
    "get_protocol",
    "make_protocol",
    "monolithic_equivalent",
    "protocol_names",
    "protocols",
    "register_protocol",
    "unregister_protocol",
    "ResultCache",
    "SweepReport",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "default_config",
    "simulate",
    "sweep",
    "CacheError",
    "ConfigError",
    "EventTracer",
    "InvariantViolation",
    "MetricRegistry",
    "NULL_TRACER",
    "OracleDivergence",
    "ReproError",
    "Tracer",
    "__api_version__",
    "__version__",
]
