"""Differential oracle: cross-trace-path / cross-protocol result check.

Runs each workload through every requested (protocol, trace path) cell
with direct :class:`~repro.gpu.sim.Simulator` instances (no engine, no
result cache — the oracle must observe what simulation *produces*, not
what a cache replays) and demands, per (workload, protocol):

* the full serialized result (``SimulationResult.to_dict()``) is
  bit-identical across the line, run and memo trace paths, and
* the final machine state — per-chiplet L2 and L3 contents with their
  set-creation and LRU order, first-touch page homes, and the
  protocol's own state (coherence table rows or HMG directories) — is
  identical too.

On a metrics mismatch the report pinpoints the first divergent kernel
and the exact metric key paths that differ. ``python -m repro check``
is the CLI front end; CI runs it over a reduced matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.gpu.trace_path import TracePath
from repro.workloads.suite import WORKLOAD_NAMES, build_workload

#: Trace paths every cell is cross-checked over (the full enum: line
#: reference, batched run path, memoized run path).
DEFAULT_TRACE_PATHS: Tuple[TracePath, ...] = tuple(TracePath)

#: The oracle's protocol matrix: the paper's three head-to-head designs
#: plus the timestamp/lease protocol and the CPElide-timestamp hybrid
#: ({line,run,memo} x 5 protocols x 8 workloads = 120 cells). Any
#: registry name is accepted via ``--protocols``.
DEFAULT_PROTOCOLS: Tuple[str, ...] = (
    "baseline", "hmg", "cpelide", "timestamp", "cpelide-ts")

#: Cap on reported diff lines per divergence (full dicts can differ in
#: thousands of leaves once one kernel diverges; the first few localize
#: the bug).
MAX_DIFF_LINES = 12


@dataclass
class Divergence:
    """One (workload, protocol) cell whose trace paths disagree."""

    workload: str
    protocol: str
    trace_path: str
    reference_path: str
    kind: str  # "metrics" | "state"
    kernel_index: Optional[int]
    details: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """Multi-line human-readable report of this divergence."""
        where = (f"first divergent kernel: #{self.kernel_index}"
                 if self.kernel_index is not None else "run-level")
        lines = [
            f"{self.workload} / {self.protocol}: trace path "
            f"{self.trace_path!r} diverges from {self.reference_path!r} "
            f"({self.kind}; {where})"
        ]
        lines += [f"  {d}" for d in self.details]
        return "\n".join(lines)


@dataclass
class OracleReport:
    """Aggregate outcome of one oracle sweep."""

    cells: int = 0
    runs: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every cell agreed across all trace paths."""
        return not self.divergences


def diff_paths(a: Any, b: Any, prefix: str = "") -> List[str]:
    """Recursive key-path diff of two JSON-like values.

    Returns one ``"path: a != b"`` line per differing leaf (type
    mismatches and length mismatches count as one leaf each).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                out.append(f"{path}: <missing> != {b[key]!r}")
            elif key not in b:
                out.append(f"{path}: {a[key]!r} != <missing>")
            else:
                out.extend(diff_paths(a[key], b[key], path))
        return out
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return [f"{prefix}: length {len(a)} != {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_paths(x, y, f"{prefix}[{i}]"))
        return out
    if a != b:
        return [f"{prefix}: {a!r} != {b!r}"]
    return []


def final_state_fingerprint(sim: Simulator) -> Dict[str, str]:
    """Canonical post-run machine state of ``sim``'s last run.

    Component name -> ``repr`` of its behavioral state. Components are
    compared individually so a mismatch names the diverging structure.

    Caches are compared by their ordered ``memo_state()``: the sets in
    creation order, each set's ``(line, dirty)`` pairs in LRU order.
    Both orders are machine state, not a path artifact — LRU order picks
    the next eviction victim, and set-creation order is the order a
    whole-cache flush or invalidate writes dirty lines back in, which
    fixes the L3's fill order in turn.
    """
    device = sim.last_device
    protocol = sim.last_protocol
    assert device is not None and protocol is not None
    state: Dict[str, str] = {}
    for chiplet in device.chiplets:
        state[f"l2[{chiplet.chiplet_id}]"] = repr(chiplet.l2.memo_state())
    state["l3"] = repr(device.l3.memo_state())
    state["page_homes"] = repr(device.home_map.page_homes())
    snapshot = protocol.memo_snapshot()
    if snapshot is not None:
        state["protocol"] = repr(snapshot)
    return state


def _first_divergent_kernel(ref: Dict[str, Any],
                            got: Dict[str, Any]) -> Tuple[Optional[int],
                                                          List[str]]:
    """Locate the first kernel whose metrics differ, with a leaf diff.

    Falls back to a run-level diff when the per-kernel lists agree but
    some aggregate (energy, wall cycles) does not.
    """
    ref_kernels = ref.get("metrics", {}).get("kernels", [])
    got_kernels = got.get("metrics", {}).get("kernels", [])
    for index, (rk, gk) in enumerate(zip(ref_kernels, got_kernels)):
        diff = diff_paths(rk, gk)
        if diff:
            return index, diff
    if len(ref_kernels) != len(got_kernels):
        return None, [f"kernel count: {len(ref_kernels)} != "
                      f"{len(got_kernels)}"]
    return None, diff_paths(ref, got)


def run_oracle(workloads: Optional[Sequence[str]] = None,
               protocols: Sequence[str] = DEFAULT_PROTOCOLS,
               trace_paths: Sequence[Union[TracePath, str]]
               = DEFAULT_TRACE_PATHS,
               config: Optional[GPUConfig] = None,
               scheduler: str = "static",
               progress: Optional[Callable[[str], None]] = None
               ) -> OracleReport:
    """Run the differential sweep and return its report.

    ``config.check_invariants`` additionally runs the sanitizer inside
    every simulation. The memo path starts from a cleared memo store per
    cell so results never depend on what an earlier cell recorded, and
    within the cell still exercises record + in-run replay.
    """
    from repro.gpu.memo import clear_memo_stores

    if workloads is None:
        workloads = list(WORKLOAD_NAMES)
    trace_paths = tuple(TracePath.coerce(p) for p in trace_paths)
    if len(trace_paths) < 2:
        raise ConfigError(
            f"the oracle needs at least two trace paths to compare, got "
            f"{[str(p) for p in trace_paths]}")
    if config is None:
        config = GPUConfig()
    report = OracleReport()
    for workload_name in workloads:
        for protocol in protocols:
            report.cells += 1
            reference_path = trace_paths[0]
            payloads: Dict[str, Dict[str, Any]] = {}
            states: Dict[str, Dict[str, str]] = {}
            for trace_path in trace_paths:
                if trace_path is TracePath.MEMO:
                    clear_memo_stores()
                workload = build_workload(workload_name, config)
                sim = Simulator(config, protocol, scheduler=scheduler,
                                trace_path=trace_path)
                result = sim.run(workload)
                report.runs += 1
                payloads[trace_path] = result.to_dict()
                states[trace_path] = final_state_fingerprint(sim)
            ref_payload = payloads[reference_path]
            ref_state = states[reference_path]
            cell_ok = True
            for trace_path in trace_paths[1:]:
                if payloads[trace_path] != ref_payload:
                    cell_ok = False
                    index, diff = _first_divergent_kernel(
                        ref_payload, payloads[trace_path])
                    dropped = max(0, len(diff) - MAX_DIFF_LINES)
                    diff = diff[:MAX_DIFF_LINES]
                    if dropped:
                        diff.append(f"... {dropped} more differing leaves")
                    report.divergences.append(Divergence(
                        workload=workload_name, protocol=protocol,
                        trace_path=str(trace_path),
                        reference_path=str(reference_path),
                        kind="metrics", kernel_index=index, details=diff))
                state_diff = [
                    f"{component}: state differs"
                    for component in sorted(set(ref_state)
                                            | set(states[trace_path]))
                    if ref_state.get(component)
                    != states[trace_path].get(component)]
                if state_diff:
                    cell_ok = False
                    report.divergences.append(Divergence(
                        workload=workload_name, protocol=protocol,
                        trace_path=str(trace_path),
                        reference_path=str(reference_path),
                        kind="state", kernel_index=None,
                        details=state_diff[:MAX_DIFF_LINES]))
            if progress is not None:
                status = "ok" if cell_ok else "DIVERGED"
                progress(f"{workload_name} x {protocol}: {status} "
                         f"({'/'.join(trace_paths)})")
    return report
