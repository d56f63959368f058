"""Hierarchical metric registry: counters, gauges, distributions.

One :class:`MetricRegistry` holds the metrics of one *scope* (a kernel,
a run, a sweep) plus named child registries for the scopes nested inside
it. Aggregation is explicit and loss-aware:

* **counters** sum across children (event totals: sync ops, lines
  flushed, memo hits);
* **gauges** take the maximum (level samples: table occupancy, pending
  releases — the peak is the capacity-relevant figure);
* **distributions** merge their moment summaries (count/total/min/max),
  so per-kernel cycle distributions fold into per-run and per-sweep
  ones without retaining every sample.

The registry is a pure observer: nothing in the simulator reads it, so
attaching one can never perturb simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable

__all__ = ["Distribution", "MetricRegistry"]


@dataclass
class Distribution:
    """Moment summary of an observed sample stream."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one sample in."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Distribution") -> None:
        """Fold another distribution's summary in."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable summary."""
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": int(self.count), "total": float(self.total),
                "min": float(self.min), "max": float(self.max),
                "mean": float(self.mean)}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "Distribution":
        """Rebuild from :meth:`to_dict` output."""
        if not data.get("count"):
            return cls()
        return cls(count=int(data["count"]), total=float(data["total"]),
                   min=float(data["min"]), max=float(data["max"]))


class MetricRegistry:
    """Metrics of one scope plus its nested child scopes."""

    def __init__(self, scope: str = "root") -> None:
        self.scope = scope
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.distributions: Dict[str, Distribution] = {}
        self.children: Dict[str, MetricRegistry] = {}

    # ---- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record a level sample; the registry keeps the maximum."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into distribution ``name``."""
        dist = self.distributions.get(name)
        if dist is None:
            dist = self.distributions[name] = Distribution()
        dist.observe(value)

    def child(self, scope: str) -> "MetricRegistry":
        """Fetch-or-create the nested registry named ``scope``."""
        reg = self.children.get(scope)
        if reg is None:
            reg = self.children[scope] = MetricRegistry(scope)
        return reg

    # ---- aggregation ---------------------------------------------------

    def merge(self, other: "MetricRegistry") -> None:
        """Fold ``other``'s own metrics (not its children) into this
        scope: counters sum, gauges max, distributions merge."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.gauges.items():
            self.gauge(name, value)
        for name, dist in other.distributions.items():
            mine = self.distributions.get(name)
            if mine is None:
                mine = self.distributions[name] = Distribution()
            mine.merge(dist)

    def aggregate(self) -> "MetricRegistry":
        """This scope with every descendant folded in (recursively).

        The per-kernel → per-run → per-sweep rollup: aggregating a sweep
        registry yields totals over every run and every kernel below it.
        """
        flat = MetricRegistry(self.scope)
        flat.merge(self)
        for chld in self.children.values():
            flat.merge(chld.aggregate())
        return flat

    @classmethod
    def aggregate_many(cls, registries: Iterable["MetricRegistry"],
                       scope: str = "aggregate") -> "MetricRegistry":
        """Aggregate several registries into one fresh scope."""
        out = cls(scope)
        for reg in registries:
            out.merge(reg.aggregate())
        return out

    # ---- serialization -------------------------------------------------

    def to_dict(self, include_children: bool = True) -> Dict[str, Any]:
        """JSON-serializable dump (sorted keys for stable output)."""
        out: Dict[str, Any] = {
            "scope": self.scope,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "distributions": {k: self.distributions[k].to_dict()
                              for k in sorted(self.distributions)},
        }
        if include_children:
            out["children"] = {k: self.children[k].to_dict()
                               for k in sorted(self.children)}
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricRegistry":
        """Rebuild a registry tree from :meth:`to_dict` output."""
        reg = cls(data.get("scope", "root"))
        reg.counters = dict(data.get("counters", {}))
        reg.gauges = dict(data.get("gauges", {}))
        reg.distributions = {k: Distribution.from_dict(v)
                             for k, v in data.get("distributions", {}).items()}
        reg.children = {k: cls.from_dict(v)
                        for k, v in data.get("children", {}).items()}
        return reg

    # ---- reporting -----------------------------------------------------

    def summary_lines(self, prefix: str = "") -> "list[str]":
        """Plain-text rendering of this scope's own metrics."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"{prefix}{name} = {self.counters[name]:g}")
        for name in sorted(self.gauges):
            lines.append(f"{prefix}{name} (peak) = {self.gauges[name]:g}")
        for name in sorted(self.distributions):
            d = self.distributions[name]
            lines.append(
                f"{prefix}{name}: n={d.count} mean={d.mean:g} "
                f"min={0.0 if d.count == 0 else d.min:g} "
                f"max={0.0 if d.count == 0 else d.max:g}")
        return lines
