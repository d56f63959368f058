"""Table I — simulated baseline GPU parameters."""

from __future__ import annotations

from repro.gpu.config import GPUConfig
from repro.metrics.report import format_table


def run() -> GPUConfig:
    """Build the Table I configuration (4 chiplets)."""
    return GPUConfig(num_chiplets=4)


def report(config: GPUConfig) -> str:
    """Render Table I."""
    return format_table(["GPU Feature", "Configuration"],
                        config.table_rows(),
                        title="Table I: simulated baseline GPU parameters")
