"""Analysis tooling: table-occupancy profiling, annotation inference,
charts."""

from repro.analysis.occupancy import TableOccupancyProfile, profile_table_occupancy
from repro.analysis.charts import bar_chart, grouped_bar_chart
from repro.analysis.inference import (
    compare_annotations,
    record_kernel_annotations,
    replay_with_inferred_annotations,
)

__all__ = [
    "TableOccupancyProfile",
    "profile_table_occupancy",
    "bar_chart",
    "grouped_bar_chart",
    "compare_annotations",
    "record_kernel_annotations",
    "replay_with_inferred_annotations",
]
