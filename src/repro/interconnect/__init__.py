"""Interconnect substrate: flit accounting and the CP crossbar.

Fig. 10 measures interconnect traffic in flits, split into three
components: L1-to-L2 (intra-chiplet), L2-to-L3, and remote (inter-chiplet).
:class:`~repro.interconnect.noc.TrafficMeter` maintains exactly those
categories; the per-chiplet L2s are connected via a crossbar over
bandwidth-limited inter-chiplet links, whose bandwidth (Table I:
768 GB/s) and extra latency are :class:`~repro.gpu.config.GPUConfig`
fields the timing model reads.
"""

from repro.interconnect.crossbar import CPCrossbar
from repro.interconnect.noc import FlitParams, TrafficMeter

__all__ = ["CPCrossbar", "FlitParams", "TrafficMeter"]
