"""Simulation-as-a-service: an async job API over the sweep engine.

``repro.server`` exposes the whole reproduction pipeline over HTTP:
clients POST simulate/sweep specs, poll job status, stream per-kernel
progress as Server-Sent Events, and fetch results that are
byte-identical to a direct :func:`repro.api.sweep` run. Jobs flow
through admission control (queue-depth shedding, per-client quotas)
into a priority queue, then execute on worker threads against the
shared result cache — so any number of concurrent clients asking for
overlapping cells trigger exactly one computation per cell.

Pure stdlib: the built-in asyncio HTTP server needs nothing installed.
Start it with ``python -m repro serve`` or :func:`repro.api.serve`.
"""

from repro.server.admission import AdmissionController, AdmissionDecision
from repro.server.app import DEFAULT_HOST, DEFAULT_PORT, ReproServer, run
from repro.server.http import Request, Response, StreamResponse
from repro.server.queue import Job, JobQueue
from repro.server.schemas import (
    MAX_CELLS_PER_JOB,
    Submission,
    parse_simulate,
    parse_sweep,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Job",
    "JobQueue",
    "MAX_CELLS_PER_JOB",
    "ReproServer",
    "Request",
    "Response",
    "StreamResponse",
    "Submission",
    "parse_simulate",
    "parse_sweep",
    "run",
]
