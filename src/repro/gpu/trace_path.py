"""Trace-path selection: the :class:`TracePath` enum and its resolution.

The simulator can drive a workload through three bit-identical trace
representations (tests/test_batched_equivalence.py and the differential
oracle enforce the identity):

* :attr:`TracePath.LINE` — the per-line reference path;
* :attr:`TracePath.RUN` — the batched interval-run path (the fast
  default);
* :attr:`TracePath.MEMO` — kernel-outcome memoization layered on the
  run path (:mod:`repro.gpu.memo`).

``TracePath`` is a ``str``-valued enum, so every member compares and
serializes exactly like the historical raw strings (``"line"`` /
``"run"`` / ``"memo"``); :meth:`TracePath.coerce` upgrades user input
and raises :class:`~repro.errors.ConfigError` on anything unknown.
"""

from __future__ import annotations

import enum
import os
import sys
from typing import Optional, Union

from repro.errors import ConfigError

#: Environment variable selecting the trace representation for
#: simulators not given an explicit ``trace_path``. All paths produce
#: bit-identical results, so the switch exists for cross-checking and
#: benchmarking, not output.
TRACE_PATH_ENV = "REPRO_TRACE_PATH"

if sys.version_info >= (3, 11):
    _StrEnumBase = enum.StrEnum
else:  # pragma: no cover - 3.11+ toolchain; kept for older interpreters
    class _StrEnumBase(str, enum.Enum):
        def __str__(self) -> str:  # noqa: D105 - match StrEnum semantics
            return str(self.value)

        __format__ = str.__format__


class TracePath(_StrEnumBase):
    """How the simulator represents and sweeps a kernel's trace."""

    LINE = "line"
    RUN = "run"
    MEMO = "memo"

    @classmethod
    def coerce(cls, value: Union["TracePath", str]) -> "TracePath":
        """Upgrade ``value`` (a member or its string value) to a member.

        Raises :class:`~repro.errors.ConfigError` (a ``ValueError``) on
        unknown values, so typos never silently fall back.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ConfigError(
                f"trace_path must be one of "
                f"{tuple(m.value for m in cls)}, got {value!r}") from None


#: Trace path used when neither the constructor argument nor the
#: environment selects one.
DEFAULT_TRACE_PATH = TracePath.RUN


def resolve_trace_path(
        trace_path: Optional[Union[TracePath, str]] = None) -> TracePath:
    """Resolve the effective trace path.

    Precedence, highest first: the explicit ``trace_path`` argument,
    then the ``REPRO_TRACE_PATH`` environment variable (read at call
    time, so forked sweep workers honor the environment they inherit),
    then :data:`DEFAULT_TRACE_PATH`. An empty environment variable
    counts as unset. Raises :class:`~repro.errors.ConfigError` on an
    unknown name — including an unknown *explicit* name when the
    environment holds a valid one.
    """
    if trace_path is None:
        trace_path = os.environ.get(TRACE_PATH_ENV) or DEFAULT_TRACE_PATH
    return TracePath.coerce(trace_path)
