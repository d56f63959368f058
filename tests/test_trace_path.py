"""TracePath enum: coercion, resolution, API surface, legacy shims."""

import warnings

import pytest

from repro.errors import ConfigError
from repro.gpu.trace_path import (
    DEFAULT_TRACE_PATH,
    TRACE_PATH_ENV,
    TracePath,
    resolve_trace_path,
)


def test_members_equal_their_string_values():
    assert TracePath.LINE == "line"
    assert TracePath.RUN == "run"
    assert TracePath.MEMO == "memo"
    assert str(TracePath.MEMO) == "memo"
    assert f"{TracePath.RUN}" == "run"
    # str-valued: interchangeable as dict keys and in joins.
    assert {"memo": 1}[TracePath.MEMO] == 1
    assert "/".join([TracePath.LINE, TracePath.RUN]) == "line/run"


def test_coerce_accepts_members_and_strings():
    assert TracePath.coerce(TracePath.LINE) is TracePath.LINE
    assert TracePath.coerce("memo") is TracePath.MEMO


@pytest.mark.parametrize("bad", ["", "lines", "Memo", "batch", 3])
def test_coerce_rejects_unknown_values(bad):
    with pytest.raises(ConfigError):
        TracePath.coerce(bad)


def test_resolve_precedence(monkeypatch):
    monkeypatch.delenv(TRACE_PATH_ENV, raising=False)
    assert resolve_trace_path() is DEFAULT_TRACE_PATH
    monkeypatch.setenv(TRACE_PATH_ENV, "line")
    assert resolve_trace_path() is TracePath.LINE
    # Explicit argument wins over the environment.
    assert resolve_trace_path("memo") is TracePath.MEMO
    assert resolve_trace_path(TracePath.RUN) is TracePath.RUN
    # Empty env var counts as unset.
    monkeypatch.setenv(TRACE_PATH_ENV, "")
    assert resolve_trace_path() is DEFAULT_TRACE_PATH
    monkeypatch.setenv(TRACE_PATH_ENV, "bogus")
    with pytest.raises(ConfigError):
        resolve_trace_path()


def test_api_exports_trace_path():
    import repro.api as api

    assert api.TracePath is TracePath
    assert "TracePath" in api.__all__
    assert api.__api_version__ == "9.0"


def test_simulator_accepts_enum_and_string():
    from repro.gpu.config import GPUConfig
    from repro.gpu.sim import Simulator

    config = GPUConfig(num_chiplets=2, scale=1 / 64)
    assert Simulator(config, trace_path="memo").trace_path is TracePath.MEMO
    assert (Simulator(config, trace_path=TracePath.LINE).trace_path
            is TracePath.LINE)
    with pytest.raises(ConfigError):
        Simulator(config, trace_path="batch")


def test_legacy_sim_constants_are_gone():
    from repro.gpu import sim

    for name in ("DEFAULT_TRACE_PATH", "_TRACE_PATHS", "no_such_constant"):
        with pytest.raises(AttributeError):
            getattr(sim, name)


def test_canonical_imports_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.api import TracePath as api_path  # noqa: F401
        from repro.gpu.sim import TracePath as sim_path  # noqa: F401
        from repro.gpu.trace_path import resolve_trace_path  # noqa: F401
        resolve_trace_path(TracePath.RUN)
