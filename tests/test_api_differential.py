"""Differential pins: the session-driven drivers reproduce committed
golden outputs byte for byte.

``tests/golden/api_differential.json`` holds the quick-scale outputs of
the fig3 comparison grid, the printed fig3_8 report and the fig5_net
scenario grid.  Floats are stored as ``float.hex`` strings, so the
comparison is exact: any drift in task ordering, seeding, engine
selection or aggregation fails here before it can silently re-shape the
paper's numbers.  Every engine a session can force must reproduce the
same file.

Regenerating (after an *intentional* behaviour change):

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_api_differential.py

then commit the refreshed ``tests/golden/api_differential.json``.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.experiments import fig3_5, fig3_8, fig5_net

pytestmark = pytest.mark.slow

GOLDEN_PATH = Path(__file__).parent / "golden" / "api_differential.json"

#: ``fig3_5.run_comparison`` arguments per pinned grid.  Changing these
#: invalidates the snapshot (the config is embedded in the file and
#: checked).
COMPARISONS = {
    "fig3_mixed_office_tcp": dict(
        mode="mixed", environments=["office"], n_traces=2, duration_s=8.0,
        tcp=True, normalise="HintAware", seed0=0),
    "fig3_vehicular_udp": dict(
        mode="vehicular", environments=["vehicular"], n_traces=2,
        duration_s=6.0, tcp=False, normalise="RapidSample", seed0=0),
}
FIG3_8_CONFIG = {"seed": 0, "n_traces": 2}
FIG5_NET_CONFIG = {"scenarios": ["mixed_mobility"], "seeds": [7],
                   "policies": ["strongest", "lifetime"], "duration_s": 4.0}


def encode(value):
    """JSON-safe, exact form of a driver result: floats as
    ``float.hex``, tuple keys joined with ``/``."""
    if isinstance(value, dict):
        return {("/".join(k) if isinstance(k, tuple) else str(k)): encode(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    raise TypeError(f"cannot encode {type(value).__name__}")


def _comparison(name, session):
    kwargs = dict(COMPARISONS[name])
    kwargs["environments"] = tuple(kwargs["environments"])
    return encode(fig3_5.run_comparison(**kwargs, session=session))


def _fig3_8_stdout(session):
    out = io.StringIO()
    with redirect_stdout(out):
        fig3_8.main(**FIG3_8_CONFIG, session=session)
    return out.getvalue()


def _fig5_net_grid(session):
    config = FIG5_NET_CONFIG
    return encode(fig5_net.run_grid(
        tuple(config["scenarios"]), tuple(config["seeds"]),
        policies=tuple(config["policies"]),
        duration_s=config["duration_s"], session=session))


def _snapshot() -> dict:
    session = Session(jobs=1)
    return {
        "comparisons": {
            name: {"config": config, "result": _comparison(name, session)}
            for name, config in COMPARISONS.items()
        },
        "fig3_8_stdout": {"config": FIG3_8_CONFIG,
                          "stdout": _fig3_8_stdout(session)},
        "fig5_net_grid": {"config": FIG5_NET_CONFIG,
                          "result": _fig5_net_grid(session)},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_PATH.write_text(json.dumps(_snapshot(), indent=2,
                                          sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    data = json.loads(GOLDEN_PATH.read_text())
    for name, config in COMPARISONS.items():
        assert data["comparisons"][name]["config"] == config, (
            f"{name} config changed; regenerate the golden")
    assert data["fig3_8_stdout"]["config"] == FIG3_8_CONFIG
    assert data["fig5_net_grid"]["config"] == FIG5_NET_CONFIG
    return data


class TestFig3ComparisonDifferential:
    """The rate-comparison grid (figures 3-5..3-8's shared engine)."""

    def test_quick_grid_is_byte_identical(self, golden):
        name = "fig3_mixed_office_tcp"
        assert _comparison(name, Session(jobs=1)) \
            == golden["comparisons"][name]["result"]

    @pytest.mark.parametrize("engine", ["auto", "fast", "batch"])
    def test_quick_grid_any_session_engine(self, golden, engine):
        name = "fig3_vehicular_udp"
        assert _comparison(name, Session(engine=engine, jobs=1)) \
            == golden["comparisons"][name]["result"]


class TestPrintedReportDifferential:
    """The printed runner stage output, byte for byte."""

    def test_fig3_8_quick_stdout(self, golden):
        assert _fig3_8_stdout(Session(jobs=1)) \
            == golden["fig3_8_stdout"]["stdout"]


class TestFig5NetDifferential:
    """The network grid driver, for every scenario engine."""

    @pytest.mark.parametrize("engine", ["auto", "reference", "batch"])
    def test_grid_summaries_byte_identical(self, golden, engine):
        assert _fig5_net_grid(Session(engine=engine, jobs=1)) \
            == golden["fig5_net_grid"]["result"]
