"""Surface pins for ``repro.api``: the public names and spec schemas.

The session layer is the one entry point external code programs
against, so accidental surface breaks -- a renamed spec field silently
changing ``to_dict`` schemas, an export dropped from ``__all__`` --
must fail a test, not a downstream user.  Growing the surface is fine:
update the pins *deliberately* in the same change.
"""

import dataclasses
import inspect

import repro
import repro.api as api

EXPECTED_ALL = {
    "ConfigError",
    "SESSION_ENGINES",
    "Session",
    "LinkReplaySpec",
    "GridSpec",
    "NetworkRunSpec",
    "spec_from_dict",
    "segments_of",
    "script_from_segments",
    "RunResult",
    "NetworkSummary",
}

#: Field names double as the JSON schema of ``to_dict`` (plus "kind").
EXPECTED_FIELDS = {
    "LinkReplaySpec": ("protocol", "env", "mode", "seed", "duration_s",
                       "tcp", "best_samplerate", "segments"),
    "GridSpec": ("protocols", "envs", "mode", "n_seeds", "seed0",
                 "duration_s", "tcp", "best_samplerate_protocols"),
    "NetworkRunSpec": ("scenario", "seed", "policy", "duration_s",
                       "overrides"),
    "RunResult": ("spec", "results", "task_engines", "seeds", "jobs",
                  "elapsed_s"),
    "NetworkSummary": ("aggregate_mbps", "stations_mbps", "handoffs",
                       "mean_lifetime_s", "attempts"),
}


def test_api_all_is_pinned():
    assert set(api.__all__) == EXPECTED_ALL
    for name in api.__all__:
        assert hasattr(api, name), f"__all__ names missing export {name}"


def test_spec_and_result_fields_are_pinned():
    for cls_name, expected in EXPECTED_FIELDS.items():
        cls = getattr(api, cls_name)
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == expected, (
            f"{cls_name} fields changed: {names} != {expected}; spec "
            f"schemas are a compatibility surface -- update the pin "
            f"deliberately"
        )


def test_spec_kind_tags_are_pinned():
    assert api.LinkReplaySpec(protocol="RapidSample").to_dict()["kind"] \
        == "link_replay"
    assert api.GridSpec(protocols=("RapidSample",)).to_dict()["kind"] \
        == "grid"
    assert api.NetworkRunSpec(scenario="dense_cell").to_dict()["kind"] \
        == "network_run"


def test_session_signature_is_pinned():
    assert tuple(inspect.signature(api.Session).parameters) == (
        "engine", "jobs", "store", "seed")


def test_session_engines_pinned():
    assert api.SESSION_ENGINES == ("auto", "fast", "reference", "batch")


def test_repro_exports_api_lazily():
    # The index promises ``repro.api`` without importing it eagerly.
    assert "api" in repro.__all__
    assert repro.api is api
    assert "api" in dir(repro)
