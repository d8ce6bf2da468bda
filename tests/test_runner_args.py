"""Argparse-level runner tests: every execution flag flows through one
session, uniformly (no stage-specific plumbing)."""

import pytest

from repro.api import ConfigError, Session
from repro.experiments import runner


def _parse(argv):
    return runner.build_parser().parse_args(argv)


class TestRunnerFlags:
    def test_defaults(self):
        args = _parse([])
        assert args.quick is False
        assert args.seed == 0
        assert args.jobs is None
        assert args.engine == "auto"
        assert args.store is None

    def test_engine_choices(self):
        for engine in ("auto", "fast", "reference", "batch"):
            assert _parse(["--engine", engine]).engine == engine
        with pytest.raises(SystemExit):
            _parse(["--engine", "warp"])

    def test_full_flag_set_builds_matching_session(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        store = tmp_path / "runner-store"
        args = _parse(["--quick", "--seed", "3", "--jobs", "2",
                       "--engine", "batch", "--store", str(store)])
        session = runner.session_from_args(args)
        assert isinstance(session, Session)
        assert session.engine == "batch"
        assert session.jobs == 2
        assert session.seed == 3
        assert session.store.root == store

    def test_store_off_disables_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", ".cache/trace-store")
        session = runner.session_from_args(_parse(["--store", "off"]))
        assert not session.store.enabled

    def test_malformed_env_surfaces_as_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "a-few")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            runner.session_from_args(_parse([]))
