"""Experiment runner plumbing tests (scale env var, param threading)."""

import dataclasses
import os

import pytest

from repro.common.errors import ConfigError
from repro.experiments.runner import (
    DEFAULT_PARAMS,
    ExperimentScale,
    _scale,
    default_config,
    resolve_params,
    run_design,
)
from repro.workloads.base import DatasetSize, WorkloadParams


class TestScaleEnv:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert _scale() == 1.0

    def test_env_scale_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        scale = ExperimentScale(micro_transactions=100)
        assert scale.transactions(False, DatasetSize.SMALL) == 50

    def test_bad_env_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_SCALE"):
            assert _scale() == 1.0

    def test_zero_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0")
        with pytest.raises(ConfigError, match="positive"):
            _scale()

    def test_negative_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-0.5")
        with pytest.raises(ConfigError, match="positive"):
            _scale()

    def test_floor_of_ten(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        scale = ExperimentScale()
        assert scale.transactions(False, DatasetSize.SMALL) == 10


class TestResolveParams:
    def test_no_field_is_lost(self):
        """resolve_params must carry every WorkloadParams field through.

        The old code rebuilt WorkloadParams field-by-field from a
        hand-written list, silently dropping any field added later; this
        constructs params with a non-default value in every field and
        checks each one survives.
        """
        overrides = {}
        for field in dataclasses.fields(WorkloadParams):
            if field.name == "dataset":
                continue
            default = field.default
            if isinstance(default, bool):
                overrides[field.name] = not default
            elif isinstance(default, int):
                overrides[field.name] = default + 13
            elif isinstance(default, float):
                overrides[field.name] = default / 2 + 0.01
            else:
                pytest.fail(
                    "unhandled field type for %r — extend this test" % field.name
                )
        params = WorkloadParams(**overrides)
        resolved = resolve_params(params, DatasetSize.LARGE)
        assert resolved.dataset is DatasetSize.LARGE
        for name, value in overrides.items():
            assert getattr(resolved, name) == value, name

    def test_none_uses_defaults(self):
        resolved = resolve_params(None, DatasetSize.SMALL)
        assert resolved == dataclasses.replace(
            DEFAULT_PARAMS, dataset=DatasetSize.SMALL
        )


class TestRunDesignPlumbing:
    def test_explicit_counts_override_scale(self):
        result = run_design(
            "FWB-CRADE",
            "queue",
            DatasetSize.SMALL,
            n_transactions=15,
            n_threads=1,
        )
        assert result.transactions == 15

    def test_dataset_threads_into_params(self):
        result = run_design(
            "MorLog-SLDE",
            "queue",
            DatasetSize.LARGE,
            n_transactions=5,
            n_threads=1,
        )
        # Large items (512 words) produce far more stores per tx.
        assert result.stats["stores"] > 5 * 100

    def test_default_config_log_region(self):
        config = default_config()
        assert config.logging.log_region_bytes == 8 * 1024 * 1024
        config.validate()

    def test_default_params_reasonable(self):
        assert DEFAULT_PARAMS.initial_items > 0
        assert DEFAULT_PARAMS.key_space > DEFAULT_PARAMS.initial_items


class TestExplicitZeroCounts:
    """An explicit zero count raises at every single-cell entry point
    instead of silently running the scale's default count."""

    @staticmethod
    def _assert_zero_rejected(entry):
        with pytest.raises(ValueError, match="n_transactions"):
            entry(n_transactions=0, n_threads=1)
        with pytest.raises(ValueError, match="n_threads"):
            entry(n_transactions=1, n_threads=0)

    def test_run_design(self):
        self._assert_zero_rejected(
            lambda **counts: run_design("MorLog-DP", "hash", **counts)
        )

    def test_profile_design(self):
        from repro.trace import profile_design

        self._assert_zero_rejected(
            lambda **counts: profile_design("MorLog-DP", "hash", **counts)
        )

    def test_record_trace(self):
        from repro.replay import record_trace

        self._assert_zero_rejected(
            lambda **counts: record_trace("MorLog-DP", "hash", **counts)
        )
