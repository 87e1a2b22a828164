"""Quiet-reference memoisation and the slew-fallback policy of
:func:`repro.sta.noise_aware.propagate_path`."""

import math

import pytest

from repro.core.ramp import SaturatedRamp
from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import make_inverter
from repro.sta.noise_aware import (
    AggressorSpec,
    NoisyStage,
    QuietReferenceCache,
    _slew_or_fallback,
    clear_quiet_cache,
    propagate_path,
    quiet_cache_stats,
)

VDD = 1.2


@pytest.fixture(scope="module")
def quiet_stage():
    return NoisyStage(driver=make_inverter(1),
                      line=RcLineSpec.from_length(500.0),
                      receiver=make_inverter(4))


@pytest.fixture(scope="module")
def noisy_stage(quiet_stage):
    agg = AggressorSpec(coupling=100e-15, transition_start=0.35e-9,
                        rising=False, slew=150e-12, driver=make_inverter(1))
    return NoisyStage(driver=quiet_stage.driver, line=quiet_stage.line,
                      receiver=quiet_stage.receiver, aggressors=(agg,))


@pytest.fixture
def input_ramp():
    return SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, VDD, rising=False)


class TestQuietReferenceCache:
    def test_quiet_reference_simulated_once_per_stage_config(self, noisy_stage,
                                                             input_ramp):
        # The cache hit/miss counters are the call-count spy: a miss is
        # exactly one quiet-reference simulation.
        cache = QuietReferenceCache()
        first = propagate_path([noisy_stage], input_ramp, dt=4e-12,
                               quiet_cache=cache)
        assert cache.misses == 1 and cache.hits == 0

        second = propagate_path([noisy_stage], input_ramp, dt=4e-12,
                                quiet_cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        # Cached reference ⇒ bit-identical timing results.
        assert second[0].output_arrival == first[0].output_arrival
        assert second[0].ramp.a == first[0].ramp.a
        assert second[0].ramp.b == first[0].ramp.b

    def test_distinct_stage_configs_get_distinct_entries(self, quiet_stage,
                                                         noisy_stage, input_ramp):
        cache = QuietReferenceCache()
        # Two-stage path: stage 2 sees a different stimulus, so each stage
        # is one distinct configuration -> one miss each.
        propagate_path([noisy_stage, noisy_stage], input_ramp, dt=4e-12,
                       quiet_cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        propagate_path([noisy_stage, noisy_stage], input_ramp, dt=4e-12,
                       quiet_cache=cache)
        assert cache.misses == 2 and cache.hits == 2

    def test_different_dt_is_a_different_key(self, noisy_stage, input_ramp):
        cache = QuietReferenceCache()
        propagate_path([noisy_stage], input_ramp, dt=4e-12, quiet_cache=cache)
        propagate_path([noisy_stage], input_ramp, dt=8e-12, quiet_cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_module_cache_default_and_reset(self, noisy_stage, input_ramp):
        clear_quiet_cache()
        propagate_path([noisy_stage], input_ramp, dt=8e-12)
        stats = quiet_cache_stats()
        assert stats["misses"] == 1 and stats["size"] == 1
        propagate_path([noisy_stage], input_ramp, dt=8e-12)
        assert quiet_cache_stats()["hits"] == 1
        clear_quiet_cache()
        assert quiet_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_eviction_bounds_memory(self):
        cache = QuietReferenceCache(maxsize=2)
        cache.store(("a",), (None, None))
        cache.store(("b",), (None, None))
        cache.store(("c",), (None, None))
        assert len(cache) == 2
        assert cache.lookup(("a",)) is None       # evicted (FIFO)
        assert cache.lookup(("c",)) is not None


class TestSlewFallbackPolicy:
    def test_normal_slew_passes_through(self):
        slew, substituted = _slew_or_fallback(120e-12, 100e-12, "ctx")
        assert slew == 120e-12 and substituted is False

    def test_nan_substitutes_fallback(self):
        slew, substituted = _slew_or_fallback(float("nan"), 55e-12, "ctx")
        assert slew == 55e-12 and substituted is True

    def test_nan_with_none_raises(self):
        with pytest.raises(ValueError, match="no measurable 10-90 slew"):
            _slew_or_fallback(float("nan"), None, "stage 3 receiver output")

    def test_clean_path_records_no_substitution(self, quiet_stage, input_ramp):
        result = propagate_path([quiet_stage], input_ramp, dt=4e-12,
                                quiet_cache=QuietReferenceCache())
        assert result[0].output_slew_substituted is False
        assert result[0].retime_slew_substituted is False
        assert not math.isnan(result[0].output_slew)

    def test_partial_swing_is_recorded_and_policy_applies(
            self, quiet_stage, input_ramp, monkeypatch):
        # Force the partial-swing measurement outcome deterministically.
        from repro.core.waveform import Waveform

        def no_slew(self, vdd, *args, **kwargs):
            raise ValueError("forced partial swing")

        monkeypatch.setattr(Waveform, "slew", no_slew)

        result = propagate_path([quiet_stage], input_ramp, dt=4e-12,
                                slew_fallback=80e-12,
                                quiet_cache=QuietReferenceCache())
        timing = result[0]
        assert math.isnan(timing.output_slew)          # measurement kept as NaN
        assert timing.output_slew_substituted is True  # substitution recorded
        assert timing.retime_slew_substituted is True
        assert timing.ramp.slew() == pytest.approx(80e-12, rel=1e-12)

        with pytest.raises(ValueError, match="no measurable 10-90 slew"):
            propagate_path([quiet_stage], input_ramp, dt=4e-12,
                           slew_fallback=None,
                           quiet_cache=QuietReferenceCache())
