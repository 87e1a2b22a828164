"""Property-based tests (hypothesis) on the core data structures.

These pin algebraic invariants that hold for *any* waveform/ramp/table,
not just the hand-picked examples of the unit tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import TransientJob, TransientOptions
from repro.core.ramp import SaturatedRamp
from repro.core.techniques import fit_line_weighted
from repro.core.waveform import Waveform
from repro.exec import job_key
from repro.library.nldm import NldmTable

from tests.helpers import VDD

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
# Picosecond-grid times: well separated so float operations (shifts,
# interpolation) cannot collapse adjacent samples.
times_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000),
    min_size=4, max_size=40, unique=True,
).map(lambda ticks: [t * 1e-12 for t in sorted(ticks)])

voltages_strategy = st.lists(
    st.floats(min_value=-0.5, max_value=2.0, allow_nan=False),
    min_size=4, max_size=40,
)


@st.composite
def waveforms(draw):
    t = draw(times_strategy)
    v = draw(st.lists(st.floats(min_value=-0.5, max_value=2.0, allow_nan=False),
                      min_size=len(t), max_size=len(t)))
    return Waveform(t, v)


@st.composite
def monotone_rising_waveforms(draw):
    t = draw(times_strategy)
    steps = draw(st.lists(st.floats(min_value=0.0, max_value=0.3),
                          min_size=len(t), max_size=len(t)))
    v = np.cumsum(steps)
    return Waveform(t, v)


@st.composite
def ramps(draw):
    arrival = draw(st.floats(min_value=1e-10, max_value=5e-9))
    slew = draw(st.floats(min_value=1e-12, max_value=2e-9))
    rising = draw(st.booleans())
    return SaturatedRamp.from_arrival_slew(arrival, slew, VDD, rising=rising)


# ----------------------------------------------------------------------
# Waveform invariants
# ----------------------------------------------------------------------
class TestWaveformProperties:
    @given(waveforms(), st.floats(min_value=-1e-9, max_value=1e-9))
    @settings(max_examples=60, deadline=None)
    def test_shift_preserves_values(self, w, dt):
        s = w.shifted(dt)
        mid = 0.5 * (w.t_start + w.t_end)
        assert s(mid + dt) == pytest.approx(w(mid), abs=1e-9)

    @given(waveforms())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_bounded_by_extremes(self, w):
        ts = np.linspace(w.t_start, w.t_end, 17)
        vals = np.asarray(w(ts))
        assert np.all(vals >= w.v_min - 1e-12)
        assert np.all(vals <= w.v_max + 1e-12)

    @given(waveforms())
    @settings(max_examples=60, deadline=None)
    def test_double_polarity_reverse_is_identity(self, w):
        rr = w.reversed_polarity(VDD).reversed_polarity(VDD)
        assert np.allclose(rr.values, w.values, atol=1e-12)

    @given(monotone_rising_waveforms(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_monotone_waveform_crosses_interior_level_once(self, w, frac):
        level = w.v_initial + frac * (w.v_final - w.v_initial)
        if w.v_final - w.v_initial < 1e-6:
            return  # effectively flat — nothing to cross
        hits = w.crossings(level)
        # Strictly within the span, a monotone curve crosses 1+ times and
        # all crossings collapse onto flat segments if repeated.
        assert hits.size >= 1
        assert np.all(np.diff(hits) >= 0)

    @given(waveforms())
    @settings(max_examples=60, deadline=None)
    def test_integral_additivity(self, w):
        mid = 0.5 * (w.t_start + w.t_end)
        if mid <= w.t_start or mid >= w.t_end:
            return
        total = w.integral()
        parts = w.integral(w.t_start, mid) + w.integral(mid, w.t_end)
        assert parts == pytest.approx(total, rel=1e-6, abs=1e-18)

    @given(waveforms(), st.integers(min_value=2, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_resample_endpoints_preserved(self, w, n):
        r = w.resampled(n=n)
        assert r.v_initial == pytest.approx(w.v_initial, abs=1e-12)
        assert r.v_final == pytest.approx(w.v_final, abs=1e-12)

    @given(waveforms())
    @settings(max_examples=60, deadline=None)
    def test_resample_onto_own_grid_roundtrips_exactly(self, w):
        r = w.resampled(times=w.times)
        assert np.array_equal(r.times, w.times)
        assert np.array_equal(r.values, w.values)

    @given(waveforms(), st.floats(min_value=-1e-9, max_value=1e-9))
    @settings(max_examples=60, deadline=None)
    def test_time_axis_stays_strictly_increasing(self, w, dt):
        # Every constructor/transform output upholds the core invariant.
        for out in (w, w.shifted(dt), w.resampled(n=7), w.derivative()):
            assert np.all(np.diff(out.times) > 0)

    @given(times_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_monotone_time_axis_is_rejected(self, t, data):
        perm = data.draw(st.permutations(range(len(t))))
        shuffled = [t[i] for i in perm]
        values = [0.0] * len(t)
        if shuffled == sorted(shuffled):
            Waveform(shuffled, values)  # identity permutation: fine
        else:
            with pytest.raises(ValueError):
                Waveform(shuffled, values)

    @given(times_strategy, st.integers(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_sample_time_is_rejected(self, t, pick):
        k = pick % (len(t) - 1)
        dup = t[:k + 1] + [t[k]] + t[k + 1:]
        with pytest.raises(ValueError):
            Waveform(dup, [0.0] * len(dup))

    @given(waveforms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_resample_onto_nonuniform_superset_preserves_polyline(self, w, data):
        # Adaptive results are piecewise-linear records on non-uniform
        # axes; adding interpolated sample points (any strictly-increasing
        # superset grid) must not move the curve: original samples are
        # reproduced exactly and crossing times are unchanged.
        k = data.draw(st.integers(min_value=0, max_value=len(w.times) - 2))
        frac = data.draw(st.floats(min_value=0.25, max_value=0.75))
        extra = w.times[k] + frac * (w.times[k + 1] - w.times[k])
        grid = np.union1d(w.times, [extra])
        r = w.resampled(times=grid)
        pos = np.searchsorted(grid, w.times)
        np.testing.assert_array_equal(r.values[pos], w.values)
        level = data.draw(st.floats(min_value=-0.4, max_value=1.9))
        np.testing.assert_allclose(r.crossings(level), w.crossings(level),
                                   rtol=0, atol=1e-21)

    @given(st.floats(min_value=1e-11, max_value=1e-9),
           st.lists(st.integers(min_value=1, max_value=400),
                    min_size=4, max_size=30, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_ramp_slew_invariant_on_nonuniform_axes(self, slew, ticks):
        # A saturated ramp resampled onto an arbitrary non-uniform axis
        # that covers its span keeps its measured slew and arrival: the
        # invariant the golden-grid harness relies on when comparing
        # adaptive (non-uniform) and fixed-grid records.
        w = Waveform.ramp(t_start=1e-10, slew=slew, vdd=VDD)
        span = w.t_end - w.t_start
        grid = np.union1d(w.times,
                          w.t_start + span * np.asarray(sorted(ticks)) / 401.0)
        r = w.resampled(times=grid)
        assert r.slew(VDD) == pytest.approx(w.slew(VDD), rel=1e-9, abs=1e-21)
        assert r.cross_time(VDD / 2) == pytest.approx(w.cross_time(VDD / 2),
                                                      rel=0, abs=1e-21)

    @given(st.floats(min_value=1e-12, max_value=1e-9),
           st.floats(min_value=0.0, max_value=5e-9),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_ramp_slew_measurement_roundtrips(self, slew, t_start, rising):
        # Band traversal of a clean saturated ramp: the measured 10-90
        # transition time recovers the constructor's slew, and the band
        # is entered before it is exited (the invariant Waveform.slew
        # enforces by raising on inverted traversals).
        w = Waveform.ramp(t_start=t_start, slew=slew, vdd=VDD, rising=rising)
        assert w.slew(VDD) == pytest.approx(slew, rel=1e-9, abs=1e-21)
        assert w.slew(VDD, mode="clean") == pytest.approx(slew, rel=1e-9, abs=1e-21)
        lo, hi = w.critical_region(VDD)
        assert hi > lo


# ----------------------------------------------------------------------
# Ramp invariants
# ----------------------------------------------------------------------
class TestRampProperties:
    @given(ramps())
    @settings(max_examples=80, deadline=None)
    def test_arrival_slew_roundtrip(self, r):
        again = SaturatedRamp.from_arrival_slew(r.arrival_time(), r.slew(), VDD,
                                                rising=r.rising)
        assert again.a == pytest.approx(r.a, rel=1e-9)
        assert again.b == pytest.approx(r.b, rel=1e-6, abs=1e-9)

    @given(ramps(), st.floats(min_value=-1e-9, max_value=1e-9))
    @settings(max_examples=80, deadline=None)
    def test_shift_moves_arrival_linearly(self, r, dt):
        assert r.shifted(dt).arrival_time() == pytest.approx(
            r.arrival_time() + dt, abs=1e-15)

    @given(ramps())
    @settings(max_examples=80, deadline=None)
    def test_clamped_evaluation_within_rails(self, r):
        ts = np.linspace(r.t_begin - 1e-9, r.t_finish + 1e-9, 33)
        vals = np.asarray(r(ts))
        assert np.all(vals >= 0.0) and np.all(vals <= VDD)

    @given(ramps())
    @settings(max_examples=80, deadline=None)
    def test_waveform_agrees_with_callable(self, r):
        w = r.to_waveform(r.t_begin - 0.5e-9, r.t_finish + 0.5e-9)
        ts = np.linspace(w.t_start, w.t_end, 17)
        assert np.allclose(np.asarray(w(ts)), np.asarray(r(ts)), atol=1e-9)


# ----------------------------------------------------------------------
# Weighted line fit invariants
# ----------------------------------------------------------------------
class TestFitProperties:
    @given(
        st.floats(min_value=-5e9, max_value=5e9).filter(lambda a: abs(a) > 1e6),
        st.floats(min_value=-5.0, max_value=5.0),
        st.integers(min_value=5, max_value=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_line_recovery(self, a, b, n):
        t = np.linspace(1e-9, 3e-9, n)
        v = a * t + b
        fa, fb = fit_line_weighted(t, v)
        assert fa == pytest.approx(a, rel=1e-6)
        assert fa * 2e-9 + fb == pytest.approx(a * 2e-9 + b, abs=1e-6)

    @given(st.integers(min_value=5, max_value=40),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_weight_scaling_invariance(self, n, scale):
        rng = np.random.default_rng(n)
        t = np.linspace(0.0, 1e-9, n)
        v = 1e9 * t + rng.normal(0, 0.01, n)
        w = rng.uniform(0.1, 1.0, n)
        a1, b1 = fit_line_weighted(t, v, w)
        a2, b2 = fit_line_weighted(t, v, w * scale)
        assert a1 == pytest.approx(a2, rel=1e-9)
        assert b1 == pytest.approx(b2, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# NLDM table invariants
# ----------------------------------------------------------------------
@st.composite
def tables(draw):
    n_s = draw(st.integers(min_value=2, max_value=6))
    n_l = draw(st.integers(min_value=2, max_value=6))
    slews = np.cumsum(draw(st.lists(st.floats(min_value=1e-12, max_value=1e-10),
                                    min_size=n_s, max_size=n_s)))
    loads = np.cumsum(draw(st.lists(st.floats(min_value=1e-16, max_value=1e-14),
                                    min_size=n_l, max_size=n_l)))
    vals = np.array(draw(st.lists(
        st.lists(st.floats(min_value=1e-12, max_value=1e-9),
                 min_size=n_l, max_size=n_l),
        min_size=n_s, max_size=n_s)))
    return NldmTable(slews, loads, vals)


class TestNldmProperties:
    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_grid_points_exact(self, table):
        for i, s in enumerate(table.input_slews):
            for j, ld in enumerate(table.loads):
                assert table.lookup(float(s), float(ld)) == pytest.approx(
                    table.values[i, j], rel=1e-9)

    @given(tables(), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_interior_lookup_within_cell_bounds(self, table, fs, fl):
        s = table.input_slews[0] + fs * (table.input_slews[-1] - table.input_slews[0])
        ld = table.loads[0] + fl * (table.loads[-1] - table.loads[0])
        val = table.lookup(float(s), float(ld))
        assert table.values.min() - 1e-15 <= val <= table.values.max() + 1e-15


# ----------------------------------------------------------------------
# Result-store key invariants
# ----------------------------------------------------------------------
_OPTION_VALUES = {
    "abstol": [1e-6, 2e-6, 1e-7],
    "max_newton": [40, 60, 80],
    "max_halvings": [8, 10, 12],
    "v_limit": [0.5, 0.6, 0.7],
    "backend": ["auto", "dense", "banded", "sparse"],
    "lte_rtol": [5e-7, 1e-6, 1e-7],
    "lte_atol": [2e-7, 1e-7, 4e-7],
    "max_step": [0.0, 64e-12, 256e-12],
    "min_step": [0.0, 0.5e-12],
}
_OPTION_FIELDS = {name: st.sampled_from(values)
                  for name, values in _OPTION_VALUES.items()}


def _store_job(options: TransientOptions,
               initial: "dict[str, float] | None" = None) -> TransientJob:
    c = Circuit("rc")
    c.vsource("Vin", "a", "0", RampSource(50e-12, 100e-12, 0.0, VDD))
    c.resistor("R1", "a", "b", 1e3)
    c.capacitor("C1", "b", "0", 20e-15)
    return TransientJob(c, t_stop=0.5e-9, dt=2e-12, options=options,
                        initial_voltages=initial)


class TestStoreKeyProperties:
    @given(st.fixed_dictionaries(_OPTION_FIELDS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_key_is_stable_under_option_kwarg_order(self, opts, data):
        # Construct the same TransientOptions with the kwargs supplied in
        # a permuted dict order: the key must not notice.
        perm = data.draw(st.permutations(list(opts.items())))
        a = _store_job(TransientOptions(**opts))
        b = _store_job(TransientOptions(**dict(perm)))
        assert job_key(a) == job_key(b)

    @given(st.fixed_dictionaries(_OPTION_FIELDS),
           st.sampled_from(sorted(_OPTION_FIELDS)))
    @settings(max_examples=60, deadline=None)
    def test_any_option_change_changes_the_key(self, opts, field):
        alternatives = [v for v in _OPTION_VALUES[field] if v != opts[field]]
        changed = dict(opts, **{field: alternatives[0]})
        assert job_key(_store_job(TransientOptions(**opts))) != \
            job_key(_store_job(TransientOptions(**changed)))

    @given(st.dictionaries(st.sampled_from(["a", "b"]),
                           st.floats(min_value=0.0, max_value=1.2,
                                     allow_nan=False),
                           max_size=2),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_key_is_stable_under_initial_voltage_order(self, initial, data):
        perm = data.draw(st.permutations(list(initial.items())))
        a = _store_job(TransientOptions(), initial=initial)
        b = _store_job(TransientOptions(), initial=dict(perm))
        assert job_key(a) == job_key(b)

    @given(st.fixed_dictionaries({k: v for k, v in _OPTION_FIELDS.items()
                                  if k != "max_step"}))
    @settings(max_examples=60, deadline=None)
    def test_stepping_modes_never_alias(self, opts):
        # The store must re-key when only the stepping differs: strided
        # results live on a different grid and carry an LTE-sized
        # deviation, so replaying a fixed-grid (max_step = dt) entry for
        # a strided job (or vice versa) would be silent corruption.
        fixed = _store_job(TransientOptions(max_step=2e-12, **opts))
        strided = _store_job(TransientOptions(**opts))
        assert job_key(fixed) != job_key(strided)
