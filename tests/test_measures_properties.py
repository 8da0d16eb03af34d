"""Property tests of the measures on random amplitude batches (Hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from echochain.dynamics import FidelitySeries
from echochain.measures import compute_report

from _oracles import pairwise_rise_max, run_based_rhp

MEASURES = ("blp", "rhp", "nd_max", "nd_avg", "ng_max", "ng_avg")
FIELDS = MEASURES + ("clamp_events",)
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def amplitude_batches(draw, low: float = 0.0) -> FidelitySeries:
    """(t_cut + 1, m) series from 1 with amplitudes in [low, 1], some columns nonincreasing."""
    length = draw(st.integers(2, 25))
    width = draw(st.integers(1, 3))
    amp = draw(arrays(np.float64, (length, width), elements=st.floats(low, 1.0)))
    amp[0] = 1.0
    for j in range(width):
        if draw(st.booleans()):
            amp[:, j] = -np.sort(-amp[:, j])
    phase = draw(arrays(np.float64, (length, width), elements=st.floats(-np.pi, np.pi)))
    phase[0] = 0.0
    return FidelitySeries(amp * np.exp(1j * phase))


@PROPERTY_SETTINGS
@given(amplitude_batches())
def test_batch_columns_and_checkpoint_rows_match_single_reports(series):
    t_cut = series.t_cut
    batch = compute_report(series)
    prefixes = compute_report(series, checkpoints=range(1, t_cut + 1))
    for j in range(series.f.shape[1]):
        alone = compute_report(FidelitySeries(series.f[:, j]))
        for name in FIELDS:
            assert getattr(batch, name)[j] == getattr(alone, name), name
        for t in range(1, t_cut + 1):
            prefix = compute_report(FidelitySeries(series.f[: t + 1, j]))
            row = t - 1
            assert abs(prefixes.blp[row, j] - prefix.blp) <= 1e-12
            for name in FIELDS[1:]:
                assert getattr(prefixes, name)[row, j] == getattr(prefix, name), (name, t)


@PROPERTY_SETTINGS
@given(amplitude_batches())
def test_measure_invariants(series):
    report = compute_report(series)
    nonincreasing = np.all(np.diff(series.amplitude, axis=0) <= 0.0, axis=0)
    all_zero = np.all([getattr(report, name) == 0.0 for name in MEASURES], axis=0)
    assert np.array_equal(all_zero, nonincreasing)
    assert np.array_equal(report.rhp, report.ng_max)
    assert np.all(report.nd_avg <= report.nd_max + 1e-12)


@PROPERTY_SETTINGS
@given(amplitude_batches(low=1e-6))
def test_ng_max_is_the_max_scheme_on_an_independent_G(series):
    # G(t) is rhp of the prefix up to t, here from maximal rising runs of F, and the max
    # scheme on it from all pairs of times; no floor is reached above 1e-6.
    report = compute_report(series)
    amp = series.amplitude
    for j in range(amp.shape[1]):
        g = np.array([run_based_rhp(amp[: t + 1, j]) for t in range(len(amp))])
        assert abs(report.ng_max[j] - pairwise_rise_max(g)) <= 1e-12
